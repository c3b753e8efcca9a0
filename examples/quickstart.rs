//! Quickstart: define a pattern-lattice mining problem, solve it
//! sequentially and in parallel, and confirm the framework's equivalence
//! theorems on the spot.
//!
//! ```text
//! cargo run -p fpdm --example quickstart
//! ```

use fpdm::core::prelude::*;
use std::sync::Arc;

fn main() {
    // The toy protein database of §2.3.1 of the dissertation: find all
    // substrings occurring in at least two of the sequences.
    let problem = ToySeq::new(vec!["FFRR", "MRRM", "MTRM", "DPKY", "AVLG"], 2, usize::MAX);

    // Sequential E-dag traversal (maximal pruning)...
    let (edt, trace) = sequential_edt_traced(&problem);
    println!(
        "E-dag traversal: {} good patterns, {} goodness evaluations",
        edt.len(),
        edt.tested
    );

    // ...sequential E-tree traversal (parent-only pruning)...
    let ett = sequential_ett(&problem);
    println!(
        "E-tree traversal: {} good patterns, {} goodness evaluations",
        ett.len(),
        ett.tested
    );

    // ...and the parallel traversals on the PLinda runtime. Every
    // parallel driver takes its run parameters as one `ParallelConfig`.
    let arc = Arc::new(problem);
    let cfg = ParallelConfig::load_balanced(3).adaptive();
    let pled = parallel_edt(Arc::clone(&arc), &cfg);
    let plet = parallel_ett(Arc::clone(&arc), &cfg);
    let hybrid = parallel_hybrid(Arc::clone(&arc), &cfg, 1);

    // Theorems 1-4: every traversal finds the same good patterns.
    assert_eq!(edt.good, ett.good);
    assert_eq!(edt.good, pled.good);
    assert_eq!(edt.good, plet.good);
    assert_eq!(edt.good, hybrid.good);
    assert_eq!(edt.tested, pled.tested);
    // The E-dag's extra pruning shows in the evaluation counts.
    assert!(edt.tested <= ett.tested);
    println!(
        "skipped by E-dag subpattern pruning: {} candidates",
        trace.skipped.len()
    );

    println!("\nGood patterns (pattern: occurrence):");
    for (pattern, occurrence) in &edt.good {
        println!("  *{pattern}*: {occurrence}");
    }
}
