//! Association rule mining (§2.2): the K-mart example plus a synthetic
//! Quest-style database, mined by Apriori, Partition, the E-dag
//! framework, and the PEAR-style parallel miner — all agreeing.
//!
//! ```text
//! cargo run --release -p fpdm --example market_baskets
//! ```

use fpdm::assoc::{
    apriori, generate_rules, parallel_apriori, partition_mine, ItemsetMiningProblem, TransactionDb,
};
use fpdm::core::{sequential_edt, ParallelConfig};
use fpdm::datagen::{basket_db, BasketSpec};
use std::sync::Arc;

fn main() {
    // Table 2.2's imaginary K-mart database:
    // pamper=1 soap=2 lipstick=3 soda=4 candy=5 beer=6.
    let items = ["", "pamper", "soap", "lipstick", "soda", "candy", "beer"];
    let kmart = TransactionDb::new(vec![
        vec![1, 2, 3],
        vec![4, 1, 3, 5],
        vec![6, 4],
        vec![6, 5, 1],
    ]);
    let frequent = apriori(&kmart, 2);
    println!("K-mart frequent itemsets (support >= 2):");
    for (set, supp) in &frequent {
        let names: Vec<&str> = set.iter().map(|&i| items[i as usize]).collect();
        println!("  {{{}}}: {supp}", names.join(", "));
    }
    println!("\nrules with confidence >= 60%:");
    for r in generate_rules(&frequent, 0.6) {
        let a: Vec<&str> = r.antecedent.iter().map(|&i| items[i as usize]).collect();
        let c: Vec<&str> = r.consequent.iter().map(|&i| items[i as usize]).collect();
        println!(
            "  ({}) -> ({})  supp {}  conf {:.0}%",
            a.join(","),
            c.join(","),
            r.support,
            r.confidence * 100.0
        );
    }

    // A larger synthetic store: four phase-I algorithms, one answer.
    let db = basket_db(
        &BasketSpec {
            transactions: 2000,
            items: 120,
            ..BasketSpec::default()
        },
        7,
    );
    let min_support = db.len() / 50;
    let a = apriori(&db, min_support);
    let p = partition_mine(&db, min_support, 4);
    let problem = ItemsetMiningProblem::new(db.clone(), min_support);
    let e = problem.report(&sequential_edt(&problem));
    let par = parallel_apriori(Arc::new(db), min_support, &ParallelConfig::load_balanced(4));
    assert_eq!(a, p, "Partition == Apriori");
    assert_eq!(a, e, "E-dag == Apriori");
    assert_eq!(a, par, "parallel count-distribution == Apriori");
    println!(
        "\nsynthetic store: {} frequent itemsets at support >= {min_support} \
         (Apriori == Partition == E-dag == parallel)",
        a.len()
    );
    let largest = a.keys().map(Vec::len).max().unwrap_or(0);
    println!("largest frequent itemset size: {largest}");
}
