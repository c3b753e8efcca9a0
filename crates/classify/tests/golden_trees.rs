//! Golden trees: the `Debug` bytes of every tree the columnar engine
//! grows on fixed generated datasets, pinned as (length, FNV-1a-64)
//! pairs in `tests/fixtures/golden_trees.txt`.
//!
//! `golden_columnar` checks the engine against the reference choosers in
//! `split.rs`, which share the categorical search with the engine; a
//! change to that shared search moves both sides together and passes
//! there. These fixtures were rendered before the engine's categorical
//! split search was specialised, so any drift in a grown tree fails here.
//!
//! Cases:
//! * CART, C4.5 and NyuMiner (K = 3, Gini) on the seven Table 5.1
//!   datasets (seed 7, the first 1,200 rows, as `golden_columnar` grows);
//! * CART and C4.5 on the `vote` variants the `serve_light` benchmark
//!   serves (seeds 1 and 2, 24 variants each, all rows).
//!
//! Rewrite the fixture only for an intended change of answer: run
//! `cargo test -p classify --test golden_trees -- --ignored --nocapture`
//! and copy the printed lines into the fixture file.

use classify::impurity::Gini;
use classify::tree::{DecisionTree, GrowConfig, GrowRule};
use classify::{ColumnarIndex, Dataset};

const FIXTURE: &str = include_str!("fixtures/golden_trees.txt");

/// The Table 5.1 datasets `golden_columnar` grows (`letter` omitted).
const BENCHES: [&str; 7] = [
    "diabetes",
    "german",
    "mushrooms",
    "satimage",
    "smoking",
    "vote",
    "yeast",
];

/// Row cap of the Table 5.1 cases (`golden_columnar`'s).
const MAX_ROWS: usize = 1200;

/// `vote` variants per benchmark seed (the benchmark catalog's count).
const VARIANTS: usize = 24;

/// The benchmark catalog's sub-seed of variant `v` of a dataset.
fn sub_seed(seed: u64, v: usize, salt: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((v as u64) << 8) ^ salt
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One fixture line: case name, rendered length, FNV-1a-64 in hex.
fn line(
    name: &str,
    data: &Dataset,
    index: &ColumnarIndex,
    rows: &[usize],
    rule: &GrowRule,
) -> String {
    let tree = DecisionTree::grow_indexed(data, index, rows, rule, &GrowConfig::default());
    let text = format!("{tree:?}");
    format!("{name} {} {:016x}", text.len(), fnv1a64(text.as_bytes()))
}

/// Every case's fixture line, in fixture order.
fn render() -> Vec<String> {
    let mut out = Vec::new();
    for name in BENCHES {
        let data = datagen::benchmark(name, 7);
        let index = ColumnarIndex::build(&data);
        let rows: Vec<usize> = (0..data.len().min(MAX_ROWS)).collect();
        let nyuminer = GrowRule::NyuMiner {
            max_branches: 3,
            impurity: &Gini,
        };
        for (rule_name, rule) in [
            ("cart", GrowRule::Cart),
            ("c45", GrowRule::C45),
            ("nyuminer", nyuminer),
        ] {
            out.push(line(
                &format!("{name}-7-{rule_name}"),
                &data,
                &index,
                &rows,
                &rule,
            ));
        }
    }
    for seed in [1, 2] {
        for v in 0..VARIANTS {
            let data = datagen::benchmark("vote", sub_seed(seed, v, 4));
            let index = ColumnarIndex::build(&data);
            let rows = data.all_rows();
            for (rule_name, rule) in [("cart", GrowRule::Cart), ("c45", GrowRule::C45)] {
                out.push(line(
                    &format!("vote.{v}-{seed}-{rule_name}"),
                    &data,
                    &index,
                    &rows,
                    &rule,
                ));
            }
        }
    }
    out
}

#[test]
fn grown_trees_match_fixture_bytes() {
    let expected: Vec<&str> = FIXTURE.lines().collect();
    let actual = render();
    assert_eq!(
        expected.len(),
        actual.len(),
        "fixture has a different case count"
    );
    let diverged: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| **e != a.as_str())
        .map(|(e, a)| format!("expected {e}\n     got {a}"))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {} trees diverge:\n{}",
        diverged.len(),
        actual.len(),
        diverged.join("\n")
    );
}

#[test]
#[ignore = "prints the fixture; run with --ignored --nocapture to re-record"]
fn print_fixture() {
    for l in render() {
        println!("{l}");
    }
}
