//! Golden equivalence suite: the presort-once columnar engine must
//! reproduce the classic per-node growth path **byte for byte** — same
//! tests, same thresholds, same class counts, same leaf labels — on the
//! seven benchmark datasets of Table 5.1 and under a property test over
//! random small datasets with missing values.

use classify::columnar::{columnar_best_split, columnar_c45_split};
use classify::impurity::{Entropy, Gini, Impurity};
use classify::split::{best_split, c45_split};
use classify::tree::{DecisionTree, GrowConfig, GrowRule};
use classify::{AttrValue, Attribute, ColumnarIndex, Dataset};
use proptest::prelude::*;

/// The Table 5.1 benchmark suite (the `letter` spec is omitted: 20k rows
/// × 16 numeric attributes is a bench workload, not a debug-mode test).
const BENCHES: [&str; 7] = [
    "diabetes",
    "german",
    "mushrooms",
    "satimage",
    "smoking",
    "vote",
    "yeast",
];

/// Cap on rows grown per dataset — keeps the reference path (which
/// re-sorts every numeric attribute at every node) affordable in debug
/// builds while still exercising every attribute and class.
const MAX_ROWS: usize = 1200;

fn rules() -> Vec<(&'static str, GrowRule<'static>)> {
    vec![
        (
            "nyuminer",
            GrowRule::NyuMiner {
                max_branches: 3,
                impurity: &Gini,
            },
        ),
        ("cart", GrowRule::Cart),
        ("c45", GrowRule::C45),
    ]
}

#[test]
fn columnar_trees_match_reference_on_benchmark_suite() {
    for name in BENCHES {
        let data = datagen::benchmark(name, 7);
        let rows: Vec<usize> = (0..data.len().min(MAX_ROWS)).collect();
        let index = ColumnarIndex::build(&data);
        for (rule_name, rule) in rules() {
            let reference =
                DecisionTree::grow_reference(&data, &rows, &rule, &GrowConfig::default());
            let columnar =
                DecisionTree::grow_indexed(&data, &index, &rows, &rule, &GrowConfig::default());
            assert_eq!(reference, columnar, "{name}: {rule_name} trees diverge");
        }
    }
}

#[test]
fn columnar_trees_match_reference_on_disjoint_subsets() {
    // CV folds and windowing trials grow over strict subsets of the rows
    // the index was built from; the engine must not assume all-rows.
    let data = datagen::benchmark("german", 7);
    let index = ColumnarIndex::build(&data);
    let evens: Vec<usize> = (0..data.len().min(MAX_ROWS)).step_by(2).collect();
    let odds: Vec<usize> = (1..data.len().min(MAX_ROWS)).step_by(2).collect();
    for rows in [&evens, &odds] {
        for (rule_name, rule) in rules() {
            let reference =
                DecisionTree::grow_reference(&data, rows, &rule, &GrowConfig::default());
            let columnar =
                DecisionTree::grow_indexed(&data, &index, rows, &rule, &GrowConfig::default());
            assert_eq!(reference, columnar, "{rule_name} trees diverge on subset");
        }
    }
}

#[test]
fn columnar_trees_match_reference_under_entropy_and_wide_branching() {
    // The non-default chooser configurations the drivers can request.
    let data = datagen::benchmark("vote", 7);
    let index = ColumnarIndex::build(&data);
    let rows = data.all_rows();
    for max_branches in [2, 4, 6] {
        let rule = GrowRule::NyuMiner {
            max_branches,
            impurity: &Entropy,
        };
        let reference = DecisionTree::grow_reference(&data, &rows, &rule, &GrowConfig::default());
        let columnar =
            DecisionTree::grow_indexed(&data, &index, &rows, &rule, &GrowConfig::default());
        assert_eq!(reference, columnar, "K={max_branches} trees diverge");
    }
}

/// A random small dataset: 1–3 attributes (numeric values drawn from a
/// small pool so duplicate values — shared baskets — are common,
/// categorical from a domain of 2–4 values, so two-valued attributes
/// meet both 2 and 3 classes), 2–3 classes, ~8% missing cells.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    // 0..8 ⇒ numeric from a 8-value pool, 8..11 ⇒ categorical,
    // 11 ⇒ missing (≈8% of cells).
    let cell = (0u8..12).prop_map(|v| match v {
        0..=7 => AttrValue::Num(v as f64 / 2.0),
        8..=10 => AttrValue::Cat((v - 8) as u16),
        _ => AttrValue::Missing,
    });
    (
        prop::collection::vec((prop::collection::vec(cell, 6..28), 2u16..=4), 1..4),
        2u16..4,
    )
        .prop_map(|(raw_cols, n_classes)| {
            let n_rows = raw_cols.iter().map(|(c, _)| c.len()).min().unwrap();
            // Each raw column becomes all-numeric or all-categorical,
            // decided by its first cell (missing ⇒ numeric); cells of the
            // other kind are folded into the column's kind.
            let mut attributes = Vec::new();
            let mut columns = Vec::new();
            for (a, (raw, cardinality)) in raw_cols.into_iter().enumerate() {
                let numeric = !matches!(raw[0], AttrValue::Cat(_));
                let col: Vec<AttrValue> = raw
                    .into_iter()
                    .take(n_rows)
                    .map(|v| match (numeric, v) {
                        (_, AttrValue::Missing) => AttrValue::Missing,
                        (true, AttrValue::Cat(c)) => AttrValue::Num(c as f64),
                        (false, AttrValue::Cat(c)) => AttrValue::Cat(c % cardinality),
                        (false, AttrValue::Num(x)) => {
                            AttrValue::Cat((x * 2.0) as u16 % cardinality)
                        }
                        (_, v) => v,
                    })
                    .collect();
                attributes.push(if numeric {
                    Attribute::Numeric {
                        name: format!("n{a}"),
                    }
                } else {
                    Attribute::Categorical {
                        name: format!("c{a}"),
                        values: (0..cardinality).map(|v| format!("v{v}")).collect(),
                    }
                });
                columns.push(col);
            }
            // Deterministic but value-dependent class labels, so classes
            // correlate with attributes often enough to produce splits.
            let classes: Vec<u16> = (0..n_rows)
                .map(|r| {
                    let h: usize = columns
                        .iter()
                        .map(|c| match &c[r] {
                            AttrValue::Num(v) => (*v * 2.0) as usize,
                            AttrValue::Cat(v) => *v as usize,
                            AttrValue::Missing => 5,
                        })
                        .sum();
                    (h % n_classes as usize) as u16
                })
                .collect();
            let class_names = (0..n_classes).map(|c| format!("k{c}")).collect();
            Dataset::new(attributes, columns, classes, class_names)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn columnar_choosers_match_brute_path(data in arb_dataset(), k_max in 2usize..5) {
        let index = ColumnarIndex::build(&data);
        let rows = data.all_rows();
        for imp in [&Gini as &dyn Impurity, &Entropy] {
            prop_assert_eq!(
                best_split(&data, &rows, k_max, imp),
                columnar_best_split(&data, &index, &rows, k_max, imp),
                "best_split diverges (k_max {})", k_max
            );
        }
        prop_assert_eq!(
            c45_split(&data, &rows),
            columnar_c45_split(&data, &index, &rows),
            "c45_split diverges"
        );
    }

    #[test]
    fn columnar_trees_match_reference_on_random_data(data in arb_dataset()) {
        let index = ColumnarIndex::build(&data);
        let rows = data.all_rows();
        for (rule_name, rule) in rules() {
            let reference = DecisionTree::grow_reference(&data, &rows, &rule, &GrowConfig::default());
            let columnar = DecisionTree::grow_indexed(&data, &index, &rows, &rule, &GrowConfig::default());
            prop_assert_eq!(&reference, &columnar, "{} trees diverge", rule_name);
        }
    }
}
