//! Golden outputs of the itemset miners: the rendered
//! (`format!("{:?}")`, as the service renders responses)
//! `FrequentItemsets` of Apriori on fixed generated basket databases,
//! compared byte for byte with committed fixtures.
//!
//! Two shapes: `baskets` is the `serve_light` benchmark workload's
//! catalog dataset and request (200 transactions, support 30), whose
//! tidsets fit one 64-bit word; `store` is the `market_baskets`
//! example's database (2,000 transactions over 120 items, support 40),
//! whose tidsets span 32 words. The fixtures were rendered by the
//! hash-tree counter that preceded the vertical tidset count, so any
//! drift in a support count fails here. Apriori, Partition, the E-dag
//! traversal and the parallel count-distribution miner must all
//! reproduce them.
//!
//! A fixture file is `tests/fixtures/apriori/<case>-<seed>.txt`, holding
//! exactly the rendered result; rewrite one only for an intended change
//! of answer.

use fpdm::assoc::{apriori, parallel_apriori, partition_mine, ItemsetMiningProblem, TransactionDb};
use fpdm::core::{sequential_edt, ParallelConfig};
use fpdm::datagen::{basket_db, BasketSpec};
use std::path::PathBuf;
use std::sync::Arc;

/// Dataset seeds every case runs on.
const SEEDS: [u64; 4] = [1, 2, 3, 4];

/// The cases, by name: the database for a seed and the support threshold.
type Case = (&'static str, fn(u64) -> TransactionDb, usize);

fn cases() -> [Case; 2] {
    [
        (
            "baskets",
            |seed| {
                basket_db(
                    &BasketSpec {
                        transactions: 200,
                        ..BasketSpec::default()
                    },
                    seed,
                )
            },
            30,
        ),
        (
            "store",
            |seed| {
                basket_db(
                    &BasketSpec {
                        transactions: 2000,
                        items: 120,
                        ..BasketSpec::default()
                    },
                    seed,
                )
            },
            40,
        ),
    ]
}

fn fixture(case: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/apriori")
        .join(format!("{case}-{seed}.txt"))
}

#[test]
fn itemset_miners_match_apriori_goldens() {
    let farm = ParallelConfig::load_balanced(3);
    for (case, db_for, min_support) in cases() {
        for seed in SEEDS {
            let path = fixture(case, seed);
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            let db = db_for(seed);
            let check = |miner: &str, text: String| {
                assert_eq!(text, golden, "{case} seed {seed}: {miner}");
            };
            check("apriori", format!("{:?}", apriori(&db, min_support)));
            check(
                "partition",
                format!("{:?}", partition_mine(&db, min_support, 4)),
            );
            let problem = ItemsetMiningProblem::new(db.clone(), min_support);
            check(
                "e-dag",
                format!("{:?}", problem.report(&sequential_edt(&problem))),
            );
            check(
                "parallel",
                format!("{:?}", parallel_apriori(Arc::new(db), min_support, &farm)),
            );
        }
    }
}
