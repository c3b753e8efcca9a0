//! PEAR-style count-distribution parallel Apriori on the PLinda runtime
//! (§2.2.6).
//!
//! The scheme of Mueller's PEAR, which "can be effectively implemented on
//! networks of workstations": each worker owns a horizontal partition of
//! the database; at every level the master generates candidates
//! sequentially (apriori-gen), broadcasts them, and the workers count
//! local supports in parallel; the master sums the partial counts to
//! decide the frequent sets and generate the next level.
//!
//! Runs on a per-worker [`plinda::TaskFarm`]: the candidate broadcast is
//! one addressed task per worker (the task flag carries the level), and
//! candidate/count arrays travel as typed channel payloads through
//! `plinda::codec` instead of hand-rolled byte packing.

use crate::apriori::{apriori_gen, FrequentItemsets};
use crate::db::{Item, Itemset, TransactionDb};
use fpdm_core::ParallelConfig;
use plinda::{Dispatch, TaskFarm};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Parallel Apriori with count distribution over the workers of
/// `config`. Produces exactly [`crate::apriori::apriori`]'s result.
pub fn parallel_apriori(
    db: Arc<TransactionDb>,
    min_support: usize,
    config: &ParallelConfig,
) -> FrequentItemsets {
    let (n, workers) = (db.len(), config.workers);

    // Workers: count local supports for broadcast candidate sets. Each
    // worker's horizontal partition is derived from its farm index, so
    // every candidate broadcast is addressed to each worker.
    let w_db = Arc::clone(&db);
    let mut cfg = config.farm_config();
    cfg.dispatch = Dispatch::PerWorker;
    let name = config.farm_name("pear");
    let farm = TaskFarm::<Vec<Itemset>, (i64, i64, Vec<u32>)>::start(
        &name,
        cfg,
        move |scope, level, cands| {
            let w = scope.index();
            let (from, to) = (w * n / workers, (w + 1) * n / workers);
            let mut counts = vec![0u32; cands.len()];
            for txn in &w_db.transactions()[from..to] {
                for (ci, c) in cands.iter().enumerate() {
                    if crate::db::is_subset(c, txn) {
                        counts[ci] += 1;
                    }
                }
            }
            scope.result(&(w as i64, level, counts));
            Ok(())
        },
    );

    // Master: sequential candidate generation, parallel counting.
    let mut result = FrequentItemsets::new();
    let mut frequent_k: Vec<Itemset> = Vec::new();
    let mut level: i64 = 1;
    let mut candidates: Vec<Itemset> = db.items().iter().map(|&i| vec![i as Item]).collect();

    while !candidates.is_empty() {
        for w in 0..workers {
            farm.send_to(w, level, &candidates);
        }
        let mut totals: BTreeMap<usize, usize> = BTreeMap::new();
        for _ in 0..workers {
            let (_w, lvl, counts) = farm.recv();
            // Levels are strictly sequential: every in-flight count report
            // belongs to the level being collected.
            debug_assert_eq!(lvl, level);
            for (ci, c) in counts.iter().enumerate() {
                *totals.entry(ci).or_default() += *c as usize;
            }
        }
        frequent_k.clear();
        for (ci, count) in totals {
            if count >= min_support {
                result.insert(candidates[ci].clone(), count);
                frequent_k.push(candidates[ci].clone());
            }
        }
        candidates = apriori_gen(&frequent_k);
        level += 1;
    }

    config.finish_farm(&name, farm);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::apriori;

    fn db() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 2, 3],
            vec![4, 1, 3, 5],
            vec![6, 4],
            vec![6, 5, 1],
            vec![1, 3, 5],
            vec![2, 3, 4],
            vec![1, 2, 3, 4],
        ])
    }

    #[test]
    fn candidate_wire_format_roundtrips() {
        // Candidate sets ride the task channel as u32-list blobs; the
        // shared codec must reproduce them exactly.
        let cands: Vec<Itemset> = vec![vec![1, 2, 3], vec![7], vec![]];
        let enc = plinda::codec::encode_u32_lists(&cands);
        assert_eq!(plinda::codec::decode_u32_lists(&enc).unwrap(), cands);
    }

    #[test]
    fn parallel_equals_sequential() {
        let base = db();
        for workers in [1, 2, 4] {
            for min_support in [2, 3] {
                let config = ParallelConfig::load_balanced(workers);
                assert_eq!(
                    parallel_apriori(Arc::new(base.clone()), min_support, &config),
                    apriori(&base, min_support),
                    "workers={workers} min_support={min_support}"
                );
            }
        }
    }

    #[test]
    fn more_workers_than_transactions() {
        let base = TransactionDb::new(vec![vec![1, 2], vec![1, 2]]);
        assert_eq!(
            parallel_apriori(Arc::new(base.clone()), 2, &ParallelConfig::load_balanced(8)),
            apriori(&base, 2)
        );
    }

    #[test]
    fn parallel_survives_worker_kills() {
        // Enough counting work that the run outlasts the kill's delivery.
        let base = TransactionDb::new(
            (0..3000u32)
                .map(|t| (0..6).map(|j| (t * 7 + j * 13) % 17).collect())
                .collect(),
        );
        let reg = plinda::MetricsRegistry::new();
        let config = ParallelConfig::load_balanced(3)
            .kill_after(std::time::Duration::ZERO, 1)
            .with_metrics(reg.clone());
        assert_eq!(
            parallel_apriori(Arc::new(base.clone()), 300, &config),
            apriori(&base, 300)
        );
        let respawns = reg
            .snapshot()
            .sum_counters(|k| k.starts_with("farm.pear.worker.") && k.ends_with(".respawns"));
        assert!(respawns >= 1, "the kill landed");
    }
}
