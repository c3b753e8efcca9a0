//! Association rule mining as a pattern-lattice problem (Table 3.1, Fig.
//! 3.2): the itemset lattice under the E-dag framework, so that phase I
//! can run on any of the framework's sequential or parallel traversals.

use crate::apriori::FrequentItemsets;
use crate::db::{Item, Itemset, TransactionDb};
use fpdm_core::{MiningOutcome, MiningProblem, PatternCodec};

/// Frequent-itemset mining as a [`MiningProblem`]: patterns are sorted
/// itemsets; children extend with larger items (unique-parent = the
/// lexicographic prefix); immediate subpatterns are all `(k-1)`-subsets —
/// so the E-dag traversal performs exactly apriori-gen's prune step.
pub struct ItemsetMiningProblem {
    db: TransactionDb,
    min_support: usize,
}

impl ItemsetMiningProblem {
    /// Build over a database with an absolute support threshold.
    pub fn new(db: TransactionDb, min_support: usize) -> Self {
        ItemsetMiningProblem { db, min_support }
    }

    /// The database.
    pub fn db(&self) -> &TransactionDb {
        &self.db
    }

    /// Convert a traversal outcome into the [`FrequentItemsets`] map used
    /// by phase II.
    pub fn report(&self, outcome: &MiningOutcome<Itemset>) -> FrequentItemsets {
        outcome
            .good
            .iter()
            .map(|(s, &g)| (s.clone(), g as usize))
            .collect()
    }
}

impl MiningProblem for ItemsetMiningProblem {
    type Pattern = Itemset;

    fn root(&self) -> Itemset {
        Vec::new()
    }

    fn pattern_len(&self, p: &Itemset) -> usize {
        p.len()
    }

    fn children(&self, p: &Itemset) -> Vec<Itemset> {
        let last = p.last().copied();
        self.db
            .items()
            .iter()
            .filter(|&&i| last.is_none_or(|l| i > l))
            .map(|&i| {
                let mut c = p.clone();
                c.push(i);
                c
            })
            .collect()
    }

    fn immediate_subpatterns(&self, p: &Itemset) -> Vec<Itemset> {
        (0..p.len())
            .map(|drop| {
                p.iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, &v)| v)
                    .collect()
            })
            .collect()
    }

    fn goodness(&self, p: &Itemset) -> f64 {
        self.db.support(p) as f64
    }

    fn is_good(&self, _p: &Itemset, goodness: f64) -> bool {
        goodness >= self.min_support as f64
    }
}

impl PatternCodec for ItemsetMiningProblem {
    fn encode_pattern(&self, p: &Itemset) -> Vec<u8> {
        p.iter().flat_map(|i| i.to_le_bytes()).collect()
    }
    fn decode_pattern(&self, bytes: &[u8]) -> Itemset {
        bytes
            .chunks_exact(4)
            .map(|c| Item::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::apriori;
    use fpdm_core::{parallel_edt, parallel_ett, sequential_edt, ParallelConfig};
    use std::sync::Arc;

    fn db() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 2, 3],
            vec![4, 1, 3, 5],
            vec![6, 4],
            vec![6, 5, 1],
            vec![1, 3, 5],
            vec![2, 3, 4],
        ])
    }

    #[test]
    fn edag_equals_apriori() {
        let problem = ItemsetMiningProblem::new(db(), 2);
        let outcome = sequential_edt(&problem);
        assert_eq!(problem.report(&outcome), apriori(problem.db(), 2));
    }

    #[test]
    fn edag_tests_exactly_the_apriori_candidates() {
        // The EDT's subpattern check is apriori-gen's prune: the tested
        // count equals 1-itemsets + all generated candidates.
        let problem = ItemsetMiningProblem::new(db(), 3);
        let (outcome, trace) = fpdm_core::sequential_edt_traced(&problem);
        assert_eq!(outcome.tested as usize, trace.tested.len());
        // Every tested itemset of size >= 2 has all subsets frequent.
        let freq = apriori(problem.db(), 3);
        for t in &trace.tested {
            if t.len() >= 2 {
                for sub in problem.immediate_subpatterns(t) {
                    assert!(freq.contains_key(&sub), "{t:?} lacking {sub:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_traversals_equal_apriori() {
        let problem = Arc::new(ItemsetMiningProblem::new(db(), 2));
        let want = apriori(problem.db(), 2);
        let pled = parallel_edt(Arc::clone(&problem), &ParallelConfig::load_balanced(3));
        assert_eq!(problem.report(&pled), want);
        let plet = parallel_ett(Arc::clone(&problem), &ParallelConfig::load_balanced(3));
        assert_eq!(problem.report(&plet), want);
    }
}
