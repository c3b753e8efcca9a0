//! The Apriori algorithm with apriori-gen candidate generation and
//! vertical candidate counting (§2.2.5).
//!
//! Phase I of association rule mining: find all frequent itemsets.
//! `apriori-gen` joins pairs of frequent k-itemsets sharing their k-1
//! smallest items and prunes prospective candidates with an infrequent
//! k-subset — "so successful in reducing the number of candidates that it
//! is used in every algorithm proposed since it was published".
//!
//! The levels and the candidates are the paper's; only the count is
//! vertical. A `TidsetIndex` (`db.rs`) holds one bitset over transaction
//! ids per item, L1 is its column popcounts, and each level's candidates
//! are counted by one AND + popcount apiece against their shared
//! prefix, where the hash tree of the original
//! algorithm descends once per transaction. The last measured A/B of
//! the two is in EXPERIMENTS.md ("Retired micro-benchmarks").

use crate::db::{Itemset, TidsetIndex, TransactionDb};
use std::collections::BTreeMap;

/// Result of a frequent-itemset mining run: itemset → absolute support.
pub type FrequentItemsets = BTreeMap<Itemset, usize>;

/// `apriori-gen`: candidate (k+1)-itemsets from the frequent k-itemsets.
///
/// Join step: pairs sharing the first k-1 items; prune step: drop
/// prospective candidates with any infrequent k-subset (Property 3).
pub fn apriori_gen(frequent_k: &[Itemset]) -> Vec<Itemset> {
    let mut sorted: Vec<&Itemset> = frequent_k.iter().collect();
    sorted.sort();
    let set: std::collections::HashSet<&Itemset> = frequent_k.iter().collect();
    let mut out = Vec::new();
    for i in 0..sorted.len() {
        for j in i + 1..sorted.len() {
            let (a, b) = (sorted[i], sorted[j]);
            let k = a.len();
            if k == 0 || a[..k - 1] != b[..k - 1] {
                break; // sorted order: no later b shares the prefix
            }
            // Join: a ∪ b = a + b's last item (a < b lexicographically).
            let mut cand = a.clone();
            cand.push(b[k - 1]);
            // Prune: every k-subset (other than a and b) must be frequent.
            let frequent_subsets = (0..cand.len() - 2).all(|drop| {
                let sub: Itemset = cand
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| *idx != drop)
                    .map(|(_, &v)| v)
                    .collect();
                set.contains(&sub)
            });
            if frequent_subsets {
                out.push(cand);
            }
        }
    }
    out
}

/// All frequent itemsets of `db` with absolute support ≥ `min_support`.
pub fn apriori(db: &TransactionDb, min_support: usize) -> FrequentItemsets {
    let index = TidsetIndex::new(db);
    let mut result = FrequentItemsets::new();
    let mut candidates: Vec<Itemset> = index.items().iter().map(|&i| vec![i]).collect();
    while !candidates.is_empty() {
        let counts = index.count(&candidates);
        let mut frequent_k = Vec::new();
        for (c, n) in candidates.into_iter().zip(counts) {
            if n >= min_support {
                result.insert(c.clone(), n);
                frequent_k.push(c);
            }
        }
        candidates = apriori_gen(&frequent_k);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Item;

    fn kmart() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 2, 3],
            vec![4, 1, 3, 5],
            vec![6, 4],
            vec![6, 5, 1],
        ])
    }

    /// Brute-force frequent itemsets by enumerating the powerset of items.
    fn brute(db: &TransactionDb, min_support: usize) -> FrequentItemsets {
        let items = db.items().to_vec();
        let mut out = FrequentItemsets::new();
        let m = items.len();
        assert!(m <= 16, "brute force only for small item universes");
        for mask in 1u32..(1 << m) {
            let set: Itemset = (0..m)
                .filter(|&b| mask & (1 << b) != 0)
                .map(|b| items[b])
                .collect();
            let s = db.support(&set);
            if s >= min_support {
                out.insert(set, s);
            }
        }
        out
    }

    #[test]
    fn apriori_gen_join_and_prune() {
        // Frequent 2-itemsets {1,2},{1,3},{2,3},{2,4}: join gives {1,2,3}
        // (all subsets frequent) and {2,3,4} (pruned: {3,4} infrequent).
        let freq = vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![2, 4]];
        let cands = apriori_gen(&freq);
        assert_eq!(cands, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn apriori_matches_brute_force_kmart() {
        let db = kmart();
        for min_support in 1..=4 {
            assert_eq!(
                apriori(&db, min_support),
                brute(&db, min_support),
                "min_support={min_support}"
            );
        }
    }

    #[test]
    fn random_databases_match_brute_force() {
        let mut state = 0xdead_beef_u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for trial in 0..10 {
            let txns: Vec<Vec<Item>> = (0..30)
                .map(|_| {
                    let len = 1 + rnd() % 6;
                    (0..len).map(|_| (rnd() % 10) as Item).collect()
                })
                .collect();
            let db = TransactionDb::new(txns);
            for min_support in [2, 5, 8] {
                assert_eq!(
                    apriori(&db, min_support),
                    brute(&db, min_support),
                    "trial {trial} min_support {min_support}"
                );
            }
        }
    }

    #[test]
    fn empty_database() {
        let db = TransactionDb::new(vec![]);
        assert!(apriori(&db, 1).is_empty());
    }

    #[test]
    fn min_support_above_db_size() {
        let db = kmart();
        assert!(apriori(&db, 5).is_empty());
    }
}
