//! The Partition algorithm (§2.2.5): divide-and-conquer frequent-itemset
//! mining in two database scans.
//!
//! 1. Partition the database horizontally.
//! 2. Mine each partition for *locally* frequent itemsets (any itemset
//!    globally frequent must be locally frequent in at least one
//!    partition at the proportional threshold — the algorithm's key
//!    observation).
//! 3. Merge local results into global candidates.
//! 4. One more scan counts the candidates' global supports exactly.
//!
//! Local mining uses sorted tid-lists with intersection (the original
//! paper's technique); the global recount reads the candidates' supports
//! from a `TidsetIndex`, as Apriori counts.

use crate::apriori::FrequentItemsets;
use crate::db::{Item, Itemset, TidsetIndex, TransactionDb};
use std::collections::BTreeMap;

/// Locally frequent itemsets of one partition via tid-list intersection.
fn local_frequent(part: &TransactionDb, local_min: usize) -> Vec<Itemset> {
    if part.is_empty() || local_min == 0 {
        // A zero threshold would enumerate the full powerset.
        return Vec::new();
    }
    // Vertical layout: item -> sorted tid list.
    let mut tidlists: BTreeMap<Item, Vec<u32>> = BTreeMap::new();
    for (tid, t) in part.transactions().iter().enumerate() {
        for &i in t {
            tidlists.entry(i).or_default().push(tid as u32);
        }
    }

    let mut result: Vec<Itemset> = Vec::new();
    // Frontier of (itemset, tidlist) with support >= local_min.
    let mut frontier: Vec<(Itemset, Vec<u32>)> = tidlists
        .into_iter()
        .filter(|(_, l)| l.len() >= local_min)
        .map(|(i, l)| (vec![i], l))
        .collect();
    for (s, _) in &frontier {
        result.push(s.clone());
    }

    while !frontier.is_empty() {
        let mut next = Vec::new();
        for a in 0..frontier.len() {
            for b in a + 1..frontier.len() {
                let (sa, la) = &frontier[a];
                let (sb, lb) = &frontier[b];
                let k = sa.len();
                if sa[..k - 1] != sb[..k - 1] {
                    continue; // lexicographic join as in apriori-gen
                }
                let inter = intersect(la, lb);
                if inter.len() >= local_min {
                    let mut s = sa.clone();
                    s.push(sb[k - 1]);
                    result.push(s.clone());
                    next.push((s, inter));
                }
            }
        }
        frontier = next;
    }
    result
}

fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Mine all frequent itemsets with the Partition algorithm using
/// `n_partitions` horizontal chunks. Produces exactly the same result as
/// [`crate::apriori::apriori`].
pub fn partition_mine(
    db: &TransactionDb,
    min_support: usize,
    n_partitions: usize,
) -> FrequentItemsets {
    assert!(n_partitions >= 1);
    if db.is_empty() {
        return FrequentItemsets::new();
    }
    let parts = db.partitions(n_partitions);

    // Steps 1–3: local mining and candidate merge.
    let mut candidates: std::collections::BTreeSet<Itemset> = std::collections::BTreeSet::new();
    for part in &parts {
        // Proportional local threshold, rounded up so that a globally
        // frequent itemset is locally frequent somewhere.
        let local_min = (min_support * part.len()).div_ceil(db.len()).max(1);
        for s in local_frequent(part, local_min) {
            candidates.insert(s);
        }
    }

    // Step 4: global recount, by length so that candidates sharing a
    // prefix sit next to each other (the set iterates in lexicographic
    // order, and the sort is stable).
    let mut candidates: Vec<Itemset> = candidates.into_iter().collect();
    candidates.sort_by_key(Vec::len);
    let counts = TidsetIndex::new(db).count(&candidates);
    candidates
        .into_iter()
        .zip(counts)
        .filter(|(_, n)| *n >= min_support)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::apriori;

    fn kmart() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 2, 3],
            vec![4, 1, 3, 5],
            vec![6, 4],
            vec![6, 5, 1],
        ])
    }

    #[test]
    fn partition_equals_apriori_kmart() {
        let db = kmart();
        for min_support in 1..=4 {
            for p in 1..=3 {
                assert_eq!(
                    partition_mine(&db, min_support, p),
                    apriori(&db, min_support),
                    "min_support={min_support} partitions={p}"
                );
            }
        }
    }

    #[test]
    fn partition_equals_apriori_random() {
        let mut state = 0xfeed_f00d_u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for trial in 0..6 {
            let txns: Vec<Vec<Item>> = (0..40)
                .map(|_| {
                    let len = 1 + rnd() % 5;
                    (0..len).map(|_| (rnd() % 8) as Item).collect()
                })
                .collect();
            let db = TransactionDb::new(txns);
            for (min_support, p) in [(3, 2), (5, 4), (8, 3)] {
                assert_eq!(
                    partition_mine(&db, min_support, p),
                    apriori(&db, min_support),
                    "trial {trial} min_support {min_support} partitions {p}"
                );
            }
        }
    }

    #[test]
    fn tidlist_intersection() {
        assert_eq!(intersect(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(intersect(&[], &[1]), Vec::<u32>::new());
        assert_eq!(intersect(&[1, 2], &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn single_partition_degenerates_gracefully() {
        let db = kmart();
        assert_eq!(partition_mine(&db, 2, 1), apriori(&db, 2));
    }

    #[test]
    fn more_partitions_than_transactions() {
        let db = kmart();
        assert_eq!(partition_mine(&db, 2, 10), apriori(&db, 2));
    }
}
