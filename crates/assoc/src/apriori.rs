//! The Apriori algorithm with apriori-gen candidate generation and
//! hash-tree candidate counting (§2.2.5).
//!
//! Phase I of association rule mining: find all frequent itemsets.
//! `apriori-gen` joins pairs of frequent k-itemsets sharing their k-1
//! smallest items and prunes prospective candidates with an infrequent
//! k-subset — "so successful in reducing the number of candidates that it
//! is used in every algorithm proposed since it was published".
//!
//! Candidate support counting uses the classic **hash tree**: interior
//! nodes hash the next item into buckets; leaves hold candidate lists.
//! For each transaction the tree is descended once per viable item path,
//! touching only candidates that share a prefix-hash with the
//! transaction. `CountingMethod::FlatMap` counts with a flat hashmap
//! instead (the ablation called out in DESIGN.md); the last measured A/B
//! of the two is in EXPERIMENTS.md ("Retired micro-benchmarks").

use crate::db::{is_subset, Item, Itemset, TransactionDb};
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

// ---------------------------------------------------------------------
// Hash tree.
// ---------------------------------------------------------------------

const FANOUT: usize = 8;
const MAX_LEAF: usize = 16;

enum HNode {
    Interior(Box<[usize; FANOUT]>),
    Leaf(Vec<(Itemset, u64, usize)>), // (candidate, last tid, count)
}

/// A hash tree over k-itemset candidates supporting one-pass transaction
/// counting.
pub struct HashTree {
    nodes: Vec<HNode>,
    k: usize,
    len: usize,
}

const NO_NODE: usize = usize::MAX;

impl HashTree {
    /// Build over candidates of uniform size `k`.
    pub fn new(candidates: Vec<Itemset>, k: usize) -> Self {
        let mut t = HashTree {
            nodes: vec![HNode::Leaf(Vec::new())],
            k,
            len: 0,
        };
        for c in candidates {
            assert_eq!(c.len(), k, "uniform candidate size required");
            t.insert(c);
        }
        t
    }

    fn hash(item: Item) -> usize {
        (item as usize) % FANOUT
    }

    fn insert(&mut self, cand: Itemset) {
        let mut node = 0usize;
        let mut depth = 0usize;
        loop {
            let routed = match &self.nodes[node] {
                HNode::Interior(children) => Some(children[Self::hash(cand[depth])]),
                HNode::Leaf(_) => None,
            };
            match routed {
                Some(child) => {
                    let child = if child == NO_NODE {
                        let id = self.nodes.len();
                        self.nodes.push(HNode::Leaf(Vec::new()));
                        if let HNode::Interior(children) = &mut self.nodes[node] {
                            children[Self::hash(cand[depth])] = id;
                        }
                        id
                    } else {
                        child
                    };
                    node = child;
                    depth += 1;
                }
                None => {
                    if let HNode::Leaf(list) = &mut self.nodes[node] {
                        list.push((cand, u64::MAX, 0));
                    }
                    self.len += 1;
                    // Split an overfull leaf unless we've consumed all k
                    // items of the prefix.
                    let overfull = matches!(
                        &self.nodes[node],
                        HNode::Leaf(list) if list.len() > MAX_LEAF
                    );
                    if overfull && depth < self.k {
                        self.split(node, depth);
                    }
                    return;
                }
            }
        }
    }

    fn split(&mut self, node: usize, depth: usize) {
        let list = match std::mem::replace(
            &mut self.nodes[node],
            HNode::Interior(Box::new([NO_NODE; FANOUT])),
        ) {
            HNode::Leaf(list) => list,
            HNode::Interior(_) => unreachable!("split target is a leaf"),
        };
        for (cand, tid, count) in list {
            let h = Self::hash(cand[depth]);
            let child = {
                let HNode::Interior(children) = &self.nodes[node] else {
                    unreachable!()
                };
                children[h]
            };
            let child = if child == NO_NODE {
                let id = self.nodes.len();
                self.nodes.push(HNode::Leaf(Vec::new()));
                if let HNode::Interior(children) = &mut self.nodes[node] {
                    children[h] = id;
                }
                id
            } else {
                child
            };
            if let HNode::Leaf(l) = &mut self.nodes[child] {
                l.push((cand, tid, count));
            }
        }
    }

    /// Count `txn` (with unique id `tid`) against all candidates.
    pub fn count_transaction(&mut self, txn: &[Item], tid: u64) {
        if txn.len() < self.k {
            return;
        }
        self.descend(0, 0, txn, tid);
    }

    fn descend(&mut self, node: usize, start: usize, txn: &[Item], tid: u64) {
        let children = match &mut self.nodes[node] {
            HNode::Leaf(list) => {
                for (cand, last, count) in list {
                    if *last != tid && is_subset(cand, txn) {
                        *last = tid;
                        *count += 1;
                    }
                }
                return;
            }
            HNode::Interior(children) => **children,
        };
        // Follow each distinct bucket reachable from the remaining
        // transaction items (at most FANOUT child visits), descending past
        // the first item that hashes there (prefix pruning).
        for (h, &child) in children.iter().enumerate() {
            if child == NO_NODE {
                continue;
            }
            if let Some(pos) = txn[start..].iter().position(|&i| Self::hash(i) == h) {
                self.descend(child, start + pos + 1, txn, tid);
            }
        }
    }

    /// Candidates with support ≥ `min_support`.
    pub fn frequent(&self, min_support: usize) -> Vec<(Itemset, usize)> {
        let mut out = Vec::new();
        for n in &self.nodes {
            if let HNode::Leaf(list) = n {
                for (cand, _, count) in list {
                    if *count >= min_support {
                        out.push((cand.clone(), *count));
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Number of candidates stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

// ---------------------------------------------------------------------
// Apriori proper.
// ---------------------------------------------------------------------

/// How candidate supports are counted in [`apriori_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountingMethod {
    /// The classic hash tree.
    HashTree,
    /// A flat `HashMap<Itemset, count>` with per-transaction subset
    /// enumeration avoided by scanning candidates (the naive baseline the
    /// hash tree is benchmarked against).
    FlatMap,
}

/// All frequent itemsets of `db` with absolute support ≥ `min_support`.
pub fn apriori(db: &TransactionDb, min_support: usize) -> FrequentItemsets {
    apriori_with(db, min_support, CountingMethod::HashTree)
}

/// [`apriori`] with an explicit counting method.
pub fn apriori_with(
    db: &TransactionDb,
    min_support: usize,
    method: CountingMethod,
) -> FrequentItemsets {
    let mut result = FrequentItemsets::new();
    // L1 from a direct item scan.
    let mut item_counts: BTreeMap<Item, usize> = BTreeMap::new();
    for t in db.transactions() {
        for &i in t {
            *item_counts.entry(i).or_default() += 1;
        }
    }
    let mut frequent_k: Vec<Itemset> = Vec::new();
    for (item, count) in item_counts {
        if count >= min_support {
            result.insert(vec![item], count);
            frequent_k.push(vec![item]);
        }
    }

    let mut k = 1;
    while !frequent_k.is_empty() {
        let candidates = apriori_gen(&frequent_k);
        if candidates.is_empty() {
            break;
        }
        let counted: Vec<(Itemset, usize)> = match method {
            CountingMethod::HashTree => {
                let mut tree = HashTree::new(candidates, k + 1);
                for (tid, t) in db.transactions().iter().enumerate() {
                    tree.count_transaction(t, tid as u64);
                }
                tree.frequent(min_support)
            }
            CountingMethod::FlatMap => {
                let mut counts: BTreeMap<Itemset, usize> =
                    candidates.into_iter().map(|c| (c, 0)).collect();
                for t in db.transactions() {
                    for (c, n) in counts.iter_mut() {
                        if is_subset(c, t) {
                            *n += 1;
                        }
                    }
                }
                counts
                    .into_iter()
                    .filter(|(_, n)| *n >= min_support)
                    .collect()
            }
        };
        frequent_k = counted.iter().map(|(c, _)| c.clone()).collect();
        for (c, n) in counted {
            result.insert(c, n);
        }
        k += 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn flatmap_and_hashtree_agree() {
        let db = kmart();
        for min_support in 1..=3 {
            assert_eq!(
                apriori_with(&db, min_support, CountingMethod::HashTree),
                apriori_with(&db, min_support, CountingMethod::FlatMap),
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
    fn hash_tree_splits_and_counts() {
        // Enough candidates to force leaf splits.
        let candidates: Vec<Itemset> = (0..40u32)
            .map(|i| {
                let mut v = vec![i % 7, 7 + i % 9, 20 + i % 11];
                v.sort_unstable();
                v.dedup();
                v
            })
            .filter(|v| v.len() == 3)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let expected = candidates.len();
        let mut tree = HashTree::new(candidates.clone(), 3);
        assert_eq!(tree.len(), expected);
        // A transaction containing everything counts every candidate once.
        let all: Itemset = (0..31).collect();
        tree.count_transaction(&all, 0);
        tree.count_transaction(&all, 1);
        let freq = tree.frequent(2);
        assert_eq!(freq.len(), expected);
        assert!(freq.iter().all(|(_, n)| *n == 2));
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
