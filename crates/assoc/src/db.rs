//! Transaction databases and itemsets (§2.2.2).
//!
//! `L = {i1, …, im}` is a set of items; `D` a set of variable-length
//! transactions over `L`. Itemsets are kept sorted and deduplicated so
//! subset tests are merges and lexicographic generation is canonical.

/// An item (literal).
pub type Item = u32;

/// A sorted, deduplicated set of items.
pub type Itemset = Vec<Item>;

/// A market-basket transaction database.
#[derive(Debug, Clone)]
pub struct TransactionDb {
    transactions: Vec<Itemset>,
    items: Vec<Item>,
}

impl TransactionDb {
    /// Build from raw transactions (normalised: sorted, deduped; empty
    /// transactions dropped).
    pub fn new(raw: Vec<Vec<Item>>) -> Self {
        let mut transactions: Vec<Itemset> = raw
            .into_iter()
            .map(|mut t| {
                t.sort_unstable();
                t.dedup();
                t
            })
            .filter(|t| !t.is_empty())
            .collect();
        transactions.shrink_to_fit();
        let mut items: Vec<Item> = transactions
            .iter()
            .flatten()
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        items.sort_unstable();
        TransactionDb {
            transactions,
            items,
        }
    }

    /// The transactions.
    pub fn transactions(&self) -> &[Itemset] {
        &self.transactions
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// All distinct items, ascending.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Absolute support count of `itemset` (one full scan): the
    /// horizontal definition, which the miners' tests check against;
    /// the miners themselves count through a `TidsetIndex`.
    pub fn support(&self, itemset: &[Item]) -> usize {
        self.transactions
            .iter()
            .filter(|t| is_subset(itemset, t))
            .count()
    }

    /// A horizontal slice `[from, to)` of the database (used by Partition
    /// and by the count-distribution parallel miner).
    pub fn slice(&self, from: usize, to: usize) -> TransactionDb {
        TransactionDb::new(self.transactions[from..to].to_vec())
    }

    /// Split into `p` near-equal horizontal partitions.
    pub fn partitions(&self, p: usize) -> Vec<TransactionDb> {
        assert!(p >= 1);
        let n = self.len();
        (0..p)
            .map(|i| self.slice(i * n / p, (i + 1) * n / p))
            .collect()
    }
}

/// Is sorted `a` a subset of sorted `b`? (Linear merge.)
pub fn is_subset(a: &[Item], b: &[Item]) -> bool {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// A vertical view of a transaction database: one bitset over
/// transaction ids per distinct item, so a support count is the
/// popcount of an AND.
///
/// Transaction `t` is bit `t % 64` of word `t / 64` of its items'
/// columns; the tail bits of each column's last word are zero. The
/// columns live in one flat slab of `distinct items × ⌈n/64⌉` words,
/// which is the index's whole memory: counting keeps no per-level
/// tidsets, only one reused prefix buffer of `⌈n/64⌉` words.
pub(crate) struct TidsetIndex {
    n: usize,
    words: usize,
    items: Vec<Item>,
    slab: Vec<u64>,
}

impl TidsetIndex {
    /// Build over all of `db`'s transactions (for a horizontal part,
    /// over [`TransactionDb::slice`] or [`TransactionDb::partitions`]).
    pub(crate) fn new(db: &TransactionDb) -> Self {
        let (n, items) = (db.len(), db.items().to_vec());
        let words = n.div_ceil(64);
        let mut slab = vec![0u64; items.len() * words];
        for (tid, t) in db.transactions().iter().enumerate() {
            let (word, bit) = (tid / 64, 1u64 << (tid % 64));
            for item in t {
                let col = items
                    .binary_search(item)
                    .expect("db.items() lists every item of its transactions");
                slab[col * words + word] |= bit;
            }
        }
        TidsetIndex {
            n,
            words,
            items,
            slab,
        }
    }

    /// The distinct items, ascending.
    pub(crate) fn items(&self) -> &[Item] {
        &self.items
    }

    /// The tidset of `item`, or `None` if no transaction holds it.
    fn column(&self, item: Item) -> Option<&[u64]> {
        let col = self.items.binary_search(&item).ok()?;
        Some(&self.slab[col * self.words..(col + 1) * self.words])
    }

    /// Absolute support of the sorted `itemset`: the popcount of the AND
    /// of its items' columns. The empty itemset is in every transaction.
    pub(crate) fn support(&self, itemset: &[Item]) -> usize {
        self.count(&[itemset.to_vec()])[0]
    }

    /// Absolute supports of `candidates`, in order. Each candidate's
    /// prefix (all but its last item) is ANDed into one reused buffer,
    /// once per run of candidates sharing it, and the candidate costs one
    /// AND + popcount against its last item's column. `apriori_gen`
    /// emits the candidates of each prefix next to each other, so a
    /// level costs one prefix AND per distinct prefix; any other order
    /// gives the same counts, only more prefix ANDs.
    pub(crate) fn count(&self, candidates: &[Itemset]) -> Vec<usize> {
        let mut buffer = vec![0u64; self.words];
        let mut prefix: Option<&[Item]> = None;
        candidates
            .iter()
            .map(|cand| {
                let Some((&last, head)) = cand.split_last() else {
                    return self.n;
                };
                let Some(col) = self.column(last) else {
                    return 0;
                };
                if prefix != Some(head) {
                    prefix = Some(head);
                    self.and_into(head, &mut buffer);
                }
                popcount_and(&buffer, col)
            })
            .collect()
    }

    /// Write the AND of `itemset`'s columns into `buffer`: all ones for
    /// the empty itemset, all zeros if an item is absent.
    fn and_into(&self, itemset: &[Item], buffer: &mut [u64]) {
        buffer.fill(!0);
        for &item in itemset {
            let Some(col) = self.column(item) else {
                return buffer.fill(0);
            };
            for (b, c) in buffer.iter_mut().zip(col) {
                *b &= c;
            }
        }
    }
}

/// Popcount of `a AND b`.
fn popcount_and(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The K-mart example of Table 2.2.
    pub fn kmart() -> TransactionDb {
        // pamper=1, soap=2, lipstick=3, soda=4, candy=5, beer=6.
        TransactionDb::new(vec![
            vec![1, 2, 3],
            vec![4, 1, 3, 5],
            vec![6, 4],
            vec![6, 5, 1],
        ])
    }

    #[test]
    fn kmart_supports() {
        let db = kmart();
        assert_eq!(db.len(), 4);
        assert_eq!(db.support(&[1]), 3); // pampers in 75% of transactions
        assert_eq!(db.support(&[1, 3]), 2); // pamper & lipstick
        assert_eq!(db.support(&[6]), 2);
        assert_eq!(db.support(&[2, 6]), 0);
        assert_eq!(db.support(&[]), 4);
    }

    #[test]
    fn normalisation() {
        let db = TransactionDb::new(vec![vec![3, 1, 3, 2], vec![], vec![5]]);
        assert_eq!(db.len(), 2);
        assert_eq!(db.transactions()[0], vec![1, 2, 3]);
        assert_eq!(db.items(), &[1, 2, 3, 5]);
    }

    #[test]
    fn subset_merge() {
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[1]));
        assert!(!is_subset(&[1], &[]));
    }

    #[test]
    fn partitions_cover_everything() {
        let db = TransactionDb::new((0..10).map(|i| vec![i, i + 1]).collect());
        let parts = db.partitions(3);
        assert_eq!(parts.iter().map(TransactionDb::len).sum::<usize>(), 10);
        assert_eq!(parts.len(), 3);
    }

    /// `n` transactions over items 0..14 (item 0 in every one), each
    /// sorted and deduplicated.
    fn striped(n: u32) -> TransactionDb {
        TransactionDb::new(
            (0..n)
                .map(|t| vec![0, 1 + t % 3, 4 + t % 5, 9 + (t * 7) % 6])
                .collect(),
        )
    }

    #[test]
    fn tidset_index_counts_across_word_boundaries() {
        // No words, one word short of a bit, one full word, one word and
        // a bit, three words.
        for n in [0, 63, 64, 65, 129] {
            let db = striped(n);
            let index = TidsetIndex::new(&db);
            assert_eq!(index.items(), db.items(), "n={n}");
            // Every itemset of up to three items, plus an absent item.
            let mut universe: Vec<Item> = (0..15).collect();
            universe.push(99);
            let mut sets: Vec<Itemset> = vec![vec![]];
            for &a in &universe {
                sets.push(vec![a]);
                for &b in universe.iter().filter(|&&b| b > a) {
                    sets.push(vec![a, b]);
                    for &c in universe.iter().filter(|&&c| c > b) {
                        sets.push(vec![a, b, c]);
                    }
                }
            }
            let counts = index.count(&sets);
            for (set, &count) in sets.iter().zip(&counts) {
                assert_eq!(index.support(set), db.support(set), "n={n} {set:?}");
                assert_eq!(count, db.support(set), "n={n} {set:?} counted");
            }
            assert_eq!(
                index.support(&[0]),
                n as usize,
                "n={n}: tail bits stay zero"
            );
        }
    }

    #[test]
    fn tidset_index_absent_and_empty_itemsets() {
        let db = kmart();
        let index = TidsetIndex::new(&db);
        assert_eq!(index.support(&[]), 4);
        assert_eq!(index.support(&[7]), 0);
        assert_eq!(index.support(&[1, 7]), 0);
        // An absent prefix item zeroes its run; the next prefix recovers.
        let sets = vec![
            vec![],
            vec![0, 1],
            vec![0, 3],
            vec![1, 3],
            vec![1, 5],
            vec![7],
        ];
        assert_eq!(index.count(&sets), vec![4, 0, 0, 2, 2, 0]);
        let empty = TidsetIndex::new(&TransactionDb::new(vec![]));
        assert_eq!(empty.support(&[]), 0);
        assert_eq!(empty.support(&[1]), 0);
        assert_eq!(empty.count(&[vec![], vec![1], vec![1, 2]]), vec![0, 0, 0]);
    }

    #[test]
    fn subset_support_dominance() {
        // Property 1 of §2.2.3: A ⊆ B implies supp(A) >= supp(B).
        let db = kmart();
        let sets: Vec<Vec<Item>> = vec![vec![1], vec![1, 3], vec![1, 3, 5], vec![4], vec![4, 5]];
        for b in &sets {
            for a in &sets {
                if is_subset(a, b) {
                    assert!(db.support(a) >= db.support(b), "{a:?} vs {b:?}");
                }
            }
        }
    }
}
