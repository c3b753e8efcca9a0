//! Resident datasets and once-per-dataset shared indexes.
//!
//! The service's economic argument (ROADMAP: "mining as a service") is that
//! dataset preparation dominates small interactive jobs. The catalog makes
//! preparation a one-time cost: datasets are registered at startup, handed
//! out by `Arc` so concurrent jobs share them without copying, and a
//! classification table's presort ([`Dataset::index`], behind the
//! dataset's own `OnceLock`) is built lazily on first use and shared by
//! every subsequent request that names the table.
//! `service.index.built` / `service.index.hits` in the `fpdm.metrics.v1`
//! ledger record exactly how often the warm path pays off.
//!
//! The catalog is immutable after construction (the service holds it behind
//! an `Arc`), so lookups take no locks; only the dataset's index cell
//! synchronises, and only on first build.

use assoc::TransactionDb;
use classify::{ColumnarIndex, Dataset};
use episodes::EventSequence;
use plinda::metrics::MetricsRegistry;
use seqmine::Sequence;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use treemine::OrderedTree;

/// A resident classification table, whose presort builds lazily.
pub struct TableEntry {
    data: Arc<Dataset>,
    /// Has [`TableEntry::index`] been called yet?
    asked: AtomicBool,
}

impl TableEntry {
    /// The rows.
    pub fn data(&self) -> &Arc<Dataset> {
        &self.data
    }

    /// The table's shared presort, building it on first use. `reg` takes
    /// the build/hit accounting so the ledger shows index reuse: the first
    /// call counts as the build, every later one as a hit.
    pub fn index(&self, reg: &MetricsRegistry) -> Arc<ColumnarIndex> {
        let key = if self.asked.swap(true, Ordering::Relaxed) {
            "service.index.hits"
        } else {
            "service.index.built"
        };
        reg.counter(key).inc();
        Arc::clone(self.data.index())
    }
}

/// Named resident datasets, one map per mining domain.
#[derive(Default)]
pub struct DatasetCatalog {
    sequences: HashMap<String, Arc<Vec<Sequence>>>,
    trees: HashMap<String, Arc<Vec<OrderedTree>>>,
    events: HashMap<String, Arc<EventSequence>>,
    tables: HashMap<String, TableEntry>,
    baskets: HashMap<String, Arc<TransactionDb>>,
}

impl DatasetCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        DatasetCatalog::default()
    }

    /// Register a protein-family sequence set.
    pub fn add_sequences(&mut self, name: impl Into<String>, seqs: Vec<Sequence>) -> &mut Self {
        self.sequences.insert(name.into(), Arc::new(seqs));
        self
    }

    /// Register an ordered-tree set.
    pub fn add_trees(&mut self, name: impl Into<String>, trees: Vec<OrderedTree>) -> &mut Self {
        self.trees.insert(name.into(), Arc::new(trees));
        self
    }

    /// Register an event stream.
    pub fn add_events(&mut self, name: impl Into<String>, events: EventSequence) -> &mut Self {
        self.events.insert(name.into(), Arc::new(events));
        self
    }

    /// Register a classification table (its columnar index builds lazily).
    pub fn add_table(&mut self, name: impl Into<String>, data: Dataset) -> &mut Self {
        self.tables.insert(
            name.into(),
            TableEntry {
                data: Arc::new(data),
                asked: AtomicBool::new(false),
            },
        );
        self
    }

    /// Register a transaction database.
    pub fn add_baskets(&mut self, name: impl Into<String>, db: TransactionDb) -> &mut Self {
        self.baskets.insert(name.into(), Arc::new(db));
        self
    }

    /// Look up a sequence set.
    pub fn sequences(&self, name: &str) -> Option<&Arc<Vec<Sequence>>> {
        self.sequences.get(name)
    }

    /// Look up a tree set.
    pub fn trees(&self, name: &str) -> Option<&Arc<Vec<OrderedTree>>> {
        self.trees.get(name)
    }

    /// Look up an event stream.
    pub fn events(&self, name: &str) -> Option<&Arc<EventSequence>> {
        self.events.get(name)
    }

    /// Look up a classification table.
    pub fn table(&self, name: &str) -> Option<&TableEntry> {
        self.tables.get(name)
    }

    /// Look up a transaction database.
    pub fn baskets(&self, name: &str) -> Option<&Arc<TransactionDb>> {
        self.baskets.get(name)
    }

    /// Registered names across all domains, sorted (for logs and the
    /// `fpdm-serve` banner).
    pub fn names(&self) -> Vec<String> {
        let mut all: Vec<String> = self
            .sequences
            .keys()
            .chain(self.trees.keys())
            .chain(self.events.keys())
            .chain(self.tables.keys())
            .chain(self.baskets.keys())
            .cloned()
            .collect();
        all.sort();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_builds_once_and_counts_hits() {
        let mut cat = DatasetCatalog::new();
        cat.add_table("t", datagen::benchmarks::benchmark("vote", 7));
        let reg = MetricsRegistry::new();
        let entry = cat.table("t").unwrap();
        let a = entry.index(&reg);
        let b = entry.index(&reg);
        assert!(Arc::ptr_eq(&a, &b));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("service.index.built"), 1);
        assert_eq!(snap.counter("service.index.hits"), 1);
    }

    #[test]
    fn racing_first_calls_count_one_build() {
        let mut cat = DatasetCatalog::new();
        cat.add_table("t", datagen::benchmarks::benchmark("vote", 7));
        let reg = MetricsRegistry::new();
        let entry = cat.table("t").unwrap();
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Arc<ColumnarIndex>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        entry.index(&reg)
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(seen.iter().all(|i| Arc::ptr_eq(i, entry.data().index())));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("service.index.built"), 1);
        assert_eq!(snap.counter("service.index.hits"), 3);
    }

    #[test]
    fn names_span_all_domains() {
        let mut cat = DatasetCatalog::new();
        cat.add_sequences("s", Vec::new())
            .add_baskets("b", TransactionDb::new(vec![vec![1, 2]]));
        assert_eq!(cat.names(), ["b", "s"]);
    }
}
