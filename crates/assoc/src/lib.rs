//! # `assoc` — association rule mining
//!
//! The market-basket application class of *Free Parallel Data Mining*
//! (§2.2, Fig. 3.2/3.7): find all frequent itemsets of a transaction
//! database (phase I) and construct all confident rules from them (phase
//! II).
//!
//! Phase I is implemented three ways, all producing identical results
//! (cross-checked by tests):
//!
//! * [`apriori::apriori`] — the classic level-wise algorithm with
//!   apriori-gen candidate generation and **hash-tree** counting;
//! * [`partition::partition_mine`] — the two-scan Partition algorithm
//!   with vertical tid-list local mining;
//! * [`edag::ItemsetMiningProblem`] — the itemset lattice as a
//!   [`fpdm_core::MiningProblem`], runnable on any E-dag/E-tree traversal
//!   (this is the dissertation's point: the framework subsumes Apriori);
//! * [`parallel::parallel_apriori`] — PEAR-style count distribution over
//!   PLinda workers (§2.2.6).
//!
//! ```
//! use assoc::{apriori, generate_rules, TransactionDb};
//!
//! // The K-mart example of Table 2.2 (pamper=1, soap=2, lipstick=3,
//! // soda=4, candy=5, beer=6).
//! let db = TransactionDb::new(vec![
//!     vec![1, 2, 3], vec![4, 1, 3, 5], vec![6, 4], vec![6, 5, 1],
//! ]);
//! let frequent = apriori(&db, 2);
//! let rules = generate_rules(&frequent, 0.6);
//! // "Pampers sell well, and lipsticks usually go with them."
//! assert!(rules.iter().any(|r| r.antecedent == vec![1] && r.consequent == vec![3]));
//! ```

#![warn(missing_docs)]

pub mod apriori;
pub mod db;
pub mod edag;
pub mod parallel;
pub mod partition;
pub mod rules;

pub use apriori::{apriori, apriori_gen, apriori_with, CountingMethod, FrequentItemsets, HashTree};
pub use db::{is_subset, Item, Itemset, TransactionDb};
pub use edag::ItemsetMiningProblem;
pub use parallel::parallel_apriori;
pub use partition::partition_mine;
pub use rules::{generate_rules, AssociationRule};
