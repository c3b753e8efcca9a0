//! # `treemine` — motif discovery in RNA secondary structure trees
//!
//! The second biological application of the E-dag framework (§4.1.2 of
//! *Free Parallel Data Mining*): finding approximately common motifs in
//! multiple RNA secondary structures, represented as ordered labeled trees
//! in the Shapiro–Zhang scheme (hairpins, loops, bulges, stems).
//!
//! * [`tree`] — ordered labeled trees with a compact parse/display
//!   notation and a canonical preorder encoding;
//! * [`dist`] — Zhang–Shasha tree edit distance, plus the *cut* variant
//!   (free removal of complete data subtrees) and approximate subtree
//!   containment that defines motif occurrence;
//! * [`discover`] — rightmost-extension motif enumeration as a
//!   [`fpdm_core::MiningProblem`], runnable sequentially or on the PLinda
//!   runtime.
//!
//! ```
//! use treemine::{discover_tree_motifs, OrderedTree, TreeDiscoveryParams};
//!
//! let trees = vec![
//!     OrderedTree::parse("N(M(R,H),I)"),
//!     OrderedTree::parse("M(R,H)"),
//!     OrderedTree::parse("I(M(R,H),B)"),
//! ];
//! let found = discover_tree_motifs(trees, TreeDiscoveryParams {
//!     min_size: 3, max_size: 3, min_occurrence: 3, max_distance: 0,
//! });
//! assert!(found.iter().any(|m| m.motif.to_string() == "M(R,H)"));
//! ```

#![warn(missing_docs)]

pub mod discover;
pub mod dist;
pub mod tree;
pub mod vienna;

pub use discover::{
    discover_tree_motifs, discover_tree_motifs_farm, ActiveTreeMotif, TreeCode,
    TreeDiscoveryParams, TreeMiningProblem,
};
pub use dist::{
    best_subtree_distance, contains_exactly, contains_within, cut_distance, occurrence_number,
    tree_edit_distance,
};
pub use tree::{OrderedTree, RNA_LABELS};
pub use vienna::{parse_dot_bracket, ViennaError};
