//! # `seqmine` — pattern discovery in protein sequences
//!
//! The first biological application of the E-dag framework (Chapter 4 of
//! *Free Parallel Data Mining*): finding **active motifs** — regular
//! expressions `*S1*S2*…` of consecutive-letter segments separated by
//! variable-length don't cares (VLDCs) — that occur, within an allowed
//! number of mutations, in at least `Occur` sequences of a set.
//!
//! Components:
//!
//! * [`seq`] — sequences and VLDC motifs, with the subpattern relation
//!   that drives pruning;
//! * [`matcher`] — the optimal-VLDC-substitution dynamic program that
//!   counts the minimum mutations to match a motif against a sequence
//!   (the algorithm's expensive inner subroutine);
//! * [`gst`] — a generalised suffix tree (Ukkonen) for candidate-segment
//!   harvesting and exact-occurrence counting;
//! * [`mod@discover`] — the two-phase discovery algorithm expressed as a
//!   [`fpdm_core::MiningProblem`], runnable by any of the framework's
//!   sequential or parallel traversals.
//!
//! ```
//! use seqmine::{discover, DiscoveryParams, Sequence};
//!
//! // The toy database of §2.3.1.
//! let db = ["FFRR", "MRRM", "MTRM", "DPKY", "AVLG"]
//!     .iter().map(|s| Sequence::from_str(s)).collect();
//! let found = discover(db, DiscoveryParams::new(2, 8, 2, 0));
//! let names: Vec<String> = found.iter().map(|m| m.motif.to_string()).collect();
//! assert_eq!(names, vec!["*RM*", "*RR*"]);
//! ```

#![warn(missing_docs)]

pub mod discover;
pub mod gst;
pub mod matcher;
pub mod seq;

pub use discover::{
    discover, discover_farm, discover_k_segment, discover_parallel, discover_two_segment,
    ActiveMotif, DiscoveryParams, SeqMiningProblem,
};
pub use gst::Gst;
pub use matcher::{matches_within, min_mutations, occurrence_number};
pub use seq::{parse_fasta, to_fasta, Motif, Sequence, AMINO_ACIDS};
