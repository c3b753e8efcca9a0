//! Sequence pattern discovery (§2.3.4, §4.2): find all active motifs.
//!
//! Given a set `S` of sequences and user parameters `(Mut, Occur, Length,
//! MaxLength)`, find all motifs `P` with `occurrence_no^Mut_S(P) ≥ Occur`
//! and `Length ≤ |P| ≤ MaxLength`.
//!
//! The algorithm follows Wang et al. as described in the dissertation:
//!
//! 1. **Phase 1**: build a generalised suffix tree over a sample `A ⊆ S`
//!    and harvest candidate segments (all distinct substrings meeting the
//!    length rule). Candidates not occurring exactly in the sample are
//!    never generated — the standard sampling heuristic; with
//!    `sample = S` and `Mut = 0` the procedure is exact.
//! 2. **Phase 2**: evaluate candidates against all of `S`, with the
//!    subpattern pruning `occurrence(P) ≥ occurrence(P′)` for `P ⊑ P′`.
//!
//! Where phase 2 needs no scan: with `Mut = 0` the occurrence number is
//! the count of sequences containing `P` exactly, which a GST built over
//! all of `S` ([`SeqMiningProblem::new`]) stores at every node, so
//! goodness is one walk to `P`'s locus ([`Gst::occurrence`]). A GST over
//! a strict sample ([`SeqMiningProblem::with_sample`]) cannot answer for
//! the rest of `S`, and `Mut > 0` needs the mutation program; both scan
//! every sequence ([`SeqMiningProblem::scanned_goodness`]).
//!
//! Phase 2 is exactly an E-dag/E-tree traversal: [`SeqMiningProblem`]
//! implements [`MiningProblem`] with patterns = motifs, children = GST
//! extensions, goodness = occurrence number. Any of the framework's
//! traversals — sequential, PLED, PLET optimistic/load-balanced — solves
//! it; this is the application of Chapter 4.

use crate::gst::Gst;
use crate::matcher::occurrence_number;
use crate::seq::{Motif, Sequence};
use fpdm_core::{
    parallel_ett, parallel_wave, sequential_ett, MiningOutcome, MiningProblem, ParallelConfig,
    PatternCodec,
};
use std::sync::Arc;

/// User parameters of a discovery run (Table 4.2's columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryParams {
    /// Minimum motif length `Length` (non-VLDC letters).
    pub min_length: usize,
    /// Maximum motif length (bounds the traversal; the dissertation's runs
    /// are bounded by the sequences themselves).
    pub max_length: usize,
    /// Minimum occurrence number `Occur`.
    pub min_occurrence: usize,
    /// Allowed mutations `Mut` per sequence match.
    pub max_mutations: usize,
    /// Candidate-generation threshold (phase 1 of Wang et al., §2.3.4):
    /// only extensions whose *exact* occurrence in the sample reaches
    /// this value become candidates. `1` generates every sample
    /// substring; with `Mut = 0`, any value up to `min_occurrence` is
    /// lossless (exact occurrence *is* the goodness); with mutations it
    /// is the sampling heuristic of the original algorithm.
    pub min_sample_occurrence: usize,
}

impl DiscoveryParams {
    /// Parameters with the default candidate threshold of 1.
    pub fn new(
        min_length: usize,
        max_length: usize,
        min_occurrence: usize,
        max_mutations: usize,
    ) -> Self {
        DiscoveryParams {
            min_length,
            max_length,
            min_occurrence,
            max_mutations,
            min_sample_occurrence: 1,
        }
    }

    /// Set the candidate-generation threshold.
    pub fn with_sample_occurrence(mut self, q: usize) -> Self {
        self.min_sample_occurrence = q.max(1);
        self
    }
}

/// A discovered active motif with its occurrence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveMotif {
    /// The motif.
    pub motif: Motif,
    /// Its occurrence number within the allowed mutations.
    pub occurrence: usize,
}

/// Phase 2 of sequence pattern discovery as a pattern-lattice mining
/// problem over single-segment motifs `*X*`.
///
/// * Pattern: the segment `X` (bytes); the zero-length pattern is `**`.
/// * Children: right-extensions `X·c` that occur *exactly* in the sample
///   (GST-guided generation).
/// * Immediate subpatterns: the `(k-1)`-prefix and `(k-1)`-suffix
///   (Example 3.1.1).
/// * Goodness: the occurrence number over the full set, within the
///   mutation budget: the GST's document count when it was built over the
///   full set and `Mut = 0`, else a scan of every sequence (the
///   expensive DP of [`crate::matcher`]).
/// * Good: `occurrence ≥ Occur` — motifs shorter than `Length` are "good
///   subpatterns" kept for extension and filtered from the report.
pub struct SeqMiningProblem {
    sequences: Vec<Sequence>,
    gst: Gst,
    /// Whether `gst` was built over all of `sequences`, so that its
    /// document counts are exact occurrence numbers at `Mut = 0`.
    gst_is_full: bool,
    params: DiscoveryParams,
}

impl SeqMiningProblem {
    /// Build the problem: GST over `sample` (candidate generation),
    /// occurrence counting over all of `sequences`.
    pub fn with_sample(
        sequences: Vec<Sequence>,
        sample: &[Sequence],
        params: DiscoveryParams,
    ) -> Self {
        SeqMiningProblem {
            gst: Gst::build(sample),
            gst_is_full: false,
            sequences,
            params,
        }
    }

    /// Build with `sample = S` (exact for `Mut = 0`).
    pub fn new(sequences: Vec<Sequence>, params: DiscoveryParams) -> Self {
        let gst = Gst::build(&sequences);
        SeqMiningProblem {
            gst,
            gst_is_full: true,
            sequences,
            params,
        }
    }

    /// The sequence database.
    pub fn sequences(&self) -> &[Sequence] {
        &self.sequences
    }

    /// The discovery parameters.
    pub fn params(&self) -> &DiscoveryParams {
        &self.params
    }

    /// Goodness by scanning every sequence with the matcher, as the
    /// original program computes it for every candidate. It equals
    /// [`MiningProblem::goodness`], which answers from the GST where it
    /// can; the Chapter 4 cost replay times this scan as the 1998
    /// program's per-candidate work.
    pub fn scanned_goodness(&self, p: &[u8]) -> f64 {
        // A motif no longer than the mutation budget matches every
        // sequence (delete all of it), so skip the DP.
        if p.len() <= self.params.max_mutations {
            return self.sequences.len() as f64;
        }
        occurrence_number(
            &Motif::single(p),
            &self.sequences,
            self.params.max_mutations,
        ) as f64
    }

    /// Turn a mining outcome into the final report, applying the
    /// minimum-length filter.
    pub fn report(&self, outcome: &MiningOutcome<Vec<u8>>) -> Vec<ActiveMotif> {
        let mut out: Vec<ActiveMotif> = outcome
            .good
            .iter()
            .filter(|(seg, _)| seg.len() >= self.params.min_length)
            .map(|(seg, occ)| ActiveMotif {
                motif: Motif::single(seg),
                occurrence: *occ as usize,
            })
            .collect();
        out.sort_by(|a, b| a.motif.cmp(&b.motif));
        out
    }
}

impl MiningProblem for SeqMiningProblem {
    type Pattern = Vec<u8>;

    fn root(&self) -> Vec<u8> {
        Vec::new()
    }

    fn pattern_len(&self, p: &Vec<u8>) -> usize {
        p.len()
    }

    fn children(&self, p: &Vec<u8>) -> Vec<Vec<u8>> {
        if p.len() >= self.params.max_length {
            return Vec::new();
        }
        self.gst
            .extensions(p)
            .into_iter()
            .filter_map(|c| {
                let mut q = p.clone();
                q.push(c);
                if self.params.min_sample_occurrence > 1
                    && self.gst.occurrence(&q) < self.params.min_sample_occurrence
                {
                    None
                } else {
                    Some(q)
                }
            })
            .collect()
    }

    fn immediate_subpatterns(&self, p: &Vec<u8>) -> Vec<Vec<u8>> {
        let prefix = p[..p.len() - 1].to_vec();
        let suffix = p[1..].to_vec();
        if prefix == suffix {
            vec![prefix]
        } else {
            vec![prefix, suffix]
        }
    }

    fn goodness(&self, p: &Vec<u8>) -> f64 {
        // With no mutations a sequence contains `p` iff `p` is one of its
        // substrings, and the GST over all of them counts exactly those.
        if self.params.max_mutations == 0 && self.gst_is_full {
            return self.gst.occurrence(p) as f64;
        }
        self.scanned_goodness(p)
    }

    fn is_good(&self, _p: &Vec<u8>, goodness: f64) -> bool {
        goodness >= self.params.min_occurrence as f64
    }
}

impl PatternCodec for SeqMiningProblem {
    fn encode_pattern(&self, p: &Vec<u8>) -> Vec<u8> {
        p.clone()
    }
    fn decode_pattern(&self, bytes: &[u8]) -> Vec<u8> {
        bytes.to_vec()
    }
}

/// Sequential discovery of all active `*X*` motifs.
pub fn discover(sequences: Vec<Sequence>, params: DiscoveryParams) -> Vec<ActiveMotif> {
    let problem = SeqMiningProblem::new(sequences, params);
    let outcome = sequential_ett(&problem);
    problem.report(&outcome)
}

/// Parallel discovery on the PLinda runtime (Chapter 4's programs).
pub fn discover_parallel(
    sequences: Vec<Sequence>,
    params: DiscoveryParams,
    config: &ParallelConfig,
) -> Vec<ActiveMotif> {
    let problem = Arc::new(SeqMiningProblem::new(sequences, params));
    let outcome = parallel_ett(Arc::clone(&problem), config);
    problem.report(&outcome)
}

/// Parallel discovery as the `"seqmine"` farm program: candidate-
/// partitioned task waves over the GST extension lattice
/// ([`fpdm_core::parallel_wave`]). Bit-identical to [`discover`] —
/// workers grade candidate segments against the full database while the
/// master owns the frontier — and runs unchanged over an in-process space
/// or a socket broker (`config.space`).
pub fn discover_farm(
    sequences: Vec<Sequence>,
    params: DiscoveryParams,
    config: &ParallelConfig,
) -> Vec<ActiveMotif> {
    let problem = Arc::new(SeqMiningProblem::new(sequences, params));
    let outcome = parallel_wave("seqmine", Arc::clone(&problem), config);
    problem.report(&outcome)
}

/// Combine single-segment candidates into two-segment motifs `*X1*X2*`
/// and evaluate them — the multi-VLDC pattern form of §2.3.4. Each
/// combination pairs active segments whose lengths satisfy the "at least
/// one ≥ half the specified length" rule; results meet the full length
/// and occurrence requirements.
pub fn discover_two_segment(
    sequences: &[Sequence],
    singles: &[ActiveMotif],
    params: &DiscoveryParams,
) -> Vec<ActiveMotif> {
    let mut out = Vec::new();
    let half = params.min_length.div_ceil(2);
    for a in singles {
        for b in singles {
            let (sa, sb) = (&a.motif.segments()[0], &b.motif.segments()[0]);
            if sa.len() + sb.len() < params.min_length || sa.len() + sb.len() > params.max_length {
                continue;
            }
            if sa.len() < half && sb.len() < half {
                continue;
            }
            let m = Motif::new(vec![sa.clone(), sb.clone()]);
            let occ = occurrence_number(&m, sequences, params.max_mutations);
            if occ >= params.min_occurrence {
                out.push(ActiveMotif {
                    motif: m,
                    occurrence: occ,
                });
            }
        }
    }
    out.sort_by(|a, b| a.motif.cmp(&b.motif));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdm_core::sequential_edt;

    fn seqs(v: &[&str]) -> Vec<Sequence> {
        v.iter().map(|s| Sequence::from_str(s)).collect()
    }

    fn params(min_len: usize, occ: usize, mutations: usize) -> DiscoveryParams {
        DiscoveryParams::new(min_len, 10, occ, mutations)
    }

    #[test]
    fn toy_database_of_section_2_3_1() {
        // D = {FFRR, MRRM, MTRM, DPKY, AVLG}, occur >= 2, |P| >= 2:
        // good patterns are *RR* and *RM*.
        let found = discover(
            seqs(&["FFRR", "MRRM", "MTRM", "DPKY", "AVLG"]),
            params(2, 2, 0),
        );
        let names: Vec<String> = found.iter().map(|m| m.motif.to_string()).collect();
        assert_eq!(names, vec!["*RM*", "*RR*"]);
        assert!(found.iter().all(|m| m.occurrence == 2));
    }

    #[test]
    fn exact_discovery_matches_brute_force() {
        let db = seqs(&["ABCAB", "BCABC", "CABCA", "XXYYX"]);
        let p = params(2, 2, 0);
        let found = discover(db.clone(), p.clone());
        // Brute force over all substrings.
        let mut brute = std::collections::BTreeSet::new();
        for s in &db {
            for i in 0..s.len() {
                for j in (i + p.min_length)..=s.len() {
                    let seg = &s.bytes()[i..j];
                    let occ = db.iter().filter(|t| t.contains(seg)).count();
                    if occ >= p.min_occurrence {
                        brute.insert((seg.to_vec(), occ));
                    }
                }
            }
        }
        let got: std::collections::BTreeSet<(Vec<u8>, usize)> = found
            .iter()
            .map(|m| (m.motif.segments()[0].clone(), m.occurrence))
            .collect();
        assert_eq!(got, brute);
    }

    #[test]
    fn mutations_widen_the_result() {
        let db = seqs(&["ABCDE", "ABXDE", "QQQQQ"]);
        let strict = discover(db.clone(), params(5, 2, 0));
        assert!(strict.is_empty());
        let lax = discover(db, params(5, 2, 1));
        // ABCDE occurs within 1 mutation in both of the first sequences.
        assert!(lax
            .iter()
            .any(|m| m.motif.segments()[0] == b"ABCDE".to_vec()));
    }

    #[test]
    fn edt_and_ett_agree_on_discovery() {
        let db = seqs(&["GATTACA", "GATTTACA", "CATTACA", "TTACAGA"]);
        let problem = SeqMiningProblem::new(db, params(3, 2, 0));
        let a = sequential_edt(&problem);
        let b = sequential_ett(&problem);
        assert_eq!(a.good, b.good);
        assert!(a.tested <= b.tested);
    }

    #[test]
    fn parallel_discovery_agrees_with_sequential() {
        let db = seqs(&["GATTACA", "GATTTACA", "CATTACA", "TTACAGA", "ATTACAT"]);
        let p = params(3, 2, 1);
        let sequential = discover(db.clone(), p.clone());
        for cfg in [
            ParallelConfig::load_balanced(3),
            ParallelConfig::optimistic(3),
            ParallelConfig::load_balanced(7).adaptive(),
        ] {
            let parallel = discover_parallel(db.clone(), p.clone(), &cfg);
            assert_eq!(sequential, parallel);
        }
    }

    #[test]
    fn farm_discovery_matches_golden_fixture() {
        // The §2.3.1 doc-test database, mined on the farm: the report is
        // pinned bit-for-bit, not merely compared against the sequential
        // run.
        let found = discover_farm(
            seqs(&["FFRR", "MRRM", "MTRM", "DPKY", "AVLG"]),
            params(2, 2, 0),
            &ParallelConfig::load_balanced(3),
        );
        let names: Vec<String> = found.iter().map(|m| m.motif.to_string()).collect();
        assert_eq!(names, vec!["*RM*", "*RR*"]);
        assert!(found.iter().all(|m| m.occurrence == 2));
    }

    #[test]
    fn farm_discovery_is_bit_identical_to_sequential() {
        let db = seqs(&["GATTACA", "GATTTACA", "CATTACA", "TTACAGA", "ATTACAT"]);
        let p = params(3, 2, 1);
        let sequential = discover(db.clone(), p.clone());
        for cfg in [
            ParallelConfig::load_balanced(1),
            ParallelConfig::load_balanced(4),
            ParallelConfig::load_balanced(3).with_prefetch(4),
            ParallelConfig::load_balanced(2)
                .kill_after(std::time::Duration::from_millis(1), 0)
                .kill_after(std::time::Duration::from_millis(2), 1),
        ] {
            let farm = discover_farm(db.clone(), p.clone(), &cfg);
            assert_eq!(sequential, farm);
        }
    }

    #[test]
    fn two_segment_combination() {
        let db = seqs(&["AABXXCDD", "AABYYCDD", "AABZZCDD", "OTHER"]);
        let p = params(4, 3, 0);
        let singles = discover(db.clone(), params(2, 3, 0));
        let twos = discover_two_segment(&db, &singles, &p);
        assert!(
            twos.iter().any(|m| m.motif.to_string() == "*AAB*CDD*"),
            "got {:?}",
            twos.iter().map(|m| m.motif.to_string()).collect::<Vec<_>>()
        );
        for m in &twos {
            assert!(m.occurrence >= 3);
            assert!(m.motif.len() >= 4);
        }
    }

    /// Sequences over a 3-letter alphabet, so that short motifs recur.
    fn arb_db() -> impl proptest::strategy::Strategy<Value = Vec<Sequence>> {
        use proptest::prelude::*;
        prop::collection::vec(prop::collection::vec(b'A'..b'D', 0..12), 1..8)
            .prop_map(|v| v.into_iter().map(Sequence::new).collect())
    }

    /// Every tested node of a traversal, plus arbitrary patterns that
    /// need not occur anywhere, graded by `goodness` and by the scan.
    fn assert_goodness_is_scan(problem: &SeqMiningProblem, extra: &[Vec<u8>]) {
        let (_, tree) = fpdm_core::sequential_ett_recorded(problem);
        let patterns = tree.nodes.iter().map(|n| &n.pattern).chain(extra);
        for p in patterns {
            let want = occurrence_number(&Motif::single(p), problem.sequences(), 0);
            assert_eq!(problem.goodness(p), want as f64, "pattern {p:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn exact_goodness_equals_the_scan(
            db in arb_db(),
            extra in proptest::collection::vec(
                proptest::collection::vec(b'A'..b'E', 1..5), 0..6),
        ) {
            let p = DiscoveryParams::new(1, 6, 2, 0);
            assert_goodness_is_scan(&SeqMiningProblem::new(db, p), &extra);
        }

        #[test]
        fn sampled_problem_falls_back_to_the_scan(
            db in arb_db(),
            keep in 1usize..4,
        ) {
            // The GST over a strict sample undercounts every motif that
            // also occurs outside it; goodness must not read it.
            let sample = db[..keep.min(db.len())].to_vec();
            let p = DiscoveryParams::new(1, 6, 1, 0);
            let problem = SeqMiningProblem::with_sample(db.clone(), &sample, p);
            assert_goodness_is_scan(&problem, &[]);
        }
    }

    #[test]
    fn min_length_filter_applies_to_report_not_traversal() {
        let db = seqs(&["ABAB", "ABBA", "BABA"]);
        let problem = SeqMiningProblem::new(db, params(2, 2, 0));
        let outcome = sequential_ett(&problem);
        // Length-1 patterns are good subpatterns (extended) but filtered.
        assert!(outcome.good.keys().any(|k| k.len() == 1));
        let report = problem.report(&outcome);
        assert!(report.iter().all(|m| m.motif.len() >= 2));
    }
}

/// Generalise [`discover_two_segment`] to `k`-segment motifs
/// `*X1*X2*…*Xk*` (§2.3.4's general pattern form): assemble active
/// single segments left to right, pruning any prefix combination whose
/// occurrence already misses the bar (adding a segment never increases
/// occurrence), and report combinations meeting the full length rule —
/// at least one segment of length ≥ `min_length / k`, total length within
/// bounds.
pub fn discover_k_segment(
    sequences: &[Sequence],
    singles: &[ActiveMotif],
    params: &DiscoveryParams,
    k: usize,
) -> Vec<ActiveMotif> {
    assert!(k >= 1, "need at least one segment");
    let segments: Vec<&Vec<u8>> = singles.iter().map(|m| &m.motif.segments()[0]).collect();
    let kth = params.min_length.div_ceil(k);

    // Partial assemblies that still clear the occurrence bar.
    let mut partial: Vec<Vec<Vec<u8>>> = vec![Vec::new()];
    for stage in 0..k {
        let mut next = Vec::new();
        for combo in &partial {
            let used: usize = combo.iter().map(Vec::len).sum();
            for seg in &segments {
                let total = used + seg.len();
                if total > params.max_length {
                    continue;
                }
                // Remaining stages must still be able to reach min_length
                // with max-length segments.
                let longest = segments.iter().map(|s| s.len()).max().unwrap_or(0);
                if total + (k - stage - 1) * longest < params.min_length {
                    continue;
                }
                let mut c = combo.clone();
                c.push((*seg).clone());
                let occ =
                    occurrence_number(&Motif::new(c.clone()), sequences, params.max_mutations);
                if occ >= params.min_occurrence {
                    next.push(c);
                }
            }
        }
        partial = next;
    }

    let mut out: Vec<ActiveMotif> = partial
        .into_iter()
        .filter(|c| {
            let total: usize = c.iter().map(Vec::len).sum();
            total >= params.min_length && c.iter().any(|s| s.len() >= kth)
        })
        .map(|c| {
            let motif = Motif::new(c);
            let occurrence = occurrence_number(&motif, sequences, params.max_mutations);
            ActiveMotif { motif, occurrence }
        })
        .collect();
    out.sort_by(|a, b| a.motif.cmp(&b.motif));
    out.dedup();
    out
}

#[cfg(test)]
mod k_segment_tests {
    use super::*;

    fn seqs(v: &[&str]) -> Vec<Sequence> {
        v.iter().map(|s| Sequence::from_str(s)).collect()
    }

    #[test]
    fn three_segments_recovered() {
        let db = seqs(&["AAXXBBYYCC", "AAZZBBWWCC", "AAQQBBRRCC", "NOPENOPENO"]);
        let singles = discover(db.clone(), DiscoveryParams::new(2, 2, 3, 0));
        let p = DiscoveryParams::new(6, 8, 3, 0);
        let found = discover_k_segment(&db, &singles, &p, 3);
        assert!(
            found.iter().any(|m| m.motif.to_string() == "*AA*BB*CC*"),
            "{:?}",
            found
                .iter()
                .map(|m| m.motif.to_string())
                .collect::<Vec<_>>()
        );
        for m in &found {
            assert!(m.occurrence >= 3);
            assert_eq!(m.motif.segments().len(), 3);
            assert!(m.motif.len() >= 6);
        }
    }

    #[test]
    fn k1_matches_singles_at_threshold() {
        let db = seqs(&["ABAB", "ABBA", "BABA"]);
        let singles = discover(db.clone(), DiscoveryParams::new(2, 4, 2, 0));
        let p = DiscoveryParams::new(2, 4, 2, 0);
        let found = discover_k_segment(&db, &singles, &p, 1);
        // Every single-segment result reappears (as a 1-segment motif).
        for s in &singles {
            assert!(
                found.iter().any(|m| m.motif == s.motif),
                "missing {}",
                s.motif
            );
        }
    }

    #[test]
    fn length_rule_enforced() {
        let db = seqs(&["AABB", "AABB", "AABB"]);
        let singles = discover(db.clone(), DiscoveryParams::new(1, 2, 3, 0));
        let p = DiscoveryParams::new(4, 4, 3, 0);
        let found = discover_k_segment(&db, &singles, &p, 2);
        for m in &found {
            assert!(m.motif.len() >= 4);
            // At least one segment >= ceil(4/2) = 2.
            assert!(m.motif.segments().iter().any(|s| s.len() >= 2));
        }
    }
}
