//! Approximate VLDC motif matching (§2.3.3/§4.1.1).
//!
//! The basic subroutine of the discovery algorithm: match a motif
//! `*S1*S2*…*` against a sequence after an *optimal* substitution for the
//! VLDCs, counting the minimum number of mutations (insertions, deletions,
//! mismatches) needed in the segments.
//!
//! Dynamic program: let `B_j(i)` be the minimum mutations to match
//! `*S1*…*S_j*` against some prefix of the sequence whose last consumed
//! segment character is at position `≤ i` (the trailing `*` makes `B_j`
//! monotone non-increasing in `i` after a prefix-min). `B_0 ≡ 0` (the
//! leading `*` absorbs any prefix); each segment is then aligned by a
//! banded-free edit-distance matrix whose top row is `B_{j-1}`'s
//! prefix-min. The answer is `min_i B_m(i)`. Complexity `O(|P| · |s|)`.

use crate::seq::{Motif, Sequence};

/// Minimum total mutations over all VLDC substitutions to match `motif`
/// against `seq`; `usize::MAX`-free (always finite: you can always delete
/// the whole motif, costing `|P|`).
pub fn min_mutations(motif: &Motif, seq: &Sequence) -> usize {
    mutation_dp(motif, seq.bytes(), usize::MAX)
}

/// The mutation program on two reused rows, giving up once the cost is
/// sure to exceed `budget`: returns the exact minimum when it is at most
/// `budget`, and some value above `budget` otherwise.
fn mutation_dp(motif: &Motif, s: &[u8], budget: usize) -> usize {
    let n = s.len();
    // last[i] = min cost to match segments consumed so far within the
    // first i characters (prefix-min applied: using MORE of the sequence
    // never hurts thanks to the separating VLDC). Row 0 of each segment
    // is the previous segment's prefix-min: start the segment anywhere
    // after the previous match.
    let mut last: Vec<usize> = vec![0; n + 1];
    let mut row: Vec<usize> = vec![0; n + 1];
    for seg in motif.segments() {
        for &c in seg {
            // row[i]: min cost aligning the segment's letters so far with
            // the alignment ending at sequence position i. Starting at
            // i = 0 means deleting them entirely.
            row[0] = last[0] + 1;
            let mut row_min = row[0];
            for i in 1..=n {
                let sub = last[i - 1] + usize::from(s[i - 1] != c);
                let del = last[i] + 1; // delete the segment letter
                let ins = row[i - 1] + 1; // insert s[i-1] into the segment
                row[i] = sub.min(del).min(ins);
                row_min = row_min.min(row[i]);
            }
            // Every later row's minimum is at least this one's, and the
            // answer is the last row's minimum.
            if row_min > budget {
                return row_min;
            }
            std::mem::swap(&mut last, &mut row);
        }
        // Trailing/inter-segment VLDC: prefix-min so later segments may
        // start at any position ≥ the end of this one.
        let mut best = usize::MAX;
        for v in &mut last {
            best = best.min(*v);
            *v = best;
        }
    }
    last[n]
}

/// Does `motif` occur in `seq` within `max_mut` mutations?
///
/// With no mutations allowed this is an exact search: each segment's
/// first occurrence after the previous segment's match (earliest-ending
/// is always best). Otherwise the mutation program runs only until its
/// cost is sure to exceed `max_mut`.
///
/// The miner does not call this for single-segment candidates at
/// `Mut = 0` when its GST spans the whole set: there the GST's document
/// count is the occurrence number ([`crate::SeqMiningProblem`]). Samples,
/// mutations and multi-segment motifs come here.
pub fn matches_within(motif: &Motif, seq: &Sequence, max_mut: usize) -> bool {
    if max_mut > 0 {
        return mutation_dp(motif, seq.bytes(), max_mut) <= max_mut;
    }
    let mut rest = seq.bytes();
    for seg in motif.segments() {
        match rest.windows(seg.len()).position(|w| w == seg.as_slice()) {
            Some(at) => rest = &rest[at + seg.len()..],
            None => return false,
        }
    }
    true
}

/// The occurrence number `occurrence_no^i_S(P)` (§2.3.3): how many
/// sequences of `set` contain `motif` within `max_mut` mutations.
pub fn occurrence_number(motif: &Motif, set: &[Sequence], max_mut: usize) -> usize {
    set.iter()
        .filter(|s| matches_within(motif, s, max_mut))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The program the two-row version replaced: a fresh row per motif
    /// letter, run to the end. Kept as an oracle.
    fn min_mutations_oracle(motif: &Motif, seq: &Sequence) -> usize {
        let s = seq.bytes();
        let n = s.len();
        let mut prev: Vec<usize> = vec![0; n + 1];
        for seg in motif.segments() {
            let mut last_row = prev.clone();
            for &c in seg {
                let mut row = vec![usize::MAX; n + 1];
                row[0] = last_row[0] + 1;
                for i in 1..=n {
                    let sub = last_row[i - 1] + usize::from(s[i - 1] != c);
                    let del = last_row[i] + 1;
                    let ins = row[i - 1] + 1;
                    row[i] = sub.min(del).min(ins);
                }
                last_row = row;
            }
            let mut best = usize::MAX;
            for i in 0..=n {
                best = best.min(last_row[i]);
                prev[i] = best;
            }
        }
        prev[n]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn two_row_program_matches_oracle(
            // A two-letter alphabet makes exact and near matches common.
            seq in "[AB]{0,12}",
            segs in prop::collection::vec("[AB]{1,3}", 1..4),
        ) {
            let s = Sequence::from_str(&seq);
            let m = Motif::new(segs.iter().map(|g| g.as_bytes().to_vec()).collect());
            let exact = min_mutations_oracle(&m, &s);
            prop_assert_eq!(min_mutations(&m, &s), exact);
            for k in 0..=3 {
                prop_assert_eq!(matches_within(&m, &s, k), exact <= k, "budget {}", k);
            }
        }
    }

    fn m1(seg: &str) -> Motif {
        Motif::single(seg.as_bytes())
    }

    fn seq(s: &str) -> Sequence {
        Sequence::from_str(s)
    }

    #[test]
    fn exact_substring_costs_zero() {
        assert_eq!(min_mutations(&m1("RR"), &seq("FFRR")), 0);
        assert_eq!(min_mutations(&m1("FFRR"), &seq("FFRR")), 0);
        assert_eq!(min_mutations(&m1("F"), &seq("FFRR")), 0);
    }

    #[test]
    fn one_mismatch() {
        assert_eq!(min_mutations(&m1("RX"), &seq("FFRR")), 1);
        assert_eq!(min_mutations(&m1("XRRX"), &seq("AFRRA")), 2);
    }

    #[test]
    fn deletions_and_insertions() {
        // "ABC" vs sequence containing "AC": delete B -> 1.
        assert_eq!(min_mutations(&m1("ABC"), &seq("ZZACZZ")), 1);
        // "AC" vs sequence containing "ABC": insert B -> 1.
        assert_eq!(min_mutations(&m1("AC"), &seq("ZZABCZZ")), 1);
    }

    #[test]
    fn absent_pattern_costs_its_length() {
        assert_eq!(min_mutations(&m1("QQ"), &seq("AAAA")), 2);
    }

    #[test]
    fn empty_sequence() {
        assert_eq!(min_mutations(&m1("AB"), &seq("")), 2);
    }

    #[test]
    fn two_segments_with_gap() {
        let m = Motif::new(vec![b"AB".to_vec(), b"CD".to_vec()]);
        // *AB*CD* matches ABxxxCD exactly.
        assert_eq!(min_mutations(&m, &seq("ABXXXCD")), 0);
        // Segments may be adjacent (VLDC matches zero letters).
        assert_eq!(min_mutations(&m, &seq("ABCD")), 0);
        // Segments must appear in order: CD…AB costs 2+ mutations... the
        // optimal alignment can still mismatch-repair one segment.
        assert!(min_mutations(&m, &seq("CDAB")) >= 1);
    }

    #[test]
    fn segments_cannot_overlap_out_of_order() {
        let m = Motif::new(vec![b"ZZ".to_vec(), b"ZZ".to_vec()]);
        // Only one ZZ available: the second segment needs 1 insertion at
        // best (reusing the suffix) — cost at least 1.
        assert!(min_mutations(&m, &seq("AZZA")) >= 1);
        // Two disjoint ZZ runs: exact.
        assert_eq!(min_mutations(&m, &seq("ZZAZZ")), 0);
        // The exact search agrees: overlapping runs are no match.
        assert!(!matches_within(&m, &seq("AZZZA"), 0));
        assert!(matches_within(&m, &seq("AZZZZA"), 0));
        assert!(matches_within(&m, &seq("AZZZA"), 1));
    }

    #[test]
    fn occurrence_number_counts_sequences() {
        let set = vec![seq("FFRR"), seq("MRRM"), seq("MTRM"), seq("DPKY")];
        assert_eq!(occurrence_number(&m1("RR"), &set, 0), 2);
        assert_eq!(occurrence_number(&m1("RM"), &set, 0), 2);
        // With one mutation allowed RM also matches FFRR (R->R, R->M mism?
        // "RR" -> "RM" is one mismatch) so occurrence rises.
        assert_eq!(occurrence_number(&m1("RM"), &set, 1), 3);
    }

    #[test]
    fn subpattern_occurrence_dominates() {
        // Wang et al.'s pruning property: occurrence(P) >= occurrence(P')
        // when P is a subpattern of P'.
        let set = vec![seq("ABCDEF"), seq("XBCDEX"), seq("BCXXDE"), seq("QQQQQ")];
        let small = m1("BCD");
        let big = m1("BCDE");
        for mut_budget in 0..3 {
            assert!(
                occurrence_number(&small, &set, mut_budget)
                    >= occurrence_number(&big, &set, mut_budget),
                "mut={mut_budget}"
            );
        }
    }

    #[test]
    fn mutation_cost_is_edit_distance_to_best_window() {
        // Brute-force check on small inputs: min over all substrings w of
        // edit_distance(seg, w) equals min_mutations for single segments.
        fn edit(a: &[u8], b: &[u8]) -> usize {
            let mut d: Vec<usize> = (0..=b.len()).collect();
            for (i, &ca) in a.iter().enumerate() {
                let mut prev = d[0];
                d[0] = i + 1;
                for (j, &cb) in b.iter().enumerate() {
                    let cur = d[j + 1];
                    d[j + 1] = (prev + usize::from(ca != cb))
                        .min(d[j] + 1)
                        .min(d[j + 1] + 1);
                    prev = cur;
                }
            }
            d[b.len()]
        }
        let text = b"ABRACADABRA";
        let s = seq("ABRACADABRA");
        for pat in ["AB", "RAC", "CAD", "XYZ", "ABRAX", "DAB"] {
            let mut best = pat.len(); // empty window
            for i in 0..=text.len() {
                for j in i..=text.len() {
                    best = best.min(edit(pat.as_bytes(), &text[i..j]));
                }
            }
            assert_eq!(min_mutations(&m1(pat), &s), best, "pattern {pat}");
        }
    }
}
