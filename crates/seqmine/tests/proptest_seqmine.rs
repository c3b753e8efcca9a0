//! Property tests of the sequence-mining kernels: GST vs brute force,
//! matcher invariants, and the anti-monotone pruning property.

use proptest::prelude::*;
use seqmine::{matches_within, min_mutations, occurrence_number, Gst, Motif, Sequence};

fn arb_seqs() -> impl Strategy<Value = Vec<Sequence>> {
    prop::collection::vec("[ABC]{1,12}", 1..6)
        .prop_map(|v| v.into_iter().map(|s| Sequence::from_str(&s)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gst_occurrence_equals_brute_force(
        seqs in arb_seqs(),
        pat in "[ABC]{1,5}",
    ) {
        let gst = Gst::build(&seqs);
        let brute = seqs.iter().filter(|s| s.contains(pat.as_bytes())).count();
        prop_assert_eq!(gst.occurrence(pat.as_bytes()), brute);
    }

    #[test]
    fn gst_extensions_are_sound_and_complete(
        seqs in arb_seqs(),
        pat in "[ABC]{0,4}",
    ) {
        let gst = Gst::build(&seqs);
        let ext = gst.extensions(pat.as_bytes());
        for c in [b'A', b'B', b'C'] {
            let mut q = pat.as_bytes().to_vec();
            q.push(c);
            let occurs = seqs.iter().any(|s| s.contains(&q));
            prop_assert_eq!(
                ext.contains(&c),
                occurs,
                "pattern {:?} extension {}", pat, c as char
            );
        }
    }

    #[test]
    fn min_mutations_bounded_by_length(
        seq in "[ABC]{0,12}",
        pat in "[ABD]{1,6}",
    ) {
        let s = Sequence::from_str(&seq);
        let m = Motif::single(pat.as_bytes());
        let cost = min_mutations(&m, &s);
        prop_assert!(cost <= pat.len(), "deleting everything costs |P|");
        // Exact containment iff zero cost.
        prop_assert_eq!(cost == 0, s.contains(pat.as_bytes()));
    }

    #[test]
    fn matches_within_is_min_mutations_within_budget(
        seq in "[ABC]{0,12}",
        segs in prop::collection::vec("[ABD]{1,4}", 1..4),
    ) {
        let s = Sequence::from_str(&seq);
        let m = Motif::new(segs.iter().map(|g| g.as_bytes().to_vec()).collect());
        let cost = min_mutations(&m, &s);
        for k in 0..=2 {
            prop_assert_eq!(
                matches_within(&m, &s, k),
                cost <= k,
                "motif {} sequence {:?} cost {} budget {}", m, seq, cost, k
            );
        }
    }

    #[test]
    fn occurrence_monotone_in_mutation_budget(
        seqs in arb_seqs(),
        pat in "[ABC]{1,5}",
    ) {
        let m = Motif::single(pat.as_bytes());
        let mut prev = 0;
        for budget in 0..=pat.len() {
            let occ = occurrence_number(&m, &seqs, budget);
            prop_assert!(occ >= prev);
            prev = occ;
        }
        prop_assert_eq!(prev, seqs.len(), "budget >= |P| matches everything");
    }

    #[test]
    fn prefix_and_suffix_dominate(
        seqs in arb_seqs(),
        pat in "[ABC]{2,5}",
        budget in 0usize..3,
    ) {
        // The E-dag pruning property: immediate subpatterns occur at
        // least as often.
        let p = pat.as_bytes();
        let whole = occurrence_number(&Motif::single(p), &seqs, budget);
        let prefix = occurrence_number(&Motif::single(&p[..p.len() - 1]), &seqs, budget);
        let suffix = occurrence_number(&Motif::single(&p[1..]), &seqs, budget);
        prop_assert!(prefix >= whole);
        prop_assert!(suffix >= whole);
    }

    #[test]
    fn two_segment_cost_bounded_by_concatenation(
        seq in "[ABC]{2,12}",
        a in "[ABC]{1,3}",
        b in "[ABC]{1,3}",
    ) {
        // *A*B* is easier to match than *AB* (the VLDC can absorb a gap).
        let s = Sequence::from_str(&seq);
        let split = Motif::new(vec![a.as_bytes().to_vec(), b.as_bytes().to_vec()]);
        let joined = Motif::single(format!("{a}{b}").as_bytes());
        prop_assert!(min_mutations(&split, &s) <= min_mutations(&joined, &s));
    }
}
