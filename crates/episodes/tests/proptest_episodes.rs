//! Property tests of episode window counting and its lattice structure.

use episodes::{EpisodeMiningProblem, EpisodeParams, EventSequence};
use fpdm_core::{sequential_edt, sequential_ett, MiningProblem};
use proptest::prelude::*;

fn arb_stream() -> impl Strategy<Value = EventSequence> {
    prop::collection::vec((0u32..60, 0u8..3), 1..40).prop_map(|pairs| {
        EventSequence::new(pairs.into_iter().map(|(t, e)| (t, b'a' + e)).collect())
    })
}

/// Streams over few timestamps, so events often share one; may be empty.
fn arb_dense_stream() -> impl Strategy<Value = EventSequence> {
    prop::collection::vec((0u32..12, 0u8..3), 0..30).prop_map(|pairs| {
        EventSequence::new(pairs.into_iter().map(|(t, e)| (t, b'a' + e)).collect())
    })
}

/// The count the sweep replaced: every WINEPI window start, each scanned
/// on its own with `window_contains`.
fn brute_window_count(stream: &EventSequence, w: u32, episode: &[u8]) -> usize {
    let Some((first, last)) = stream.span() else {
        return 0;
    };
    ((first as i64 - w as i64 + 1)..=last as i64)
        .filter(|&t| stream.window_contains(t, w, episode))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_count_matches_per_window_scan(
        stream in arb_dense_stream(),
        // Symbol `d` never occurs; short alphabets repeat symbols.
        pat in prop::collection::vec(0u8..4, 0..5),
        w in 2u32..7,
    ) {
        let pat: Vec<u8> = pat.into_iter().map(|e| b'a' + e).collect();
        for w in [1, w] {
            prop_assert_eq!(
                stream.window_count(w, &pat),
                brute_window_count(&stream, w, &pat),
                "w={} pattern {:?} over {:?}", w, pat, stream.events()
            );
        }
    }

    #[test]
    fn containment_monotone_in_window_width(
        stream in arb_stream(),
        pat in prop::collection::vec(0u8..3, 1..4),
    ) {
        let pat: Vec<u8> = pat.into_iter().map(|e| b'a' + e).collect();
        for w in 1..8u32 {
            for t in -5i64..20 {
                if stream.window_contains(t, w, &pat) {
                    prop_assert!(stream.window_contains(t, w + 1, &pat));
                }
            }
        }
    }

    #[test]
    fn count_anti_monotone_in_pattern(
        stream in arb_stream(),
        pat in prop::collection::vec(0u8..3, 2..5),
        w in 2u32..8,
    ) {
        let pat: Vec<u8> = pat.into_iter().map(|e| b'a' + e).collect();
        let whole = stream.window_count(w, &pat);
        for drop in 0..pat.len() {
            let sub: Vec<u8> = pat
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, &e)| e)
                .collect();
            prop_assert!(stream.window_count(w, &sub) >= whole);
        }
    }

    #[test]
    fn edt_equals_ett_on_random_streams(
        stream in arb_stream(),
        w in 2u32..6,
        frac in 2usize..6,
    ) {
        let windows = stream.n_windows(w).max(1);
        let problem = EpisodeMiningProblem::new(
            stream,
            EpisodeParams {
                window: w,
                min_windows: windows / frac,
                min_length: 1,
                max_length: 3,
            },
        );
        let edt = sequential_edt(&problem);
        let ett = sequential_ett(&problem);
        prop_assert_eq!(&edt.good, &ett.good);
        prop_assert!(edt.tested <= ett.tested);
    }

    #[test]
    fn singletons_counted_exactly(stream in arb_stream(), w in 1u32..6) {
        // A single event type's window count equals the size of the union
        // of per-occurrence windows, computed directly.
        for &e in stream.alphabet() {
            let brute = {
                let mut starts = std::collections::BTreeSet::new();
                for &(t, ev) in stream.events() {
                    if ev == e {
                        for s in (t as i64 - w as i64 + 1)..=(t as i64) {
                            starts.insert(s);
                        }
                    }
                }
                // Clip to the WINEPI start range.
                let (first, last) = stream.span().unwrap();
                starts
                    .into_iter()
                    .filter(|&s| s > first as i64 - w as i64 && s <= last as i64)
                    .count()
            };
            prop_assert_eq!(stream.window_count(w, &[e]), brute);
        }
    }

    #[test]
    fn children_and_subpatterns_are_consistent(stream in arb_stream()) {
        let problem = EpisodeMiningProblem::new(
            stream,
            EpisodeParams {
                window: 4,
                min_windows: 1,
                min_length: 1,
                max_length: 3,
            },
        );
        // Every child's subpatterns include its parent.
        let parent = vec![problem.events().alphabet()[0]];
        for child in problem.children(&parent) {
            let subs = problem.immediate_subpatterns(&child);
            prop_assert!(subs.contains(&parent), "{child:?} missing parent {parent:?}");
        }
    }
}
