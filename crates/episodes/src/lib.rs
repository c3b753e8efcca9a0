//! # `episodes` — frequent episode discovery in event sequences
//!
//! The dissertation's §8.2 names *frequent episode discovery* as a prime
//! candidate for the E-dag framework ("many applications fit the pattern
//! lattice paradigm"); this crate implements it, WINEPI-style (Mannila,
//! Toivonen & Verkamo): given a long event sequence and a window width
//! `w`, find all **serial episodes** — ordered tuples of event types —
//! that occur (as subsequences) in at least `min_frequency` of the
//! sliding windows.
//!
//! Window frequency is anti-monotone under subsequence removal: every
//! window containing `A → B → C` contains `A → C`, so the episode lattice
//! is exactly a pattern-lattice mining application:
//!
//! * pattern: the event-type sequence;
//! * children: append any event type (unique-parent generation);
//! * immediate subpatterns: all drop-one-position subsequences;
//! * goodness: the count of windows containing the episode in order.
//!
//! ```
//! use episodes::{discover_episodes, EpisodeParams, EventSequence};
//!
//! // A, B alternating with a C in between: A→B recurs everywhere.
//! let events = EventSequence::new(vec![
//!     (0, b'A'), (1, b'C'), (2, b'B'),
//!     (4, b'A'), (5, b'B'),
//!     (8, b'A'), (9, b'C'), (10, b'B'),
//! ]);
//! let found = discover_episodes(&events, EpisodeParams {
//!     window: 4, min_windows: 3, min_length: 2, max_length: 3,
//! });
//! assert!(found.iter().any(|e| e.episode == b"AB".to_vec()));
//! ```

#![warn(missing_docs)]

use fpdm_core::{
    parallel_wave, sequential_ett, MiningOutcome, MiningProblem, ParallelConfig, PatternCodec,
};
use std::sync::Arc;

/// A time-stamped event stream, sorted by time.
#[derive(Debug, Clone)]
pub struct EventSequence {
    /// `(time, event type)` pairs, ascending in time (ties by type).
    events: Vec<(u32, u8)>,
    /// Distinct event types, ascending.
    alphabet: Vec<u8>,
}

/// Next-occurrence index of an event stream: the ascending positions in
/// the event array of each event type, as one array sliced by type.
struct TypeIndex {
    /// Positions of type `e` are `positions[offsets[e]..offsets[e + 1]]`.
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl TypeIndex {
    fn new(events: &[(u32, u8)]) -> Self {
        let mut offsets = vec![0u32; 257];
        for &(_, e) in events {
            offsets[e as usize + 1] += 1;
        }
        for e in 0..256 {
            offsets[e + 1] += offsets[e];
        }
        let mut fill = offsets.clone();
        let mut positions = vec![0u32; events.len()];
        for (i, &(_, e)) in events.iter().enumerate() {
            positions[fill[e as usize] as usize] = i as u32;
            fill[e as usize] += 1;
        }
        TypeIndex { offsets, positions }
    }

    fn positions(&self, e: u8) -> &[u32] {
        let e = e as usize;
        &self.positions[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }
}

impl EventSequence {
    /// Build from raw `(time, event)` pairs (sorted internally).
    pub fn new(mut events: Vec<(u32, u8)>) -> Self {
        events.sort_unstable();
        let mut alphabet: Vec<u8> = events
            .iter()
            .map(|&(_, e)| e)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        alphabet.sort_unstable();
        EventSequence { events, alphabet }
    }

    /// The events.
    pub fn events(&self) -> &[(u32, u8)] {
        &self.events
    }

    /// Distinct event types.
    pub fn alphabet(&self) -> &[u8] {
        &self.alphabet
    }

    /// Time span `[first, last]` of the stream (`None` when empty).
    pub fn span(&self) -> Option<(u32, u32)> {
        Some((self.events.first()?.0, self.events.last()?.0))
    }

    /// Number of width-`w` windows considered by WINEPI: one starting at
    /// every integer time in `[first - w + 1, last]` (each event is seen
    /// by exactly `w` windows).
    pub fn n_windows(&self, w: u32) -> usize {
        match self.span() {
            Some((first, last)) => (last - first + w) as usize,
            None => 0,
        }
    }

    /// Does the half-open window `[t, t + w)` contain `episode` as an
    /// in-order subsequence?
    pub fn window_contains(&self, t: i64, w: u32, episode: &[u8]) -> bool {
        let end = t + w as i64;
        let start = self.events.partition_point(|&(time, _)| (time as i64) < t);
        let mut need = 0usize;
        for &(time, ev) in &self.events[start..] {
            if (time as i64) >= end {
                break;
            }
            if need < episode.len() && ev == episode[need] {
                need += 1;
                if need == episode.len() {
                    return true;
                }
            }
        }
        episode.is_empty()
    }

    /// WINEPI window count: the number of width-`w` windows containing
    /// `episode` in order — the number of starts `t` for which
    /// [`window_contains`](Self::window_contains) holds. Builds the
    /// stream's next-occurrence index for the one call; a mining problem
    /// builds it once and counts every candidate against it.
    pub fn window_count(&self, w: u32, episode: &[u8]) -> usize {
        self.sweep_count(&TypeIndex::new(&self.events), w, episode)
    }

    /// The window count in one sweep over the occurrences of the
    /// episode's first type.
    ///
    /// A window's scan begins at its first event at or after `t`, and the
    /// greedy in-order match takes the first `episode[0]` from there. So
    /// the starts in `(time[o'], time[o]]`, for consecutive occurrences
    /// `o' < o` of `episode[0]`, all take `o`; the starts up to the first
    /// occurrence take it too, and the starts after the last take none.
    /// From `o` the greedy match completes at a fixed index `c`, and the
    /// window contains the episode iff `time[c] < t + w`. The sweep visits
    /// each occurrence of `episode[0]` once and counts its qualifying
    /// starts in closed form; an occurrence sharing its predecessor's
    /// timestamp owns no start and adds nothing. Greedy completion
    /// positions only move right as `o` does, so each later episode
    /// position keeps a cursor into its type's occurrence list that never
    /// backs up: `O(Σ_i occ(episode[i]))` per episode, at most
    /// `O(n · |episode|)`, whatever the window width.
    fn sweep_count(&self, index: &TypeIndex, w: u32, episode: &[u8]) -> usize {
        let Some((first, _)) = self.span() else {
            return 0;
        };
        let Some((&head, tail)) = episode.split_first() else {
            return self.n_windows(w);
        };
        let w = w as i64;
        let lists: Vec<&[u32]> = tail.iter().map(|&e| index.positions(e)).collect();
        let mut cursors = vec![0usize; tail.len()];
        // Last timestamp whose starts are counted; the first occurrence's
        // starts begin at the first window start, `first - w + 1`.
        let mut prev_time = first as i64 - w;
        let mut count = 0usize;
        for &o in index.positions(head) {
            let time = self.events[o as usize].0 as i64;
            // Greedy completion from `o`: each later episode position
            // takes the first occurrence of its type after the previous
            // match.
            let mut next = o + 1;
            for (list, cursor) in lists.iter().zip(cursors.iter_mut()) {
                while *cursor < list.len() && list[*cursor] < next {
                    *cursor += 1;
                }
                let Some(&at) = list.get(*cursor) else {
                    // No completion from here, nor from any later start.
                    return count;
                };
                next = at + 1;
            }
            let done = self.events[next as usize - 1].0 as i64;
            let from = (prev_time + 1).max(done - w + 1);
            count += (time - from + 1).max(0) as usize;
            prev_time = time;
        }
        count
    }
}

/// Discovery parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpisodeParams {
    /// Window width `w`.
    pub window: u32,
    /// Minimum number of containing windows.
    pub min_windows: usize,
    /// Minimum episode length for the report.
    pub min_length: usize,
    /// Maximum episode length (bounds the traversal).
    pub max_length: usize,
}

/// A discovered frequent episode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentEpisode {
    /// The event-type sequence.
    pub episode: Vec<u8>,
    /// Number of width-`w` windows containing it.
    pub windows: usize,
}

/// Frequent-episode discovery as a pattern-lattice mining problem.
pub struct EpisodeMiningProblem {
    events: EventSequence,
    /// The stream's next-occurrence index, built once per problem.
    index: TypeIndex,
    params: EpisodeParams,
}

impl EpisodeMiningProblem {
    /// Build the problem.
    pub fn new(events: EventSequence, params: EpisodeParams) -> Self {
        assert!(params.window >= 1);
        EpisodeMiningProblem {
            index: TypeIndex::new(&events.events),
            events,
            params,
        }
    }

    /// The underlying stream.
    pub fn events(&self) -> &EventSequence {
        &self.events
    }

    /// Report the good episodes meeting the length floor.
    pub fn report(&self, outcome: &MiningOutcome<Vec<u8>>) -> Vec<FrequentEpisode> {
        let mut out: Vec<FrequentEpisode> = outcome
            .good
            .iter()
            .filter(|(e, _)| e.len() >= self.params.min_length)
            .map(|(e, &w)| FrequentEpisode {
                episode: e.clone(),
                windows: w as usize,
            })
            .collect();
        out.sort_by(|a, b| a.episode.cmp(&b.episode));
        out
    }
}

impl MiningProblem for EpisodeMiningProblem {
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
        self.events
            .alphabet
            .iter()
            .map(|&e| {
                let mut q = p.clone();
                q.push(e);
                q
            })
            .collect()
    }

    fn immediate_subpatterns(&self, p: &Vec<u8>) -> Vec<Vec<u8>> {
        let mut subs: Vec<Vec<u8>> = (0..p.len())
            .map(|drop| {
                p.iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, &e)| e)
                    .collect()
            })
            .collect();
        subs.sort();
        subs.dedup();
        subs
    }

    fn goodness(&self, p: &Vec<u8>) -> f64 {
        self.events.sweep_count(&self.index, self.params.window, p) as f64
    }

    fn is_good(&self, _p: &Vec<u8>, goodness: f64) -> bool {
        goodness >= self.params.min_windows as f64
    }
}

impl PatternCodec for EpisodeMiningProblem {
    fn encode_pattern(&self, p: &Vec<u8>) -> Vec<u8> {
        p.clone()
    }
    fn decode_pattern(&self, bytes: &[u8]) -> Vec<u8> {
        bytes.to_vec()
    }
}

/// Sequential discovery of all frequent serial episodes.
pub fn discover_episodes(events: &EventSequence, params: EpisodeParams) -> Vec<FrequentEpisode> {
    let problem = EpisodeMiningProblem::new(events.clone(), params);
    let outcome = sequential_ett(&problem);
    problem.report(&outcome)
}

/// Parallel discovery as the `"episodes"` farm program: candidate-
/// partitioned task waves over the append-an-event lattice
/// ([`fpdm_core::parallel_wave`]). Bit-identical to [`discover_episodes`];
/// runs unchanged over an in-process space or a socket broker
/// (`config.space`).
pub fn discover_episodes_farm(
    events: &EventSequence,
    params: EpisodeParams,
    config: &ParallelConfig,
) -> Vec<FrequentEpisode> {
    let problem = Arc::new(EpisodeMiningProblem::new(events.clone(), params));
    let outcome = parallel_wave("episodes", Arc::clone(&problem), config);
    problem.report(&outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdm_core::{parallel_ett, sequential_edt};

    fn stream() -> EventSequence {
        // A..B pairs every 5 ticks; C noise.
        let mut ev = Vec::new();
        for k in 0..20u32 {
            ev.push((5 * k, b'A'));
            ev.push((5 * k + 2, b'B'));
            if k % 3 == 0 {
                ev.push((5 * k + 1, b'C'));
            }
        }
        EventSequence::new(ev)
    }

    #[test]
    fn window_containment_basics() {
        let e = EventSequence::new(vec![(0, b'A'), (2, b'B'), (5, b'A')]);
        assert!(e.window_contains(0, 3, b"AB"));
        assert!(!e.window_contains(0, 2, b"AB")); // B at t=2 excluded
        assert!(!e.window_contains(0, 3, b"BA")); // order matters
        assert!(e.window_contains(2, 4, b"BA"));
        assert!(e.window_contains(0, 1, b""));
    }

    /// The WINEPI count by definition: one containment scan per start.
    fn brute_count(e: &EventSequence, w: u32, pat: &[u8]) -> usize {
        let Some((first, last)) = e.span() else {
            return 0;
        };
        ((first as i64 - w as i64 + 1)..=(last as i64))
            .filter(|&t| e.window_contains(t, w, pat))
            .count()
    }

    #[test]
    fn window_count_matches_brute_force() {
        let one = EventSequence::new(vec![(7, b'A')]);
        let ties = EventSequence::new(vec![
            (2, b'A'),
            (2, b'A'),
            (2, b'B'),
            (4, b'A'),
            (4, b'B'),
            (4, b'B'),
            (9, b'A'),
        ]);
        let empty = EventSequence::new(vec![]);
        let patterns: [&[u8]; 9] = [b"", b"A", b"B", b"AA", b"AB", b"BA", b"ABC", b"AAA", b"ABB"];
        for e in [&stream(), &one, &ties, &empty] {
            for w in [1, 2, 3, 6] {
                for pat in patterns {
                    assert_eq!(
                        e.window_count(w, pat),
                        brute_count(e, w, pat),
                        "{:?} w={w} {pat:?}",
                        e.events()
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn window_count_equals_brute_force(
            events in proptest::collection::vec((0u32..16, b'A'..b'D'), 0..24),
            w in 1u32..8,
            pat in proptest::collection::vec(b'A'..b'D', 0..4),
        ) {
            // Few timestamps and types: ties and repeated types are common.
            let e = EventSequence::new(events);
            proptest::prop_assert_eq!(e.window_count(w, &pat), brute_count(&e, w, &pat));
        }
    }

    #[test]
    fn same_timestamp_events_keep_type_order() {
        // At t=3 the array order is (3,A), (3,B), (3,C): width-1 windows
        // see A→B and B→C at that instant, never B→A.
        let e = EventSequence::new(vec![(3, b'C'), (3, b'A'), (3, b'B'), (5, b'A')]);
        assert_eq!(e.window_count(1, b"AB"), 1);
        assert_eq!(e.window_count(1, b"AC"), 1);
        assert_eq!(e.window_count(1, b"BA"), 0);
        assert_eq!(e.window_count(3, b"BA"), 1); // only t=3 reaches (5,A)
        assert_eq!(e.window_count(2, b"AA"), 0);
        assert_eq!(e.window_count(3, b"AA"), 1);
        assert_eq!(e.window_count(1, b"D"), 0);
        assert_eq!(e.window_count(4, b""), e.n_windows(4));
    }

    #[test]
    fn anti_monotone_under_drop_one() {
        let e = stream();
        let p = EpisodeMiningProblem::new(
            e,
            EpisodeParams {
                window: 8,
                min_windows: 1,
                min_length: 1,
                max_length: 4,
            },
        );
        for episode in [b"AB".to_vec(), b"ABA".to_vec(), b"CAB".to_vec()] {
            let whole = p.goodness(&episode);
            for sub in p.immediate_subpatterns(&episode) {
                assert!(p.goodness(&sub) >= whole, "{sub:?} vs {episode:?}");
            }
        }
    }

    #[test]
    fn planted_episode_found() {
        let found = discover_episodes(
            &stream(),
            EpisodeParams {
                window: 5,
                min_windows: 40,
                min_length: 2,
                max_length: 3,
            },
        );
        assert!(
            found.iter().any(|f| f.episode == b"AB".to_vec()),
            "{found:?}"
        );
        // BA across period boundaries is rarer at this window width.
        for f in &found {
            assert!(f.windows >= 40);
        }
    }

    #[test]
    fn edt_ett_and_parallel_agree() {
        let params = EpisodeParams {
            window: 7,
            min_windows: 25,
            min_length: 1,
            max_length: 3,
        };
        let p = EpisodeMiningProblem::new(stream(), params.clone());
        let edt = sequential_edt(&p);
        let ett = sequential_ett(&p);
        assert_eq!(edt.good, ett.good);
        assert!(edt.tested <= ett.tested);
        let problem = Arc::new(EpisodeMiningProblem::new(stream(), params.clone()));
        let par = problem.report(&parallel_ett(
            Arc::clone(&problem),
            &ParallelConfig::load_balanced(3),
        ));
        let seq = discover_episodes(&stream(), params);
        assert_eq!(seq, par);
    }

    #[test]
    fn farm_discovery_matches_golden_fixture() {
        // The doc-test stream, mined on the farm: A→B recurs in 40+
        // windows; the report is pinned bit-for-bit.
        let found = discover_episodes_farm(
            &stream(),
            EpisodeParams {
                window: 5,
                min_windows: 40,
                min_length: 2,
                max_length: 3,
            },
            &ParallelConfig::load_balanced(3),
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].episode, b"AB".to_vec());
        assert!(found[0].windows >= 40);
    }

    #[test]
    fn farm_discovery_is_bit_identical_to_sequential() {
        let params = EpisodeParams {
            window: 7,
            min_windows: 25,
            min_length: 1,
            max_length: 3,
        };
        let sequential = discover_episodes(&stream(), params.clone());
        for cfg in [
            ParallelConfig::load_balanced(1),
            ParallelConfig::load_balanced(4),
            ParallelConfig::load_balanced(3).with_prefetch(4),
            ParallelConfig::load_balanced(2)
                .kill_after(std::time::Duration::from_millis(1), 0)
                .kill_after(std::time::Duration::from_millis(3), 1),
        ] {
            let farm = discover_episodes_farm(&stream(), params.clone(), &cfg);
            assert_eq!(sequential, farm);
        }
    }

    #[test]
    fn empty_stream() {
        let e = EventSequence::new(vec![]);
        assert_eq!(e.n_windows(5), 0);
        let found = discover_episodes(
            &e,
            EpisodeParams {
                window: 5,
                min_windows: 1,
                min_length: 1,
                max_length: 2,
            },
        );
        assert!(found.is_empty());
    }
}
