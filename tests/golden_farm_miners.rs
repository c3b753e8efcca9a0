//! Golden outputs of the farmed lattice miners: the rendered
//! (`format!("{:?}")`, as the service renders responses) reports of
//! `seqmine`, `treemine` and `episodes` on fixed generated datasets,
//! compared byte for byte with committed fixtures.
//!
//! The datasets are generated as the `serve_farm` benchmark workload's
//! catalog generates them, and the first case of each miner is that
//! workload's request shape for it; the second case of each
//! exercises the non-trivial budget (one mutation, distance one, a
//! width-1 window over same-timestamp events). So each miner's goodness
//! is pinned on both of its paths: seqmine's first case is read from
//! the GST (`Mut = 0`) and its second scans every sequence; treemine's
//! first case is the top-down containment test (`Dist = 0`) and its
//! second the distance program; episodes counts by the first-event
//! sweep at widths 5 and 1. The fixtures were rendered by the
//! per-candidate kernels that scanned every sequence, ran the distance
//! program at every distance and counted window by window, before any
//! of these shortcuts, so any drift in a kernel's answer fails here.
//! Both the sequential and the farmed entry point must reproduce them.
//!
//! A fixture file is `tests/fixtures/farm_miners/<case>-<seed>.txt`,
//! holding exactly the rendered report; rewrite one only for an intended
//! change of answer.

use fpdm::core::ParallelConfig;
use fpdm::datagen::{event_stream, protein_family, rna_structures, PlantedMotif};
use fpdm::episodes::{discover_episodes, discover_episodes_farm, EpisodeParams, EventSequence};
use fpdm::seqmine::{discover, discover_farm, DiscoveryParams, Sequence};
use fpdm::treemine::{
    discover_tree_motifs, discover_tree_motifs_farm, OrderedTree, TreeDiscoveryParams,
};
use std::path::PathBuf;

/// Dataset seeds every case runs on.
const SEEDS: [u64; 3] = [3, 11, 23];

/// The `globins` dataset of the `serve_farm` catalog.
fn globins(seed: u64) -> Vec<Sequence> {
    protein_family(
        seed,
        40,
        60,
        10,
        &[PlantedMotif::mutated("HEMOGLB", 0.6, 1)],
    )
}

/// The `rna` dataset of the `serve_farm` catalog.
fn rna(seed: u64) -> Vec<OrderedTree> {
    rna_structures(seed, 30, 12, &[(OrderedTree::parse("a(b,c)"), 0.5)])
}

/// The `alarms` dataset of the `serve_farm` catalog.
fn alarms(seed: u64) -> EventSequence {
    EventSequence::new(event_stream(seed, 4000, 4, 0.2, &[(b"AB", 40)]))
}

fn episode_params(window: u32, min_windows: usize, max_length: usize) -> EpisodeParams {
    EpisodeParams {
        window,
        min_windows,
        min_length: 2,
        max_length,
    }
}

fn tree_params(max_size: usize, min_occurrence: usize, max_distance: usize) -> TreeDiscoveryParams {
    TreeDiscoveryParams {
        min_size: 2,
        max_size,
        min_occurrence,
        max_distance,
    }
}

/// The cases, by name: each renders its report for a dataset seed, once
/// sequentially and once on the farm.
type Case = (&'static str, fn(u64, Option<&ParallelConfig>) -> String);

fn cases() -> Vec<Case> {
    fn seq(seed: u64, farm: Option<&ParallelConfig>, params: DiscoveryParams) -> String {
        let db = globins(seed);
        match farm {
            None => format!("{:?}", discover(db, params)),
            Some(cfg) => format!("{:?}", discover_farm(db, params, cfg)),
        }
    }
    fn tree(seed: u64, farm: Option<&ParallelConfig>, params: TreeDiscoveryParams) -> String {
        let trees = rna(seed);
        match farm {
            None => format!("{:?}", discover_tree_motifs(trees, params)),
            Some(cfg) => format!("{:?}", discover_tree_motifs_farm(trees, params, cfg)),
        }
    }
    fn epi(seed: u64, farm: Option<&ParallelConfig>, params: EpisodeParams) -> String {
        let events = alarms(seed);
        match farm {
            None => format!("{:?}", discover_episodes(&events, params)),
            Some(cfg) => format!("{:?}", discover_episodes_farm(&events, params, cfg)),
        }
    }
    vec![
        ("seqmine_short", |s, f| {
            seq(s, f, DiscoveryParams::new(4, 6, 20, 0))
        }),
        ("seqmine_mut1", |s, f| {
            seq(s, f, DiscoveryParams::new(4, 5, 20, 1))
        }),
        ("treemine", |s, f| tree(s, f, tree_params(4, 12, 0))),
        ("treemine_dist1", |s, f| tree(s, f, tree_params(3, 24, 1))),
        ("episodes", |s, f| epi(s, f, episode_params(5, 40, 4))),
        ("episodes_w1", |s, f| epi(s, f, episode_params(1, 2, 3))),
    ]
}

fn fixture(case: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/farm_miners")
        .join(format!("{case}-{seed}.txt"))
}

#[test]
fn farmed_miner_reports_match_goldens() {
    let farm = ParallelConfig::load_balanced(2);
    for (case, render) in cases() {
        for seed in SEEDS {
            let path = fixture(case, seed);
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            assert_eq!(render(seed, None), golden, "{case} seed {seed}: sequential");
            assert_eq!(
                render(seed, Some(&farm)),
                golden,
                "{case} seed {seed}: farm"
            );
        }
    }
}
