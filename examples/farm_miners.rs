//! The farmed lattice miners — seqmine (GST motif discovery), treemine
//! (tree-distance motifs), and episodes (frequent episodes) — run as
//! candidate-partitioned wave farms (`fpdm_core::parallel_wave`) against
//! their sequential counterparts.
//!
//! Two measurements per miner, following the Chapter 4 methodology:
//!
//! 1. **Real runs**: the farm executes on this host at several worker
//!    counts and the output is asserted bit-identical to the sequential
//!    miner before any time is printed.
//! 2. **Cost replay**: the sequential traversal is recorded as a
//!    [`CostTree`] (every tested candidate with its measured goodness
//!    cost) and re-scheduled through the NOW simulator under the wave
//!    farm's level-synchronous discipline at machine counts the host
//!    does not have. The schedule is simulated; the work content is
//!    real. Numbers land in EXPERIMENTS.md ("the farmed miners").

use fpdm::core::strategy::CostTree;
use fpdm::core::{MiningProblem, ParallelConfig};
use fpdm::datagen::{event_stream, protein_family, rna_structures, PlantedMotif};
use fpdm::episodes::{
    discover_episodes, discover_episodes_farm, EpisodeMiningProblem, EpisodeParams, EventSequence,
};
use fpdm::nowsim::{MachineSpec, SimConfig, SimProgram, SimTask, Simulator};
use fpdm::seqmine::{discover, discover_farm, DiscoveryParams, SeqMiningProblem, Sequence};
use fpdm::treemine::{
    discover_tree_motifs, discover_tree_motifs_farm, OrderedTree, TreeDiscoveryParams,
    TreeMiningProblem,
};
use std::time::Instant;

const REAL_WORKERS: &[usize] = &[1, 4];
const SIM_MACHINES: &[usize] = &[1, 2, 4, 8];

/// The wave farm's schedule: the whole frontier level is dispatched at
/// once, the next level only after the last task of the current one
/// completes (the master's collection barrier in `parallel_wave`).
struct WaveReplay<'a> {
    tree: &'a CostTree,
    depth: usize,
    remaining: usize,
}

impl<'a> WaveReplay<'a> {
    fn wave(&mut self, depth: usize) -> Vec<SimTask> {
        let ids = self.tree.at_depth(depth);
        self.depth = depth;
        self.remaining = ids.len();
        ids.into_iter()
            .map(|id| SimTask::new(id as u64, self.tree.nodes()[id].cost))
            .collect()
    }
}

impl SimProgram for WaveReplay<'_> {
    fn initial_tasks(&mut self) -> Vec<SimTask> {
        self.wave(1)
    }

    fn on_complete(&mut self, _task: &SimTask) -> Vec<SimTask> {
        self.remaining -= 1;
        if self.remaining > 0 {
            return Vec::new();
        }
        self.wave(self.depth + 1)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Sequential magnitude the recorded tree is scaled to before replay,
/// following the harness's presentation convention: measured costs are
/// converted to the paper's SPARC-era scale (Table 4.2 runs take
/// minutes to hours), so the LAN overheads of `SimConfig::lan_default`
/// stand in the same proportion to task grain as in the dissertation.
const PAPER_SEQ: f64 = 600.0;

fn replay<P: MiningProblem>(name: &str, problem: &P) {
    let tree = CostTree::record_timed(problem);
    let tree = tree.scaled(PAPER_SEQ / tree.sequential_time().max(1e-9));
    let seq = tree.sequential_time();
    println!(
        "  cost replay ({} candidates, scaled to {:.0}s sequential work):",
        tree.len(),
        seq
    );
    println!("  Machines  Time(s)  Speedup");
    for &m in SIM_MACHINES {
        let mut prog = WaveReplay {
            tree: &tree,
            depth: 0,
            remaining: 0,
        };
        let machines: Vec<MachineSpec> = (0..m).map(|_| MachineSpec::ideal()).collect();
        let report = Simulator::run(&mut prog, &machines, &SimConfig::lan_default(), None);
        println!(
            "  {m:>8}  {:>7.2}  {:>7.2}",
            report.makespan,
            report.speedup(seq)
        );
    }
    println!();
    let _ = name;
}

fn bench_seqmine() {
    let db: Vec<Sequence> = protein_family(
        7,
        40,
        120,
        20,
        &[
            PlantedMotif::exact("HLRRKW", 0.5),
            PlantedMotif::exact("GAVLDY", 0.4),
        ],
    );
    let params = DiscoveryParams::new(4, 7, 8, 1);
    let (reference, seq_s) = timed(|| discover(db.clone(), params.clone()));
    println!(
        "seqmine: sequential {:.2}s, {} motifs",
        seq_s,
        reference.len()
    );
    for &w in REAL_WORKERS {
        let cfg = ParallelConfig::load_balanced(w);
        let (got, t) = timed(|| discover_farm(db.clone(), params.clone(), &cfg));
        assert_eq!(reference, got, "farm output drifted from sequential");
        println!("  real farm, {w} workers: {t:.2}s (output bit-identical)");
    }
    replay("seqmine", &SeqMiningProblem::new(db, params));
}

fn bench_treemine() {
    let trees: Vec<OrderedTree> = rna_structures(
        11,
        40,
        30,
        &[
            (OrderedTree::parse("M(R,H)"), 0.6),
            (OrderedTree::parse("I(B,B)"), 0.5),
        ],
    );
    let params = TreeDiscoveryParams {
        min_size: 2,
        max_size: 5,
        min_occurrence: 10,
        max_distance: 1,
    };
    let (reference, seq_s) = timed(|| discover_tree_motifs(trees.clone(), params.clone()));
    println!(
        "treemine: sequential {:.2}s, {} motifs",
        seq_s,
        reference.len()
    );
    for &w in REAL_WORKERS {
        let cfg = ParallelConfig::load_balanced(w);
        let (got, t) = timed(|| discover_tree_motifs_farm(trees.clone(), params.clone(), &cfg));
        assert_eq!(reference, got, "farm output drifted from sequential");
        println!("  real farm, {w} workers: {t:.2}s (output bit-identical)");
    }
    replay("treemine", &TreeMiningProblem::new(trees, params));
}

fn bench_episodes() {
    let events = EventSequence::new(event_stream(
        13,
        20_000,
        6,
        0.8,
        &[(b"abc", 25), (b"fed", 40)],
    ));
    let params = EpisodeParams {
        window: 12,
        min_windows: 200,
        min_length: 1,
        max_length: 4,
    };
    let (reference, seq_s) = timed(|| discover_episodes(&events, params.clone()));
    println!(
        "episodes: sequential {:.2}s, {} episodes",
        seq_s,
        reference.len()
    );
    for &w in REAL_WORKERS {
        let cfg = ParallelConfig::load_balanced(w);
        let (got, t) = timed(|| discover_episodes_farm(&events, params.clone(), &cfg));
        assert_eq!(reference, got, "farm output drifted from sequential");
        println!("  real farm, {w} workers: {t:.2}s (output bit-identical)");
    }
    replay("episodes", &EpisodeMiningProblem::new(events, params));
}

fn main() {
    println!("Farmed lattice miners: sequential vs parallel_wave\n");
    bench_seqmine();
    bench_treemine();
    bench_episodes();
}
