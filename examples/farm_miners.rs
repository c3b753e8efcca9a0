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
//! 2. **Cost replay**: the sequential traversal is recorded level by
//!    level in the wave's dispatch order (every tested candidate with its
//!    measured goodness cost, and the master's measured time to expand
//!    and encode each level) and re-scheduled through the NOW simulator
//!    under the wave farm's level-synchronous discipline at machine
//!    counts the host does not have: each level is cut into the same
//!    chunks the driver sends ([`wave_chunks`]), one simulated task per
//!    chunk costing the sum of its candidates. The schedule is
//!    simulated; the work content is real. Numbers land in EXPERIMENTS.md
//!    ("the farmed miners").

use fpdm::core::{wave_chunks, MiningProblem, ParallelConfig, PatternCodec};
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
const SIM_MACHINES: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// One level of the wave, as `parallel_wave` runs it.
struct Level {
    /// Each candidate's goodness cost, in dispatch order.
    costs: Vec<f64>,
    /// The master's serial time to build the level (the root's children,
    /// or the previous level's good patterns' children) and encode it.
    expand: f64,
}

/// Record the sequential E-tree traversal of `problem` level by level,
/// in the order the wave dispatches it.
fn record_levels<P: MiningProblem + PatternCodec>(problem: &P) -> Vec<Level> {
    let build = |parents: &[P::Pattern]| {
        let t0 = Instant::now();
        let level: Vec<P::Pattern> = parents.iter().flat_map(|p| problem.children(p)).collect();
        let bytes: usize = level.iter().map(|p| problem.encode_pattern(p).len()).sum();
        std::hint::black_box(bytes);
        (level, t0.elapsed().as_secs_f64())
    };
    let mut levels = Vec::new();
    let (mut level, mut expand) = build(&[problem.root()]);
    while !level.is_empty() {
        let mut costs = Vec::with_capacity(level.len());
        let mut good = Vec::new();
        for p in level {
            let t0 = Instant::now();
            let g = problem.goodness(&p);
            costs.push(t0.elapsed().as_secs_f64());
            if problem.is_good(&p, g) {
                good.push(p);
            }
        }
        levels.push(Level { costs, expand });
        (level, expand) = build(&good);
    }
    levels
}

/// The wave farm's schedule: each level is dispatched at once as the
/// driver's chunks, the next level only after the last chunk of the
/// current one completes (the master's collection barrier in
/// `parallel_wave`).
struct WaveReplay<'a> {
    levels: &'a [Level],
    workers: usize,
    depth: usize,
    remaining: usize,
    tasks: usize,
}

impl WaveReplay<'_> {
    fn wave(&mut self) -> Vec<SimTask> {
        let Some(level) = self.levels.get(self.depth) else {
            return Vec::new();
        };
        self.depth += 1;
        let chunks = wave_chunks(level.costs.len(), self.workers);
        self.remaining = chunks.len();
        self.tasks += chunks.len();
        chunks
            .into_iter()
            .enumerate()
            .map(|(i, range)| SimTask::new(i as u64, level.costs[range].iter().sum()))
            .collect()
    }
}

impl SimProgram for WaveReplay<'_> {
    fn initial_tasks(&mut self) -> Vec<SimTask> {
        self.wave()
    }

    fn on_complete(&mut self, _task: &SimTask) -> Vec<SimTask> {
        self.remaining -= 1;
        if self.remaining > 0 {
            return Vec::new();
        }
        self.wave()
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

fn replay<P: MiningProblem + PatternCodec>(problem: &P) {
    let mut levels = record_levels(problem);
    let recorded: f64 = levels.iter().flat_map(|l| &l.costs).sum();
    let scale = PAPER_SEQ / recorded.max(1e-9);
    for level in &mut levels {
        level.costs.iter_mut().for_each(|c| *c *= scale);
        level.expand *= scale;
    }
    let candidates: usize = levels.iter().map(|l| l.costs.len()).sum();
    let expand: f64 = levels.iter().map(|l| l.expand).sum();
    let lan = SimConfig::lan_default();
    println!(
        "  cost replay ({candidates} candidates in {} levels, scaled to {PAPER_SEQ:.0}s \
         sequential work; master expansion {expand:.2}s):",
        levels.len(),
    );
    println!("  Machines  Time(s)  Speedup  Tasks  Master(s)  Worker(s)  Top line");
    for &m in SIM_MACHINES {
        let mut prog = WaveReplay {
            levels: &levels,
            workers: m,
            depth: 0,
            remaining: 0,
            tasks: 0,
        };
        let machines: Vec<MachineSpec> = (0..m).map(|_| MachineSpec::ideal()).collect();
        let report = Simulator::run(&mut prog, &machines, &lan, None);
        // The master expands a level while every worker waits at the
        // barrier, so its expansion adds to the makespan; its per-task
        // admission is the simulator's serial master pipe.
        let time = report.makespan + expand;
        let master = expand + prog.tasks as f64 * lan.master_overhead;
        let worker = report.busy_time.iter().sum::<f64>() / m as f64;
        let top = if master > worker { "master" } else { "workers" };
        println!(
            "  {m:>8}  {time:>7.2}  {:>7.2}  {:>5}  {master:>9.2}  {worker:>9.2}  {top}",
            PAPER_SEQ / time,
            prog.tasks,
        );
    }
    println!();
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
    replay(&SeqMiningProblem::new(db, params));
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
    replay(&TreeMiningProblem::new(trees, params));
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
    replay(&EpisodeMiningProblem::new(events, params));
}

fn main() {
    println!("Farmed lattice miners: sequential vs parallel_wave\n");
    bench_seqmine();
    bench_treemine();
    bench_episodes();
}
