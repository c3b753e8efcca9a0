//! Cost-replay of E-tree traversals through the NOW simulator.
//!
//! The Chapter 4 experiments compare parallelisation *strategies* —
//! optimistic vs. load-balanced workers, plain vs. adaptive master — on a
//! LAN of up to 45 workstations. To regenerate those curves without the
//! LAN, we record a real sequential traversal as an [`ETree`] (every
//! tested node with its measured cost), then schedule that recorded tree
//! through [`nowsim`] under each strategy. The schedule — which is all the
//! machine count changes — is simulated; the work content is real.

use crate::etree::ETree;
use nowsim::{MachineSpec, SimConfig, SimProgram, SimReport, SimTask, Simulator};
use std::time::Instant;

/// An [`ETree`] with per-node execution costs (speed-1 seconds), detached
/// from the pattern type so it can be stored and replayed cheaply.
#[derive(Debug, Clone)]
pub struct CostTree {
    nodes: Vec<CostNode>,
    top_level: Vec<usize>,
}

/// One node of a [`CostTree`].
#[derive(Debug, Clone)]
pub struct CostNode {
    /// Time to evaluate this node's goodness.
    pub cost: f64,
    /// Whether the node was good (has children).
    pub good: bool,
    /// Child node ids.
    pub children: Vec<usize>,
    /// Depth below the root (top level = 1).
    pub depth: usize,
}

impl CostTree {
    /// Attach costs to a recorded E-tree via a caller-provided model
    /// (e.g. measured wall time, or an analytic function of the pattern).
    pub fn from_etree<P>(tree: &ETree<P>, cost: impl Fn(&P, f64) -> f64) -> Self {
        CostTree {
            nodes: tree
                .nodes
                .iter()
                .map(|n| CostNode {
                    cost: cost(&n.pattern, n.goodness),
                    good: n.good,
                    children: n.children.clone(),
                    depth: n.depth,
                })
                .collect(),
            top_level: tree.top_level.clone(),
        }
    }

    /// Record a sequential E-tree traversal of `problem`, measuring the
    /// wall-clock cost of each goodness evaluation.
    pub fn record_timed<P: crate::problem::MiningProblem>(problem: &P) -> Self {
        let mut nodes: Vec<CostNode> = Vec::new();
        let mut top_level = Vec::new();
        let root = problem.root();
        let mut stack: Vec<(P::Pattern, usize, usize)> = problem
            .children(&root)
            .into_iter()
            .rev()
            .map(|c| (c, usize::MAX, 1))
            .collect();
        while let Some((p, parent, depth)) = stack.pop() {
            let t0 = Instant::now();
            let g = problem.goodness(&p);
            let cost = t0.elapsed().as_secs_f64();
            let good = problem.is_good(&p, g);
            let id = nodes.len();
            nodes.push(CostNode {
                cost,
                good,
                children: Vec::new(),
                depth,
            });
            if parent == usize::MAX {
                top_level.push(id);
            } else {
                nodes[parent].children.push(id);
            }
            if good {
                for c in problem.children(&p).into_iter().rev() {
                    stack.push((c, id, depth + 1));
                }
            }
        }
        CostTree { nodes, top_level }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow the nodes.
    pub fn nodes(&self) -> &[CostNode] {
        &self.nodes
    }

    /// Ids of the depth-1 nodes.
    pub fn top_level(&self) -> &[usize] {
        &self.top_level
    }

    /// Total sequential work (what a one-machine run spends computing).
    pub fn sequential_time(&self) -> f64 {
        self.nodes.iter().map(|n| n.cost).sum()
    }

    /// Total cost of the subtree rooted at `id` (inclusive).
    pub fn subtree_cost(&self, id: usize) -> f64 {
        let mut total = 0.0;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            total += self.nodes[n].cost;
            stack.extend(&self.nodes[n].children);
        }
        total
    }

    /// Node ids at exactly `depth`.
    pub fn at_depth(&self, depth: usize) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].depth == depth)
            .collect()
    }

    /// Cost the master pays traversing levels shallower than
    /// `initial_task_level` itself (the adaptive master's serial prologue).
    pub fn master_prologue(&self, initial_task_level: usize) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.depth < initial_task_level)
            .map(|n| n.cost)
            .sum()
    }

    /// Scale every node cost (used to convert measured costs into the
    /// paper's SPARC-era magnitudes for presentation).
    pub fn scaled(&self, factor: f64) -> Self {
        let mut c = self.clone();
        for n in &mut c.nodes {
            n.cost *= factor;
        }
        c
    }
}

/// Load-balanced replay: one task per tree node, children spawned on
/// completion of a good node (Figs. 4.6/4.7 through the simulator).
struct LoadBalancedReplay<'a> {
    tree: &'a CostTree,
    initial_task_level: usize,
}

impl SimProgram for LoadBalancedReplay<'_> {
    fn initial_tasks(&mut self) -> Vec<SimTask> {
        self.tree
            .at_depth(self.initial_task_level)
            .into_iter()
            .map(|id| SimTask::new(id as u64, self.tree.nodes[id].cost))
            .collect()
    }

    fn on_complete(&mut self, task: &SimTask) -> Vec<SimTask> {
        self.tree.nodes[task.id as usize]
            .children
            .iter()
            .map(|&c| SimTask::new(c as u64, self.tree.nodes[c].cost))
            .collect()
    }
}

/// Optimistic replay: one task per initial-frontier *subtree* (Figs.
/// 4.4/4.5 through the simulator).
struct OptimisticReplay<'a> {
    tree: &'a CostTree,
    initial_task_level: usize,
}

impl SimProgram for OptimisticReplay<'_> {
    fn initial_tasks(&mut self) -> Vec<SimTask> {
        self.tree
            .at_depth(self.initial_task_level)
            .into_iter()
            .map(|id| SimTask::new(id as u64, self.tree.subtree_cost(id)))
            .collect()
    }

    fn on_complete(&mut self, _task: &SimTask) -> Vec<SimTask> {
        Vec::new()
    }
}

/// Outcome of a strategy replay.
#[derive(Debug, Clone)]
pub struct StrategyReport {
    /// Simulated wall time including the master's serial prologue.
    pub makespan: f64,
    /// Underlying simulator report.
    pub sim: SimReport,
    /// Sequential reference time (all node costs).
    pub sequential: f64,
}

impl StrategyReport {
    /// Efficiency per §4.3: `sequential / (machines * makespan)`.
    pub fn efficiency(&self, machines: usize) -> f64 {
        self.sequential / (machines as f64 * self.makespan)
    }

    /// Speedup over the sequential reference.
    pub fn speedup(&self) -> f64 {
        self.sequential / self.makespan
    }
}

/// Replay `tree` under the load-balanced strategy on `machines`.
pub fn simulate_load_balanced(
    tree: &CostTree,
    machines: &[MachineSpec],
    config: &SimConfig,
    initial_task_level: usize,
) -> StrategyReport {
    let mut prog = LoadBalancedReplay {
        tree,
        initial_task_level,
    };
    run_strategy(tree, &mut prog, machines, config, initial_task_level)
}

/// Replay `tree` under the optimistic strategy on `machines`.
pub fn simulate_optimistic(
    tree: &CostTree,
    machines: &[MachineSpec],
    config: &SimConfig,
    initial_task_level: usize,
) -> StrategyReport {
    let mut prog = OptimisticReplay {
        tree,
        initial_task_level,
    };
    run_strategy(tree, &mut prog, machines, config, initial_task_level)
}

fn run_strategy(
    tree: &CostTree,
    prog: &mut dyn SimProgram,
    machines: &[MachineSpec],
    config: &SimConfig,
    initial_task_level: usize,
) -> StrategyReport {
    let prologue = tree.master_prologue(initial_task_level);
    let sim = Simulator::run(prog, machines, config, None);
    StrategyReport {
        makespan: prologue + sim.makespan,
        sequential: tree.sequential_time(),
        sim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::sequential_ett_recorded;
    use crate::toy::ToySeq;

    fn sample_tree() -> CostTree {
        let p = ToySeq::new(
            vec!["ABRACADABRA", "CADABRAABRA", "DABRACARBAA", "RACADABRAAB"],
            2,
            6,
        );
        let (_, etree) = sequential_ett_recorded(&p);
        // Cost model: proportional to pattern length (longer motifs cost
        // more to match), floor of 1.
        CostTree::from_etree(&etree, |pat, _| 1.0 + pat.len() as f64 * 0.5)
    }

    #[test]
    fn one_machine_matches_sequential_time() {
        let tree = sample_tree();
        let r = simulate_load_balanced(
            &tree,
            &[MachineSpec::ideal()],
            &SimConfig::zero_overhead(),
            1,
        );
        assert!((r.makespan - tree.sequential_time()).abs() < 1e-6);
        assert!((r.efficiency(1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn optimistic_completes_same_node_count() {
        let tree = sample_tree();
        let lb = simulate_load_balanced(
            &tree,
            &[MachineSpec::ideal(), MachineSpec::ideal()],
            &SimConfig::zero_overhead(),
            1,
        );
        let opt = simulate_optimistic(
            &tree,
            &[MachineSpec::ideal(), MachineSpec::ideal()],
            &SimConfig::zero_overhead(),
            1,
        );
        // LB completes one sim-task per node; optimistic one per subtree.
        assert_eq!(lb.sim.completed as usize, tree.len());
        assert_eq!(opt.sim.completed as usize, tree.at_depth(1).len());
        // Both do the same total work.
        let lb_busy: f64 = lb.sim.busy_time.iter().sum();
        let opt_busy: f64 = opt.sim.busy_time.iter().sum();
        assert!((lb_busy - opt_busy).abs() < 1e-6);
    }

    #[test]
    fn load_balanced_beats_optimistic_with_many_machines() {
        // With machines ≈ number of top-level tasks, optimistic suffers
        // from subtree imbalance while load-balanced shares the work.
        let tree = sample_tree();
        let n = tree.at_depth(1).len();
        let machines: Vec<MachineSpec> = (0..n).map(|_| MachineSpec::ideal()).collect();
        let lb = simulate_load_balanced(&tree, &machines, &SimConfig::zero_overhead(), 1);
        let opt = simulate_optimistic(&tree, &machines, &SimConfig::zero_overhead(), 1);
        assert!(
            lb.makespan <= opt.makespan + 1e-9,
            "lb {} vs opt {}",
            lb.makespan,
            opt.makespan
        );
    }

    #[test]
    fn adaptive_master_pays_prologue_but_gains_tasks() {
        let tree = sample_tree();
        assert!(tree.master_prologue(2) > 0.0);
        assert!(tree.at_depth(2).len() >= tree.at_depth(1).len());
        let machines: Vec<MachineSpec> = (0..8).map(|_| MachineSpec::ideal()).collect();
        let plain = simulate_optimistic(&tree, &machines, &SimConfig::zero_overhead(), 1);
        let adaptive = simulate_optimistic(&tree, &machines, &SimConfig::zero_overhead(), 2);
        // Both finish all work; with 8 machines and few top-level tasks the
        // level-2 split can only help or tie once imbalance dominates.
        assert!(plain.makespan > 0.0 && adaptive.makespan > 0.0);
    }

    #[test]
    fn scaled_multiplies_costs() {
        let tree = sample_tree();
        let scaled = tree.scaled(3.0);
        assert!((scaled.sequential_time() - 3.0 * tree.sequential_time()).abs() < 1e-9);
    }

    #[test]
    fn record_timed_produces_positive_costs() {
        let p = ToySeq::new(vec!["AABB", "ABAB", "BBAA"], 2, 4);
        let tree = CostTree::record_timed(&p);
        assert!(!tree.is_empty());
        assert!(tree.sequential_time() >= 0.0);
        // Structure mirrors the recorded traversal.
        let (out, etree) = sequential_ett_recorded(&p);
        assert_eq!(tree.len() as u64, out.tested);
        assert_eq!(tree.at_depth(1).len(), etree.top_level.len());
    }
}
