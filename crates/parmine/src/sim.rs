//! NOW-simulator replays for the Chapter 6 speedup figures.
//!
//! The figures plot running time and speedup versus machine count for
//! workloads whose task costs we *measure* from real runs: the main tree
//! and the `V` auxiliary trees of Parallel NyuMiner-CV (Figs. 6.3/6.4),
//! and the trial trees of Parallel C4.5 / Parallel NyuMiner-RS (Figs.
//! 6.5–6.8). The schedule over `n` simulated machines — the only thing
//! the 1998 LAN contributed — comes from [`nowsim`].

use nowsim::{MachineSpec, SimConfig, SimReport, SimTask, Simulator, StaticProgram};

/// Simulate Parallel NyuMiner-CV: the main tree is pinned to machine 0
/// (the master grows it, §6.1.1) while the auxiliary-tree tasks feed the
/// remaining machines (machine 0 joins the bag once its own work is
/// done).
pub fn simulate_parallel_cv(
    main_cost: f64,
    aux_costs: &[f64],
    machines: usize,
    config: &SimConfig,
) -> SimReport {
    assert!(machines >= 1);
    let mut tasks = vec![SimTask::pinned(0, main_cost, 0)];
    tasks.extend(
        aux_costs
            .iter()
            .enumerate()
            .map(|(i, &c)| SimTask::new(1 + i as u64, c)),
    );
    let pool: Vec<MachineSpec> = (0..machines).map(|_| MachineSpec::ideal()).collect();
    Simulator::run(&mut StaticProgram::new(tasks), &pool, config, None)
}

/// Simulate a trial-parallel run (Parallel C4.5 / Parallel NyuMiner-RS):
/// one unpinned task per trial.
pub fn simulate_parallel_trials(
    trial_costs: &[f64],
    machines: usize,
    config: &SimConfig,
) -> SimReport {
    assert!(machines >= 1);
    let tasks = trial_costs
        .iter()
        .enumerate()
        .map(|(i, &c)| SimTask::new(i as u64, c))
        .collect();
    let pool: Vec<MachineSpec> = (0..machines).map(|_| MachineSpec::ideal()).collect();
    Simulator::run(&mut StaticProgram::new(tasks), &pool, config, None)
}

/// Speedup convention of Chapter 6: the sequential reference for `n`
/// machines is the *sequential* running time of the same workload
/// (e.g. the V-fold CV time from Table 6.1), divided by the parallel
/// makespan.
pub fn speedup(sequential: f64, report: &SimReport) -> f64 {
    sequential / report.makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cv_speedup_saturates_at_main_tree_cost() {
        // Main tree ~ 4 aux trees (the paper's observation): with many
        // machines the makespan floors at the main tree.
        let aux = vec![1.0; 8];
        let cfg = SimConfig::zero_overhead();
        let r1 = simulate_parallel_cv(4.0, &aux, 1, &cfg);
        assert!((r1.makespan - 12.0).abs() < 1e-9);
        let r3 = simulate_parallel_cv(4.0, &aux, 3, &cfg);
        assert!(r3.makespan >= 4.0);
        let r9 = simulate_parallel_cv(4.0, &aux, 9, &cfg);
        assert!((r9.makespan - 4.0).abs() < 1e-6, "makespan {}", r9.makespan);
    }

    #[test]
    fn trials_split_evenly() {
        let costs = vec![2.0; 10];
        let cfg = SimConfig::zero_overhead();
        let r = simulate_parallel_trials(&costs, 5, &cfg);
        assert!((r.makespan - 4.0).abs() < 1e-9);
        assert!((speedup(20.0, &r) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn uneven_trials_limit_speedup() {
        let costs = vec![10.0, 1.0, 1.0, 1.0];
        let cfg = SimConfig::zero_overhead();
        let r = simulate_parallel_trials(&costs, 4, &cfg);
        assert!((r.makespan - 10.0).abs() < 1e-9);
    }
}
