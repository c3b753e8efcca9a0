//! Property tests of the discrete-event NOW simulator: conservation and
//! bound laws that must hold for every workload and machine pool.

use nowsim::{MachineSpec, SimConfig, SimTask, Simulator, StaticProgram};
use proptest::prelude::*;

fn arb_costs() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..10.0, 1..30)
}

fn arb_speeds() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.25f64..4.0, 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_tasks_complete(costs in arb_costs(), speeds in arb_speeds()) {
        let machines: Vec<MachineSpec> =
            speeds.iter().map(|&s| MachineSpec::with_speed(s)).collect();
        let r = Simulator::run_static(&costs, &machines, &SimConfig::zero_overhead());
        prop_assert_eq!(r.completed as usize, costs.len());
        prop_assert_eq!(r.aborted, 0);
    }

    #[test]
    fn makespan_lower_bounds(costs in arb_costs(), speeds in arb_speeds()) {
        let machines: Vec<MachineSpec> =
            speeds.iter().map(|&s| MachineSpec::with_speed(s)).collect();
        let r = Simulator::run_static(&costs, &machines, &SimConfig::zero_overhead());
        let total: f64 = costs.iter().sum();
        let aggregate_speed: f64 = speeds.iter().sum();
        let max_speed = speeds.iter().cloned().fold(0.0, f64::max);
        let longest = costs.iter().cloned().fold(0.0, f64::max);
        // Work conservation: cannot beat aggregate throughput.
        prop_assert!(r.makespan >= total / aggregate_speed - 1e-9);
        // Critical path: the longest task on the fastest machine.
        prop_assert!(r.makespan >= longest / max_speed - 1e-9);
    }

    #[test]
    fn makespan_upper_bound_greedy(costs in arb_costs(), speeds in arb_speeds()) {
        // Greedy list scheduling is a 2-approximation (Graham): makespan
        // <= total/aggregate + longest/min_speed.
        let machines: Vec<MachineSpec> =
            speeds.iter().map(|&s| MachineSpec::with_speed(s)).collect();
        let r = Simulator::run_static(&costs, &machines, &SimConfig::zero_overhead());
        let total: f64 = costs.iter().sum();
        let aggregate: f64 = speeds.iter().sum();
        let min_speed = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        let longest = costs.iter().cloned().fold(0.0, f64::max);
        prop_assert!(
            r.makespan <= total / aggregate + longest / min_speed + 1e-9,
            "makespan {} exceeds Graham bound", r.makespan
        );
    }

    #[test]
    fn more_machines_never_slower(costs in arb_costs(), n in 1usize..6) {
        let cfg = SimConfig::zero_overhead();
        let small: Vec<MachineSpec> = (0..n).map(|_| MachineSpec::ideal()).collect();
        let big: Vec<MachineSpec> = (0..n + 1).map(|_| MachineSpec::ideal()).collect();
        let r_small = Simulator::run_static(&costs, &small, &cfg);
        let r_big = Simulator::run_static(&costs, &big, &cfg);
        // Greedy FIFO with identical machines: adding a machine cannot
        // hurt on a static bag (no dependencies).
        prop_assert!(r_big.makespan <= r_small.makespan + 1e-9);
    }

    #[test]
    fn overheads_only_add_time(costs in arb_costs()) {
        let machines = vec![MachineSpec::ideal(), MachineSpec::ideal()];
        let fast = Simulator::run_static(&costs, &machines, &SimConfig::zero_overhead());
        let slow = Simulator::run_static(&costs, &machines, &SimConfig::lan_default());
        prop_assert!(slow.makespan >= fast.makespan - 1e-9);
    }

    #[test]
    fn metered_ledger_reconciles_with_report(costs in arb_costs(), speeds in arb_speeds()) {
        // The metrics ledger of a metered run must agree with the
        // SimReport it rode along with: task counts, per-machine busy
        // time (== speed-adjusted work with zero overhead), utilisation
        // within [0, 1], and the cross-layer invariant checker clean.
        let machines: Vec<MachineSpec> =
            speeds.iter().map(|&s| MachineSpec::with_speed(s)).collect();
        let reg = plinda::MetricsRegistry::new();
        let mut prog = StaticProgram::new(
            costs.iter().enumerate().map(|(i, &c)| SimTask::new(i as u64, c)).collect(),
        );
        let r = Simulator::run(&mut prog, &machines, &SimConfig::zero_overhead(), Some(&reg));
        let snap = reg.snapshot();
        prop_assert_eq!(snap.counter("sim.tasks.admitted"), costs.len() as u64);
        prop_assert_eq!(snap.counter("sim.tasks.completed"), r.completed);
        prop_assert_eq!(snap.counter("sim.tasks.aborted"), snap.counter("sim.tasks.requeued"));
        for (m, &b) in r.busy_time.iter().enumerate() {
            let ns = snap.counter(&format!("sim.machine.{m}.busy_ns"));
            prop_assert_eq!(ns, (b * 1e9).round() as u64, "machine {}", m);
            let util = snap.gauge(&format!("sim.machine.{m}.util_ppm")).unwrap();
            prop_assert!((0..=1_000_000).contains(&util.value), "util {}", util.value);
        }
        // Busy time is work / speed: scaling each machine's busy time
        // back by its speed recovers exactly the work it executed, and
        // the machines together executed the whole bag.
        let weighted: f64 = r.busy_time.iter().zip(&speeds).map(|(b, s)| b * s).sum();
        let work: f64 = costs.iter().sum();
        prop_assert!((weighted - work).abs() < 1e-6 * work.max(1.0),
            "busy*speed {} != work {}", weighted, work);
        let violations = plinda::metrics::check_snapshot(&snap);
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }

    #[test]
    fn metered_aborts_match_requeues_under_owner_churn(costs in arb_costs(), seed in 0u64..64) {
        // Owner-occupied pools abort and requeue work; the ledger must
        // record exactly one requeue per abort and keep every machine's
        // utilisation within [0, 1] even though aborted execution time
        // was spent without completing anything.
        let pattern = nowsim::traces::OwnerPattern { busy_mean: 5.0, idle_mean: 10.0 };
        let pool = nowsim::traces::workday_pool(seed, 3, 1_000_000.0, &pattern);
        let cfg = SimConfig { requeue_delay: 0.5, ..SimConfig::zero_overhead() };
        let reg = plinda::MetricsRegistry::new();
        let mut prog = StaticProgram::new(
            costs.iter().enumerate().map(|(i, &c)| SimTask::new(i as u64, c)).collect(),
        );
        let r = Simulator::run(&mut prog, &pool, &cfg, Some(&reg));
        let snap = reg.snapshot();
        prop_assert_eq!(snap.counter("sim.tasks.aborted"), r.aborted);
        prop_assert_eq!(snap.counter("sim.tasks.requeued"), r.aborted);
        prop_assert_eq!(snap.counter("sim.tasks.completed"), costs.len() as u64);
        for m in 0..pool.len() {
            let util = snap.gauge(&format!("sim.machine.{m}.util_ppm")).unwrap();
            prop_assert!((0..=1_000_000).contains(&util.value), "util {}", util.value);
        }
        let violations = plinda::metrics::check_snapshot(&snap);
        prop_assert!(violations.is_empty(), "{:?}", violations);
    }

    #[test]
    fn busy_time_consistent(costs in arb_costs(), speeds in arb_speeds()) {
        let machines: Vec<MachineSpec> =
            speeds.iter().map(|&s| MachineSpec::with_speed(s)).collect();
        let r = Simulator::run_static(&costs, &machines, &SimConfig::zero_overhead());
        // Total machine-seconds of execution equals the speed-adjusted
        // work.
        let total_busy: f64 = r.busy_time.iter().sum();
        let work: f64 = costs.iter().sum();
        // Each task of cost c on machine of speed s takes c/s seconds;
        // with distinct speeds busy time differs from work, but is
        // bounded by work / min_speed and work / max_speed.
        let min_speed = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_speed = speeds.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(total_busy <= work / min_speed + 1e-9);
        prop_assert!(total_busy >= work / max_speed - 1e-9);
        // And no machine is busy longer than the makespan.
        for &b in &r.busy_time {
            prop_assert!(b <= r.makespan + 1e-9);
        }
    }
}
