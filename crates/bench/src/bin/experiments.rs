//! The experiment harness: regenerates every table and figure of the
//! dissertation's evaluation (see the per-experiment index in DESIGN.md).
//!
//! ```text
//! cargo run -p fpdm-bench --release --bin experiments -- all
//! cargo run -p fpdm-bench --release --bin experiments -- t4.2 f4.8 t5.3
//! cargo run -p fpdm-bench --release --bin experiments -- ch4 ch5 ch6
//! ```
//!
//! Measured costs are real (this machine); parallel schedules beyond the
//! host's cores replay those costs through the `nowsim` discrete-event
//! simulator, per the substitution policy of DESIGN.md. Absolute times
//! will not match the 1998 SPARC numbers; shapes should.

use fpdm_bench::tables::{pct, render, secs};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<&str> = args.iter().map(String::as_str).collect();
    if ids.is_empty() {
        eprintln!(
            "usage: experiments [all|ch4|ch5|ch6|t4.2|f4.8|f4.9|f4.10|f4.11|f4.12|f4.13|f4.14|\
             t5.1|t5.2|t5.3|t5.4|t5.5|t5.6|t6.1|f6.3|f6.4|t6.2|f6.5|f6.6|t6.3|f6.7|f6.8|free]..."
        );
        std::process::exit(2);
    }
    if ids.contains(&"all") {
        ids = vec!["ch4", "ch5", "ch6"];
    }
    let mut expanded: Vec<&str> = Vec::new();
    for id in ids {
        match id {
            "ch4" => expanded.extend([
                "t4.2", "f4.8", "f4.9", "f4.10", "f4.11", "f4.12", "f4.13", "f4.14", "free",
            ]),
            "ch5" => expanded.extend(["t5.1", "t5.2", "t5.3", "t5.4", "t5.5", "t5.6"]),
            "ch6" => expanded.extend([
                "t6.1", "f6.3", "f6.4", "t6.2", "f6.5", "f6.6", "t6.3", "f6.7", "f6.8",
            ]),
            other => expanded.push(other),
        }
    }
    for id in expanded {
        let t0 = Instant::now();
        match id {
            "t4.2" => ch4::t4_2(),
            "f4.8" => ch4::f4_8_9(1),
            "f4.9" => ch4::f4_8_9(2),
            "f4.10" => ch4::f4_10_13(1, ch4::Strategy::LoadBalanced),
            "f4.11" => ch4::f4_10_13(1, ch4::Strategy::Optimistic),
            "f4.12" => ch4::f4_10_13(2, ch4::Strategy::LoadBalanced),
            "f4.13" => ch4::f4_10_13(2, ch4::Strategy::Optimistic),
            "f4.14" => ch4::f4_14(),
            "t5.1" => ch5::t5_1(),
            "t5.2" => ch5::t5_2(),
            "t5.3" => ch5::t5_3(),
            "t5.4" => ch5::t5_4(),
            "t5.5" => ch5::t5_5(),
            "t5.6" => ch5::t5_6(),
            "t6.1" => ch6::t6_1(),
            "f6.3" => ch6::f6_3_4("yeast"),
            "f6.4" => ch6::f6_3_4("satimage"),
            "t6.2" => ch6::t6_2(),
            "f6.5" => ch6::f6_5_6("smoking"),
            "f6.6" => ch6::f6_5_6("letter"),
            "t6.3" => ch6::t6_3(),
            "f6.7" => ch6::f6_7_8("yeast"),
            "f6.8" => ch6::f6_7_8("satimage"),
            "free" => ch4::free_cycles(),
            other => {
                eprintln!("unknown experiment id {other}");
                std::process::exit(2);
            }
        }
        eprintln!("[{id} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}

/// Chapter 4: biological pattern discovery on the cyclins substitute.
mod ch4 {
    use super::*;
    use datagen::cyclins_substitute;
    use fpdm_core::{
        sequential_ett, sequential_ett_recorded, simulate_load_balanced, simulate_optimistic,
        CostTree, StrategyReport,
    };
    use nowsim::{MachineSpec, SimConfig};
    use seqmine::{DiscoveryParams, SeqMiningProblem};

    const SEED: u64 = 1998;
    /// The paper's sequential times for the two settings (Table 4.2),
    /// used to scale measured costs to SPARC-era magnitudes so the
    /// simulated overheads carry the same relative weight.
    const PAPER_SEQ: [f64; 2] = [1134.0, 1299.0];

    pub fn params(setting: usize) -> DiscoveryParams {
        match setting {
            // Table 4.2 setting 1: Length >= 12, Occur >= 5, Mut = 0.
            1 => DiscoveryParams::new(12, 16, 5, 0).with_sample_occurrence(5),
            // Setting 2: Length >= 16, Occur >= 12, Mut = 4.
            2 => DiscoveryParams::new(16, 22, 12, 4).with_sample_occurrence(2),
            _ => unreachable!(),
        }
    }

    fn problem(setting: usize) -> SeqMiningProblem {
        SeqMiningProblem::new(cyclins_substitute(SEED), params(setting))
    }

    pub fn t4_2() {
        println!("== Table 4.2: parameter settings and sequential results (cyclins substitute) ==");
        let mut rows = Vec::new();
        for setting in [1usize, 2] {
            let p = problem(setting);
            let t0 = Instant::now();
            let outcome = sequential_ett(&p);
            let elapsed = t0.elapsed().as_secs_f64();
            let motifs = p.report(&outcome);
            let prm = params(setting);
            rows.push(vec![
                format!("{setting}"),
                format!("{}", prm.min_length),
                format!("{}", prm.min_occurrence),
                format!("{}", prm.max_mutations),
                format!("{}", motifs.len()),
                format!("{}", outcome.tested),
                secs(elapsed),
            ]);
        }
        println!(
            "{}",
            render(
                &[
                    "Setting",
                    "MinLen",
                    "MinOccur",
                    "MaxMut",
                    "Motifs",
                    "Tested",
                    "SeqTime(s)"
                ],
                &rows
            )
        );
    }

    /// Recorded cost tree scaled so sequential time matches the paper's.
    /// Each tested node costs what the 1998 program paid for it, a scan
    /// of every sequence, timed here: the miner itself answers setting 1
    /// (`Mut = 0`) from its GST, which timer noise would swamp.
    fn scaled_tree(setting: usize) -> (CostTree, f64) {
        let p = problem(setting);
        let (_, recorded) = sequential_ett_recorded(&p);
        let tree = CostTree::from_etree(&recorded, |pattern, _| {
            let t0 = Instant::now();
            std::hint::black_box(p.scanned_goodness(pattern));
            t0.elapsed().as_secs_f64()
        });
        let factor = PAPER_SEQ[setting - 1] / tree.sequential_time().max(1e-9);
        let tree = tree.scaled(factor);
        let seq = tree.sequential_time();
        (tree, seq)
    }

    fn ideal(n: usize) -> Vec<MachineSpec> {
        (0..n).map(|_| MachineSpec::ideal()).collect()
    }

    #[derive(Clone, Copy)]
    pub enum Strategy {
        LoadBalanced,
        Optimistic,
    }

    fn run(tree: &CostTree, strategy: Strategy, machines: usize, level: usize) -> StrategyReport {
        let cfg = SimConfig::lan_default();
        match strategy {
            Strategy::LoadBalanced => simulate_load_balanced(tree, &ideal(machines), &cfg, level),
            Strategy::Optimistic => simulate_optimistic(tree, &ideal(machines), &cfg, level),
        }
    }

    pub fn f4_8_9(setting: usize) {
        println!(
            "== Figure 4.{}: optimistic vs load-balanced efficiency, setting {setting} ==",
            if setting == 1 { 8 } else { 9 }
        );
        let (tree, _) = scaled_tree(setting);
        let mut rows = Vec::new();
        for m in [1usize, 2, 4, 6, 8, 10] {
            let lb = run(&tree, Strategy::LoadBalanced, m, 1);
            let opt = run(&tree, Strategy::Optimistic, m, 1);
            rows.push(vec![
                format!("{m}"),
                pct(lb.efficiency(m)),
                pct(opt.efficiency(m)),
            ]);
        }
        println!(
            "{}",
            render(&["Machines", "LoadBalanced", "Optimistic"], &rows)
        );
    }

    pub fn f4_10_13(setting: usize, strategy: Strategy) {
        let fig = match (setting, strategy) {
            (1, Strategy::LoadBalanced) => 10,
            (1, Strategy::Optimistic) => 11,
            (2, Strategy::LoadBalanced) => 12,
            _ => 13,
        };
        let label = match strategy {
            Strategy::LoadBalanced => "load-balanced",
            Strategy::Optimistic => "optimistic",
        };
        println!("== Figure 4.{fig}: {label} +/- adaptive master, setting {setting} ==");
        let (tree, _) = scaled_tree(setting);
        let mut rows = Vec::new();
        for m in [1usize, 2, 4, 6, 8, 10] {
            let plain = run(&tree, strategy, m, 1);
            // Adaptive master (§4.3.2): level 2 from 6 machines up.
            let level = if m >= 6 { 2 } else { 1 };
            let adaptive = run(&tree, strategy, m, level);
            rows.push(vec![
                format!("{m}"),
                pct(plain.efficiency(m)),
                pct(adaptive.efficiency(m)),
            ]);
        }
        println!(
            "{}",
            render(&["Machines", "w/o adaptive", "w/ adaptive"], &rows)
        );
    }

    /// The thesis demonstration (no single paper figure — §1.1's premise):
    /// run the setting-2 discovery on owner-occupied workstation pools and
    /// show the job completes on harvested idle cycles alone, with owner
    /// interruptions absorbed by PLinda-style abort/requeue.
    pub fn free_cycles() {
        println!("== Free mining: harvesting idle cycles on owner-occupied machines ==");
        let (tree, seq) = scaled_tree(2);
        let mut cfg = SimConfig::lan_default();
        cfg.requeue_delay = 2.0;
        // Owner bursts of ~3 min separated by ~6 min of idleness — the
        // same idle share as a workday trace, but at a cadence that
        // interrupts a minutes-long job the way a 1998 LAN job spanning
        // hours was interrupted by its machines' owners.
        let pattern = nowsim::traces::OwnerPattern {
            busy_mean: 180.0,
            idle_mean: 360.0,
        };
        let mut rows = Vec::new();
        for m in [5usize, 10, 20] {
            let pool = nowsim::traces::workday_pool(1998, m, 1e7, &pattern);
            let idle = nowsim::traces::idle_fraction(&pool, 1e7);
            let r = simulate_load_balanced(&tree, &pool, &cfg, 2);
            let dedicated = simulate_load_balanced(&tree, &ideal(m), &cfg, 2);
            rows.push(vec![
                format!("{m}"),
                pct(idle),
                secs(r.makespan),
                format!("{}", r.sim.aborted),
                secs(dedicated.makespan),
                format!("{:.2}", r.makespan / dedicated.makespan),
            ]);
        }
        println!(
            "{}",
            render(
                &[
                    "Machines",
                    "IdleFrac",
                    "Time(s)",
                    "Interrupts",
                    "Dedicated(s)",
                    "Slowdown"
                ],
                &rows
            )
        );
        println!(
            "sequential reference: {:.0}s; every interrupted task was re-queued and completed\n",
            seq
        );
    }

    pub fn f4_14() {
        println!("== Figure 4.14: running time on a large heterogeneous network ==");
        let (tree, seq) = scaled_tree(2);
        let cfg = SimConfig::lan_default();
        let mut rows = Vec::new();
        for m in (5..=45).step_by(5) {
            // "They are not identical machines": deterministic speed
            // spread of 0.7x..1.3x.
            let machines: Vec<MachineSpec> = (0..m)
                .map(|i| MachineSpec::with_speed(0.7 + 0.15 * (i % 5) as f64))
                .collect();
            let r = simulate_load_balanced(&tree, &machines, &cfg, 2);
            rows.push(vec![
                format!("{m}"),
                secs(r.makespan),
                format!("{:.1}", seq / r.makespan),
            ]);
        }
        println!("{}", render(&["Machines", "Time(s)", "Speedup"], &rows));
    }
}

/// Chapter 5: NyuMiner vs C4.5 vs CART, complementarity, FX.
mod ch5 {
    use super::*;
    use classify::c45::{C45Config, C45};
    use classify::forex::run_forex;
    use classify::nyuminer::{NyuConfig, NyuMinerCV, NyuMinerRS};
    use classify::prune::grow_with_cv_pruning;
    use classify::tree::GrowRule;
    use classify::{complementarity, Classifier, Dataset};
    use datagen::{all_specs, benchmark, fx_pairs};

    const DATA_SEED: u64 = 7;
    const SPLITS: usize = 10;
    const TABLE_DATASETS: [&str; 7] = [
        "diabetes",
        "german",
        "mushrooms",
        "satimage",
        "smoking",
        "vote",
        "yeast",
    ];

    pub fn t5_1() {
        println!("== Table 5.1: benchmark dataset descriptions (synthetic substitutes) ==");
        let mut rows = Vec::new();
        for s in all_specs() {
            if s.name == "letter" {
                continue;
            }
            rows.push(vec![
                s.name.to_string(),
                format!("{}", s.rows),
                format!(
                    "latent rule tree of depth {}, signal {:.2}",
                    s.latent_depth, s.signal
                ),
            ]);
        }
        println!(
            "{}",
            render(&["Dataset", "Rows", "Planted structure"], &rows)
        );
    }

    pub fn t5_2() {
        println!("== Table 5.2: statistical features of the benchmark datasets ==");
        let mut rows = Vec::new();
        for s in all_specs() {
            if s.name == "letter" {
                continue;
            }
            let d = benchmark(s.name, DATA_SEED);
            rows.push(vec![
                s.name.to_string(),
                format!("{}", d.len()),
                pct(d.rows_with_missing()),
                pct(d.missing_rate()),
                format!("{}", s.categorical.len()),
                format!("{}", s.numeric),
                format!("{}", s.numeric + s.categorical.len()),
                format!("{}", d.n_classes()),
            ]);
        }
        println!(
            "{}",
            render(
                &[
                    "Dataset",
                    "Cases",
                    "RowsMissing",
                    "CellsMissing",
                    "Cat",
                    "Num",
                    "Attrs",
                    "Classes"
                ],
                &rows
            )
        );
    }

    struct FourWay {
        c45: Vec<u16>,
        cart: Vec<u16>,
        nyucv: Vec<u16>,
        nyurs: Vec<u16>,
    }

    fn fit_predict(data: &Dataset, train: &[usize], test: &[usize], seed: u64) -> FourWay {
        let c45 = C45::fit(data, train, &C45Config::default());
        let cart =
            grow_with_cv_pruning(data, train, &GrowRule::Cart, &Default::default(), 10, seed);
        let nyu = NyuConfig::default();
        let nyucv = NyuMinerCV::fit(data, train, &nyu, 10, seed);
        let nyurs = NyuMinerRS::fit(data, train, &nyu, 3, 0.0, 0.02, seed);
        FourWay {
            c45: test.iter().map(|&r| c45.predict(data, r)).collect(),
            cart: test.iter().map(|&r| cart.tree.predict(data, r)).collect(),
            nyucv: test.iter().map(|&r| nyucv.predict(data, r)).collect(),
            nyurs: test.iter().map(|&r| nyurs.predict(data, r)).collect(),
        }
    }

    fn accuracy(data: &Dataset, test: &[usize], preds: &[u16]) -> f64 {
        let ok = test
            .iter()
            .zip(preds)
            .filter(|(&r, &p)| data.class(r) == p)
            .count();
        ok as f64 / test.len() as f64
    }

    pub fn t5_3() {
        println!("== Table 5.3: classification accuracies over {SPLITS} stratified half-splits ==");
        let mut rows = Vec::new();
        for name in TABLE_DATASETS {
            // One presort per dataset, shared by all splits and all four
            // learners.
            let data = benchmark(name, DATA_SEED);
            let mut sums = [0.0f64; 5];
            for split in 0..SPLITS {
                let (train, test) = data.stratified_halves(split as u64);
                let preds = fit_predict(&data, &train, &test, split as u64);
                let (plur, _) = data.plurality(&train);
                sums[0] += test.iter().filter(|&&r| data.class(r) == plur).count() as f64
                    / test.len() as f64;
                sums[1] += accuracy(&data, &test, &preds.c45);
                sums[2] += accuracy(&data, &test, &preds.cart);
                sums[3] += accuracy(&data, &test, &preds.nyucv);
                sums[4] += accuracy(&data, &test, &preds.nyurs);
            }
            let n = SPLITS as f64;
            rows.push(vec![
                name.to_string(),
                pct(sums[0] / n),
                pct(sums[1] / n),
                pct(sums[2] / n),
                pct(sums[3] / n),
                pct(sums[4] / n),
            ]);
        }
        println!(
            "{}",
            render(
                &[
                    "Dataset",
                    "Plurality",
                    "C4.5",
                    "CART",
                    "NyuMiner-CV",
                    "NyuMiner-RS"
                ],
                &rows
            )
        );
    }

    pub fn t5_4() {
        println!("== Table 5.4: complementarity tests (C4.5, CART, NyuMiner-RS) ==");
        let mut rows = Vec::new();
        for name in TABLE_DATASETS {
            let data = benchmark(name, DATA_SEED);
            let (train, test) = data.stratified_halves(0);
            let preds = fit_predict(&data, &train, &test, 0);
            let rep = complementarity(&data, &test, &[preds.c45, preds.cart, preds.nyurs]);
            rows.push(vec![
                name.to_string(),
                format!("{}", rep.total),
                format!("{}", rep.all_agree),
                pct(rep.coverage),
                pct(rep.agree_accuracy),
                format!("{}", rep.disagree),
                pct(rep.at_least_one_correct),
            ]);
        }
        println!(
            "{}",
            render(
                &[
                    "Dataset",
                    "Cases",
                    "Agree",
                    "Coverage",
                    "AgreeAcc",
                    "Disagree",
                    ">=1 correct"
                ],
                &rows
            )
        );
    }

    pub fn t5_5() {
        println!("== Table 5.5: foreign exchange datasets (synthetic substitutes) ==");
        let mut rows = Vec::new();
        for (name, rates) in fx_pairs(DATA_SEED) {
            rows.push(vec![name.to_string(), format!("{}", rates.len() - 253)]);
        }
        println!("{}", render(&["Pair", "DataElements"], &rows));
    }

    pub fn t5_6() {
        println!("== Table 5.6: money made in foreign exchange (Cmin 80%, Smin 1%) ==");
        let mut rows = Vec::new();
        for (name, rates) in fx_pairs(DATA_SEED) {
            let run = run_forex(&rates, &NyuConfig::default(), 3, 0.80, 0.01, 5);
            let o = &run.outcome;
            rows.push(vec![
                name.to_string(),
                format!("{}", run.rules_selected),
                format!("{}", o.days_covered),
                pct(o.accuracy),
                format!("{:.0}", o.first_currency),
                format!("{:+.1}%", o.gain_first),
                format!("{:.0}", o.second_currency),
                format!("{:+.1}%", o.gain_second),
                format!("{:+.1}%", o.average_gain()),
            ]);
        }
        println!(
            "{}",
            render(
                &[
                    "Pair", "Rules", "Days", "Accuracy", "1stCur", "Gain1", "2ndCur", "Gain2",
                    "AvgGain"
                ],
                &rows
            )
        );
    }
}

/// Chapter 6: sequential baselines and parallel speedups.
mod ch6 {
    use super::*;
    use classify::c45::{grow_windowed, C45Config};
    use classify::nyuminer::{grow_incremental, NyuConfig, NyuMinerCV};
    use classify::prune::ccp_sequence;
    use classify::tree::{DecisionTree, GrowRule};
    use datagen::benchmark;
    use nowsim::SimConfig;
    use parmine::{simulate_parallel_cv, simulate_parallel_trials};

    const DATA_SEED: u64 = 7;

    fn nyu_rule(cfg: &NyuConfig) -> GrowRule<'static> {
        GrowRule::NyuMiner {
            max_branches: cfg.max_branches,
            impurity: cfg.impurity.as_dyn(),
        }
    }

    pub fn t6_1() {
        println!("== Table 6.1: sequential NyuMiner-CV time (s) vs V ==");
        let mut rows = Vec::new();
        for name in ["yeast", "satimage"] {
            let data = benchmark(name, DATA_SEED);
            // Presort before the clocks start, as the main tree and the
            // folds share it.
            data.index();
            let rows_all = data.all_rows();
            let cfg = NyuConfig::default();
            let mut cells = vec![name.to_string()];
            for v in [0usize, 4, 8, 12, 16, 20] {
                let t0 = Instant::now();
                let _ = NyuMinerCV::fit(&data, &rows_all, &cfg, v, 1);
                cells.push(secs(t0.elapsed().as_secs_f64()));
            }
            rows.push(cells);
        }
        println!(
            "{}",
            render(
                &["Dataset", "V=0", "V=4", "V=8", "V=12", "V=16", "V=20"],
                &rows
            )
        );
    }

    /// Measured costs for the parallel CV figures: the main tree (grow +
    /// pruning sequence) and 20 auxiliary trees (19/20 learning sets).
    fn cv_costs(name: &str) -> (f64, Vec<f64>) {
        let data = benchmark(name, DATA_SEED);
        // The parallel driver shares the dataset's presort across master
        // and workers, so it is built outside the per-tree costs the
        // simulator replays.
        data.index();
        let rows = data.all_rows();
        let cfg = NyuConfig::default();
        let t0 = Instant::now();
        let main = DecisionTree::grow(&data, &rows, &nyu_rule(&cfg), &cfg.grow);
        let _ = ccp_sequence(&main);
        let main_cost = t0.elapsed().as_secs_f64();
        let folds = data.folds(&rows, 20, 1);
        let aux: Vec<f64> = (0..20)
            .map(|i| {
                let train: Vec<usize> = folds
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .flat_map(|(_, f)| f.iter().copied())
                    .collect();
                let t0 = Instant::now();
                let aux = DecisionTree::grow(&data, &train, &nyu_rule(&cfg), &cfg.grow);
                let _ = ccp_sequence(&aux);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        (main_cost, aux)
    }

    pub fn f6_3_4(name: &str) {
        let fig = if name == "yeast" { 3 } else { 4 };
        println!("== Figure 6.{fig}: parallel NyuMiner-CV on {name} (V = 4 x workers) ==");
        let (main_cost, aux) = cv_costs(name);
        let cfg = SimConfig::lan_default();
        let mut rows = Vec::new();
        for m in 1usize..=6 {
            let v = 4 * (m - 1);
            let r = simulate_parallel_cv(main_cost, &aux[..v], m, &cfg);
            let sequential = main_cost + aux[..v].iter().sum::<f64>();
            rows.push(vec![
                format!("{m}"),
                format!("{v}"),
                secs(r.makespan),
                format!("{:.1}", sequential / r.makespan),
            ]);
        }
        println!(
            "{}",
            render(&["Machines", "V", "Time(s)", "Speedup"], &rows)
        );
    }

    /// Measured per-trial costs for the windowing/sampling figures.
    fn trial_costs(name: &str, flavor: &str, trials: usize) -> Vec<f64> {
        let data = benchmark(name, DATA_SEED);
        // Presort before the clocks start: every trial shares it.
        data.index();
        let rows = data.all_rows();
        (0..trials as u64)
            .map(|t| {
                let t0 = Instant::now();
                match flavor {
                    "c45" => {
                        let _ = grow_windowed(&data, &rows, &C45Config::default(), 100 + t);
                    }
                    _ => {
                        let _ = grow_incremental(
                            &data,
                            &rows,
                            &NyuConfig::default(),
                            100u64.wrapping_add(t * 7919),
                        );
                    }
                }
                t0.elapsed().as_secs_f64()
            })
            .collect()
    }

    fn sequential_trial_table(title: &str, datasets: [&str; 2], flavor: &str) {
        println!("{title}");
        let mut rows = Vec::new();
        for name in datasets {
            let costs = trial_costs(name, flavor, 10);
            let mut cells = vec![name.to_string()];
            for t in [1usize, 2, 4, 6, 8, 10] {
                let total: f64 = costs[..t].iter().sum();
                cells.push(secs(total));
            }
            rows.push(cells);
        }
        println!(
            "{}",
            render(&["Dataset", "1", "2", "4", "6", "8", "10"], &rows)
        );
    }

    pub fn t6_2() {
        sequential_trial_table(
            "== Table 6.2: sequential C4.5 time (s) vs windowing trials ==",
            ["smoking", "letter"],
            "c45",
        );
    }

    pub fn t6_3() {
        sequential_trial_table(
            "== Table 6.3: sequential NyuMiner-RS time (s) vs trees ==",
            ["yeast", "satimage"],
            "rs",
        );
    }

    fn trial_speedup_figure(title: &str, name: &str, flavor: &str) {
        println!("{title}");
        let costs = trial_costs(name, flavor, 10);
        let cfg = SimConfig::lan_default();
        let sequential: f64 = costs.iter().sum();
        let mut rows = Vec::new();
        for m in [1usize, 2, 4, 6, 8, 10] {
            let r = simulate_parallel_trials(&costs, m, &cfg);
            rows.push(vec![
                format!("{m}"),
                secs(r.makespan),
                format!("{:.1}", sequential / r.makespan),
            ]);
        }
        println!("{}", render(&["Machines", "Time(s)", "Speedup"], &rows));
    }

    pub fn f6_5_6(name: &str) {
        let fig = if name == "smoking" { 5 } else { 6 };
        trial_speedup_figure(
            &format!("== Figure 6.{fig}: parallel C4.5 on {name} (10 trials) =="),
            name,
            "c45",
        );
    }

    pub fn f6_7_8(name: &str) {
        let fig = if name == "yeast" { 7 } else { 8 };
        trial_speedup_figure(
            &format!("== Figure 6.{fig}: parallel NyuMiner-RS on {name} (10 trees) =="),
            name,
            "rs",
        );
    }
}
