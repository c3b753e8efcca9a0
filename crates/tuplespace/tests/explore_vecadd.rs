//! The vector-addition master/worker program of Fig. 2.6/2.7, run through
//! the deterministic interleaving explorer.
//!
//! The master farms out 6 addition tasks, collects the 6 results, sends one
//! poison pill per worker, and publishes the total. Every step of the master
//! runs in its own transaction whose continuation tuple carries the loop
//! counter and the running sum, so a kill at *any* commit boundary — master
//! or worker — must recover to the same result and final space as the
//! failure-free round-robin reference (§7.1.2). Master and workers are
//! ordinary [`Runtime`] processes; the explorer schedules their real
//! threads and asserts the atomicity/leak/deadlock checkers over every
//! schedule it generates.

use plinda::check::{explore, ExploreConfig};
use plinda::{field, tup, Runtime, Template};
use std::sync::Arc;

const TASKS: i64 = 6;
const WORKERS: i64 = 3;
/// Master iterations: out 6 tasks, in 6 results, out 3 poisons, out total.
const MASTER_STEPS: i64 = TASKS + TASKS + WORKERS + 1;

fn total_tmpl() -> Template {
    Template::new(vec![field::val("total"), field::int()])
}

fn vecadd(space: Arc<plinda::TupleSpace>) -> Option<i64> {
    let rt = Runtime::with_space(Arc::clone(&space));
    rt.spawn("master", |p| {
        let (mut step, mut acc) = p.xrecover().map_or((0, 0), |c| (c.int(1), c.int(2)));
        while step < MASTER_STEPS {
            p.xstart()?;
            match step {
                s if s < TASKS => p.out(tup!["task", s, 100 - s]),
                s if s < 2 * TASKS => {
                    let r = p.in_(Template::new(vec![
                        field::val("result"),
                        field::int(),
                        field::int(),
                    ]))?;
                    acc += r.int(2);
                }
                s if s < 2 * TASKS + WORKERS => p.out(tup!["task", -1i64, -1i64]),
                _ => p.out(tup!["total", acc]),
            }
            step += 1;
            p.xcommit(Some(tup!["mcont", step, acc]))?;
        }
        Ok(())
    });
    rt.spawn_n("adder", WORKERS as usize, |p| loop {
        p.xstart()?;
        let t = p.in_(Template::new(vec![
            field::val("task"),
            field::int(),
            field::int(),
        ]))?;
        if t.int(1) < 0 {
            // Poison pill: commit its withdrawal and stop.
            p.xcommit(None)?;
            return Ok(());
        }
        p.out(tup!["result", t.int(1), t.int(1) + t.int(2)]);
        p.xcommit(None)?;
    });
    rt.join();
    space.rdp(&total_tmpl()).map(|t| t.int(1))
}

#[test]
fn vecadd_survives_a_kill_at_every_commit_boundary() {
    let cfg = ExploreConfig::new().allow_leftover(total_tmpl());
    let report = explore(&cfg, vecadd);

    assert!(
        report.is_clean(),
        "{} of {} runs failed; first: {:#?}",
        report.failures.len(),
        report.runs,
        report.failures.first()
    );

    // Failure-free reference: all tasks sum to 100, six of them.
    assert_eq!(report.reference, Some(Some(600)));
    assert_eq!(report.reference_final, vec![tup!["total", 600i64]]);

    // One kill point per commit of the computation: the master's
    // MASTER_STEPS continuation commits plus the workers' 6 task commits
    // and 3 poison commits.
    assert_eq!(
        report.kill_points.len() as i64,
        MASTER_STEPS + TASKS + WORKERS
    );

    // Every commit boundary was actually exercised by at least one kill.
    for (kp, fired) in &report.kills_fired {
        assert!(*fired > 0, "kill at commit {} never fired", kp.commit);
    }

    // The acceptance bar: at least 100 distinct schedules explored.
    assert!(
        report.distinct_schedules >= 100,
        "only {} distinct schedules explored",
        report.distinct_schedules
    );
}
