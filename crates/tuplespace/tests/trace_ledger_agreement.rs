//! The trace recorder and the metrics ledger are two sinks of one
//! instrumentation stream. With both installed on the same space, a farm
//! run under a kill schedule must leave every trace event kind exactly as
//! often in the trace as its counter says it happened — over the
//! in-process backend and over an in-process broker with the socket
//! backend alike.

use plinda::{
    Broker, BrokerConfig, FarmConfig, MetricsRegistry, MetricsSnapshot, Recorder, TaskFarm, Trace,
    TraceEvent, TupleSpace,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const TASKS: i64 = 60;

/// The kill-schedule smoke farm: three workers square `TASKS` payloads and
/// worker 1 is killed 3 ms in.
fn run(space: Option<Arc<TupleSpace>>) -> (Trace, MetricsSnapshot) {
    let rec = Recorder::new();
    let reg = MetricsRegistry::new();
    let mut cfg = FarmConfig::bag(3)
        .with_recorder(rec.clone())
        .with_metrics(reg.clone())
        .kill_after(Duration::from_millis(3), 1);
    if let Some(space) = space {
        cfg = cfg.with_space(space);
    }
    let farm = TaskFarm::<i64, i64>::start("agree", cfg, |scope, _flag, n| {
        std::thread::sleep(Duration::from_micros(200));
        scope.result(&(n * n));
        Ok(())
    });
    for i in 0..TASKS {
        farm.send(0, &i);
    }
    let mut squares: Vec<i64> = (0..TASKS).map(|_| farm.recv()).collect();
    squares.sort_unstable();
    assert_eq!(squares, (0..TASKS).map(|i| i * i).collect::<Vec<_>>());
    assert!(farm.finish().leaked.is_empty());
    (rec.take(), reg.snapshot())
}

/// The counter each trace event kind is accounted under, for the kinds
/// the ledger counts one for one.
fn counter_of(ev: &TraceEvent) -> Option<&'static str> {
    Some(match ev {
        TraceEvent::OutVisible { .. } => "space.ops.out",
        TraceEvent::Take { .. } => "space.ops.take",
        TraceEvent::Read { .. } => "space.ops.read",
        TraceEvent::Miss { .. } => "space.ops.miss",
        TraceEvent::Block { .. } => "space.ops.block",
        TraceEvent::Wake { .. } => "space.ops.wake",
        TraceEvent::WaitCancelled { .. } => "space.ops.cancelled",
        TraceEvent::XStart { .. } => "txn.start",
        TraceEvent::XCommit { .. } => "txn.commit",
        TraceEvent::XAbort { .. } => "txn.abort",
        TraceEvent::Kill { .. } => "runtime.kills",
        TraceEvent::Respawn { .. } => "runtime.respawns",
        TraceEvent::Done { .. } => "runtime.done",
        _ => return None,
    })
}

const COUNTED: [&str; 13] = [
    "space.ops.out",
    "space.ops.take",
    "space.ops.read",
    "space.ops.miss",
    "space.ops.block",
    "space.ops.wake",
    "space.ops.cancelled",
    "txn.start",
    "txn.commit",
    "txn.abort",
    "runtime.kills",
    "runtime.respawns",
    "runtime.done",
];

fn assert_agree(label: &str, trace: &Trace, snap: &MetricsSnapshot) {
    let mut events: BTreeMap<&str, u64> = BTreeMap::new();
    for name in trace.events.iter().filter_map(counter_of) {
        *events.entry(name).or_default() += 1;
    }
    for name in COUNTED {
        let traced = events.get(name).copied().unwrap_or(0);
        assert_eq!(
            snap.counter(name),
            traced,
            "{label}: {name} disagrees with the trace"
        );
    }
    // Not vacuous: the run moved tuples, committed, and took its kill.
    assert!(snap.counter("space.ops.out") >= TASKS as u64, "{label}");
    assert!(snap.counter("txn.commit") > 0, "{label}");
    assert_eq!(snap.counter("runtime.kills"), 1, "{label}");
    assert_eq!(snap.counter("runtime.done"), 3, "{label}");
}

#[test]
fn trace_and_ledger_count_the_same_ops_over_both_backends() {
    let (trace, snap) = run(None);
    assert_agree("local", &trace, &snap);

    let sock = std::env::temp_dir().join(format!("fpdm-test-{}-agree.sock", std::process::id()));
    let broker = Broker::start(BrokerConfig::new(sock)).unwrap();
    let space = Arc::new(TupleSpace::connect_unix(broker.socket()).unwrap());
    let (trace, snap) = run(Some(space));
    assert_agree("socket", &trace, &snap);
}
