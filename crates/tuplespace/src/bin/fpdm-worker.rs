//! `fpdm-worker` — standalone vector-addition worker (Fig. 2.6/2.7 shape)
//! that runs against an `fpdm-spaced` broker in another OS process.
//!
//! ```text
//! fpdm-worker <socket-path> <pid> [batch]
//! ```
//!
//! The worker attaches to the shared space as logical process `<pid>`,
//! recovers its continuation if an earlier incarnation with the same pid
//! committed one, then repeatedly withdraws `("task", i, x)` tuples and
//! emits `("result", i, i + x)` — each task inside one transaction whose
//! continuation records how many tasks this logical process has completed.
//! A negative task index is the poison pill.
//!
//! With the optional `batch` argument (> 1) the worker runs the batched
//! transport shape instead: up to `batch` tasks per bulk take
//! ([`Process::in_batch`]), one transaction per batch, and a deferred
//! `("side", i)` marker per task emitted through the connection's
//! write-coalescing buffer — so at any mid-batch kill point the client
//! holds a non-empty deferred-out queue that must never become visible.
//!
//! Progress lines on stdout (one per event, flushed) let a supervisor — or
//! the cross-process integration test — SIGKILL the worker at a known
//! point and verify recovery:
//!
//! ```text
//! recovered <n>    # continuation found; n tasks already committed
//! took <k>         # batch mode: k tasks withdrawn, none committed yet
//! committed <n>    # transaction committed; n tasks total so far
//! done <n>         # poison seen; exiting cleanly
//! ```

use std::io::Write;
use std::process::exit;
use std::sync::Arc;

use plinda::{field, tup, PlindaError, Process, Template, TupleSpace};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (socket, pid) = match (args.first(), args.get(1).and_then(|p| p.parse().ok())) {
        (Some(s), Some(p)) if args.len() == 2 || args.len() == 3 => (s.clone(), p),
        _ => {
            eprintln!("usage: fpdm-worker <socket-path> <pid> [batch]");
            exit(2);
        }
    };
    let batch: usize = match args.get(2).map(|b| b.parse()) {
        None => 1,
        Some(Ok(b)) if b >= 1 => b,
        _ => {
            eprintln!("usage: fpdm-worker <socket-path> <pid> [batch]");
            exit(2);
        }
    };
    let space = match TupleSpace::connect_unix(&socket) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("fpdm-worker: connect {socket}: {e}");
            exit(1);
        }
    };
    let mut p = Process::attach(space, pid);
    let outcome = if batch > 1 {
        run_batched(&mut p, batch)
    } else {
        run(&mut p)
    };
    if let Err(e) = outcome {
        eprintln!("fpdm-worker: pid {pid}: {e}");
        exit(1);
    }
}

fn say(line: String) {
    let mut out = std::io::stdout().lock();
    // The supervisor watches these lines to time kills; unflushed progress
    // would make the kill schedule nondeterministic.
    writeln!(out, "{line}").and_then(|_| out.flush()).ok();
}

fn run(p: &mut Process) -> Result<(), PlindaError> {
    let mut done: i64 = match p.xrecover() {
        Some(cont) => {
            let n = cont.int(0);
            say(format!("recovered {n}"));
            n
        }
        None => 0,
    };
    let task = Template::new(vec![field::val("task"), field::int(), field::int()]);
    loop {
        p.xstart()?;
        let t = p.in_(task.clone())?;
        if t.int(1) < 0 {
            // Poison: put it back for the next worker and stop.
            p.out(t);
            p.xcommit(Some(tup![done]))?;
            say(format!("done {done}"));
            return Ok(());
        }
        p.out(tup!["result", t.int(1), t.int(1) + t.int(2)]);
        done += 1;
        p.xcommit(Some(tup![done]))?;
        say(format!("committed {done}"));
    }
}

/// The batched-transport worker shape: bulk takes, one transaction per
/// batch, and per-task deferred `("side", i)` markers. The markers sit in
/// the connection's write-coalescing buffer until the commit flushes them
/// (the `TxnCommit` frame rides behind them and acknowledges them), so a
/// kill between
/// `took` and `committed` leaves a non-empty deferred-out queue whose
/// tuples must never become visible.
fn run_batched(p: &mut Process, batch: usize) -> Result<(), PlindaError> {
    let mut done: i64 = match p.xrecover() {
        Some(cont) => {
            let n = cont.int(0);
            say(format!("recovered {n}"));
            n
        }
        None => 0,
    };
    let task = Template::new(vec![field::val("task"), field::int(), field::int()]);
    loop {
        p.xstart()?;
        let ts = p.in_batch(task.clone(), batch)?;
        say(format!("took {}", ts.len()));
        let mut poisoned = false;
        for t in ts {
            if t.int(1) < 0 {
                // Poison: put it back for the next worker and stop after
                // finishing this batch's real tasks.
                p.out(t);
                poisoned = true;
                continue;
            }
            p.out(tup!["result", t.int(1), t.int(1) + t.int(2)]);
            p.space().out_deferred(tup!["side", t.int(1)]);
            done += 1;
        }
        if !poisoned {
            // Hold the batch open briefly: a supervisor that kills on the
            // `took` report lands deterministically mid-batch, with the
            // withdrawals tentative at the broker and the side markers
            // still queued client-side.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        p.xcommit(Some(tup![done]))?;
        if poisoned {
            p.space().flush();
            say(format!("done {done}"));
            return Ok(());
        }
        say(format!("committed {done}"));
    }
}
