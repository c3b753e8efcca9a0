//! The real PLinda deployment shape: an `fpdm-spaced` broker process, a
//! master (this test) and worker *OS processes* speaking the socket
//! protocol — one of which is SIGKILLed mid-run and respawned under the
//! same logical pid. The dissertation's §7.1.2 guarantee must hold across
//! the process boundary: the completed run reaches exactly the state of a
//! failure-free in-process execution.

use plinda::metrics::check_snapshot;
use plinda::{field, tup, MetricsRegistry, Runtime, Template, TupleSpace};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kill-on-drop child guard so a failing assertion never leaks processes.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_worker(socket: &std::path::Path, pid: u64) -> Reaped {
    Reaped(
        Command::new(env!("CARGO_BIN_EXE_fpdm-worker"))
            .arg(socket)
            .arg(pid.to_string())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn fpdm-worker"),
    )
}

fn spawn_batch_worker(socket: &std::path::Path, pid: u64, batch: usize) -> Reaped {
    Reaped(
        Command::new(env!("CARGO_BIN_EXE_fpdm-worker"))
            .arg(socket)
            .arg(pid.to_string())
            .arg(batch.to_string())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn fpdm-worker (batch)"),
    )
}

/// Wait for the broker's socket to accept connections.
fn await_broker(socket: &std::path::Path) -> Arc<TupleSpace> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(space) = TupleSpace::connect_unix(socket) {
            return Arc::new(space);
        }
        assert!(Instant::now() < deadline, "broker never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn worker_process_survives_sigkill_with_identical_output() {
    let socket: PathBuf =
        std::env::temp_dir().join(format!("fpdm-xproc-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);

    let _broker = Reaped(
        Command::new(env!("CARGO_BIN_EXE_fpdm-spaced"))
            .arg(&socket)
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn fpdm-spaced"),
    );
    let master = await_broker(&socket);
    let reg = MetricsRegistry::new();
    master.set_metrics(Some(reg.clone()));

    // Master (Fig. 2.6): emit the task bag.
    let inputs: Vec<(i64, i64)> = (0..40).map(|i| (i, 5000 - 7 * i)).collect();
    for &(i, x) in &inputs {
        master.out(tup!["task", i, x]);
    }

    // Two worker processes; worker pid 1 is the designated victim.
    let mut victim = spawn_worker(&socket, 1);
    let _helper = spawn_worker(&socket, 2);

    // SIGKILL the victim as soon as it reports its first committed
    // transaction — a guaranteed mid-run, post-commit kill point.
    let mut victim_lines = BufReader::new(victim.0.stdout.take().unwrap()).lines();
    let first = victim_lines
        .next()
        .expect("victim produced output")
        .unwrap();
    assert!(
        first.starts_with("committed "),
        "expected a commit report, got {first:?}"
    );
    victim.0.kill().unwrap();
    victim.0.wait().unwrap();

    // Respawn under the same logical pid: the broker still holds pid 1's
    // continuation, so the new incarnation resumes, not restarts.
    let mut victim2 = spawn_worker(&socket, 1);
    let mut victim2_lines = BufReader::new(victim2.0.stdout.take().unwrap()).lines();
    let recovered = victim2_lines.next().expect("respawn spoke").unwrap();
    let n: i64 = recovered
        .strip_prefix("recovered ")
        .unwrap_or_else(|| panic!("expected recovery report, got {recovered:?}"))
        .parse()
        .unwrap();
    assert!(n >= 1, "continuation carried at least the observed commit");

    // Master gathers every result — despite the kill, each task commits
    // exactly once (restored if tentative at kill time, never duplicated).
    let result = Template::new(vec![field::val("result"), field::int(), field::int()]);
    let mut got: Vec<(i64, i64)> = (0..inputs.len())
        .map(|_| {
            let t = master.in_blocking(result.clone());
            (t.int(1), t.int(2))
        })
        .collect();
    got.sort_unstable();

    // Shut the workers down: one poison pill serves both (each worker
    // re-outs it on exit).
    master.out(tup!["task", -1i64, -1i64]);
    for line in victim2_lines {
        if line.unwrap().starts_with("done ") {
            break;
        }
    }

    // Reference: the identical program over the in-process backend.
    let expected = in_process_reference(&inputs);
    assert_eq!(got, expected, "outputs identical across backends + SIGKILL");

    // The space drains to exactly the poison pill; the master-side
    // metrics snapshot obeys the frozen schema invariants.
    let poison = master
        .in_blocking(Template::new(vec![
            field::val("task"),
            field::int(),
            field::int(),
        ]))
        .int(1);
    assert_eq!(poison, -1, "only the poison pill remains");
    assert!(master.is_empty(), "tuple conservation across the kill");
    let snap = reg.snapshot();
    let violations = check_snapshot(&snap);
    assert!(violations.is_empty(), "{violations:?}");
}

/// The batched-transport variant of the kill drill: the victim runs the
/// bulk-take + deferred-out worker shape and is SIGKILLed *mid-batch* —
/// after `took` reported a bulk withdrawal (tentative at the broker),
/// with the per-task `("side", i)` deferred markers still queued on the
/// client — so the broker must roll the whole batch back and the markers
/// must never surface. A raw connection that dies after delivering
/// parked deferred outs exercises the broker-side discard too.
#[test]
fn sigkill_mid_batch_rolls_back_tentative_and_deferred() {
    let socket: PathBuf =
        std::env::temp_dir().join(format!("fpdm-xbatch-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);

    let mut broker = Reaped(
        Command::new(env!("CARGO_BIN_EXE_fpdm-spaced"))
            .arg(&socket)
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fpdm-spaced"),
    );
    let mut broker_err = BufReader::new(broker.0.stderr.take().unwrap()).lines();
    let master = await_broker(&socket);
    let reg = MetricsRegistry::new();
    master.set_metrics(Some(reg.clone()));

    // Task bag, sized so both workers chew several batches.
    let inputs: Vec<(i64, i64)> = (0..32).map(|i| (i, 7000 - 11 * i)).collect();
    for &(i, x) in &inputs {
        master.out(tup!["task", i, x]);
    }

    // Two batched workers (4 tasks per bulk take); pid 1 is the victim.
    let mut victim = spawn_batch_worker(&socket, 1, 4);
    let mut helper = spawn_batch_worker(&socket, 2, 4);

    // Let the victim commit at least one batch (so the respawn has a
    // continuation to recover), then kill it on the next `took` report:
    // the bulk withdrawal is tentative and the side markers unflushed.
    let mut victim_lines = BufReader::new(victim.0.stdout.take().unwrap()).lines();
    let mut committed_seen = false;
    for line in victim_lines.by_ref() {
        let line = line.unwrap();
        if line.starts_with("committed ") {
            committed_seen = true;
        } else if committed_seen && line.starts_with("took ") {
            break;
        }
    }
    victim.0.kill().unwrap();
    victim.0.wait().unwrap();

    // Respawn under the same logical pid: the continuation resumes it.
    let mut victim2 = spawn_batch_worker(&socket, 1, 4);
    let mut victim2_lines = BufReader::new(victim2.0.stdout.take().unwrap()).lines();
    let recovered = victim2_lines.next().expect("respawn spoke").unwrap();
    let n: i64 = recovered
        .strip_prefix("recovered ")
        .unwrap_or_else(|| panic!("expected recovery report, got {recovered:?}"))
        .parse()
        .unwrap();
    assert!(n >= 1, "continuation carried at least one committed batch");

    // Every task commits exactly once despite the mid-batch kill.
    let result = Template::new(vec![field::val("result"), field::int(), field::int()]);
    let mut got: Vec<(i64, i64)> = (0..inputs.len())
        .map(|_| {
            let t = master.in_blocking(result.clone());
            (t.int(1), t.int(2))
        })
        .collect();
    got.sort_unstable();
    let expected: Vec<(i64, i64)> = inputs.iter().map(|&(i, x)| (i, i + x)).collect();
    assert_eq!(got, expected, "results exactly once across the kill");

    // Shut both workers down (each re-outs the pill on exit).
    master.out(tup!["task", -1i64, -1i64]);
    for line in victim2_lines {
        if line.unwrap().starts_with("done ") {
            break;
        }
    }
    let helper_lines = BufReader::new(helper.0.stdout.take().unwrap()).lines();
    for line in helper_lines {
        if line.unwrap().starts_with("done ") {
            break;
        }
    }

    // The deferred side markers flushed with each commit: exactly one per
    // task — the killed batch's markers died in the client queue and were
    // re-emitted by the incarnation that actually committed those tasks.
    let side = Template::new(vec![field::val("side"), field::int()]);
    let mut marks: Vec<i64> = (0..inputs.len())
        .map(|_| master.in_blocking(side.clone()).int(1))
        .collect();
    marks.sort_unstable();
    assert_eq!(
        marks,
        (0..inputs.len() as i64).collect::<Vec<_>>(),
        "side markers exactly once"
    );

    // A connection that dies *after* its deferred outs reached the broker
    // but before any flush barrier: the parked tuples are discarded, never
    // published.
    {
        use plinda::net::frame::encode_frame;
        use plinda::net::proto::{Req, ReqBody};
        use std::io::Write;
        let mut raw = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        for i in 0..3u64 {
            let req = Req {
                seq: i + 1,
                body: ReqBody::OutDeferred(vec![tup!["ghost", i as i64]]),
            };
            raw.write_all(&encode_frame(&req.encode())).unwrap();
        }
        drop(raw); // EOF lands after the frames: parked, then discarded
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let line = broker_err.next().expect("broker stderr open").unwrap();
        if line.contains("discarding 3 never-visible deferred out(s)") {
            break;
        }
        assert!(Instant::now() < deadline, "no discard report from broker");
    }
    let ghost = Template::new(vec![field::val("ghost"), field::int()]);
    assert_eq!(master.count(&ghost), 0, "rolled-back deferred outs leaked");

    // Conservation: pill only, then empty; the ledger obeys the frozen
    // schema plus the batch conservation invariant.
    let poison = master
        .in_blocking(Template::new(vec![
            field::val("task"),
            field::int(),
            field::int(),
        ]))
        .int(1);
    assert_eq!(poison, -1, "only the poison pill remains");
    assert!(master.is_empty(), "tuple conservation across the kill");
    let snap = reg.snapshot();
    let violations = check_snapshot(&snap);
    assert!(violations.is_empty(), "{violations:?}");
}

/// The same vector-add program over threads in one address space.
fn in_process_reference(inputs: &[(i64, i64)]) -> Vec<(i64, i64)> {
    let rt = Runtime::new();
    for _ in 0..2 {
        rt.spawn("adder", |p| loop {
            p.xstart()?;
            let t = p.in_(Template::new(vec![
                field::val("task"),
                field::int(),
                field::int(),
            ]))?;
            if t.int(1) < 0 {
                p.out(t);
                p.xcommit(None)?;
                return Ok(());
            }
            p.out(tup!["result", t.int(1), t.int(1) + t.int(2)]);
            p.xcommit(None)?;
        });
    }
    let space = rt.space();
    for &(i, x) in inputs {
        space.out(tup!["task", i, x]);
    }
    let result = Template::new(vec![field::val("result"), field::int(), field::int()]);
    let mut got: Vec<(i64, i64)> = (0..inputs.len())
        .map(|_| {
            let t = space.in_blocking(result.clone());
            (t.int(1), t.int(2))
        })
        .collect();
    space.out(tup!["task", -1i64, -1i64]);
    rt.join();
    got.sort_unstable();
    got
}
