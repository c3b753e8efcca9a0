//! Declarative frame state machines for the socket protocol, plus the
//! small-scope duality checker that proves them compatible.
//!
//! [`super::proto`] defines the frame *vocabulary* and [`super::client`] /
//! [`super::broker`] each implement one *half* of the conversation — but
//! until this module, the two halves were only ever checked against each
//! other dynamically, one executed trace at a time. Here both halves are
//! extracted into explicit transition tables ([`client_machine`],
//! [`broker_machine`]) over an abstract frame alphabet, and
//! [`check_duality`] exhaustively enumerates every interleaving of sends,
//! receives, and deliveries the pair can reach within a small scope
//! (FIFO queues of depth [`DEFAULT_QUEUE_BOUND`] per direction, one
//! outstanding blocking wait — exactly the protocol's own invariant).
//! A **duality violation** is a reachable configuration in which the frame
//! at the head of a machine's incoming queue has no `recv` transition from
//! its current state: the peer emitted something this side cannot handle.
//!
//! The tables are kept honest two ways:
//!
//! * [`req_frame_name`] / [`resp_frame_name`] map the concrete
//!   [`ReqBody`] / [`RespBody`] enums onto the abstract alphabet with
//!   exhaustive `match`es — adding a protocol operation without extending
//!   the spec is a compile error.
//! * Unit tests assert every request frame is emitted somewhere by the
//!   client machine and received somewhere by the broker machine (and
//!   dually for responses), and that [`check_duality`] over the real pair
//!   is clean.
//!
//! `fpdm-analyze` (driven by `cargo run -p xtask -- analyze`) runs the
//! same checker as its protocol-duality pass, and also feeds it seeded
//! mismatch fixtures parsed from `proto.machines` files.

use super::proto::{ReqBody, RespBody};
use std::collections::HashSet;
use std::fmt;

/// Abstract request-frame alphabet: one name per [`ReqBody`] variant.
pub const REQ_FRAMES: [&str; 23] = [
    "Out",
    "OutAll",
    "Inp",
    "Rdp",
    "In",
    "Rd",
    "Cancel",
    "Len",
    "Count",
    "HasMatch",
    "Snapshot",
    "Restore",
    "TxnBegin",
    "TxnCommit",
    "TxnAbort",
    "ContGet",
    "ContClear",
    "OutDeferred",
    "OutAllDeferred",
    "Flush",
    "InBatch",
    "InpBatch",
    "Batch",
];

/// Abstract response-frame alphabet. `Tuple(Option<Tuple>)` splits into
/// `TupleSome`/`TupleNone` because the two are handled differently (a
/// blocking wait can only ever be answered with `TupleSome`).
pub const RESP_FRAMES: [&str; 9] = [
    "Ok",
    "TupleSome",
    "TupleNone",
    "Num",
    "Bool",
    "Tuples",
    "Cancelled",
    "Err",
    "Batch",
];

/// The abstract frame a concrete request encodes to. Exhaustive by
/// construction: extending [`ReqBody`] without extending the spec tables
/// fails to compile here.
pub fn req_frame_name(body: &ReqBody) -> &'static str {
    match body {
        ReqBody::Out(_) => "Out",
        ReqBody::OutAll(_) => "OutAll",
        ReqBody::Inp(_) => "Inp",
        ReqBody::Rdp(_) => "Rdp",
        ReqBody::In(_) => "In",
        ReqBody::Rd(_) => "Rd",
        ReqBody::Cancel { .. } => "Cancel",
        ReqBody::Len => "Len",
        ReqBody::Count(_) => "Count",
        ReqBody::HasMatch(_) => "HasMatch",
        ReqBody::Snapshot => "Snapshot",
        ReqBody::Restore(_) => "Restore",
        ReqBody::TxnBegin { .. } => "TxnBegin",
        ReqBody::TxnCommit { .. } => "TxnCommit",
        ReqBody::TxnAbort { .. } => "TxnAbort",
        ReqBody::ContGet { .. } => "ContGet",
        ReqBody::ContClear { .. } => "ContClear",
        ReqBody::OutDeferred(_) => "OutDeferred",
        ReqBody::OutAllDeferred(_) => "OutAllDeferred",
        ReqBody::Flush => "Flush",
        ReqBody::InBatch { .. } => "InBatch",
        ReqBody::InpBatch { .. } => "InpBatch",
        ReqBody::Batch(_) => "Batch",
    }
}

/// The abstract frame a concrete response encodes to (see
/// [`req_frame_name`]).
pub fn resp_frame_name(body: &RespBody) -> &'static str {
    match body {
        RespBody::Ok => "Ok",
        RespBody::Tuple(Some(_)) => "TupleSome",
        RespBody::Tuple(None) => "TupleNone",
        RespBody::Num(_) => "Num",
        RespBody::Bool(_) => "Bool",
        RespBody::Tuples(_) => "Tuples",
        RespBody::Cancelled => "Cancelled",
        RespBody::Err(_) => "Err",
        RespBody::Batch(_) => "Batch",
    }
}

/// One transition action: emit a frame to the peer or consume one from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Act {
    /// Emit `frame` onto the outgoing queue.
    Send(String),
    /// Consume `frame` from the head of the incoming queue.
    Recv(String),
}

impl fmt::Display for Act {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Act::Send(fr) => write!(f, "send {fr}"),
            Act::Recv(fr) => write!(f, "recv {fr}"),
        }
    }
}

/// One transition of a frame state machine.
#[derive(Debug, Clone)]
pub struct Trans {
    /// Source state.
    pub from: String,
    /// The action taken.
    pub act: Act,
    /// Destination state.
    pub to: String,
}

/// A declarative frame state machine: one connection's half of the
/// protocol.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Display name (`"client"` / `"broker"` for the built-in pair).
    pub name: String,
    /// Initial state.
    pub initial: String,
    /// Transition table.
    pub trans: Vec<Trans>,
}

impl Machine {
    fn push(&mut self, from: &str, act: Act, to: &str) {
        self.trans.push(Trans {
            from: from.into(),
            act,
            to: to.into(),
        });
    }

    /// Distinct state names, in first-seen order.
    pub fn states(&self) -> Vec<&str> {
        let mut out: Vec<&str> = vec![self.initial.as_str()];
        for t in &self.trans {
            for s in [t.from.as_str(), t.to.as_str()] {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Every frame this machine can emit, deduplicated.
    pub fn emitted_frames(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for t in &self.trans {
            if let Act::Send(f) = &t.act {
                if !out.contains(&f.as_str()) {
                    out.push(f);
                }
            }
        }
        out
    }

    /// Every frame this machine can receive, deduplicated.
    pub fn received_frames(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for t in &self.trans {
            if let Act::Recv(f) = &t.act {
                if !out.contains(&f.as_str()) {
                    out.push(f);
                }
            }
        }
        out
    }

    fn can_recv(&self, state: &str, frame: &str) -> bool {
        self.trans
            .iter()
            .any(|t| t.from == state && t.act == Act::Recv(frame.to_string()))
    }
}

/// The client connection machine, extracted from
/// [`super::client::SocketBackend`]: strict request/response, except a
/// blocking `In`/`Rd` wait (`Waiting`) which may be revoked by `Cancel`.
/// The cancel race is resolved exactly as `cancel_wait` does: the client
/// accepts the wait's resolution (`Cancelled` or `TupleSome`) and the
/// cancel's own `Ok` in either order, and compensates a won race by
/// `out`-ing the tuple back (`Compensate`).
pub fn client_machine() -> Machine {
    let mut m = Machine {
        name: "client".into(),
        initial: "Idle".into(),
        trans: Vec::new(),
    };
    // Simple RPCs: Idle --send op--> AwaitOp --recv result--> Idle.
    // Every exchange may instead be answered with Err (broker rejection),
    // which rpc() surfaces as a transport error after consuming the frame.
    let simple: [(&str, &[&str]); 18] = [
        ("Out", &["Ok"]),
        ("OutAll", &["Ok"]),
        ("Inp", &["TupleSome", "TupleNone"]),
        ("Rdp", &["TupleSome", "TupleNone"]),
        ("Len", &["Num"]),
        ("Count", &["Num"]),
        ("HasMatch", &["Bool"]),
        ("Snapshot", &["Tuples"]),
        ("Restore", &["Ok"]),
        ("TxnBegin", &["Ok"]),
        ("TxnCommit", &["Ok"]),
        ("TxnAbort", &["Ok"]),
        ("ContGet", &["TupleSome", "TupleNone"]),
        ("ContClear", &["Ok"]),
        ("Flush", &["Num"]),
        ("InpBatch", &["Tuples"]),
        ("Batch", &["Batch"]),
        ("Cancel", &[]), // sent only from Waiting; listed for vocabulary
    ];
    for (op, results) in simple {
        if op == "Cancel" {
            continue;
        }
        let await_state = format!("Await{op}");
        m.push("Idle", Act::Send(op.into()), &await_state);
        for r in results {
            m.push(&await_state, Act::Recv((*r).into()), "Idle");
        }
        m.push(&await_state, Act::Recv("Err".into()), "Idle");
    }
    // Blocking waits: In/Rd defer the response until a tuple arrives.
    m.push("Idle", Act::Send("In".into()), "Waiting");
    m.push("Idle", Act::Send("Rd".into()), "Waiting");
    m.push("Waiting", Act::Recv("TupleSome".into()), "Idle");
    // Cancellation: after `send Cancel` the wait resolution (Cancelled or
    // a racing TupleSome) and the cancel ack (Ok) arrive in either order.
    m.push("Waiting", Act::Send("Cancel".into()), "CancelSent");
    m.push("CancelSent", Act::Recv("Cancelled".into()), "NeedAck");
    m.push("CancelSent", Act::Recv("TupleSome".into()), "WonNeedAck");
    m.push("CancelSent", Act::Recv("Ok".into()), "NeedResolution");
    m.push("NeedAck", Act::Recv("Ok".into()), "Idle");
    m.push("WonNeedAck", Act::Recv("Ok".into()), "Compensate");
    m.push("NeedResolution", Act::Recv("Cancelled".into()), "Idle");
    m.push(
        "NeedResolution",
        Act::Recv("TupleSome".into()),
        "Compensate",
    );
    // A won race is compensated with an Out returning the tuple; the
    // compensation's response is accepted whatever it is (recv_seq does
    // not inspect the body).
    m.push("Compensate", Act::Send("Out".into()), "AwaitCompOut");
    m.push("AwaitCompOut", Act::Recv("Ok".into()), "Idle");
    m.push("AwaitCompOut", Act::Recv("Err".into()), "Idle");
    // Deferred outs are fire-and-forget: emitted from Idle with no
    // response, so no await state. The flush-before-blocking invariant is
    // visible here as the *absence* of deferred sends from any wait state.
    m.push("Idle", Act::Send("OutDeferred".into()), "Idle");
    m.push("Idle", Act::Send("OutAllDeferred".into()), "Idle");
    // Bulk blocking withdraw: like In/Rd, but resolved with Tuples, and a
    // won cancel race is compensated with an OutAll returning every tuple.
    m.push("Idle", Act::Send("InBatch".into()), "WaitingB");
    m.push("WaitingB", Act::Recv("Tuples".into()), "Idle");
    m.push("WaitingB", Act::Send("Cancel".into()), "CancelSentB");
    m.push("CancelSentB", Act::Recv("Cancelled".into()), "NeedAckB");
    m.push("CancelSentB", Act::Recv("Tuples".into()), "WonNeedAckB");
    m.push("CancelSentB", Act::Recv("Ok".into()), "NeedResolutionB");
    m.push("NeedAckB", Act::Recv("Ok".into()), "Idle");
    m.push("WonNeedAckB", Act::Recv("Ok".into()), "CompensateB");
    m.push("NeedResolutionB", Act::Recv("Cancelled".into()), "Idle");
    m.push("NeedResolutionB", Act::Recv("Tuples".into()), "CompensateB");
    m.push("CompensateB", Act::Send("OutAll".into()), "AwaitCompOutAll");
    m.push("AwaitCompOutAll", Act::Recv("Ok".into()), "Idle");
    m.push("AwaitCompOutAll", Act::Recv("Err".into()), "Idle");
    m
}

/// The broker connection machine, extracted from
/// the broker's `serve_conn` / `handle`: request-driven, except that a
/// parked blocking wait (`Parked`) is answered spontaneously when a
/// matching tuple is delivered. A `Cancel` that finds its waiter parked is
/// answered `Cancelled` (wait seq) then `Ok` (cancel seq); a `Cancel`
/// whose waiter was already satisfied is answered `Ok` alone — the
/// `TupleSome` is already on the wire ahead of it.
pub fn broker_machine() -> Machine {
    let mut m = Machine {
        name: "broker".into(),
        initial: "Ready".into(),
        trans: Vec::new(),
    };
    // Request-response ops, with the responses `handle` can produce.
    // Err arises only where the space can reject the operation.
    let simple: [(&str, &[&str]); 17] = [
        ("Out", &["Ok"]),
        ("OutAll", &["Ok"]),
        ("Inp", &["TupleSome", "TupleNone"]),
        ("Rdp", &["TupleSome", "TupleNone"]),
        ("Len", &["Num"]),
        ("Count", &["Num"]),
        ("HasMatch", &["Bool"]),
        ("Snapshot", &["Tuples"]),
        ("Restore", &["Ok", "Err"]),
        ("TxnBegin", &["Ok"]),
        ("TxnCommit", &["Ok", "Err"]),
        ("TxnAbort", &["Ok"]),
        ("ContGet", &["TupleSome", "TupleNone", "Err"]),
        ("ContClear", &["Ok", "Err"]),
        ("Flush", &["Num"]),
        ("InpBatch", &["Tuples"]),
        ("Batch", &["Batch"]),
    ];
    for (op, results) in simple {
        let resp_state = format!("Respond{op}");
        m.push("Ready", Act::Recv(op.into()), &resp_state);
        for r in results {
            m.push(&resp_state, Act::Send((*r).into()), "Ready");
        }
    }
    // Blocking waits: an In/Rd that cannot be satisfied immediately parks
    // a waiter; satisfying it immediately and delivering later are the
    // same abstract transition (Parked --send TupleSome--> Ready).
    m.push("Ready", Act::Recv("In".into()), "Parked");
    m.push("Ready", Act::Recv("Rd".into()), "Parked");
    m.push("Parked", Act::Send("TupleSome".into()), "Ready");
    // Cancel with the waiter still parked: revoke, then ack.
    m.push("Parked", Act::Recv("Cancel".into()), "CancelRevoking");
    m.push(
        "CancelRevoking",
        Act::Send("Cancelled".into()),
        "CancelAcking",
    );
    m.push("CancelAcking", Act::Send("Ok".into()), "Ready");
    // Cancel after the wait was satisfied (the race): ack alone.
    m.push("Ready", Act::Recv("Cancel".into()), "LateCancel");
    m.push("LateCancel", Act::Send("Ok".into()), "Ready");
    // Deferred outs are parked and applied at the next flush barrier; the
    // frames themselves are consumed without any response.
    m.push("Ready", Act::Recv("OutDeferred".into()), "Ready");
    m.push("Ready", Act::Recv("OutAllDeferred".into()), "Ready");
    // Bulk blocking withdraw: parks like In/Rd but resolves with Tuples,
    // with the same cancel choreography.
    m.push("Ready", Act::Recv("InBatch".into()), "ParkedB");
    m.push("ParkedB", Act::Send("Tuples".into()), "Ready");
    m.push("ParkedB", Act::Recv("Cancel".into()), "CancelRevokingB");
    m.push(
        "CancelRevokingB",
        Act::Send("Cancelled".into()),
        "CancelAckingB",
    );
    m.push("CancelAckingB", Act::Send("Ok".into()), "Ready");
    m
}

/// Queue bound of the small-scope enumeration: at most this many frames in
/// flight per direction. The protocol itself never exceeds two (a racing
/// `TupleSome` plus the `Ok` acking the `Cancel` behind it); the checker
/// uses three for margin.
pub const DEFAULT_QUEUE_BOUND: usize = 3;

/// A reachable configuration in which `receiver` cannot handle the frame
/// at the head of its incoming queue — the duality failure.
#[derive(Debug, Clone)]
pub struct DualityViolation {
    /// Which machine failed to receive (`client_machine().name` etc.).
    pub receiver: String,
    /// The state it was in.
    pub state: String,
    /// The frame it could not handle.
    pub frame: String,
    /// One action trail from the initial configuration to the failure.
    pub trail: Vec<String>,
}

impl fmt::Display for DualityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in state {} cannot handle incoming frame {} (after: {})",
            self.receiver,
            self.state,
            self.frame,
            self.trail.join(", ")
        )
    }
}

/// Result of [`check_duality`].
#[derive(Debug, Clone)]
pub struct DualityReport {
    /// Distinct configurations explored.
    pub configs: usize,
    /// Distinct `(receiver, state, frame)` deliveries exercised.
    pub deliveries: usize,
    /// Violations found (empty = the machines are dual within the scope).
    pub violations: Vec<DualityViolation>,
}

impl DualityReport {
    /// Did the enumeration find no unhandled `(state, frame)` pair?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

type Config = (usize, usize, Vec<String>, Vec<String>);

/// Exhaustively explore every interleaving of the two machines connected
/// by two FIFO frame queues of depth `queue_bound`, and report each
/// reachable `(state, incoming frame)` pair the receiving machine has no
/// transition for. The state space is finite (states × bounded queue
/// contents), so the enumeration is complete within the scope.
pub fn check_duality(a: &Machine, b: &Machine, queue_bound: usize) -> DualityReport {
    let a_states: Vec<&str> = a.states();
    let b_states: Vec<&str> = b.states();
    let idx = |states: &[&str], s: &str| states.iter().position(|x| *x == s).unwrap();

    let mut report = DualityReport {
        configs: 0,
        deliveries: 0,
        violations: Vec::new(),
    };
    let mut seen: HashSet<Config> = HashSet::new();
    let mut delivered: HashSet<(bool, String, String)> = HashSet::new();
    let mut flagged: HashSet<(bool, String, String)> = HashSet::new();

    // DFS with an explicit stack carrying the action trail.
    let start: Config = (
        idx(&a_states, &a.initial),
        idx(&b_states, &b.initial),
        Vec::new(),
        Vec::new(),
    );
    let mut stack: Vec<(Config, Vec<String>)> = vec![(start.clone(), Vec::new())];
    seen.insert(start);

    while let Some(((ai, bi, q_ab, q_ba), trail)) = stack.pop() {
        report.configs += 1;

        // Receive at machine A (head of q_ba).
        if let Some(head) = q_ba.first() {
            if a.can_recv(a_states[ai], head) {
                for t in &a.trans {
                    if t.from == a_states[ai] && t.act == Act::Recv(head.clone()) {
                        delivered.insert((true, t.from.clone(), head.clone()));
                        let cfg = (idx(&a_states, &t.to), bi, q_ab.clone(), q_ba[1..].to_vec());
                        if seen.insert(cfg.clone()) {
                            let mut tr = trail.clone();
                            tr.push(format!("{} recv {head}", a.name));
                            stack.push((cfg, tr));
                        }
                    }
                }
            } else if flagged.insert((true, a_states[ai].to_string(), head.clone())) {
                report.violations.push(DualityViolation {
                    receiver: a.name.clone(),
                    state: a_states[ai].to_string(),
                    frame: head.clone(),
                    trail: trail.clone(),
                });
            }
        }
        // Receive at machine B (head of q_ab).
        if let Some(head) = q_ab.first() {
            if b.can_recv(b_states[bi], head) {
                for t in &b.trans {
                    if t.from == b_states[bi] && t.act == Act::Recv(head.clone()) {
                        delivered.insert((false, t.from.clone(), head.clone()));
                        let cfg = (ai, idx(&b_states, &t.to), q_ab[1..].to_vec(), q_ba.clone());
                        if seen.insert(cfg.clone()) {
                            let mut tr = trail.clone();
                            tr.push(format!("{} recv {head}", b.name));
                            stack.push((cfg, tr));
                        }
                    }
                }
            } else if flagged.insert((false, b_states[bi].to_string(), head.clone())) {
                report.violations.push(DualityViolation {
                    receiver: b.name.clone(),
                    state: b_states[bi].to_string(),
                    frame: head.clone(),
                    trail: trail.clone(),
                });
            }
        }
        // Sends from A.
        if q_ab.len() < queue_bound {
            for t in &a.trans {
                if t.from == a_states[ai] {
                    if let Act::Send(f) = &t.act {
                        let mut q = q_ab.clone();
                        q.push(f.clone());
                        let cfg = (idx(&a_states, &t.to), bi, q, q_ba.clone());
                        if seen.insert(cfg.clone()) {
                            let mut tr = trail.clone();
                            tr.push(format!("{} send {f}", a.name));
                            stack.push((cfg, tr));
                        }
                    }
                }
            }
        }
        // Sends from B.
        if q_ba.len() < queue_bound {
            for t in &b.trans {
                if t.from == b_states[bi] {
                    if let Act::Send(f) = &t.act {
                        let mut q = q_ba.clone();
                        q.push(f.clone());
                        let cfg = (ai, idx(&b_states, &t.to), q_ab.clone(), q);
                        if seen.insert(cfg.clone()) {
                            let mut tr = trail.clone();
                            tr.push(format!("{} send {f}", b.name));
                            stack.push((cfg, tr));
                        }
                    }
                }
            }
        }
    }
    report.deliveries = delivered.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn vocabulary_covers_every_concrete_frame() {
        // Compile-time exhaustiveness lives in req_frame_name /
        // resp_frame_name; here we pin the abstract alphabets to them.
        assert!(REQ_FRAMES.contains(&req_frame_name(&ReqBody::Len)));
        assert!(RESP_FRAMES.contains(&resp_frame_name(&RespBody::Tuple(Some(tup![1])))));
        assert!(RESP_FRAMES.contains(&resp_frame_name(&RespBody::Tuple(None))));
        assert_eq!(REQ_FRAMES.len(), 23);
        assert_eq!(RESP_FRAMES.len(), 9);
        assert!(REQ_FRAMES.contains(&req_frame_name(&ReqBody::Flush)));
        assert!(RESP_FRAMES.contains(&resp_frame_name(&RespBody::Batch(Vec::new()))));
    }

    #[test]
    fn client_emits_and_broker_receives_every_request_frame() {
        let c = client_machine();
        let b = broker_machine();
        for f in REQ_FRAMES {
            assert!(c.emitted_frames().contains(&f), "client never sends {f}");
            assert!(b.received_frames().contains(&f), "broker never handles {f}");
        }
        for f in b.emitted_frames() {
            assert!(
                RESP_FRAMES.contains(&f),
                "broker emits {f} outside the response alphabet"
            );
            assert!(c.received_frames().contains(&f), "client never handles {f}");
        }
        for f in c.emitted_frames() {
            assert!(
                REQ_FRAMES.contains(&f),
                "client emits {f} outside the request alphabet"
            );
        }
    }

    #[test]
    fn the_real_machines_are_dual() {
        let report = check_duality(&client_machine(), &broker_machine(), DEFAULT_QUEUE_BOUND);
        assert!(
            report.is_clean(),
            "duality violations: {:?}",
            report.violations
        );
        // Sanity: the enumeration actually explored the protocol. The
        // strict request/response discipline keeps the reachable space
        // small (~70 configurations); what matters is that every exchange
        // and the cancel race are in it.
        assert!(report.configs > 50, "only {} configs", report.configs);
        assert!(
            report.deliveries > 25,
            "only {} deliveries",
            report.deliveries
        );
    }

    #[test]
    fn a_dropped_handler_is_a_reported_violation() {
        let c = client_machine();
        let mut b = broker_machine();
        // Remove the late-cancel handler: a Cancel that races a delivered
        // tuple now reaches the broker in Ready with no transition.
        b.trans
            .retain(|t| !(t.from == "Ready" && t.act == Act::Recv("Cancel".into())));
        let report = check_duality(&c, &b, DEFAULT_QUEUE_BOUND);
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| v.receiver == "broker" && v.state == "Ready" && v.frame == "Cancel"));
    }

    #[test]
    fn the_cancel_race_is_reachable_and_handled() {
        let report = check_duality(&client_machine(), &broker_machine(), DEFAULT_QUEUE_BOUND);
        assert!(report.is_clean());
        // The won-race path exists: client must be able to handle a
        // TupleSome while a cancel is in flight. We assert the states are
        // present rather than re-deriving the trail.
        let c = client_machine();
        assert!(c.can_recv("CancelSent", "TupleSome"));
        assert!(c.can_recv("WonNeedAck", "Ok"));
        // And the bulk variant resolves with Tuples instead.
        assert!(c.can_recv("CancelSentB", "Tuples"));
        assert!(c.can_recv("WonNeedAckB", "Ok"));
    }

    #[test]
    fn deferred_outs_never_leave_a_wait_state() {
        // The flush-before-blocking invariant, as seen by the spec: no
        // deferred frame is ever emitted from a state other than Idle.
        let c = client_machine();
        for t in &c.trans {
            if let Act::Send(f) = &t.act {
                if f == "OutDeferred" || f == "OutAllDeferred" {
                    assert_eq!(t.from, "Idle", "{f} sent from {}", t.from);
                    assert_eq!(t.to, "Idle", "{f} expects a response");
                }
            }
        }
    }

    #[test]
    fn a_dropped_batch_handler_is_a_reported_violation() {
        let c = client_machine();
        let mut b = broker_machine();
        b.trans
            .retain(|t| !(t.from == "Ready" && t.act == Act::Recv("Batch".into())));
        let report = check_duality(&c, &b, DEFAULT_QUEUE_BOUND);
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| v.receiver == "broker" && v.state == "Ready" && v.frame == "Batch"));
    }
}
