//! Declarative frame state machines for the socket protocol, plus the
//! small-scope duality checker that proves them compatible.
//!
//! [`super::proto`] defines the frame *vocabulary* and [`super::client`] /
//! [`super::broker`] each implement one *half* of the conversation. Here
//! both halves are extracted into explicit transition tables
//! ([`client_machine`], [`broker_machine`]) over an abstract frame
//! alphabet, and [`check_duality`] exhaustively enumerates every
//! interleaving of sends, receives, and deliveries the pair can reach
//! within a small scope (FIFO queues of depth [`DEFAULT_QUEUE_BOUND`] per
//! direction, one outstanding blocking wait — exactly the protocol's own
//! invariant). A **duality violation** is a reachable configuration in
//! which the frame at the head of a machine's incoming queue has no `recv`
//! transition from its current state: the peer emitted something this side
//! cannot handle.
//!
//! The alphabet is the vocabulary itself: a request letter is
//! [`ReqOp::name`] and a response letter is [`RespOp::name`], except that
//! an empty `Tuples` is the letter [`NO_TUPLES`] — a blocking wait may only
//! be answered non-empty, and the split lets the checker say so. The
//! machines name their frames through the vocabulary, never by string, and
//! unit tests assert every request frame is emitted somewhere by the
//! client machine and received somewhere by the broker machine (and
//! dually for responses), and that [`check_duality`] over the real pair is
//! clean.
//!
//! `fpdm-analyze` (driven by `cargo run -p xtask -- analyze`) runs the
//! same checker as its protocol-duality pass, and also feeds it seeded
//! mismatch fixtures parsed from `proto.machines` files.

use super::proto::{ReqOp, RespBody, RespOp};
use std::collections::HashSet;
use std::fmt;

/// The abstract letter of an empty `Tuples` answer.
pub const NO_TUPLES: &str = "NoTuples";

const OK: &str = RespOp::Ok.name();
const NUM: &str = RespOp::Num.name();
const TUPLES: &str = RespOp::Tuples.name();
const CANCELLED: &str = RespOp::Cancelled.name();
const ERR: &str = RespOp::Err.name();

/// The abstract letter a concrete response travels as.
pub fn resp_letter(body: &RespBody) -> &'static str {
    match body {
        RespBody::Tuples(ts) if ts.is_empty() => NO_TUPLES,
        other => other.op().name(),
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
    fn new(name: &str, initial: &str) -> Machine {
        Machine {
            name: name.into(),
            initial: initial.into(),
            trans: Vec::new(),
        }
    }

    fn push(&mut self, from: &str, act: Act, to: &str) {
        self.trans.push(Trans {
            from: from.into(),
            act,
            to: to.into(),
        });
    }

    fn send(&mut self, from: &str, frame: &str, to: &str) {
        self.push(from, Act::Send(frame.into()), to);
    }

    fn recv(&mut self, from: &str, frame: &str, to: &str) {
        self.push(from, Act::Recv(frame.into()), to);
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

/// The client state awaiting the answer to `op`.
fn awaiting(op: ReqOp) -> String {
    format!("Await{}", op.name())
}

/// The client connection machine, extracted from
/// [`super::client::SocketBackend`]: strict request/response, except a
/// blocking `Wait` (`Waiting`) which may be revoked by `Cancel`. The
/// cancel race is resolved exactly as `cancel_wait` does: the client
/// accepts the wait's resolution (`Cancelled` or `Tuples`) and the
/// cancel's own `Ok` in either order, and compensates a won race by
/// `Out`-ing the tuples back (`Compensate`) — or, for a read that took
/// nothing, returns straight to `Idle`.
pub fn client_machine() -> Machine {
    let mut m = Machine::new("client", "Idle");
    // Simple RPCs: Idle --send op--> Await<op> --recv result--> Idle.
    // Every exchange may instead be answered with Err (broker rejection),
    // which the client surfaces as a transport error after consuming the
    // frame.
    let simple: [(ReqOp, &[&str]); 12] = [
        (ReqOp::Out, &[OK]),
        (ReqOp::Flush, &[NUM]),
        (ReqOp::Poll, &[TUPLES, NO_TUPLES]),
        (ReqOp::Len, &[NUM]),
        (ReqOp::Count, &[NUM]),
        (ReqOp::Snapshot, &[TUPLES, NO_TUPLES]),
        (ReqOp::Restore, &[OK]),
        (ReqOp::TxnBegin, &[OK]),
        (ReqOp::TxnCommit, &[NUM]),
        (ReqOp::TxnAbort, &[OK]),
        (ReqOp::ContGet, &[TUPLES, NO_TUPLES]),
        (ReqOp::ContClear, &[OK]),
    ];
    for (op, results) in simple {
        let await_state = awaiting(op);
        m.send("Idle", op.name(), &await_state);
        for r in results.iter().chain([&ERR]) {
            m.recv(&await_state, r, "Idle");
        }
    }
    // Blocking waits defer the response until a tuple arrives.
    m.send("Idle", ReqOp::Wait.name(), "Waiting");
    m.recv("Waiting", TUPLES, "Idle");
    // Cancellation: after `send Cancel` the wait resolution (Cancelled or
    // a racing Tuples) and the cancel ack (Ok) arrive in either order.
    m.send("Waiting", ReqOp::Cancel.name(), "CancelSent");
    m.recv("CancelSent", CANCELLED, "NeedAck");
    m.recv("CancelSent", TUPLES, "WonNeedAck");
    m.recv("CancelSent", OK, "NeedResolution");
    m.recv("NeedAck", OK, "Idle");
    m.recv("NeedResolution", CANCELLED, "Idle");
    // The wait won: a take compensates, a read (which took nothing)
    // returns straight to Idle.
    for (won, last) in [("WonNeedAck", OK), ("NeedResolution", TUPLES)] {
        m.recv(won, last, "Compensate");
        m.recv(won, last, "Idle");
    }
    // A won take is compensated with one Out returning the tuples, an
    // ordinary Out exchange.
    m.send("Compensate", ReqOp::Out.name(), &awaiting(ReqOp::Out));
    // Deferred outs are fire-and-forget: emitted from Idle with no
    // response, so no await state. The flush-before-blocking invariant is
    // visible here as the *absence* of deferred sends from any wait state.
    m.send("Idle", ReqOp::OutDeferred.name(), "Idle");
    m
}

/// The broker connection machine, extracted from
/// the broker's `serve_conn` / `handle`: request-driven, except that a
/// parked blocking wait (`Parked`) is answered spontaneously when a
/// matching tuple is delivered. A `Cancel` that finds its waiter parked is
/// answered `Cancelled` (wait seq) then `Ok` (cancel seq); a `Cancel`
/// whose waiter was already satisfied is answered `Ok` alone — the
/// `Tuples` is already on the wire ahead of it.
pub fn broker_machine() -> Machine {
    let mut m = Machine::new("broker", "Ready");
    // Request-response ops, with the responses `handle` can produce.
    // Err arises only where the space can reject the operation.
    let simple: [(ReqOp, &[&str]); 12] = [
        (ReqOp::Out, &[OK]),
        (ReqOp::Flush, &[NUM]),
        (ReqOp::Poll, &[TUPLES, NO_TUPLES]),
        (ReqOp::Len, &[NUM]),
        (ReqOp::Count, &[NUM]),
        (ReqOp::Snapshot, &[TUPLES, NO_TUPLES]),
        (ReqOp::Restore, &[OK, ERR]),
        (ReqOp::TxnBegin, &[OK]),
        (ReqOp::TxnCommit, &[NUM, ERR]),
        (ReqOp::TxnAbort, &[OK]),
        (ReqOp::ContGet, &[TUPLES, NO_TUPLES, ERR]),
        (ReqOp::ContClear, &[OK, ERR]),
    ];
    for (op, results) in simple {
        let resp_state = format!("Respond{}", op.name());
        m.recv("Ready", op.name(), &resp_state);
        for r in results {
            m.send(&resp_state, r, "Ready");
        }
    }
    // Blocking waits: a Wait that cannot be satisfied immediately parks a
    // waiter; satisfying it immediately and delivering later are the same
    // abstract transition (Parked --send Tuples--> Ready).
    m.recv("Ready", ReqOp::Wait.name(), "Parked");
    m.send("Parked", TUPLES, "Ready");
    // Cancel with the waiter still parked: revoke, then ack.
    m.recv("Parked", ReqOp::Cancel.name(), "CancelRevoking");
    m.send("CancelRevoking", CANCELLED, "CancelAcking");
    m.send("CancelAcking", OK, "Ready");
    // Cancel after the wait was satisfied (the race): ack alone.
    m.recv("Ready", ReqOp::Cancel.name(), "LateCancel");
    m.send("LateCancel", OK, "Ready");
    // Deferred outs are parked and applied at the next flush barrier; the
    // frames themselves are consumed without any response.
    m.recv("Ready", ReqOp::OutDeferred.name(), "Ready");
    m
}

/// Queue bound of the small-scope enumeration: at most this many frames in
/// flight per direction. The protocol itself never exceeds two (a racing
/// `Tuples` plus the `Ok` acking the `Cancel` behind it); the checker
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

    fn req_alphabet() -> Vec<&'static str> {
        ReqOp::ALL.iter().map(|op| op.name()).collect()
    }

    fn resp_alphabet() -> Vec<&'static str> {
        let mut letters: Vec<&str> = RespOp::ALL.iter().map(|op| op.name()).collect();
        letters.push(NO_TUPLES);
        letters
    }

    #[test]
    fn vocabulary_covers_every_concrete_frame() {
        assert_eq!(ReqOp::ALL.len(), 15);
        assert_eq!(RespOp::ALL.len(), 5);
        assert_eq!(resp_alphabet().len(), 6);
        // Emptiness picks the letter of a Tuples answer.
        assert_eq!(resp_letter(&RespBody::Tuples(vec![tup![1]])), TUPLES);
        assert_eq!(resp_letter(&RespBody::Tuples(Vec::new())), NO_TUPLES);
        assert_eq!(resp_letter(&RespBody::Num(3)), NUM);
    }

    #[test]
    fn client_emits_and_broker_receives_every_request_frame() {
        let c = client_machine();
        let b = broker_machine();
        for f in req_alphabet() {
            assert!(c.emitted_frames().contains(&f), "client never sends {f}");
            assert!(b.received_frames().contains(&f), "broker never handles {f}");
        }
        for f in b.emitted_frames() {
            assert!(
                resp_alphabet().contains(&f),
                "broker emits {f} outside the response alphabet"
            );
            assert!(c.received_frames().contains(&f), "client never handles {f}");
        }
        for f in c.emitted_frames() {
            assert!(
                req_alphabet().contains(&f),
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
        // small; what matters is that every exchange and the cancel race
        // are in it.
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
        let cancel = ReqOp::Cancel.name();
        b.trans
            .retain(|t| !(t.from == "Ready" && t.act == Act::Recv(cancel.into())));
        let report = check_duality(&c, &b, DEFAULT_QUEUE_BOUND);
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| v.receiver == "broker" && v.state == "Ready" && v.frame == cancel));
    }

    #[test]
    fn a_blocking_wait_answered_empty_is_a_violation() {
        // A broker that could answer a parked Wait with an empty Tuples
        // breaks the client, which only accepts a non-empty answer there.
        let c = client_machine();
        let mut b = broker_machine();
        b.send("Parked", NO_TUPLES, "Ready");
        let report = check_duality(&c, &b, DEFAULT_QUEUE_BOUND);
        assert!(report
            .violations
            .iter()
            .any(|v| v.receiver == "client" && v.state == "Waiting" && v.frame == NO_TUPLES));
    }

    #[test]
    fn the_cancel_race_is_reachable_and_handled() {
        let report = check_duality(&client_machine(), &broker_machine(), DEFAULT_QUEUE_BOUND);
        assert!(report.is_clean());
        // The won-race path exists: the client must be able to handle a
        // Tuples while a cancel is in flight. We assert the states are
        // present rather than re-deriving the trail.
        let c = client_machine();
        assert!(c.can_recv("CancelSent", TUPLES));
        assert!(c.can_recv("WonNeedAck", OK));
        assert!(c.can_recv("NeedResolution", TUPLES));
    }

    #[test]
    fn deferred_outs_never_leave_a_wait_state() {
        // The flush-before-blocking invariant, as seen by the spec: no
        // deferred frame is ever emitted from a state other than Idle.
        let c = client_machine();
        let deferred = Act::Send(ReqOp::OutDeferred.name().into());
        for t in c.trans.iter().filter(|t| t.act == deferred) {
            assert_eq!(t.from, "Idle", "deferred out sent from {}", t.from);
            assert_eq!(t.to, "Idle", "deferred out expects a response");
        }
    }
}
