//! Typed, signature-keyed tuple channels.
//!
//! The dissertation's programs all follow the same convention: a tuple
//! stream is identified by a leading string tag (`"task"`, `"result"`,
//! `"wcount"`, …) followed by a fixed sequence of typed payload fields, and
//! every consumer builds the matching all-formals template by hand. This
//! module captures that convention once. A [`Chan<T>`] is a named, typed
//! stream over a [`TupleSpace`]: `send` wraps a `T` into the tagged tuple,
//! `recv` withdraws the next matching tuple and unwraps it. Because
//! templates are fully typed, each channel maps to exactly one tuple-space
//! signature, so the sharded space routes it to a single partition;
//! channels with different payload shapes never contend on a lock (two
//! channels that share a payload shape share a signature — the leading
//! name field then distinguishes them within the partition).
//!
//! Payload encoding is described by the [`Wire`] trait (one field) and the
//! [`Payload`] trait (a whole tuple of fields, implemented for `Wire` types
//! and for 2–4-ary tuples of them). Flat numeric arrays ride in `Bytes`
//! fields via the public [`crate::codec`] primitives, replacing the private
//! per-program byte-packing helpers the applications used to carry around.
//!
//! [`KeyedChan<T>`] adds one integer routing field after the name, for
//! per-consumer addressing (e.g. one task stream per worker).
//!
//! Channels speak only through the [`TupleSpace`] facade, so they are
//! backend-agnostic: the same `Chan<T>` works over the in-process space and
//! over a socket-connected broker ([`TupleSpace::connect_unix`]) without
//! any change.

use crate::codec;
use crate::probe::Event;
use crate::process::{PlindaError, Process};
use crate::space::TupleSpace;
use crate::template::{field, Field, Template};
use crate::value::{Tuple, TypeTag, Value};
use std::marker::PhantomData;
use std::sync::atomic::AtomicBool;

/// A single tuple field that knows how to cross the tuple space.
///
/// `from_value` panics on a tag mismatch: channels only ever hand it values
/// drawn by a template whose formal carries [`Wire::TAG`], so a mismatch is
/// a bug in the channel layer itself, not a runtime condition.
pub trait Wire: Sized {
    /// The tuple-space type this field occupies.
    const TAG: TypeTag;
    /// Encode into a tuple field.
    fn to_value(&self) -> Value;
    /// Decode from a tuple field.
    fn from_value(v: &Value) -> Self;
    /// A neutral value of this type (used for poison-pill placeholders,
    /// which must share the channel's signature to share its partition).
    fn zero() -> Self;
}

impl Wire for i64 {
    const TAG: TypeTag = TypeTag::Int;
    fn to_value(&self) -> Value {
        Value::Int(*self)
    }
    fn from_value(v: &Value) -> Self {
        match v {
            Value::Int(i) => *i,
            other => panic!("channel field: expected Int, got {other:?}"),
        }
    }
    fn zero() -> Self {
        0
    }
}

impl Wire for f64 {
    const TAG: TypeTag = TypeTag::Real;
    fn to_value(&self) -> Value {
        Value::Real(*self)
    }
    fn from_value(v: &Value) -> Self {
        match v {
            Value::Real(r) => *r,
            other => panic!("channel field: expected Real, got {other:?}"),
        }
    }
    fn zero() -> Self {
        0.0
    }
}

impl Wire for String {
    const TAG: TypeTag = TypeTag::Str;
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn from_value(v: &Value) -> Self {
        match v {
            Value::Str(s) => s.clone(),
            other => panic!("channel field: expected Str, got {other:?}"),
        }
    }
    fn zero() -> Self {
        String::new()
    }
}

impl Wire for Vec<u8> {
    const TAG: TypeTag = TypeTag::Bytes;
    fn to_value(&self) -> Value {
        Value::Bytes(self.clone())
    }
    fn from_value(v: &Value) -> Self {
        match v {
            Value::Bytes(b) => b.clone(),
            other => panic!("channel field: expected Bytes, got {other:?}"),
        }
    }
    fn zero() -> Self {
        Vec::new()
    }
}

impl Wire for Vec<f64> {
    const TAG: TypeTag = TypeTag::Bytes;
    fn to_value(&self) -> Value {
        Value::Bytes(codec::encode_f64s(self))
    }
    fn from_value(v: &Value) -> Self {
        match v {
            Value::Bytes(b) => {
                codec::decode_f64s(b).expect("channel field: malformed f64 array bytes")
            }
            other => panic!("channel field: expected Bytes, got {other:?}"),
        }
    }
    fn zero() -> Self {
        Vec::new()
    }
}

impl Wire for Vec<u32> {
    const TAG: TypeTag = TypeTag::Bytes;
    fn to_value(&self) -> Value {
        Value::Bytes(codec::encode_u32s(self))
    }
    fn from_value(v: &Value) -> Self {
        match v {
            Value::Bytes(b) => {
                codec::decode_u32s(b).expect("channel field: malformed u32 array bytes")
            }
            other => panic!("channel field: expected Bytes, got {other:?}"),
        }
    }
    fn zero() -> Self {
        Vec::new()
    }
}

impl Wire for Vec<Vec<u32>> {
    const TAG: TypeTag = TypeTag::Bytes;
    fn to_value(&self) -> Value {
        Value::Bytes(codec::encode_u32_lists(self))
    }
    fn from_value(v: &Value) -> Self {
        match v {
            Value::Bytes(b) => {
                codec::decode_u32_lists(b).expect("channel field: malformed u32-list bytes")
            }
            other => panic!("channel field: expected Bytes, got {other:?}"),
        }
    }
    fn zero() -> Self {
        Vec::new()
    }
}

/// Escape hatch: an untyped list field, for payloads whose inner shape
/// varies per message (e.g. the optimistic-PLET subtree descriptors).
impl Wire for Vec<Value> {
    const TAG: TypeTag = TypeTag::List;
    fn to_value(&self) -> Value {
        Value::List(self.clone())
    }
    fn from_value(v: &Value) -> Self {
        match v {
            Value::List(l) => l.clone(),
            other => panic!("channel field: expected List, got {other:?}"),
        }
    }
    fn zero() -> Self {
        Vec::new()
    }
}

/// A whole channel payload: an ordered sequence of [`Wire`] fields.
///
/// Implemented for any single `Wire` type, for 2–4-ary tuples of them, and
/// for `()` (signal-only channels).
pub trait Payload: Sized {
    /// Type tags of the payload fields, in order.
    fn tags() -> Vec<TypeTag>;
    /// Encode into tuple fields, in order.
    fn to_values(&self) -> Vec<Value>;
    /// Decode from exactly `tags().len()` tuple fields.
    fn from_values(vs: &[Value]) -> Self;
    /// A neutral payload sharing this type's signature (poison pills).
    fn placeholder() -> Self {
        Self::from_values(
            &Self::tags()
                .iter()
                .map(|t| match t {
                    TypeTag::Int => Value::Int(0),
                    TypeTag::Real => Value::Real(0.0),
                    TypeTag::Str => Value::Str(String::new()),
                    TypeTag::Bytes => Value::Bytes(Vec::new()),
                    TypeTag::List => Value::List(Vec::new()),
                })
                .collect::<Vec<_>>(),
        )
    }
}

impl<W: Wire> Payload for W {
    fn tags() -> Vec<TypeTag> {
        vec![W::TAG]
    }
    fn to_values(&self) -> Vec<Value> {
        vec![self.to_value()]
    }
    fn from_values(vs: &[Value]) -> Self {
        W::from_value(&vs[0])
    }
    fn placeholder() -> Self {
        W::zero()
    }
}

impl Payload for () {
    fn tags() -> Vec<TypeTag> {
        Vec::new()
    }
    fn to_values(&self) -> Vec<Value> {
        Vec::new()
    }
    fn from_values(_: &[Value]) -> Self {}
    fn placeholder() -> Self {}
}

macro_rules! tuple_payload {
    ($($w:ident . $i:tt),+) => {
        impl<$($w: Wire),+> Payload for ($($w,)+) {
            fn tags() -> Vec<TypeTag> {
                vec![$($w::TAG),+]
            }
            fn to_values(&self) -> Vec<Value> {
                vec![$(self.$i.to_value()),+]
            }
            fn from_values(vs: &[Value]) -> Self {
                ($($w::from_value(&vs[$i]),)+)
            }
            fn placeholder() -> Self {
                ($($w::zero(),)+)
            }
        }
    };
}

tuple_payload!(A.0, B.1);
tuple_payload!(A.0, B.1, C.2);
tuple_payload!(A.0, B.1, C.2, D.3);

/// Emit `n` sends, receives or reads of channel `name`: its
/// `chan.<name>.{sent,recv,read}` counters and its `chan.<name>.depth`
/// gauge, whose high-water mark is the channel's depth watermark. The depth
/// counts tuples matching `depth_of()`, sampled *before* emitting — probe
/// sinks never re-enter the space (see `crate::probe`).
fn note(
    space: &TupleSpace,
    name: &str,
    depth_of: impl FnOnce() -> Template,
    dir: &'static str,
    n: usize,
) {
    if n == 0 || !space.metrics_enabled() {
        return;
    }
    let depth = space.count(&depth_of()) as i64;
    space.emit(Event::Chan {
        name,
        dir,
        n: n as u64,
        depth,
    });
}

/// A named, typed tuple stream.
///
/// The wire format is `[Str(name), fields…]`; the receive template is the
/// same with all payload fields formal, so every `Chan<T>` owns exactly one
/// tuple-space signature (and hence one partition of the sharded space).
pub struct Chan<T: Payload> {
    name: String,
    _t: PhantomData<fn(T) -> T>,
}

// Derived impls would bound on `T`; the channel itself is just a name.
impl<T: Payload> Clone for Chan<T> {
    fn clone(&self) -> Self {
        Chan {
            name: self.name.clone(),
            _t: PhantomData,
        }
    }
}

impl<T: Payload> Chan<T> {
    /// A channel named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Chan {
            name: name.into(),
            _t: PhantomData,
        }
    }

    /// The channel's name (the leading string tag of its tuples).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wrap a payload into this channel's tuple shape.
    pub fn tuple(&self, payload: &T) -> Tuple {
        let mut vs = vec![Value::Str(self.name.clone())];
        vs.extend(payload.to_values());
        Tuple(vs)
    }

    /// The all-formals receive template.
    pub fn template(&self) -> Template {
        let mut fs = vec![field::val(self.name.as_str())];
        fs.extend(T::tags().into_iter().map(field::of));
        Template::new(fs)
    }

    /// A template whose payload fields are all *actual* — matches only
    /// tuples carrying exactly `payload` (e.g. waiting for a counter to
    /// reach zero).
    pub fn template_eq(&self, payload: &T) -> Template {
        let mut fs = vec![field::val(self.name.as_str())];
        fs.extend(payload.to_values().into_iter().map(Field::Actual));
        Template::new(fs)
    }

    fn unwrap(&self, t: &Tuple) -> T {
        T::from_values(&t.0[1..])
    }

    fn note(&self, space: &TupleSpace, dir: &'static str) {
        self.note_n(space, dir, 1);
    }

    fn note_n(&self, space: &TupleSpace, dir: &'static str, n: usize) {
        note(space, &self.name, || self.template(), dir, n);
    }

    // ---- space-side (master, outside transactions) ----

    /// `out` a payload directly into the space.
    pub fn send(&self, space: &TupleSpace, payload: &T) {
        space.out(self.tuple(payload));
        self.note(space, "sent");
    }

    /// Bulk `out`: every payload in one deferred batch. Over a socket the
    /// tuples ride the connection's write-coalescing buffer — no
    /// per-payload round-trip — and become visible no later than the
    /// sender's next response-bearing operation; locally this is an
    /// atomic `out_all`. Counters update once for the whole batch.
    pub fn send_all(&self, space: &TupleSpace, payloads: &[T]) {
        if payloads.is_empty() {
            return;
        }
        space.out_all_deferred(payloads.iter().map(|p| self.tuple(p)).collect());
        self.note_n(space, "sent", payloads.len());
    }

    /// Blocking withdrawal of the next payload.
    pub fn recv(&self, space: &TupleSpace) -> T {
        self.recv_upto(space, 1).swap_remove(0)
    }

    /// Non-blocking withdrawal.
    pub fn try_recv(&self, space: &TupleSpace) -> Option<T> {
        let got = space.inp(&self.template()).map(|t| self.unwrap(&t));
        if got.is_some() {
            self.note(space, "recv");
        }
        got
    }

    /// Blocking bulk withdrawal: at least one payload, at most `max` —
    /// one `in_batch` round trip over a socket backend instead of `max`
    /// individual `recv`s.
    pub fn recv_upto(&self, space: &TupleSpace, max: usize) -> Vec<T> {
        self.take(space, &self.template(), max, None)
            .expect("a wait without a cancel flag cannot be cancelled")
    }

    /// Blocking withdrawal of up to `max` payloads matching `tmpl`, or
    /// `None` once `cancel` is raised.
    pub(crate) fn take(
        &self,
        space: &TupleSpace,
        tmpl: &Template,
        max: usize,
        cancel: Option<&AtomicBool>,
    ) -> Option<Vec<T>> {
        let got: Vec<T> = space
            .wait(tmpl, true, max, cancel)?
            .iter()
            .map(|t| self.unwrap(t))
            .collect();
        self.note_n(space, "recv", got.len());
        Some(got)
    }

    /// Withdraw every currently available payload, in bulk (`inp_batch`)
    /// rather than one round trip per tuple.
    pub fn drain(&self, space: &TupleSpace) -> Vec<T> {
        let mut out = Vec::new();
        loop {
            let batch = space.inp_batch(&self.template(), 64);
            if batch.is_empty() {
                break;
            }
            out.extend(batch.iter().map(|t| self.unwrap(t)));
        }
        self.note_n(space, "recv", out.len());
        out
    }

    /// Blocking read (copy) of a payload without withdrawing it.
    pub fn read(&self, space: &TupleSpace) -> T {
        let got = self.unwrap(&space.rd_blocking(self.template()));
        self.note(space, "read");
        got
    }

    /// Blocking withdrawal of a tuple carrying exactly `payload`.
    pub fn recv_eq(&self, space: &TupleSpace, payload: &T) -> T {
        self.take(space, &self.template_eq(payload), 1, None)
            .expect("a wait without a cancel flag cannot be cancelled")
            .swap_remove(0)
    }

    // ---- process-side (workers, inside transactions) ----

    /// Transactional `out` (buffered until the enclosing commit).
    ///
    /// Buffered sends are invisible until commit, so they update neither
    /// the channel counters nor the depth gauge; the commit's `out_all`
    /// contributes to the partition occupancy metrics instead.
    pub fn send_txn(&self, proc: &mut Process, payload: &T) {
        proc.out(self.tuple(payload));
    }

    /// Transactional blocking withdrawal (tentative until commit).
    pub fn recv_txn(&self, proc: &mut Process) -> Result<T, PlindaError> {
        Ok(self.unwrap(&proc.in_(self.template())?))
    }

    /// Transactional non-blocking withdrawal.
    pub fn try_recv_txn(&self, proc: &mut Process) -> Result<Option<T>, PlindaError> {
        Ok(proc.inp(&self.template())?.map(|t| self.unwrap(&t)))
    }

    /// Transactional blocking read.
    pub fn read_txn(&self, proc: &mut Process) -> Result<T, PlindaError> {
        Ok(self.unwrap(&proc.rd(self.template())?))
    }
}

/// A [`Chan`] with an integer routing key after the name field
/// (`[Str(name), Int(key), fields…]`) — per-consumer addressing, e.g. one
/// task stream per worker.
///
/// All keys share one signature, and hence one partition; keyed channels
/// trade partition isolation for addressed delivery.
pub struct KeyedChan<T: Payload> {
    name: String,
    _t: PhantomData<fn(T) -> T>,
}

impl<T: Payload> Clone for KeyedChan<T> {
    fn clone(&self) -> Self {
        KeyedChan {
            name: self.name.clone(),
            _t: PhantomData,
        }
    }
}

impl<T: Payload> KeyedChan<T> {
    /// A keyed channel named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        KeyedChan {
            name: name.into(),
            _t: PhantomData,
        }
    }

    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wrap a payload addressed to `key`.
    pub fn tuple(&self, key: i64, payload: &T) -> Tuple {
        let mut vs = vec![Value::Str(self.name.clone()), Value::Int(key)];
        vs.extend(payload.to_values());
        Tuple(vs)
    }

    /// Receive template for tuples addressed to `key`.
    pub fn template_for(&self, key: i64) -> Template {
        let mut fs = vec![field::val(self.name.as_str()), field::val(key)];
        fs.extend(T::tags().into_iter().map(field::of));
        Template::new(fs)
    }

    fn unwrap(&self, t: &Tuple) -> T {
        T::from_values(&t.0[2..])
    }

    /// Receive template matching any key (metrics depth sampling).
    fn template_any(&self) -> Template {
        let mut fs = vec![field::val(self.name.as_str()), field::int()];
        fs.extend(T::tags().into_iter().map(field::of));
        Template::new(fs)
    }

    /// Depth counts tuples across *all* keys.
    fn note(&self, space: &TupleSpace, dir: &'static str) {
        note(space, &self.name, || self.template_any(), dir, 1);
    }

    /// `out` a payload addressed to `key`.
    pub fn send_to(&self, space: &TupleSpace, key: i64, payload: &T) {
        space.out(self.tuple(key, payload));
        self.note(space, "sent");
    }

    /// Blocking withdrawal of the next payload addressed to `key`.
    pub fn recv_for(&self, space: &TupleSpace, key: i64) -> T {
        let got = self.unwrap(&space.in_blocking(self.template_for(key)));
        self.note(space, "recv");
        got
    }

    /// Non-blocking withdrawal for `key`.
    pub fn try_recv_for(&self, space: &TupleSpace, key: i64) -> Option<T> {
        let got = space.inp(&self.template_for(key)).map(|t| self.unwrap(&t));
        if got.is_some() {
            self.note(space, "recv");
        }
        got
    }

    /// Transactional `out` addressed to `key`.
    pub fn send_to_txn(&self, proc: &mut Process, key: i64, payload: &T) {
        proc.out(self.tuple(key, payload));
    }

    /// Transactional blocking withdrawal for `key`.
    pub fn recv_for_txn(&self, proc: &mut Process, key: i64) -> Result<T, PlindaError> {
        Ok(self.unwrap(&proc.in_(self.template_for(key))?))
    }

    /// Transactional blocking read for `key`.
    pub fn read_for_txn(&self, proc: &mut Process, key: i64) -> Result<T, PlindaError> {
        Ok(self.unwrap(&proc.rd(self.template_for(key))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let space = TupleSpace::new();
        let c = Chan::<i64>::new("n");
        c.send(&space, &42);
        assert_eq!(c.recv(&space), 42);
        assert_eq!(c.try_recv(&space), None);
    }

    #[test]
    fn tuple_payload_roundtrip() {
        let space = TupleSpace::new();
        let c = Chan::<(Vec<u8>, f64, i64)>::new("res");
        c.send(&space, &(vec![1, 2, 3], 0.5, -7));
        let (b, g, n) = c.recv(&space);
        assert_eq!((b, g, n), (vec![1, 2, 3], 0.5, -7));
    }

    #[test]
    fn array_fields_roundtrip_via_codec() {
        let space = TupleSpace::new();
        let fs = Chan::<Vec<f64>>::new("mids");
        fs.send(&space, &vec![0.5, 1.5, f64::INFINITY]);
        assert_eq!(fs.recv(&space), vec![0.5, 1.5, f64::INFINITY]);

        let ls = Chan::<Vec<Vec<u32>>>::new("cands");
        ls.send(&space, &vec![vec![1, 2], vec![], vec![9]]);
        assert_eq!(ls.recv(&space), vec![vec![1, 2], vec![], vec![9]]);
    }

    #[test]
    fn channels_do_not_cross() {
        let space = TupleSpace::new();
        let a = Chan::<i64>::new("a");
        let b = Chan::<i64>::new("b");
        a.send(&space, &1);
        assert_eq!(b.try_recv(&space), None);
        assert_eq!(a.try_recv(&space), Some(1));
    }

    #[test]
    fn recv_eq_withdraws_only_matching_payload() {
        let space = TupleSpace::new();
        let c = Chan::<i64>::new("wcount");
        c.send(&space, &3);
        assert_eq!(c.try_recv(&space), Some(3));
        c.send(&space, &0);
        assert_eq!(c.recv_eq(&space, &0), 0);
        assert_eq!(c.try_recv(&space), None);
    }

    #[test]
    fn keyed_routing() {
        let space = TupleSpace::new();
        let c = KeyedChan::<Vec<u32>>::new("task");
        c.send_to(&space, 0, &vec![10]);
        c.send_to(&space, 1, &vec![20]);
        assert_eq!(c.recv_for(&space, 1), vec![20]);
        assert_eq!(c.try_recv_for(&space, 1), None);
        assert_eq!(c.recv_for(&space, 0), vec![10]);
    }

    #[test]
    fn placeholder_shares_signature() {
        let c = Chan::<(Vec<u8>, f64)>::new("t");
        let pill = c.tuple(&<(Vec<u8>, f64)>::placeholder());
        assert!(c.template().matches(&pill));
    }

    #[test]
    fn txn_send_invisible_until_commit() {
        let rt = crate::Runtime::new();
        let space = rt.space();
        let mut m = rt.master();
        let c = Chan::<i64>::new("x");
        m.xstart().unwrap();
        c.send_txn(&mut m, &5);
        assert_eq!(c.try_recv(&space), None);
        m.xcommit(None).unwrap();
        assert_eq!(c.try_recv(&space), Some(5));
    }

    #[test]
    fn channel_metrics_track_counts_and_depth_watermark() {
        let space = TupleSpace::new();
        let reg = crate::metrics::MetricsRegistry::new();
        space.set_metrics(Some(reg.clone()));
        let c = Chan::<i64>::new("q");
        c.send(&space, &1);
        c.send(&space, &2);
        c.send(&space, &3);
        // Withdrawal order within a partition is unspecified; just take two.
        let first = c.recv(&space);
        let second = c.try_recv(&space).unwrap();
        assert_ne!(first, second);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("chan.q.sent"), 3);
        assert_eq!(snap.counter("chan.q.recv"), 2);
        let depth = snap.gauge("chan.q.depth").expect("depth gauge");
        assert_eq!(depth.value, 1);
        assert_eq!(depth.hi, 3, "watermark peaks at three queued payloads");
    }

    #[test]
    fn keyed_channel_metrics_span_all_keys() {
        let space = TupleSpace::new();
        let reg = crate::metrics::MetricsRegistry::new();
        space.set_metrics(Some(reg.clone()));
        let c = KeyedChan::<i64>::new("t");
        c.send_to(&space, 0, &10);
        c.send_to(&space, 1, &20);
        assert_eq!(c.recv_for(&space, 1), 20);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("chan.t.sent"), 2);
        assert_eq!(snap.counter("chan.t.recv"), 1);
        let depth = snap.gauge("chan.t.depth").expect("depth gauge");
        assert_eq!(depth.hi, 2, "depth counts both keys");
    }

    #[test]
    fn unit_payload_is_a_pure_signal() {
        let space = TupleSpace::new();
        let c = Chan::<()>::new("go");
        c.send(&space, &());
        assert_eq!(c.try_recv(&space), Some(()));
        assert_eq!(c.try_recv(&space), None);
    }
}
