//! Live metrics: a lock-sharded registry of counters, gauges, and
//! log₂-bucket histograms, fed by the tuple space, the transaction layer,
//! the runtime, the task farm, and the channels.
//!
//! * **One event stream.** Space, transaction, runtime and channel ops
//!   emit events to their space's instrumentation probe, whose ledger sink
//!   (`Ledger`) turns them into metric updates; the trace
//!   [`crate::Recorder`] is the other sink of the same stream. With
//!   neither installed an op costs one relaxed atomic load.
//! * **Lock-free when on.** [`MetricsRegistry::counter`] (and friends)
//!   get-or-create a handle under one of 16 shard locks, but the handle
//!   itself is an `Arc`'d atomic: repeated updates through a cached handle
//!   never take a lock. The ledger caches its per-op handles.
//! * **Stable export.** [`MetricsRegistry::snapshot`] produces a
//!   [`MetricsSnapshot`] — plain sorted maps — with a frozen JSON schema
//!   ([`SCHEMA`], round-trippable via [`MetricsSnapshot::from_json`]) and
//!   an aligned-text rendering for humans. The `nowsim` simulator emits
//!   the same schema, so simulated and real runs are directly comparable.
//!
//! Metric names are dotted paths. The conventional namespaces (all but
//! `farm.*` and `sim.*` are spelled only in `Ledger::account`):
//!
//! | prefix            | source                                          |
//! |-------------------|-------------------------------------------------|
//! | `space.ops.*`     | global Linda op counts (`out`/`take`/`read`/…)  |
//! | `space.part.*`    | per-signature-partition op counts and occupancy |
//! | `space.block_ns`  | blocked-wait duration histogram                 |
//! | `txn.*`           | transaction outcomes and durations              |
//! | `runtime.*`       | spawns, kills, respawns, protocol errors        |
//! | `net.*`           | socket-backend batching and deferred outs       |
//! | `chan.<name>.*`   | per-channel send/recv counts, depth watermarks  |
//! | `farm.<name>.*`   | per-worker busy/blocked/wall/respawn accounting |
//! | `sim.*`           | the `nowsim` simulator's ledger                 |

use crate::probe::Event;
use crate::value::Sig;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Frozen identifier of the snapshot JSON schema. Renaming or re-shaping
/// any exported field requires bumping this and the golden fixture.
pub const SCHEMA: &str = "fpdm.metrics.v1";

/// Number of name-keyed shards in the registry. Registration (first use of
/// a name) takes one shard lock; updates through existing handles take
/// none.
const SHARDS: usize = 16;

/// Histogram bucket count: bucket 0 holds zero observations, bucket `k`
/// (1 ≤ k ≤ 64) holds observations in `[2^(k-1), 2^k)`.
const BUCKETS: usize = 65;

/// A monotonically increasing `u64` metric handle. Cloning shares the
/// underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeInner {
    value: AtomicI64,
    hi: AtomicI64,
}

/// A settable `i64` metric handle that also tracks its high-water mark
/// (the largest value ever set — the "watermark" half of a depth gauge).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// Set the current value, raising the high-water mark if needed.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.hi.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjust the current value by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        let v = self.0.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.0.hi.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// High-water mark.
    pub fn hi(&self) -> i64 {
        self.0.hi.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A log₂-bucket histogram of `u64` observations (typically nanoseconds).
///
/// Bucket 0 counts zero observations; bucket `k ≥ 1` counts observations
/// in `[2^(k-1), 2^k)`. One `fetch_add` per observation, no allocation.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A cloneable handle to a shared metrics registry.
///
/// Install on a tuple space with [`crate::TupleSpace::set_metrics`] (or
/// through [`crate::FarmConfig::with_metrics`] / `ParallelConfig` in the
/// mining crates), run the program, then [`MetricsRegistry::snapshot`] the
/// accumulated metrics. Use a fresh registry per run when you want
/// per-run numbers; counters accumulate across runs otherwise.
#[derive(Clone)]
pub struct MetricsRegistry {
    shards: Arc<[Mutex<HashMap<String, Metric>>; SHARDS]>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            shards: Arc::new(std::array::from_fn(|_| Mutex::new(HashMap::new()))),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Metric>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut shard = self.shard(name).lock();
        match shard.get(name) {
            Some(m) => m.clone(),
            None => {
                let m = make();
                shard.insert(name.to_owned(), m.clone());
                m
            }
        }
    }

    /// Get-or-create the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Get-or-create the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get-or-create the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Drop every metric whose name starts with `prefix` (e.g. the
    /// channel keys of a finished job on a long-lived registry). Handles
    /// already taken keep working but no longer reach the registry.
    pub fn remove_prefix(&self, prefix: &str) {
        for shard in self.shards.iter() {
            shard.lock().retain(|name, _| !name.starts_with(prefix));
        }
    }

    /// A consistent-enough copy of every metric's current value. Shards
    /// are locked one at a time, so values written concurrently with the
    /// snapshot may straddle it — take snapshots at quiescent points for
    /// exact ledgers (the farm does, after joining its workers).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in self.shards.iter() {
            for (name, m) in shard.lock().iter() {
                match m {
                    Metric::Counter(c) => {
                        snap.counters.insert(name.clone(), c.get());
                    }
                    Metric::Gauge(g) => {
                        snap.gauges.insert(
                            name.clone(),
                            GaugeValue {
                                value: g.get(),
                                hi: g.hi(),
                            },
                        );
                    }
                    Metric::Histogram(h) => {
                        let buckets =
                            h.0.buckets
                                .iter()
                                .enumerate()
                                .filter_map(|(i, b)| {
                                    let n = b.load(Ordering::Relaxed);
                                    (n > 0).then_some((i as u32, n))
                                })
                                .collect();
                        snap.histograms.insert(
                            name.clone(),
                            HistogramValue {
                                count: h.count(),
                                sum: h.sum(),
                                buckets,
                            },
                        );
                    }
                }
            }
        }
        snap
    }
}

/// Exported value of one gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaugeValue {
    /// Last value set.
    pub value: i64,
    /// High-water mark.
    pub hi: i64,
}

/// Exported value of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramValue {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Sparse `(bucket index, count)` pairs in ascending index order.
    /// Bucket 0 is the zero bucket; bucket `k ≥ 1` covers `[2^(k-1), 2^k)`.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramValue {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A point-in-time export of a [`MetricsRegistry`]: sorted maps with a
/// frozen JSON schema ([`SCHEMA`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, GaugeValue>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramValue>,
}

impl MetricsSnapshot {
    /// Counter value by name, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, if present.
    pub fn gauge(&self, name: &str) -> Option<GaugeValue> {
        self.gauges.get(name).copied()
    }

    /// Histogram value by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramValue> {
        self.histograms.get(name)
    }

    /// Sum of every counter whose name satisfies `pred`.
    pub fn sum_counters(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| pred(k))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Serialize under the frozen [`SCHEMA`]. Deterministic: keys sorted,
    /// two-space indentation, no trailing whitespace.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", json_string(SCHEMA));
        s.push_str("  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            let _ = write!(s, "{sep}    {}: {v}", json_string(k));
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"gauges\": {");
        first = true;
        for (k, g) in &self.gauges {
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            let _ = write!(
                s,
                "{sep}    {}: {{ \"value\": {}, \"hi\": {} }}",
                json_string(k),
                g.value,
                g.hi
            );
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(i, n)| format!("[{i}, {n}]"))
                .collect();
            let _ = write!(
                s,
                "{sep}    {}: {{ \"count\": {}, \"sum\": {}, \"buckets\": [{}] }}",
                json_string(k),
                h.count,
                h.sum,
                buckets.join(", ")
            );
        }
        s.push_str(if first { "}\n" } else { "\n  }\n" });
        s.push('}');
        s
    }

    /// Parse a snapshot serialized by [`MetricsSnapshot::to_json`].
    /// Rejects inputs whose `schema` field is not exactly [`SCHEMA`].
    pub fn from_json(input: &str) -> Result<MetricsSnapshot, String> {
        let json = json::parse(input)?;
        let obj = json.as_obj("top level")?;
        let schema = get(obj, "schema")?.as_str("schema")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema {schema:?}, expected {SCHEMA:?}"));
        }
        let mut snap = MetricsSnapshot::default();
        for (k, v) in get(obj, "counters")?.as_obj("counters")? {
            snap.counters
                .insert(k.clone(), v.as_u64(&format!("counter {k}"))?);
        }
        for (k, v) in get(obj, "gauges")?.as_obj("gauges")? {
            let g = v.as_obj(&format!("gauge {k}"))?;
            snap.gauges.insert(
                k.clone(),
                GaugeValue {
                    value: get(g, "value")?.as_i64("gauge value")?,
                    hi: get(g, "hi")?.as_i64("gauge hi")?,
                },
            );
        }
        for (k, v) in get(obj, "histograms")?.as_obj("histograms")? {
            let h = v.as_obj(&format!("histogram {k}"))?;
            let mut buckets = Vec::new();
            for entry in get(h, "buckets")?.as_arr("buckets")? {
                let pair = entry.as_arr("bucket pair")?;
                if pair.len() != 2 {
                    return Err(format!("bucket pair of arity {}", pair.len()));
                }
                buckets.push((
                    pair[0].as_u64("bucket index")? as u32,
                    pair[1].as_u64("bucket count")?,
                ));
            }
            snap.histograms.insert(
                k.clone(),
                HistogramValue {
                    count: get(h, "count")?.as_u64("histogram count")?,
                    sum: get(h, "sum")?.as_u64("histogram sum")?,
                    buckets,
                },
            );
        }
        Ok(snap)
    }

    /// Render as an aligned text table for terminals and logs.
    pub fn to_text(&self) -> String {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        let mut s = String::new();
        if !self.counters.is_empty() {
            s.push_str("COUNTERS\n");
            for (k, v) in &self.counters {
                let _ = writeln!(s, "  {k:<width$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            s.push_str("GAUGES\n");
            for (k, g) in &self.gauges {
                let _ = writeln!(s, "  {k:<width$}  value={} hi={}", g.value, g.hi);
            }
        }
        if !self.histograms.is_empty() {
            s.push_str("HISTOGRAMS\n");
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    s,
                    "  {k:<width$}  count={} sum={} mean={}",
                    h.count,
                    h.sum,
                    h.mean()
                );
            }
        }
        s
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn get<'a>(obj: &'a [(String, json::Json)], key: &str) -> Result<&'a json::Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

/// A minimal hand-rolled JSON reader — the workspace deliberately has no
/// serde dependency, and the snapshot schema only needs objects, arrays,
/// strings, and integers. Public so sibling frozen schemas (the
/// `fpdm.lint.v1` analysis report in `fpdm-analyze`, the `fpdm.bench.v1`
/// baselines in `fpdm-loadgen`) can share one parser.
pub mod json {
    /// Parsed JSON value.
    pub enum Json {
        /// Object as ordered key/value pairs.
        Obj(Vec<(String, Json)>),
        /// Array.
        Arr(Vec<Json>),
        /// String.
        Str(String),
        /// Integer (i128 covers the full u64 and i64 ranges).
        Num(i128),
        /// Number written with a fraction or an exponent.
        Float(f64),
    }

    impl Json {
        /// The object's key/value pairs, or an error naming `what`.
        pub fn as_obj(&self, what: &str) -> Result<&[(String, Json)], String> {
            match self {
                Json::Obj(o) => Ok(o),
                _ => Err(format!("{what}: expected object")),
            }
        }

        /// The array's elements, or an error naming `what`.
        pub fn as_arr(&self, what: &str) -> Result<&[Json], String> {
            match self {
                Json::Arr(a) => Ok(a),
                _ => Err(format!("{what}: expected array")),
            }
        }

        /// The string's contents, or an error naming `what`.
        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Json::Str(s) => Ok(s),
                _ => Err(format!("{what}: expected string")),
            }
        }

        /// The integer as `u64`, or an error naming `what`.
        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Json::Num(n) => {
                    u64::try_from(*n).map_err(|_| format!("{what}: {n} out of u64 range"))
                }
                _ => Err(format!("{what}: expected integer")),
            }
        }

        /// The integer as `i64`, or an error naming `what`.
        pub fn as_i64(&self, what: &str) -> Result<i64, String> {
            match self {
                Json::Num(n) => {
                    i64::try_from(*n).map_err(|_| format!("{what}: {n} out of i64 range"))
                }
                _ => Err(format!("{what}: expected integer")),
            }
        }

        /// Any number as `f64`, or an error naming `what`.
        pub fn as_f64(&self, what: &str) -> Result<f64, String> {
            match self {
                Json::Num(n) => Ok(*n as f64),
                Json::Float(x) => Ok(*x),
                _ => Err(format!("{what}: expected number")),
            }
        }
    }

    /// Parse a complete JSON document (no trailing input allowed).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b'-' | b'0'..=b'9') => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                )),
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut out = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(out));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                out.push((key, self.value()?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(out));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or '}}' at byte {}, found {:?}",
                            self.pos,
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut out = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(out));
            }
            loop {
                self.skip_ws();
                out.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(out));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or ']' at byte {}, found {:?}",
                            self.pos,
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or("\\u escape is not a scalar value")?,
                                );
                                self.pos += 4;
                            }
                            other => {
                                return Err(format!(
                                    "unsupported escape {:?}",
                                    other.map(|c| c as char)
                                ))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input came from &str,
                        // so boundaries are valid).
                        let rest = &self.bytes[self.pos..];
                        let s = unsafe { std::str::from_utf8_unchecked(rest) };
                        let c = s.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            self.digits();
            let mut float = false;
            if self.peek() == Some(b'.') {
                self.pos += 1;
                float = true;
                self.digits();
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                float = true;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                self.digits();
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            let bad = |e: &dyn std::fmt::Display| format!("bad number {text:?}: {e}");
            if float {
                text.parse::<f64>().map(Json::Float).map_err(|e| bad(&e))
            } else {
                text.parse::<i128>().map(Json::Num).map_err(|e| bad(&e))
            }
        }

        fn digits(&mut self) {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
    }
}

/// Check the cross-layer accounting invariants a quiescent snapshot must
/// satisfy; returns one human-readable string per violation (empty when
/// clean). Used by the integration tests and the CI metrics-smoke gate.
///
/// The invariants (each checked only when its metrics are present):
///
/// 1. **Tuple conservation**: `space.ops.out == space.ops.take + leaked`,
///    where `leaked` sums every `farm.*.leaked` counter. Reads never
///    withdraw, aborts restore via `out` (re-counted), so visible tuples
///    at quiescence are exactly outs minus takes. Skipped if the space
///    was wholesale restored (`space.ops.restore > 0`).
/// 2. **Worker time**: per worker, `busy_ns + blocked_ns ≤ wall_ns` (with
///    1 ms slack for clock reads), so `idle = wall - busy - blocked ≥ 0`.
/// 3. **Respawn accounting**: the per-worker `farm.*.worker.*.respawns`
///    counters sum to `runtime.respawns`, which never exceeds
///    `runtime.kills`.
/// 4. **Simulator ledger**: `sim.tasks.aborted == sim.tasks.requeued` and
///    every `sim.machine.*.util_ppm` gauge lies in `[0, 1_000_000]`.
/// 5. **Batched transport ledger**: `net.batch.ops` equals the sum of the
///    `net.batch.occupancy` histogram (each batched exchange observes its
///    size exactly once), and `net.deferred.acked ≤ net.deferred.outs`
///    (a deferred out is acknowledged at most once; unacked tuples are
///    either still parked or discarded with a dead connection).
/// 6. **Service admission ledger**: every submitted request is decided
///    exactly once (`service.requests.submitted` equals
///    `service.requests.admitted + service.requests.shed`), only
///    admitted requests queue or complete
///    (`queued ≤ admitted`, `completed ≤ admitted`), and the
///    `service.*.depth` backlog gauges never went negative (watermark
///    `hi ≥ value ≥ 0` — the watermarks drive admission's backpressure,
///    so a corrupt gauge is a corrupt policy input).
pub fn check_snapshot(snap: &MetricsSnapshot) -> Vec<String> {
    let mut bad = Vec::new();

    let leaked = snap.sum_counters(|k| k.starts_with("farm.") && k.ends_with(".leaked"));
    let has_farm = snap.counters.keys().any(|k| k.starts_with("farm."));
    if has_farm && snap.counter("space.ops.restore") == 0 {
        let outs = snap.counter("space.ops.out");
        let takes = snap.counter("space.ops.take");
        if outs != takes + leaked {
            bad.push(format!(
                "tuple conservation: outs {outs} != takes {takes} + leaked {leaked}"
            ));
        }
    }

    const SLACK_NS: u64 = 1_000_000;
    for (k, wall) in snap.counters.iter() {
        let Some(prefix) = k.strip_suffix(".wall_ns") else {
            continue;
        };
        if !prefix.contains(".worker.") {
            continue;
        }
        let busy = snap.counter(&format!("{prefix}.busy_ns"));
        let blocked = snap.counter(&format!("{prefix}.blocked_ns"));
        if busy + blocked > wall + SLACK_NS {
            bad.push(format!(
                "worker time: {prefix}: busy {busy} + blocked {blocked} > wall {wall}"
            ));
        }
    }

    let worker_respawns = snap.sum_counters(|k| {
        k.starts_with("farm.") && k.contains(".worker.") && k.ends_with(".respawns")
    });
    let runtime_respawns = snap.counter("runtime.respawns");
    let has_workers = snap
        .counters
        .keys()
        .any(|k| k.starts_with("farm.") && k.contains(".worker."));
    if has_workers && worker_respawns != runtime_respawns {
        bad.push(format!(
            "respawn accounting: per-worker sum {worker_respawns} != runtime.respawns {runtime_respawns}"
        ));
    }
    if runtime_respawns > snap.counter("runtime.kills")
        && snap.counters.contains_key("runtime.kills")
    {
        bad.push(format!(
            "respawn accounting: runtime.respawns {runtime_respawns} > runtime.kills {}",
            snap.counter("runtime.kills")
        ));
    }

    if snap.counters.keys().any(|k| k.starts_with("sim.")) {
        let aborted = snap.counter("sim.tasks.aborted");
        let requeued = snap.counter("sim.tasks.requeued");
        if aborted != requeued {
            bad.push(format!(
                "sim ledger: aborted {aborted} != requeued {requeued}"
            ));
        }
    }
    for (k, g) in snap.gauges.iter() {
        if k.starts_with("sim.machine.")
            && k.ends_with(".util_ppm")
            && !(0..=1_000_000).contains(&g.value)
        {
            bad.push(format!("sim ledger: {k} = {} outside [0, 1e6]", g.value));
        }
    }

    if snap.counters.contains_key("net.batch.ops")
        || snap.histograms.contains_key("net.batch.occupancy")
    {
        let ops = snap.counter("net.batch.ops");
        let occupancy = snap
            .histogram("net.batch.occupancy")
            .map(|h| h.sum)
            .unwrap_or(0);
        if ops != occupancy {
            bad.push(format!(
                "batch ledger: net.batch.ops {ops} != sum of net.batch.occupancy {occupancy}"
            ));
        }
    }
    let deferred_out = snap.counter("net.deferred.outs");
    let deferred_acked = snap.counter("net.deferred.acked");
    if deferred_acked > deferred_out {
        bad.push(format!(
            "batch ledger: net.deferred.acked {deferred_acked} > net.deferred.outs {deferred_out}"
        ));
    }

    if snap.counters.keys().any(|k| k.starts_with("service.")) {
        let submitted = snap.counter("service.requests.submitted");
        let admitted = snap.counter("service.requests.admitted");
        let shed = snap.counter("service.requests.shed");
        let queued = snap.counter("service.requests.queued");
        let completed = snap.counter("service.requests.completed");
        if submitted != admitted + shed {
            bad.push(format!(
                "service ledger: submitted {submitted} != admitted {admitted} + shed {shed}"
            ));
        }
        if queued > admitted {
            bad.push(format!(
                "service ledger: queued {queued} > admitted {admitted}"
            ));
        }
        if completed > admitted {
            bad.push(format!(
                "service ledger: completed {completed} > admitted {admitted}"
            ));
        }
    }
    for (k, g) in snap.gauges.iter() {
        if k.starts_with("service.") && k.ends_with(".depth") && (g.value < 0 || g.hi < g.value) {
            bad.push(format!(
                "service ledger: {k} depth gauge corrupt (value {}, hi {})",
                g.value, g.hi
            ));
        }
    }

    bad
}

/// The ledger sink of the instrumentation probe: turns each event into
/// registry updates. [`Ledger::account`] and its helpers below are the one
/// place the per-op metric names are spelled. Handles are registered on
/// first use and then cached, so a snapshot holds exactly the names some
/// event touched and a steady-state event costs a few relaxed atomic adds.
/// A ledger lives as long as its registry stays installed on one space.
pub(crate) struct Ledger {
    reg: MetricsRegistry,
    counters: HashMap<&'static str, Counter>,
    histograms: HashMap<&'static str, Histogram>,
    /// `space.part.<sig>.ops`, plus `.occupancy` once a local op reports it
    /// (the socket backend cannot see broker-side occupancy).
    parts: HashMap<Sig, (Counter, Option<Gauge>)>,
}

impl Ledger {
    pub(crate) fn new(reg: MetricsRegistry) -> Self {
        Ledger {
            reg,
            counters: HashMap::new(),
            histograms: HashMap::new(),
            parts: HashMap::new(),
        }
    }

    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }

    /// Account one event. Must never re-enter the tuple space: the caller
    /// may hold a partition lock.
    pub(crate) fn account(&mut self, ev: &Event<'_>) {
        let (name, n) = match *ev {
            Event::Out {
                tuples,
                occupancy,
                deferred,
            } => {
                let n = tuples.len() as u64;
                match (occupancy, tuples.first()) {
                    // One local partition: one handle for the whole batch.
                    (Some(_), Some(t)) => self.part(&t.sig(), n, occupancy),
                    _ => tuples.iter().for_each(|t| self.part(&t.sig(), 1, None)),
                }
                if deferred {
                    self.add("net.deferred.outs", n);
                }
                ("space.ops.out", n)
            }
            Event::Found {
                withdrawn,
                tuples,
                occupancy,
                batch,
            } => {
                let n = tuples.len() as u64;
                if let Some(t) = tuples.first() {
                    self.part(&t.sig(), n, occupancy);
                }
                if batch {
                    self.batch(n);
                }
                let name = if withdrawn {
                    "space.ops.take"
                } else {
                    "space.ops.read"
                };
                (name, n)
            }
            Event::Miss { batch, .. } => {
                if batch {
                    self.batch(0);
                }
                ("space.ops.miss", 1)
            }
            Event::Block { .. } => ("space.ops.block", 1),
            Event::Wake { since } => {
                if let Some(since) = since {
                    self.observe("space.block_ns", since.elapsed().as_nanos() as u64);
                }
                ("space.ops.wake", 1)
            }
            Event::WaitCancelled => ("space.ops.cancelled", 1),
            Event::Restore { .. } => ("space.ops.restore", 1),
            Event::XStart { .. } => ("txn.start", 1),
            Event::NestedXStart { .. } => ("txn.nested", 1),
            Event::XCommit {
                continuation,
                started,
                ..
            } => {
                if continuation {
                    self.add("txn.continuations", 1);
                }
                if let Some(started) = started {
                    self.observe("txn.duration_ns", started.elapsed().as_nanos() as u64);
                }
                ("txn.commit", 1)
            }
            Event::XAbort { .. } => ("txn.abort", 1),
            Event::XRecover { found: true, .. } => ("txn.recover.hit", 1),
            Event::XRecover { found: false, .. } => ("txn.recover.miss", 1),
            Event::Spawn => ("runtime.spawns", 1),
            Event::Kill { .. } => ("runtime.kills", 1),
            Event::Respawn { .. } => ("runtime.respawns", 1),
            Event::Done { protocol_error, .. } => {
                if protocol_error {
                    self.add("runtime.protocol_errors", 1);
                }
                ("runtime.done", 1)
            }
            Event::Flush { acked } => {
                self.add("net.deferred.acked", acked);
                ("net.deferred.flushes", 1)
            }
            Event::Chan {
                name,
                dir,
                n,
                depth,
            } => {
                // Looked up per event, not cached: a long-lived registry
                // drops a finished job's `chan.*` keys with `remove_prefix`,
                // and the next job's channel must register them again.
                self.reg.counter(&format!("chan.{name}.{dir}")).add(n);
                self.reg.gauge(&format!("chan.{name}.depth")).set(depth);
                return;
            }
            Event::BufferedOut { .. } | Event::TentativeIn { .. } | Event::SelfIn { .. } => return,
        };
        self.add(name, n);
    }

    fn add(&mut self, name: &'static str, n: u64) {
        let reg = &self.reg;
        self.counters
            .entry(name)
            .or_insert_with(|| reg.counter(name))
            .add(n);
    }

    fn observe(&mut self, name: &'static str, v: u64) {
        let reg = &self.reg;
        self.histograms
            .entry(name)
            .or_insert_with(|| reg.histogram(name))
            .observe(v);
    }

    /// One batched exchange with a broker that returned `k` tuples: a
    /// socket `poll` or `wait` that is a take with `max > 1`, whatever
    /// facade call made it. The counter and the histogram move together,
    /// so `net.batch.ops` always equals the sum of `net.batch.occupancy`.
    fn batch(&mut self, k: u64) {
        self.add("net.batch.ops", k);
        self.observe("net.batch.occupancy", k);
    }

    fn part(&mut self, sig: &Sig, n: u64, occupancy: Option<usize>) {
        let reg = &self.reg;
        if !self.parts.contains_key(sig) {
            let ops = reg.counter(&format!("space.part.{sig}.ops"));
            self.parts.insert(sig.clone(), (ops, None));
        }
        let (ops, gauge) = self.parts.get_mut(sig).expect("inserted above");
        ops.add(n);
        if let Some(occupancy) = occupancy {
            gauge
                .get_or_insert_with(|| reg.gauge(&format!("space.part.{sig}.occupancy")))
                .set(occupancy as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("c").get(), 5, "handles share the cell");

        let g = reg.gauge("g");
        g.set(7);
        g.set(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
        assert_eq!(g.hi(), 7);

        let h = reg.histogram("h");
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        let snap = reg.snapshot();
        let hv = snap.histogram("h").unwrap();
        // 0 → bucket 0, 1 → bucket 1, 2 and 3 → bucket 2, 1024 → bucket 11.
        assert_eq!(hv.buckets, vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
    }

    #[test]
    fn remove_prefix_drops_only_matching_keys() {
        let reg = MetricsRegistry::new();
        reg.counter("chan.job.j1.result.recv").inc();
        reg.gauge("chan.job.j1.result.depth").set(2);
        reg.counter("chan.job.j10.result.recv").inc();
        reg.remove_prefix("chan.job.j1.");
        let snap = reg.snapshot();
        assert!(snap.gauges.is_empty());
        assert_eq!(
            snap.counters.keys().collect::<Vec<_>>(),
            ["chan.job.j10.result.recv"]
        );
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = MetricsRegistry::new();
        reg.counter("space.ops.out").add(12);
        reg.gauge("chan.result.depth").set(3);
        reg.gauge("chan.result.depth").set(1);
        reg.histogram("space.block_ns").observe(900);
        let snap = reg.snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json, "serialization is deterministic");
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let json = MetricsSnapshot::default()
            .to_json()
            .replace(SCHEMA, "fpdm.metrics.v999");
        assert!(MetricsSnapshot::from_json(&json)
            .unwrap_err()
            .contains("unknown schema"));
    }

    #[test]
    fn json_escapes_round_trip() {
        let mut snap = MetricsSnapshot::default();
        snap.counters
            .insert("weird \"name\"\\with\nescapes".into(), 1);
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn text_export_mentions_every_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").inc();
        reg.gauge("b.depth").set(2);
        reg.histogram("c.ns").observe(10);
        let text = reg.snapshot().to_text();
        for name in ["a.count", "b.depth", "c.ns"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn check_snapshot_flags_violations() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("space.ops.out".into(), 10);
        snap.counters.insert("space.ops.take".into(), 7);
        snap.counters.insert("farm.f.leaked".into(), 1);
        snap.counters.insert("farm.f.worker.0.wall_ns".into(), 100);
        snap.counters
            .insert("farm.f.worker.0.busy_ns".into(), 2_000_000_000);
        snap.counters.insert("farm.f.worker.0.blocked_ns".into(), 0);
        snap.counters.insert("farm.f.worker.0.respawns".into(), 2);
        snap.counters.insert("runtime.respawns".into(), 1);
        let bad = check_snapshot(&snap);
        assert_eq!(bad.len(), 3, "{bad:?}");
    }

    #[test]
    fn check_snapshot_accepts_consistent_ledger() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("space.ops.out".into(), 10);
        snap.counters.insert("space.ops.take".into(), 10);
        snap.counters.insert("farm.f.leaked".into(), 0);
        snap.counters
            .insert("farm.f.worker.0.wall_ns".into(), 1_000_000_000);
        snap.counters
            .insert("farm.f.worker.0.busy_ns".into(), 400_000_000);
        snap.counters
            .insert("farm.f.worker.0.blocked_ns".into(), 500_000_000);
        snap.counters.insert("farm.f.worker.0.respawns".into(), 0);
        assert!(check_snapshot(&snap).is_empty());
    }

    #[test]
    fn check_snapshot_enforces_batch_ledger() {
        // Consistent: ops == histogram sum, acked ≤ outs.
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("net.batch.ops".into(), 7);
        snap.histograms.insert(
            "net.batch.occupancy".into(),
            HistogramValue {
                count: 3,
                sum: 7,
                buckets: vec![(1, 1), (2, 1), (3, 1)],
            },
        );
        snap.counters.insert("net.deferred.outs".into(), 5);
        snap.counters.insert("net.deferred.acked".into(), 5);
        assert!(check_snapshot(&snap).is_empty());

        // Broken conservation: ops drifted from the occupancy histogram.
        snap.counters.insert("net.batch.ops".into(), 9);
        // Over-acknowledged: more acks than deferred outs ever sent.
        snap.counters.insert("net.deferred.acked".into(), 6);
        let bad = check_snapshot(&snap);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad.iter().all(|b| b.contains("batch ledger")), "{bad:?}");
    }

    #[test]
    fn slot_disabled_is_inert() {
        use crate::probe::{Event, Probe};
        let probe = Probe::default();
        assert!(!probe.metrics_enabled());
        assert!(
            !probe.emit(Event::Spawn),
            "nothing installed, nothing delivered"
        );
        let reg = MetricsRegistry::new();
        probe.set_metrics(Some(reg.clone()));
        assert!(probe.metrics_enabled());
        assert!(probe.metrics().is_some());
        assert!(probe.emit(Event::Spawn));
        probe.set_metrics(None);
        assert!(!probe.metrics_enabled());
        assert!(!probe.emit(Event::Spawn));
        assert_eq!(reg.snapshot().counter("runtime.spawns"), 1);
    }
}
