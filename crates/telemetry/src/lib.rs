//! One instrumentation layer for the whole Treedoc stack.
//!
//! Every subsystem of this workspace measures something — the replication
//! layer counts messages and bytes, the storage layer times checkpoints, the
//! hosting node watches eviction and fault-in latency — and before this crate
//! each of them threaded its own ad-hoc counters. [`Registry`] replaces that
//! with named, cheap, shareable instruments:
//!
//! - [`Counter`] — a monotonically increasing atomic `u64`.
//! - [`Gauge`] — a last-value atomic with a high-water mark.
//! - [`Histogram`] — log-bucketed (power-of-two octaves with
//!   2^[`SUB_BITS`] linear sub-buckets each, HDR-style) value distribution
//!   with p50/p90/p99 extraction and lossless merge.
//! - [`Tracer`] — a bounded ring buffer of structured [`TraceEvent`]s
//!   (site, document, epoch, LSN, byte counts, durations) exportable as
//!   JSONL.
//!
//! The hot-path contract is [`Telemetry`]: a cloneable handle that is either
//! backed by a [`Registry`] or disabled. Instruments resolved through a
//! disabled handle hold no allocation and every operation on them is a single
//! `Option` branch, so instrumented code compiles to near-zero cost when
//! telemetry is off — the `telemetry_overhead` bench bin pins this (<5%
//! enabled, indistinguishable disabled, on the sequential-typing hot path).
//!
//! Timing follows the same rule: [`Histogram::start`] returns a
//! [`Stopwatch`] that only reads the clock when the histogram is live, so a
//! disabled timer never calls `Instant::now()` at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Histogram bucketing
// ---------------------------------------------------------------------------

/// Linear sub-bucket bits per power-of-two octave: 32 sub-buckets, which
/// bounds the relative quantisation error of any recorded value to
/// `1/2^SUB_BITS` ≈ 3.1%. Values below `2^SUB_BITS` are stored exactly.
pub const SUB_BITS: usize = 5;

const SUB_COUNT: usize = 1 << SUB_BITS;
const SUB_MASK: u64 = (SUB_COUNT - 1) as u64;

/// Total bucket count: one exact range below `2^SUB_BITS` plus
/// `64 - SUB_BITS` octaves of `2^SUB_BITS` sub-buckets, covering all of
/// `u64`.
pub const BUCKETS: usize = (64 - SUB_BITS + 1) << SUB_BITS;

/// The bucket a value lands in. Total order preserving: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize;
    let sub = ((value >> (msb - SUB_BITS)) & SUB_MASK) as usize;
    ((msb - SUB_BITS + 1) << SUB_BITS) | sub
}

/// The smallest value that lands in bucket `index` — what percentile
/// extraction reports, so a percentile is exact whenever the underlying
/// values sit on bucket floors (all values `< 2^SUB_BITS` do).
fn bucket_floor(index: usize) -> u64 {
    if index < SUB_COUNT {
        return index as u64;
    }
    let octave = index >> SUB_BITS;
    let sub = (index & (SUB_COUNT - 1)) as u64;
    (SUB_COUNT as u64 + sub) << (octave - 1)
}

/// Shared state of one histogram instrument.
#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn percentile(&self, pct: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = ((pct / 100.0) * count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(count);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_floor(index);
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    fn merge_from(&self, other: &HistogramCore) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
        }
    }
}

// ---------------------------------------------------------------------------
// Instrument handles
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. Cloning shares the underlying value;
/// a handle resolved from a disabled [`Telemetry`] is an inert `None` and
/// every operation on it is one branch.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// `true` when backed by a registry.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Shared state of one gauge: last set value plus its high-water mark.
#[derive(Debug, Default)]
struct GaugeCore {
    value: AtomicU64,
    max: AtomicU64,
}

/// A last-value instrument with a high-water mark (e.g. the causal hold-back
/// depth of a replica).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCore>>);

impl Gauge {
    /// Sets the current value, folding it into the high-water mark.
    #[inline]
    pub fn set(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.value.store(value, Ordering::Relaxed);
            core.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Last set value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    /// Highest value ever set (0 when disabled).
    pub fn high_water(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.max.load(Ordering::Relaxed))
    }

    /// `true` when backed by a registry. Guard any expensive computation of
    /// the value to set behind this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// A log-bucketed value distribution with percentile extraction. Values are
/// bucketed into power-of-two octaves of `2^`[`SUB_BITS`] linear sub-buckets
/// (≤3.1% relative quantisation error; values below `2^`[`SUB_BITS`] exact).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.record(value);
        }
    }

    /// Starts a stopwatch that records elapsed **microseconds** into this
    /// histogram when stopped (or dropped). Disabled histograms never read
    /// the clock.
    #[inline]
    pub fn start(&self) -> Stopwatch {
        Stopwatch {
            start: self.0.as_ref().map(|_| Instant::now()),
            hist: self.0.clone(),
        }
    }

    /// The value at `pct` (0–100): the floor of the first bucket whose
    /// cumulative count reaches the nearest-rank index. Monotone in `pct`;
    /// 0 for an empty histogram.
    pub fn percentile(&self, pct: f64) -> u64 {
        self.0.as_ref().map_or(0, |c| c.percentile(pct))
    }

    /// Recorded values (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of recorded values (0 when disabled).
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }

    /// Folds `other`'s recorded distribution into this one. Bucket counts
    /// add, so merging is associative and commutative (pinned by proptest).
    /// No-op when either side is disabled.
    pub fn merge_from(&self, other: &Histogram) {
        if let (Some(mine), Some(theirs)) = (&self.0, &other.0) {
            mine.merge_from(theirs);
        }
    }

    /// `true` when backed by a registry.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Times one span for a [`Histogram`]: created by [`Histogram::start`],
/// records the elapsed microseconds when stopped or dropped. Holds no clock
/// reading when the histogram is disabled.
#[derive(Debug)]
pub struct Stopwatch {
    start: Option<Instant>,
    hist: Option<Arc<HistogramCore>>,
}

impl Stopwatch {
    /// Stops the span, records it, and returns the elapsed microseconds
    /// (0 when the histogram is disabled).
    pub fn stop(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        let (Some(start), Some(hist)) = (self.start.take(), self.hist.take()) else {
            return 0;
        };
        let micros = start.elapsed().as_micros() as u64;
        hist.record(micros);
        micros
    }
}

impl Drop for Stopwatch {
    fn drop(&mut self) {
        self.finish();
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// One structured trace record: which subsystem did what, where, and how
/// much of it. Fields that do not apply to an event kind stay 0 / empty.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotonic sequence number, assigned at record time (ring-buffer
    /// eviction order is ascending `seq`).
    pub seq: u64,
    /// Event kind, dotted like instrument names (e.g. `store.checkpoint`).
    pub kind: String,
    /// Originating site, 0 when not site-scoped.
    pub site: u64,
    /// Document identifier, empty when not document-scoped.
    pub doc: String,
    /// Flatten epoch at the event.
    pub epoch: u64,
    /// Group-WAL log sequence number, 0 when not WAL-scoped.
    pub lsn: u64,
    /// Bytes moved by the event.
    pub bytes: u64,
    /// Wall-clock duration of the spanned work, microseconds.
    pub micros: u64,
}

impl TraceEvent {
    /// An event of `kind` with every other field defaulted — fill in what
    /// applies with struct-update syntax.
    pub fn of(kind: &str) -> Self {
        TraceEvent {
            kind: kind.to_string(),
            ..TraceEvent::default()
        }
    }
}

#[derive(Debug)]
struct TraceRing {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

#[derive(Debug)]
struct TracerCore {
    ring: Mutex<TraceRing>,
}

/// A bounded ring buffer of [`TraceEvent`]s. Recording past capacity evicts
/// the oldest event; [`Tracer::to_jsonl`] exports one JSON object per line.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<TracerCore>>);

impl Tracer {
    /// Records an event, assigning its sequence number. The oldest event is
    /// evicted when the ring is full.
    pub fn record(&self, event: TraceEvent) {
        let Some(core) = &self.0 else { return };
        let mut ring = core.ring.lock().expect("trace ring lock");
        let mut event = event;
        event.seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Records the event built by `f` — the builder only runs when tracing
    /// is live, so hot paths pay nothing to construct events nobody stores.
    #[inline]
    pub fn record_with(&self, f: impl FnOnce() -> TraceEvent) {
        if self.0.is_some() {
            self.record(f());
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.as_ref().map_or_else(Vec::new, |core| {
            core.ring
                .lock()
                .expect("trace ring lock")
                .events
                .iter()
                .cloned()
                .collect()
        })
    }

    /// Events evicted by the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.ring.lock().expect("trace ring lock").dropped)
    }

    /// Renders the retained events as JSONL (one event per line, oldest
    /// first).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&serde_json::to_string(&event).expect("trace event serializes"));
            out.push('\n');
        }
        out
    }

    /// `true` when backed by a registry.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Parses a JSONL trace dump, tolerating damage: lines that do not parse as
/// a [`TraceEvent`] — a truncated tail, an interleaved log line — are
/// skipped, never a panic. The inverse of [`Tracer::to_jsonl`] on clean
/// input (pinned by proptest).
pub fn parse_jsonl(input: &str) -> Vec<TraceEvent> {
    input
        .lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() {
                return None;
            }
            serde_json::from_str::<TraceEvent>(line).ok()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Registry and the Telemetry handle
// ---------------------------------------------------------------------------

/// Default [`Tracer`] ring capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

#[derive(Debug)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCore>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    tracer: Arc<TracerCore>,
}

/// The home of every instrument: resolves names to shared [`Counter`] /
/// [`Gauge`] / [`Histogram`] cells, owns the [`Tracer`] ring, and snapshots
/// the whole collection as serialisable data. Cloning shares the registry.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry with the default trace capacity.
    pub fn new() -> Self {
        Registry::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An empty registry whose tracer retains at most `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                tracer: Arc::new(TracerCore {
                    ring: Mutex::new(TraceRing {
                        events: VecDeque::new(),
                        capacity: capacity.max(1),
                        next_seq: 0,
                        dropped: 0,
                    }),
                }),
            }),
        }
    }

    /// An enabled [`Telemetry`] handle over this registry.
    pub fn handle(&self) -> Telemetry {
        Telemetry {
            registry: Some(self.clone()),
        }
    }

    /// Folds another registry's instruments into this one: counters add,
    /// gauges keep the larger value and high-water mark, histograms merge
    /// bucket-wise. Trace rings are not merged (events stay with the
    /// registry that recorded them). Used by the bench harness to aggregate
    /// per-run registries into one dump.
    pub fn merge_from(&self, other: &Registry) {
        let theirs = other.inner.counters.lock().expect("registry lock");
        for (name, cell) in theirs.iter() {
            self.counter_cell(name)
                .fetch_add(cell.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        drop(theirs);
        let theirs = other.inner.gauges.lock().expect("registry lock");
        for (name, core) in theirs.iter() {
            let mine = self.gauge_cell(name);
            mine.value
                .fetch_max(core.value.load(Ordering::Relaxed), Ordering::Relaxed);
            mine.max
                .fetch_max(core.max.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        drop(theirs);
        let theirs = other.inner.histograms.lock().expect("registry lock");
        for (name, core) in theirs.iter() {
            self.histogram_cell(name).merge_from(core);
        }
    }

    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        self.inner
            .counters
            .lock()
            .expect("registry lock")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    fn gauge_cell(&self, name: &str) -> Arc<GaugeCore> {
        self.inner
            .gauges
            .lock()
            .expect("registry lock")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    fn histogram_cell(&self, name: &str) -> Arc<HistogramCore> {
        self.inner
            .histograms
            .lock()
            .expect("registry lock")
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCore::new()))
            .clone()
    }

    /// A point-in-time copy of every instrument, ordered by name — the one
    /// source of truth bench bins and reports read, serialisable straight to
    /// JSON with [`RegistrySnapshot::to_json`].
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .inner
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(name, cell)| CounterSnapshot {
                    name: name.clone(),
                    value: cell.load(Ordering::Relaxed),
                })
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(name, core)| GaugeSnapshot {
                    name: name.clone(),
                    value: core.value.load(Ordering::Relaxed),
                    high_water: core.max.load(Ordering::Relaxed),
                })
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(name, core)| core.snapshot(name))
                .collect(),
        }
    }
}

/// The cloneable capability every instrumented subsystem holds: either
/// backed by a [`Registry`] (enabled) or inert (disabled, the default).
/// Instruments resolved through a disabled handle are `None`-backed and
/// cost one branch per operation.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Option<Registry>,
}

impl Telemetry {
    /// The inert handle: every instrument resolved from it is a no-op.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// `true` when backed by a registry.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, when enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_ref()
    }

    /// Resolves (creating on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.registry.as_ref().map(|r| r.counter_cell(name)))
    }

    /// Resolves (creating on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.registry.as_ref().map(|r| r.gauge_cell(name)))
    }

    /// Resolves (creating on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.registry.as_ref().map(|r| r.histogram_cell(name)))
    }

    /// The registry's tracer (an inert tracer when disabled).
    pub fn tracer(&self) -> Tracer {
        Tracer(self.registry.as_ref().map(|r| r.inner.tracer.clone()))
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One counter in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Instrument name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Instrument name.
    pub name: String,
    /// Last set value.
    pub value: u64,
    /// Highest value ever set.
    pub high_water: u64,
}

/// One histogram in a [`RegistrySnapshot`]: totals plus the extracted
/// percentiles (bucket floors — exact below `2^`[`SUB_BITS`], ≤3.1% low
/// above).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A point-in-time copy of a whole [`Registry`], name-ordered and
/// serialisable — what reports read their numbers from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Every counter, ordered by name.
    pub counters: Vec<CounterSnapshot>,
    /// Every gauge, ordered by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Every histogram, ordered by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// The counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// The histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Pretty-printed JSON of the whole snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_is_order_preserving_and_floor_exact() {
        let mut last = 0usize;
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
            assert!(bucket_floor(idx) <= v, "floor above value at {v}");
            // The floor of a value's bucket maps back to the same bucket.
            assert_eq!(
                bucket_index(bucket_floor(idx)),
                idx,
                "floor escapes bucket at {v}"
            );
        }
        // Spot-check the extremes.
        assert_eq!(bucket_index(0), 0);
        assert!(bucket_index(u64::MAX) < BUCKETS);
        assert_eq!(
            bucket_index(bucket_floor(bucket_index(u64::MAX))),
            bucket_index(u64::MAX)
        );
    }

    #[test]
    fn small_values_are_exact() {
        let registry = Registry::new();
        let hist = registry.handle().histogram("h");
        for v in [0u64, 1, 2, 17, 31] {
            hist.record(v);
        }
        assert_eq!(hist.percentile(0.0), 0);
        assert_eq!(hist.percentile(50.0), 2);
        assert_eq!(hist.percentile(100.0), 31);
    }

    #[test]
    fn counters_and_gauges_share_by_name() {
        let registry = Registry::new();
        let telemetry = registry.handle();
        telemetry.counter("c").add(3);
        telemetry.counter("c").inc();
        assert_eq!(telemetry.counter("c").value(), 4);
        let gauge = telemetry.gauge("g");
        gauge.set(9);
        gauge.set(4);
        assert_eq!(gauge.value(), 4);
        assert_eq!(gauge.high_water(), 9);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c"), Some(4));
        assert_eq!(snap.gauge("g").unwrap().high_water, 9);
    }

    #[test]
    fn disabled_handles_are_inert() {
        let telemetry = Telemetry::disabled();
        let counter = telemetry.counter("c");
        counter.inc();
        assert_eq!(counter.value(), 0);
        assert!(!counter.is_enabled());
        let hist = telemetry.histogram("h");
        let sw = hist.start();
        assert_eq!(sw.stop(), 0);
        assert_eq!(hist.count(), 0);
        telemetry.tracer().record(TraceEvent::of("x"));
        assert!(telemetry.tracer().events().is_empty());
    }

    #[test]
    fn stopwatch_records_on_stop_and_drop() {
        let registry = Registry::new();
        let hist = registry.handle().histogram("h");
        hist.start().stop();
        {
            let _sw = hist.start();
        }
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn tracer_ring_evicts_oldest_first() {
        let registry = Registry::with_trace_capacity(3);
        let tracer = registry.handle().tracer();
        for i in 0..5u64 {
            tracer.record(TraceEvent {
                site: i,
                ..TraceEvent::of("e")
            });
        }
        let events = tracer.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(tracer.dropped(), 2);
    }

    #[test]
    fn jsonl_round_trips() {
        let registry = Registry::new();
        let tracer = registry.handle().tracer();
        tracer.record(TraceEvent {
            site: 7,
            doc: "doc-1".into(),
            bytes: 42,
            ..TraceEvent::of("store.checkpoint")
        });
        let dump = tracer.to_jsonl();
        let parsed = parse_jsonl(&dump);
        assert_eq!(parsed, tracer.events());
        // Truncation mid-line loses only the damaged record.
        let cut = &dump[..dump.len() - 3];
        assert!(parse_jsonl(cut).is_empty());
    }

    #[test]
    fn registry_merge_folds_instruments() {
        let a = Registry::new();
        let b = Registry::new();
        a.handle().counter("c").add(2);
        b.handle().counter("c").add(5);
        b.handle().counter("only_b").inc();
        a.handle().histogram("h").record(10);
        b.handle().histogram("h").record(1000);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counter("c"), Some(7));
        assert_eq!(snap.counter("only_b"), Some(1));
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 10);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let registry = Registry::new();
        let t = registry.handle();
        t.counter("a.b").add(11);
        t.histogram("lat").record(250);
        let snap = registry.snapshot();
        let json = snap.to_json();
        let back: RegistrySnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
    }
}
