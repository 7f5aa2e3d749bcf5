//! Turns a run's episodes (and, for a traced run, its span aggregates) into
//! the named metrics the benchmark prints.

use crate::episode::Episode;
use crate::trace::{Aggregates, Phase};

/// Layers, named as the span prefixes the benchmark records on the edit
/// path. The benchmark makes no telemetry call inside the loop: the live
/// registry's cost on the hosting edit path sits inside the `node.*` spans.
pub const LAYERS: [&str; 6] = ["core", "replica", "wire", "net", "storage", "node"];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sum(episodes: &[Episode], f: impl Fn(&Episode) -> u64) -> u64 {
    episodes.iter().map(f).sum()
}

/// The end-to-end metrics of an untraced run, from the times scaled to the
/// reference host (see [`crate::reference`]).
pub fn end_to_end(episodes: &[Episode]) -> Vec<Metric> {
    let scaled =
        |f: fn(&Episode) -> f64| -> f64 { median(&episodes.iter().map(f).collect::<Vec<_>>()) };
    let p50 = scaled(|e| e.scaled.latency.p50_ns as f64);
    let p99 = scaled(|e| e.scaled.latency.p99_ns as f64);
    let loop_s_per_op = scaled(|e| e.scaled.loop_s / e.counts.edits.max(1) as f64);
    let recover = scaled(|e| e.scaled.recover_s);
    let setup = scaled(|e| e.scaled.setup_s);
    let peak_rss_mb: Vec<f64> = episodes.iter().map(|e| e.peak_rss_mb).collect();
    let edits = sum(episodes, |e| e.counts.edits);
    let disk = sum(episodes, |e| e.counts.io.bytes_written());
    vec![
        metric("edit_ops_per_s", 1.0 / loop_s_per_op, "1/s"),
        metric("edit_p50_us", p50 / 1e3, "us"),
        metric("edit_p99_us", p99 / 1e3, "us"),
        metric("recover_s", recover, "s"),
        metric("disk_bytes_per_op", ratio(disk, edits), "B"),
        metric("peak_rss_mb", median(&peak_rss_mb), "MB"),
        metric("setup_s", setup, "s"),
    ]
}

/// Mean duration of the loop spans named `names`, in ns.
fn mean_span_ns(aggs: &Aggregates, names: &[&str]) -> f64 {
    let (count, total) = names.iter().fold((0, 0), |(count, total), name| {
        let a = aggs
            .get(&(Phase::Loop, name.to_string()))
            .copied()
            .unwrap_or_default();
        (count + a.count, total + a.total_ns)
    });
    ratio(total, count)
}

/// The per-layer metrics of a traced run: counts from every episode, span
/// timings from the `traced` ones, and the timings taken around calls
/// (`Instant`, not spans) from the `untraced` ones, which carry no span
/// overhead; the untraced episodes' latency is also the base of the tracing
/// overhead.
pub fn per_layer(
    all: &[Episode],
    traced: &[Episode],
    untraced: &[Episode],
    aggs: &Aggregates,
) -> Vec<Metric> {
    let c = |f: fn(&Episode) -> u64| sum(all, f);
    let u = |f: fn(&Episode) -> u64| sum(untraced, f);
    let edits = c(|e| e.counts.edits);
    let recoveries = all.iter().filter(|e| e.counts.records_replayed > 0).count() as u64;
    let recover_ns = u(|e| {
        if e.counts.records_replayed > 0 {
            (e.recover_s * 1e9) as u64
        } else {
            0
        }
    });
    let n = all.len() as u64;
    let n_untraced = untraced.len() as u64;
    let warm_ops = u(|e| e.counts.edits - e.counts.cold_ops);
    let mut m = vec![
        metric(
            "core.local_edit_ns",
            mean_span_ns(aggs, &["core.local_insert", "core.local_delete"]),
            "ns",
        ),
        metric("core.height", ratio(c(|e| e.counts.height), n), "count"),
        metric(
            "core.posid_bits_mean",
            ratio(c(|e| e.counts.posid_bits), c(|e| e.counts.posid_slots)),
            "bit",
        ),
        metric(
            "core.index_bytes_per_char",
            ratio(c(|e| e.counts.index_bytes), c(|e| e.counts.live_atoms)),
            "B",
        ),
        metric(
            "replica.stamp_ns",
            mean_span_ns(aggs, &["replica.stamp"]),
            "ns",
        ),
        metric(
            "replica.receive_ns",
            mean_span_ns(aggs, &["replica.receive"]),
            "ns",
        ),
        metric(
            "replica.held_ratio",
            ratio(c(|e| e.counts.held_arrivals), c(|e| e.counts.arrivals)),
            "ratio",
        ),
        metric(
            "replica.holdback_max",
            all.iter().map(|e| e.counts.holdback_max).max().unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "replica.ops_per_envelope",
            ratio(c(|e| e.counts.envelope_ops), c(|e| e.counts.envelopes)),
            "count",
        ),
        metric("wire.encode_ns", mean_span_ns(aggs, &["wire.encode"]), "ns"),
        metric("wire.decode_ns", mean_span_ns(aggs, &["wire.decode"]), "ns"),
        metric(
            "wire.bytes_per_envelope",
            ratio(c(|e| e.counts.wire_bytes), c(|e| e.counts.msgs)),
            "B",
        ),
        metric(
            "wire.bytes_per_op",
            ratio(c(|e| e.counts.wire_bytes), edits),
            "B",
        ),
        metric(
            "net.msgs_per_op",
            ratio(c(|e| e.counts.msgs), edits),
            "count",
        ),
        metric(
            "storage.append_ns",
            ratio(
                u(|e| e.counts.io.append.nanos),
                u(|e| e.counts.io.append.calls),
            ),
            "ns",
        ),
        metric(
            "storage.appends_per_op",
            ratio(c(|e| e.counts.io.append.calls), edits),
            "count",
        ),
        metric(
            "storage.append_bytes_per_op",
            ratio(c(|e| e.counts.io.append.bytes), edits),
            "B",
        ),
        metric(
            "storage.write_bytes_per_op",
            ratio(c(|e| e.counts.io.write.bytes), edits),
            "B",
        ),
        metric(
            "storage.recover_ns_per_record",
            ratio(recover_ns, u(|e| e.counts.records_replayed)),
            "ns",
        ),
        metric(
            "storage.records_replayed",
            ratio(c(|e| e.counts.records_replayed), recoveries),
            "count",
        ),
        metric(
            "storage.bytes_recovered",
            ratio(c(|e| e.counts.bytes_recovered), recoveries),
            "B",
        ),
        metric(
            "storage.read_ns",
            ratio(
                u(|e| e.recovery_io.read.nanos),
                u(|e| e.recovery_io.read.calls),
            ),
            "ns",
        ),
        metric("node.warm_op_ns", ratio(u(|e| e.warm_ns), warm_ops), "ns"),
        metric(
            "node.cold_op_ns",
            ratio(u(|e| e.cold_ns), u(|e| e.counts.cold_ops)),
            "ns",
        ),
        metric(
            "node.fault_ins_per_op",
            ratio(c(|e| e.counts.fault_ins), edits),
            "count",
        ),
        metric(
            "node.evictions_per_op",
            ratio(c(|e| e.counts.evictions), edits),
            "count",
        ),
        metric(
            "node.commit_ns",
            ratio(u(|e| e.commit_ns), u(|e| e.counts.commits)),
            "ns",
        ),
        metric(
            "node.segment_appends_per_op",
            ratio(c(|e| e.counts.segment_appends), edits),
            "count",
        ),
        metric(
            "node.restart_ns",
            ratio(u(|e| e.restart_ns), n_untraced),
            "ns",
        ),
        metric(
            "node.refill_ns",
            ratio(u(|e| e.refill_ns), n_untraced),
            "ns",
        ),
        metric(
            "telemetry.node.ops",
            ratio(c(|e| e.counts.telemetry.node_ops), n),
            "count",
        ),
        metric(
            "telemetry.node.fault_ins",
            ratio(c(|e| e.counts.telemetry.node_fault_ins), n),
            "count",
        ),
        metric(
            "telemetry.node.evictions",
            ratio(c(|e| e.counts.telemetry.node_evictions), n),
            "count",
        ),
        metric(
            "telemetry.gwal.flushes",
            ratio(c(|e| e.counts.telemetry.gwal_flushes), n),
            "count",
        ),
        metric(
            "telemetry.gwal.flush_records",
            ratio(c(|e| e.counts.telemetry.gwal_flush_records), n),
            "count",
        ),
        metric(
            "telemetry.store.snapshots_written",
            ratio(c(|e| e.counts.telemetry.snapshots_written), n),
            "count",
        ),
    ];

    // Self time per layer over the traced loops, and its reconciliation
    // with what the same traced episodes measured end to end.
    let traced_edits = sum(traced, |e| e.counts.edits);
    let mut stage_sum_ns = 0.0;
    let mut spans = 0;
    for layer in LAYERS {
        let (count, self_ns) = aggs
            .iter()
            .filter(|((phase, name), _)| {
                *phase == Phase::Loop && name.split('.').next() == Some(layer)
            })
            .fold((0, 0), |(c, s), (_, a)| (c + a.count, s + a.self_ns));
        let per_op = ratio(self_ns, traced_edits);
        stage_sum_ns += per_op;
        spans += count;
        m.push(metric(
            format!("trace.{layer}.self_ns_per_op"),
            per_op,
            "ns",
        ));
        m.push(metric(
            format!("trace.{layer}.calls_per_op"),
            ratio(count, traced_edits),
            "count",
        ));
    }
    let traced_wall_ns: f64 = traced.iter().map(|e| e.loop_s * 1e9).sum();
    let wall_per_op_ns = if traced_edits == 0 {
        0.0
    } else {
        traced_wall_ns / traced_edits as f64
    };
    let p50 = |eps: &[Episode]| {
        median(
            &eps.iter()
                .map(|e| e.latency.p50_ns as f64)
                .collect::<Vec<_>>(),
        )
    };
    let mean_lat = ratio(
        sum(traced, |e| e.latency.sum_ns),
        sum(traced, |e| e.latency.count),
    );
    let traced_p50 = p50(traced);
    let untraced_p50 = p50(untraced);
    m.extend([
        metric("trace.spans_per_op", ratio(spans, traced_edits), "count"),
        metric("trace.stage_sum_us", stage_sum_ns / 1e3, "us"),
        metric(
            "trace.uncovered_us",
            (wall_per_op_ns - stage_sum_ns) / 1e3,
            "us",
        ),
        metric("trace.wall_per_op_us", wall_per_op_ns / 1e3, "us"),
        metric("trace.edit_mean_us", mean_lat / 1e3, "us"),
        metric("trace.edit_p50_us", traced_p50 / 1e3, "us"),
        metric("trace.untraced_edit_p50_us", untraced_p50 / 1e3, "us"),
        metric("trace.overhead_us", (traced_p50 - untraced_p50) / 1e3, "us"),
    ]);
    m
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn json_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
