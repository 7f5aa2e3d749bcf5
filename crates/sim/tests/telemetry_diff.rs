//! Differential audit of the simulator's wire accounting. Every count of a
//! [`SimReport`] is a registry counter, so the report and the registry can
//! no longer disagree; what this test still checks are the two places where
//! the same traffic is counted **independently**, plus the rule that
//! telemetry never steers a run:
//!
//! - bytes: `sim.wire_bytes` is counted at the send boundary (inside the
//!   simulator session's one `send`/`broadcast`, which every driver sends
//!   through, so no call site can forget it), while the report's
//!   `network_bytes`, `ack_bytes` and `protocol_bytes` are counted per
//!   purpose where each purpose sends — a double-counted or missed path
//!   shows up as a byte-for-byte mismatch;
//! - messages: `sim.wire_msgs`, counted at the same boundary, against the
//!   network's own delivery counts;
//! - steering: a run over a caller's live registry — fresh, or already
//!   holding an earlier run's counts — produces exactly the report of a
//!   plain run (which counts into a private one).

use treedoc_sim::{run, run_with, Scenario, SimReport};
use treedoc_telemetry::Registry;

fn audit(label: &str, scenario: &Scenario) -> (SimReport, Registry) {
    let plain = run(scenario);
    let registry = Registry::new();
    let report = run_with(scenario, &registry.handle());
    assert_eq!(
        plain, report,
        "{label}: telemetry observes, it never steers — instrumented run \
         must produce the identical report"
    );
    // A report reads counter deltas, so a registry that already holds a
    // run's counts yields the same report for the next run.
    let reused = Registry::new();
    run_with(scenario, &reused.handle());
    assert_eq!(
        run_with(scenario, &reused.handle()),
        plain,
        "{label}: a reused registry must not leak into the report"
    );
    (report, registry)
}

fn assert_counters_agree(label: &str, report: &SimReport, registry: &Registry) {
    let snapshot = registry.snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);

    // Every byte handed to the network, counted at the send boundary, must
    // equal the report's purpose-split accounting. `network_bytes` already
    // includes the retransmission share.
    assert_eq!(
        counter("sim.wire_bytes") as usize,
        report.network_bytes + report.ack_bytes + report.protocol_bytes,
        "{label}: wire-boundary bytes vs report decomposition"
    );
    // Messages handed to the network: everything the net later delivered
    // (injected duplicate copies excluded — the net created those, nobody
    // sent them; discards for dead/offline/not-yet-joined sites happen
    // after delivery so they are already inside `messages_delivered`) plus
    // everything fault injection dropped. A drained run leaves nothing in
    // flight, so the two sides must match exactly.
    assert_eq!(
        counter("sim.wire_msgs"),
        report.messages_delivered + report.messages_dropped - report.messages_duplicated,
        "{label}: wire-boundary messages vs network delivery accounting"
    );
}

fn audit_and_check(label: &str, scenario: &Scenario) -> SimReport {
    let (report, registry) = audit(label, scenario);
    assert!(report.converged, "{label}: scenario must converge");
    assert_counters_agree(label, &report, &registry);
    report
}

#[test]
fn clean_run_counters_agree() {
    audit_and_check("clean", &Scenario::default());
}

#[test]
fn lossy_retransmission_counters_agree() {
    let report = audit_and_check("faulty", &Scenario::faulty());
    assert!(
        report.retransmission_bytes > 0,
        "faulty scenario must exercise the retransmission path"
    );
}

#[test]
fn batched_counters_agree() {
    let report = audit_and_check("batched", &Scenario::batched_faulty(8));
    assert!(
        report.op_batches_sent > 0,
        "batched scenario must exercise the batch-flush path"
    );
}

#[test]
fn anti_entropy_counters_agree() {
    let report = audit_and_check("anti-entropy", &Scenario::anti_entropy_faulty());
    assert!(
        report.sync_bytes > 0,
        "anti-entropy scenario must exercise the sync path"
    );
}

#[test]
fn late_join_counters_agree() {
    let report = audit_and_check("late-join", &Scenario::late_joiner(4));
    assert!(
        report.snapshot_bytes > 0,
        "late joiner must exercise the snapshot bootstrap path"
    );
}

#[test]
fn offline_gap_counters_agree() {
    audit_and_check("offline-retransmit", &Scenario::offline_gap(1, 2, 8, false));
    audit_and_check(
        "offline-anti-entropy",
        &Scenario::offline_gap(1, 2, 8, true),
    );
}

#[test]
fn durable_crash_counters_agree() {
    audit_and_check("crash", &Scenario::crash_faulty(1, 4, 8));
}
