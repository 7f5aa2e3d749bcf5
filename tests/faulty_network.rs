//! Cross-crate integration tests for the faulty-network workload: lossy
//! at-least-once delivery, duplicate-safe causal buffering and the
//! convergence matrix.

use treedoc_repro::prelude::{Scenario, ScenarioMatrix};
use treedoc_repro::sim::run;

#[test]
fn lossy_duplicating_network_converges_and_drains() {
    // The headline acceptance scenario: drops AND duplicates with
    // retransmission enabled must converge on all replicas with every
    // hold-back queue fully drained, and the report must account for the
    // injected faults.
    for seed in [1, 42, 2026] {
        let report = run(&Scenario {
            sites: 4,
            edits_per_site: 50,
            seed,
            ..Scenario::faulty()
        });
        assert!(report.converged, "seed {seed}: {report:?}");
        assert_eq!(report.replays_skipped, 0, "seed {seed}: {report:?}");
        assert!(report.messages_dropped > 0, "seed {seed}: {report:?}");
        assert!(report.messages_duplicated > 0, "seed {seed}: {report:?}");
        assert!(report.retransmissions > 0, "seed {seed}: {report:?}");
        assert!(report.duplicates_discarded > 0, "seed {seed}: {report:?}");
        assert_eq!(report.ops_generated, 4 * 50);
    }
}

#[test]
fn duplicates_without_loss_need_no_retransmission() {
    let report = run(&Scenario {
        sites: 3,
        edits_per_site: 40,
        duplicate_prob: 0.15,
        reorder_burst_prob: 0.2,
        ..Default::default()
    });
    assert!(report.converged, "{report:?}");
    assert_eq!(report.replays_skipped, 0, "{report:?}");
    assert_eq!(report.retransmissions, 0);
    assert!(report.duplicates_discarded >= report.messages_duplicated);
}

#[test]
fn convergence_matrix_holds_across_fault_axes() {
    // loss × duplication × partition × burst (× balancing off): every cell
    // converges with a drained hold-back queue.
    let matrix = ScenarioMatrix::faulty(Scenario {
        sites: 3,
        edits_per_site: 24,
        ..Default::default()
    });
    let results = matrix.run();
    assert_eq!(results.len(), 16);
    for (scenario, report) in results {
        assert!(report.converged, "cell {scenario:?} diverged: {report:?}");
        assert_eq!(
            report.replays_skipped, 0,
            "cell {scenario:?} diverged: {report:?}"
        );
        if scenario.drop_prob > 0.0 {
            assert!(scenario.retransmit, "lossy cells run at-least-once");
        }
    }
}

#[test]
fn faulty_runs_with_balancing_converge() {
    let report = run(&Scenario {
        sites: 3,
        edits_per_site: 40,
        balancing: true,
        ..Scenario::faulty()
    });
    assert!(report.converged, "{report:?}");
    assert_eq!(report.replays_skipped, 0, "{report:?}");
}

#[test]
fn partition_plus_loss_plus_duplication_converges() {
    // Compound fault: a mid-run partition of site 1 on top of a lossy,
    // duplicating network. Everything must still converge once healed and
    // retransmitted.
    let report = run(&Scenario {
        sites: 4,
        edits_per_site: 36,
        partition_first_site: true,
        ..Scenario::faulty()
    });
    assert!(report.converged, "{report:?}");
    assert_eq!(report.replays_skipped, 0, "{report:?}");
    assert!(
        report.max_pending > 0,
        "faults must exercise the hold-back queue"
    );
}
