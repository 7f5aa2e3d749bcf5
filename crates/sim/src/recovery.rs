//! The scripted crash-recovery demonstration.
//!
//! The randomised crash scenarios ([`Scenario::crash`](crate::Scenario))
//! show that a restarted replica converges *within its own run*; this module
//! makes the stronger, paper-style claim checkable: **a session in which a
//! replica crashes and recovers from its durable store ends in exactly the
//! same document as the same session without the crash.**
//!
//! To make the two runs byte-comparable the demo is deterministic and
//! turn-based: edits happen at quiescence (so every insert position is a
//! pure function of the script, not of network timing), and the crashed
//! site's edit schedule has a gap exactly where it is dead. The interesting
//! part of the script:
//!
//! 1. everyone edits and fully synchronises (phase A);
//! 2. the victim writes one last edit whose **every network copy is lost**
//!    (its outgoing links drop everything for one broadcast) — at this point
//!    the only surviving traces of that edit are the victim's in-memory send
//!    log and its WAL;
//! 3. the victim crashes (with the crash flag) — the in-memory copy dies;
//! 4. the survivors keep editing (phase B) while the victim is down;
//! 5. the victim restarts from its store
//!    ([`Replica::recover`](treedoc_replication::Replica::recover)), rejoins,
//!    and the at-least-once protocol retransmits in both directions: the
//!    survivors' phase-B edits reach the victim, and the victim's
//!    **recovered send log** re-broadcasts the lost edit — the durability
//!    win, since without the WAL that edit would be gone from the universe;
//! 6. everyone edits once more (phase C) and the session drains.
//!
//! [`crash_recovery_demo`] runs that script with or without the crash and
//! reports the final digest; the test suite asserts the two digests are
//! equal. It runs over the same wire-level session as [`run`](crate::run):
//! every envelope, acknowledgement and retransmission crosses the binary
//! codec, and traffic to the dead victim is discarded and counted.

use serde::{Deserialize, Serialize};
use treedoc_replication::LinkConfig;
use treedoc_telemetry::Telemetry;

use crate::session::{Doc, Session};

/// What the scripted crash/recovery run measured. The recovery and
/// retransmission counts are the run's registry counters
/// (`sim.wal_records_replayed`, `sim.recovered_bytes`, `sim.snapshot_hits`,
/// `replica.retransmissions`), which span the crash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashRecoveryReport {
    /// Whether the crash leg of the script actually ran.
    pub crashed: bool,
    /// Every replica ended with identical content, drained queues and a
    /// fully acknowledged send log.
    pub converged: bool,
    /// Digest of the final document (compare across the crash / no-crash
    /// runs).
    pub final_digest: u64,
    /// Final document length.
    pub final_len: usize,
    /// WAL records the recovery replayed (0 without the crash).
    pub wal_records_replayed: usize,
    /// Bytes the recovery read back (snapshot + WAL prefix).
    pub recovered_bytes: usize,
    /// Whether the recovery found a valid snapshot.
    pub snapshot_hit: bool,
    /// The "lost edit" — stamped, every network copy dropped, surviving only
    /// in the victim's log — made it into the final document.
    pub lost_edit_recovered: bool,
    /// Total messages retransmitted by the at-least-once protocol.
    pub retransmissions: u64,
}

/// Marker content of the edit whose every network copy is dropped.
const LOST_EDIT: &str = "victim parting-edit (all copies dropped)";
/// The victim site (index into the three replicas).
const VICTIM: usize = 1;

/// Site `i` appends `text` and broadcasts it.
fn append(session: &mut Session, i: usize, text: String) {
    let doc = session.replicas[i].doc_mut();
    let op = doc.local_insert(doc.len(), text).expect("append in range");
    session.stamp(i, op);
}

/// One quiescent edit turn: every listed site appends one line, everything
/// is delivered, then cumulative acks settle the send logs.
fn edit_turn(session: &mut Session, editors: &[usize], tag: &str) {
    for &i in editors {
        append(session, i, format!("s{i} {tag}"));
    }
    session.drain();
    settle(session);
}

/// Ack exchange + retransmission until every live replica's log is clear and
/// every queue is drained. Deterministic; the guard bound is generous.
fn settle(session: &mut Session) {
    for _ in 0..50 {
        // While a site is dead its peers can never fully clear their logs
        // (the dead site cannot ack), so only queue emptiness is demanded of
        // the survivors; with everyone alive the logs must clear too.
        let all_live = (0..session.replicas.len()).all(|i| session.is_live(i));
        let done = session.replicas.iter().enumerate().all(|(i, r)| {
            !session.is_live(i) || (r.pending() == 0 && (!r.has_unacked() || !all_live))
        });
        session.ack_round();
        session.retransmit_round();
        session.drain();
        if done && session.net.in_flight() == 0 {
            break;
        }
    }
}

/// Runs the scripted session (see the module docs); `crash` selects whether
/// the victim actually dies or just lives through the identical schedule.
pub fn crash_recovery_demo(seed: u64, crash: bool) -> CrashRecoveryReport {
    let seed_doc: Vec<String> = (0..6).map(|i| format!("seed {i}")).collect();
    let link = LinkConfig::fixed(5);
    let mut session = Session::new(&Telemetry::disabled(), 3, link, seed, |_, s| {
        Doc::from_atoms(s, &seed_doc)
    });
    session.enable_at_least_once();
    session.attach_stores();

    // Phase A: three quiescent turns with everyone editing, then a victim
    // checkpoint so recovery exercises snapshot + WAL-tail replay.
    for k in 0..3 {
        edit_turn(&mut session, &[0, 1, 2], &format!("a{k}"));
    }
    session.replicas[VICTIM]
        .persist_checkpoint()
        .expect("checkpoint cannot fail");
    edit_turn(&mut session, &[0, 1, 2], "a3");

    // The parting edit: every outgoing copy is dropped, so the only replicas
    // of this operation are the victim's in-memory send log and its WAL.
    let victim = session.site_ids[VICTIM];
    let peers: Vec<_> = session
        .site_ids
        .iter()
        .copied()
        .filter(|&s| s != victim)
        .collect();
    for &peer in &peers {
        session.net.set_link(victim, peer, link.with_drop_prob(1.0));
    }
    append(&mut session, VICTIM, LOST_EDIT.to_string());
    session.drain();
    for &peer in &peers {
        session.net.set_link(victim, peer, link);
    }

    // The crash: the replica object dies, its store survives.
    if crash {
        session.crash(VICTIM);
    }
    // Phase B: the survivors keep editing. The victim's schedule has a gap
    // here in *both* runs, so the edit scripts are identical.
    for k in 0..3 {
        edit_turn(&mut session, &[0, 2], &format!("b{k}"));
    }
    // Restart from the store; retransmission flows both ways.
    session.restart_dead();
    settle(&mut session);

    // Phase C: everyone (the recovered victim included) edits again.
    for k in 0..2 {
        edit_turn(&mut session, &[0, 1, 2], &format!("c{k}"));
    }
    settle(&mut session);

    let reference = session.replicas[0].doc().to_vec();
    let count = session.counts();
    CrashRecoveryReport {
        crashed: crash,
        converged: session.converged(),
        final_digest: session.replicas[0].digest(),
        final_len: reference.len(),
        wal_records_replayed: count("sim.wal_records_replayed") as usize,
        recovered_bytes: count("sim.recovered_bytes") as usize,
        snapshot_hit: count("sim.snapshot_hits") > 0,
        lost_edit_recovered: reference.iter().any(|line| line == LOST_EDIT),
        retransmissions: count("replica.retransmissions"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crashed_run_converges_to_the_crash_free_digest() {
        // The acceptance check: same script, with and without the crash,
        // same final document.
        let with_crash = crash_recovery_demo(2026, true);
        let without = crash_recovery_demo(2026, false);
        assert!(with_crash.converged, "{with_crash:?}");
        assert!(without.converged, "{without:?}");
        assert_eq!(
            with_crash.final_digest, without.final_digest,
            "crash + recovery must be invisible in the final document:\n\
             {with_crash:?}\nvs\n{without:?}"
        );
        assert_eq!(with_crash.final_len, without.final_len);
        assert!(with_crash.snapshot_hit);
        assert!(with_crash.wal_records_replayed > 0, "{with_crash:?}");
        assert!(with_crash.recovered_bytes > 0);
        assert_eq!(without.wal_records_replayed, 0);
    }

    #[test]
    fn the_lost_edit_survives_only_through_the_wal() {
        // Every network copy of the parting edit was dropped; after the
        // crash the sole surviving replica of it is the victim's WAL. It
        // must still reach every document.
        let report = crash_recovery_demo(7, true);
        assert!(report.converged, "{report:?}");
        assert!(
            report.lost_edit_recovered,
            "the recovered send log must re-broadcast the lost edit: {report:?}"
        );
        assert!(report.retransmissions > 0);
    }

    #[test]
    fn demo_is_deterministic() {
        assert_eq!(crash_recovery_demo(5, true), crash_recovery_demo(5, true));
        assert_eq!(crash_recovery_demo(5, false), crash_recovery_demo(5, false));
    }
}
