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
//! 5. the victim restarts from its store ([`Replica::recover`]), rejoins,
//!    and the at-least-once protocol retransmits in both directions: the
//!    survivors' phase-B edits reach the victim, and the victim's
//!    **recovered send log** re-broadcasts the lost edit — the durability
//!    win, since without the WAL that edit would be gone from the universe;
//! 6. everyone edits once more (phase C) and the session drains.
//!
//! [`crash_recovery_demo`] runs that script with or without the crash and
//! reports the final digest; the test suite asserts the two digests are
//! equal.

use serde::{Deserialize, Serialize};
use treedoc_core::{Op, Sdis, SiteId, Treedoc};
use treedoc_replication::{Envelope, LinkConfig, Replica, SimNetwork};
use treedoc_storage::DocStore;

type Doc = Treedoc<String, Sdis>;
type Env = Envelope<Op<String, Sdis>>;

/// What the scripted crash/recovery run measured.
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

/// Delivers everything currently deliverable; events addressed to a dead
/// site are discarded, as a dead process would.
fn drain(
    net: &mut SimNetwork<Env>,
    replicas: &mut [Replica<Doc>],
    site_ids: &[SiteId],
    dead: Option<usize>,
) {
    while let Some(event) = net.step() {
        let idx = site_ids
            .iter()
            .position(|&s| s == event.to)
            .expect("known site");
        if dead == Some(idx) {
            continue;
        }
        let _ = replicas[idx].receive_envelope(event.payload);
    }
}

/// One quiescent edit turn: every listed site appends one line, everything
/// is delivered, then cumulative acks settle the send logs.
fn edit_turn(
    net: &mut SimNetwork<Env>,
    replicas: &mut [Replica<Doc>],
    site_ids: &[SiteId],
    editors: &[usize],
    tag: &str,
    dead: Option<usize>,
) {
    for &i in editors {
        let len = replicas[i].doc().len();
        let op = replicas[i]
            .doc_mut()
            .local_insert(len, format!("s{i} {tag}"))
            .expect("append in range");
        let env = replicas[i].stamp_envelope(op);
        net.broadcast(site_ids[i], site_ids, env);
    }
    drain(net, replicas, site_ids, dead);
    settle(net, replicas, site_ids, dead);
}

/// Ack exchange + retransmission until every live replica's log is clear and
/// every queue is drained. Deterministic; the guard bound is generous.
fn settle(
    net: &mut SimNetwork<Env>,
    replicas: &mut [Replica<Doc>],
    site_ids: &[SiteId],
    dead: Option<usize>,
) {
    for _ in 0..50 {
        let live = |i: usize| dead != Some(i);
        // While a site is dead its peers can never fully clear their logs
        // (the dead site cannot ack), so only queue emptiness is demanded of
        // the survivors; with everyone alive the logs must clear too.
        let done = replicas
            .iter()
            .enumerate()
            .all(|(i, r)| !live(i) || (r.pending() == 0 && (!r.has_unacked() || dead.is_some())));
        for i in 0..replicas.len() {
            if !live(i) {
                continue;
            }
            let ack = replicas[i].ack_envelope();
            net.broadcast(site_ids[i], site_ids, ack);
        }
        drain(net, replicas, site_ids, dead);
        for i in 0..replicas.len() {
            if !live(i) {
                continue;
            }
            for (j, &peer) in site_ids.iter().enumerate() {
                if j == i || !live(j) {
                    continue;
                }
                for env in replicas[i].unacked_envelopes_for(peer) {
                    net.send(site_ids[i], peer, env);
                }
            }
        }
        drain(net, replicas, site_ids, dead);
        if done && net.in_flight() == 0 {
            break;
        }
    }
}

/// Runs the scripted session (see the module docs); `crash` selects whether
/// the victim actually dies or just lives through the identical schedule.
pub fn crash_recovery_demo(seed: u64, crash: bool) -> CrashRecoveryReport {
    let site_ids: Vec<SiteId> = (1..=3u64).map(SiteId::from_u64).collect();
    let seed_doc: Vec<String> = (0..6).map(|i| format!("seed {i}")).collect();
    let mut replicas: Vec<Replica<Doc>> = site_ids
        .iter()
        .map(|&s| Replica::new(s, Doc::from_atoms(s, &seed_doc)))
        .collect();
    let mut net: SimNetwork<Env> = SimNetwork::new(LinkConfig::fixed(5), seed);
    for r in replicas.iter_mut() {
        r.enable_at_least_once(&site_ids);
        r.attach_store(DocStore::in_memory())
            .expect("in-memory attach");
    }

    // Phase A: three quiescent turns with everyone editing, then a victim
    // checkpoint so recovery exercises snapshot + WAL-tail replay.
    for k in 0..3 {
        edit_turn(
            &mut net,
            &mut replicas,
            &site_ids,
            &[0, 1, 2],
            &format!("a{k}"),
            None,
        );
    }
    replicas[VICTIM]
        .persist_checkpoint()
        .expect("checkpoint cannot fail");
    edit_turn(&mut net, &mut replicas, &site_ids, &[0, 1, 2], "a3", None);

    // The parting edit: every outgoing copy is dropped, so the only replicas
    // of this operation are the victim's in-memory send log and its WAL.
    for (j, &peer) in site_ids.iter().enumerate() {
        if j != VICTIM {
            net.set_link(
                site_ids[VICTIM],
                peer,
                LinkConfig::fixed(5).with_drop_prob(1.0),
            );
        }
    }
    {
        let len = replicas[VICTIM].doc().len();
        let op = replicas[VICTIM]
            .doc_mut()
            .local_insert(len, LOST_EDIT.to_string())
            .expect("append in range");
        let env = replicas[VICTIM].stamp_envelope(op);
        net.broadcast(site_ids[VICTIM], &site_ids, env);
    }
    drain(&mut net, &mut replicas, &site_ids, None);
    for (j, &peer) in site_ids.iter().enumerate() {
        if j != VICTIM {
            net.set_link(site_ids[VICTIM], peer, LinkConfig::fixed(5));
        }
    }

    // The crash: the replica object dies, its store survives.
    let mut report = CrashRecoveryReport {
        crashed: crash,
        converged: false,
        final_digest: 0,
        final_len: 0,
        wal_records_replayed: 0,
        recovered_bytes: 0,
        snapshot_hit: false,
        lost_edit_recovered: false,
        retransmissions: 0,
    };
    let mut dead: Option<(usize, DocStore)> = None;
    if crash {
        let store = replicas[VICTIM].detach_store().expect("victim has a store");
        replicas[VICTIM] = Replica::new(site_ids[VICTIM], Doc::new(site_ids[VICTIM]));
        dead = Some((VICTIM, store));
    }

    // Phase B: the survivors keep editing. The victim's schedule has a gap
    // here in *both* runs, so the edit scripts are identical.
    let dead_idx = dead.as_ref().map(|&(i, _)| i);
    for k in 0..3 {
        edit_turn(
            &mut net,
            &mut replicas,
            &site_ids,
            &[0, 2],
            &format!("b{k}"),
            dead_idx,
        );
    }

    // Restart from the store; retransmission flows both ways.
    if let Some((idx, store)) = dead.take() {
        let (recovered, recovery) =
            Replica::<Doc>::recover(store).expect("crash recovery must succeed");
        report.wal_records_replayed = recovery.wal_records_replayed;
        report.recovered_bytes = recovery.bytes_recovered;
        report.snapshot_hit = recovery.snapshot_hit;
        replicas[idx] = recovered;
    }
    settle(&mut net, &mut replicas, &site_ids, None);

    // Phase C: everyone (the recovered victim included) edits again.
    for k in 0..2 {
        edit_turn(
            &mut net,
            &mut replicas,
            &site_ids,
            &[0, 1, 2],
            &format!("c{k}"),
            None,
        );
    }
    settle(&mut net, &mut replicas, &site_ids, None);

    let reference = replicas[0].doc().to_vec();
    report.converged = replicas.iter().all(|r| r.doc().to_vec() == reference)
        && replicas.iter().all(|r| r.pending() == 0)
        && replicas.iter().all(|r| !r.has_unacked());
    report.final_digest = replicas[0].digest();
    report.final_len = reference.len();
    report.lost_edit_recovered = reference.iter().any(|line| line == LOST_EDIT);
    report.retransmissions = replicas.iter().map(|r| r.retransmissions()).sum();
    report
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
