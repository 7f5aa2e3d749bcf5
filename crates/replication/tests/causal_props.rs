//! Property tests: the causal hold-back queue under randomly duplicated,
//! reordered and lost-then-retransmitted delivery schedules.
//!
//! Each case builds a ground-truth emission history (several senders that
//! occasionally observe each other, creating cross-sender dependencies),
//! scrambles it into a faulty delivery schedule, feeds the schedule through a
//! [`CausalBuffer`] and checks the §2.2 delivery contract:
//!
//! * every released message is released exactly when it is next-deliverable
//!   (causal order),
//! * no message is ever stuck: after a final full retransmission the queue is
//!   drained and every unique message was delivered exactly once,
//! * every redundant copy is discarded as a duplicate.

use proptest::prelude::*;
use treedoc_replication::testkit::{emit_history, faulty_schedule};
use treedoc_replication::{CausalBuffer, CausalMessage, Receipt, VectorClock};

/// Feeds messages into the buffer, checking causal order of every release
/// with an independent validator clock. Returns the number delivered and
/// the number discarded as duplicates.
fn feed_checked(
    buf: &mut CausalBuffer<u64>,
    validator: &mut VectorClock,
    messages: &[CausalMessage<u64>],
) -> Result<(usize, usize), TestCaseError> {
    let (mut delivered, mut duplicates) = (0usize, 0usize);
    for m in messages {
        let deliveries = buf.receive(m.clone());
        duplicates += usize::from(deliveries.receipt == Receipt::Duplicate);
        for released in deliveries {
            prop_assert!(
                validator.is_next_deliverable(released.sender, &released.clock),
                "released {} from {} out of causal order (validator {})",
                released.payload,
                released.sender,
                validator
            );
            validator.merge(&released.clock);
            delivered += 1;
        }
    }
    Ok((delivered, duplicates))
}

proptest! {
    /// Random faulty schedules never wedge the queue: after the final
    /// retransmission everything is delivered exactly once, in causal order,
    /// and the hold-back queue is empty.
    #[test]
    fn faulty_schedules_drain_completely(
        seed in 0u64..1_000_000,
        senders in 1usize..5,
        per_sender in 1usize..16,
        drop_pct in 0u32..40,
        duplicate_pct in 0u32..40,
    ) {
        let history = emit_history(seed, senders, per_sender, 0.3);
        let schedule = faulty_schedule(
            &history,
            seed,
            f64::from(drop_pct) / 100.0,
            f64::from(duplicate_pct) / 100.0,
        );

        let mut buf = CausalBuffer::new();
        let mut validator = VectorClock::new();
        let (delivered, duplicates) = feed_checked(&mut buf, &mut validator, &schedule)?;
        // The final retransmission: every message again, in emission order
        // (an at-least-once sender replays its whole unacknowledged log).
        let (redelivered, reduplicates) = feed_checked(&mut buf, &mut validator, &history)?;
        let (delivered, duplicates) = (delivered + redelivered, duplicates + reduplicates);

        prop_assert_eq!(
            delivered,
            history.len(),
            "every unique message is delivered exactly once"
        );
        prop_assert_eq!(buf.pending_len(), 0, "no message may remain stuck");
        // Everything fed beyond the unique messages must have been discarded:
        // of `schedule.len() + history.len()` receives, exactly
        // `history.len()` were fresh.
        prop_assert_eq!(
            duplicates,
            schedule.len(),
            "every redundant copy is discarded as a duplicate"
        );
    }

    /// Without faults, any per-sender-FIFO interleaving of the history
    /// delivers everything immediately or after a bounded hold-back.
    #[test]
    fn clean_interleavings_deliver_everything(
        seed in 0u64..1_000_000,
        senders in 1usize..5,
        per_sender in 1usize..16,
    ) {
        let history = emit_history(seed, senders, per_sender, 0.3);
        let schedule = faulty_schedule(&history, seed, 0.0, 0.0);
        let mut buf = CausalBuffer::new();
        let mut validator = VectorClock::new();
        let (delivered, duplicates) = feed_checked(&mut buf, &mut validator, &schedule)?;
        prop_assert_eq!(delivered, history.len());
        prop_assert_eq!(buf.pending_len(), 0);
        prop_assert_eq!(duplicates, 0);
    }
}
