//! Vector clocks: the standard mechanism for tracking the happened-before
//! relation between events of different replicas.

use std::collections::BTreeMap;
use std::fmt;

use treedoc_core::SiteId;

/// The relation between two vector clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockOrdering {
    /// Identical clocks.
    Equal,
    /// The left clock happened strictly before the right one.
    Before,
    /// The left clock happened strictly after the right one.
    After,
    /// Neither dominates: the events are concurrent.
    Concurrent,
}

/// A vector clock: one counter per site that has issued events.
///
/// Only non-zero counters are stored, so two clocks describing the same
/// events are equal whether or not a site was ever mentioned at zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VectorClock {
    entries: BTreeMap<SiteId, u64>,
}

impl VectorClock {
    /// The zero clock.
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// The counter recorded for `site` (0 when absent).
    pub fn get(&self, site: SiteId) -> u64 {
        self.entries.get(&site).copied().unwrap_or(0)
    }

    /// Increments the counter of `site`, returning the new value.
    pub fn increment(&mut self, site: SiteId) -> u64 {
        let e = self.entries.entry(site).or_insert(0);
        *e += 1;
        *e
    }

    /// Sets the counter of `site` to `max(current, value)`.
    pub fn observe(&mut self, site: SiteId, value: u64) {
        if value == 0 {
            return;
        }
        let e = self.entries.entry(site).or_insert(0);
        *e = (*e).max(value);
    }

    /// Merges another clock into this one (pointwise maximum).
    pub fn merge(&mut self, other: &VectorClock) {
        for (&site, &v) in &other.entries {
            self.observe(site, v);
        }
    }

    /// `true` if every counter of `other` is ≤ the corresponding counter of
    /// `self` — i.e. this replica has already seen everything `other`
    /// describes.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        other.entries.iter().all(|(&site, &v)| self.get(site) >= v)
    }

    /// The happened-before relation between the events described by the two
    /// clocks.
    pub fn compare(&self, other: &VectorClock) -> ClockOrdering {
        let self_dominates = self.dominates(other);
        let other_dominates = other.dominates(self);
        match (self_dominates, other_dominates) {
            (true, true) => ClockOrdering::Equal,
            (true, false) => ClockOrdering::After,
            (false, true) => ClockOrdering::Before,
            (false, false) => ClockOrdering::Concurrent,
        }
    }

    /// `true` when a message stamped with `message_clock` and sent by
    /// `sender` is the *next* deliverable event from that sender given this
    /// replica's clock: the sender's own counter is exactly one ahead, and
    /// every other counter is already covered.
    pub fn is_next_deliverable(&self, sender: SiteId, message_clock: &VectorClock) -> bool {
        for (&site, &v) in &message_clock.entries {
            if site == sender {
                if v != self.get(site) + 1 {
                    return false;
                }
            } else if v > self.get(site) {
                return false;
            }
        }
        true
    }

    /// Iterates the `(site, counter)` entries in site order.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, u64)> + '_ {
        self.entries.iter().map(|(&s, &v)| (s, v))
    }

    /// Sets the counter of `site` to exactly `value` (unlike
    /// [`observe`](Self::observe), which clamps to the maximum). Used by the
    /// wire codec to reconstruct a clock entry-for-entry; 0 removes the site.
    pub(crate) fn set_entry(&mut self, site: SiteId, value: u64) {
        if value == 0 {
            self.entries.remove(&site);
        } else {
            self.entries.insert(site, value);
        }
    }

    /// Number of sites with a non-zero counter.
    pub fn sites(&self) -> usize {
        self.entries.len()
    }

    /// Sum of all counters (total number of events described).
    pub fn total_events(&self) -> u64 {
        self.entries.values().sum()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (site, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{site}:{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    #[test]
    fn increment_and_get() {
        let mut c = VectorClock::new();
        assert_eq!(c.get(site(1)), 0);
        assert_eq!(c.increment(site(1)), 1);
        assert_eq!(c.increment(site(1)), 2);
        assert_eq!(c.increment(site(2)), 1);
        assert_eq!(c.get(site(1)), 2);
        assert_eq!(c.sites(), 2);
        assert_eq!(c.total_events(), 3);
    }

    #[test]
    fn merge_takes_pointwise_max() {
        let mut a = VectorClock::new();
        a.increment(site(1));
        a.increment(site(1));
        let mut b = VectorClock::new();
        b.increment(site(1));
        b.increment(site(2));
        a.merge(&b);
        assert_eq!(a.get(site(1)), 2);
        assert_eq!(a.get(site(2)), 1);
    }

    #[test]
    fn compare_detects_causality_and_concurrency() {
        let mut a = VectorClock::new();
        a.increment(site(1));
        let mut b = a.clone();
        b.increment(site(2));
        assert_eq!(a.compare(&b), ClockOrdering::Before);
        assert_eq!(b.compare(&a), ClockOrdering::After);
        assert_eq!(a.compare(&a.clone()), ClockOrdering::Equal);

        let mut c = VectorClock::new();
        c.increment(site(3));
        assert_eq!(a.compare(&c), ClockOrdering::Concurrent);
        assert_eq!(c.compare(&a), ClockOrdering::Concurrent);
    }

    #[test]
    fn deliverability_requires_exactly_the_next_event() {
        // Receiver has seen 2 events from site 1 and 1 from site 2.
        let mut local = VectorClock::new();
        local.observe(site(1), 2);
        local.observe(site(2), 1);

        // Next message from site 1 (its 3rd event) depending only on what we
        // have: deliverable.
        let mut m = VectorClock::new();
        m.observe(site(1), 3);
        m.observe(site(2), 1);
        assert!(local.is_next_deliverable(site(1), &m));

        // A message from site 1 that also depends on a 2nd event of site 3 we
        // have not seen: not deliverable yet.
        let mut m2 = m.clone();
        m2.observe(site(3), 2);
        assert!(!local.is_next_deliverable(site(1), &m2));

        // A message from site 1 skipping ahead (its 4th event): not
        // deliverable (would violate FIFO per sender).
        let mut m3 = VectorClock::new();
        m3.observe(site(1), 4);
        assert!(!local.is_next_deliverable(site(1), &m3));

        // An old duplicate (its 2nd event again): not deliverable.
        let mut m4 = VectorClock::new();
        m4.observe(site(1), 2);
        assert!(!local.is_next_deliverable(site(1), &m4));
    }

    #[test]
    fn display_is_compact() {
        let mut c = VectorClock::new();
        c.increment(site(1));
        assert_eq!(c.to_string(), "{s1:1}");
    }
}
