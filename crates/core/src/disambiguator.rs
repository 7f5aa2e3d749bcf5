//! Disambiguators (§3.3 of the paper).
//!
//! When two sites concurrently insert an atom at the same tree position, the
//! resulting mini-nodes share a major node and are told apart — and ordered —
//! by a *disambiguator*. The paper studies two designs:
//!
//! * **UDIS** ([`Udis`]): a `(counter, site)` pair. Every identifier ever
//!   produced is globally unique, so a deleted node can be discarded
//!   immediately (no tombstones) — at the price of a larger identifier.
//! * **SDIS** ([`Sdis`]): the site identifier alone. Cheaper, but reusing a
//!   position after a delete could produce two different atoms with the same
//!   identifier; deleted nodes must therefore be kept as *tombstones*.
//!
//! The deletion policy is tied to the disambiguator type through
//! [`Disambiguator::DISCARD_ON_DELETE`], so a `Treedoc<_, Udis>` garbage
//! collects eagerly while a `Treedoc<_, Sdis>` accumulates tombstones until a
//! structural clean-up (`flatten`) removes them.

use std::fmt::{self, Debug};
use std::hash::Hash;

use crate::codec::WireSource;
use crate::hash::{ContentHash, Hasher64};
use crate::site::{SiteId, SITE_ID_BYTES};

/// Number of bytes of the UDIS per-site counter, per the paper's evaluation
/// ("4 bytes for the UDIS counter").
pub const UDIS_COUNTER_BYTES: usize = 4;

/// A disambiguator tells apart mini-nodes created by concurrent inserts at
/// the same tree position, and orders them (§3.1, §3.3).
///
/// Implementations must provide a total order; the order is arbitrary but
/// must be the same at every site (it is derived from plain data, so it is).
pub trait Disambiguator:
    Clone + Eq + Ord + Hash + Debug + Send + Sync + ContentHash + 'static
{
    /// Whether a deleted node may be discarded immediately (`true`, UDIS) or
    /// must be kept as a tombstone (`false`, SDIS). See §3.3 of the paper.
    const DISCARD_ON_DELETE: bool;

    /// Size in bytes charged per disambiguator by the overhead model,
    /// following the constants used in the paper's evaluation (§5).
    const ACCOUNTED_BYTES: usize;

    /// The site that generated this disambiguator.
    fn site(&self) -> SiteId;

    /// The disambiguator this site's source would hand out immediately after
    /// `self`, or `None` when that is not derivable from `self` alone.
    ///
    /// This is what lets the run-coalesced store ([`crate::run::RunTree`])
    /// recognise an Algorithm-1 append/prepend chain without storing one
    /// identifier per atom: SDIS sources are constant, UDIS sources count up
    /// by one per allocation.
    fn sequential_next(&self) -> Option<Self> {
        self.sequential_nth(1)
    }

    /// The disambiguator `n` sequential allocations after `self`, if
    /// derivable (see [`Disambiguator::sequential_next`]).
    fn sequential_nth(&self, n: usize) -> Option<Self>;
}

/// A *unique* disambiguator (§3.3.1): a `(counter, site)` pair where the
/// counter is a per-site persistent counter.
///
/// Ordered by `(counter, site)` exactly as in the paper:
/// `(c1, s1) < (c2, s2)  iff  c1 < c2 ∨ (c1 = c2 ∧ s1 < s2)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Udis {
    counter: u32,
    site: SiteId,
}

impl Udis {
    /// Creates a UDIS disambiguator from a counter value and a site.
    pub const fn new(counter: u32, site: SiteId) -> Self {
        Udis { counter, site }
    }

    /// The per-site counter component.
    pub const fn counter(&self) -> u32 {
        self.counter
    }
}

impl Disambiguator for Udis {
    const DISCARD_ON_DELETE: bool = true;
    const ACCOUNTED_BYTES: usize = SITE_ID_BYTES + UDIS_COUNTER_BYTES;

    fn site(&self) -> SiteId {
        self.site
    }

    fn sequential_nth(&self, n: usize) -> Option<Self> {
        let step = u32::try_from(n).ok()?;
        let counter = self.counter.checked_add(step)?;
        Some(Udis::new(counter, self.site))
    }
}

impl ContentHash for Udis {
    fn feed(&self, hasher: &mut Hasher64) {
        hasher.write_u32(self.counter);
        self.site.feed(hasher);
    }
}

impl fmt::Debug for Udis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Udis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.site, self.counter)
    }
}

/// A *site* disambiguator (§3.3.2): the site identifier alone.
///
/// Two different atoms inserted by the same site could collide on the same
/// identifier if nodes were discarded, so deletes leave tombstones behind.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sdis {
    site: SiteId,
}

impl Sdis {
    /// Creates an SDIS disambiguator for a site.
    pub const fn new(site: SiteId) -> Self {
        Sdis { site }
    }
}

impl Disambiguator for Sdis {
    const DISCARD_ON_DELETE: bool = false;
    const ACCOUNTED_BYTES: usize = SITE_ID_BYTES;

    fn site(&self) -> SiteId {
        self.site
    }

    fn sequential_nth(&self, _n: usize) -> Option<Self> {
        // An SDIS source hands out the same value forever.
        Some(*self)
    }
}

impl ContentHash for Sdis {
    fn feed(&self, hasher: &mut Hasher64) {
        self.site.feed(hasher);
    }
}

impl fmt::Debug for Sdis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Sdis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.site)
    }
}

/// Allocates fresh disambiguators for the local site.
///
/// A [`Treedoc`](crate::Treedoc) owns one of these; every local insert draws
/// the disambiguator for the new atom from it.
pub trait DisSource {
    /// The disambiguator type produced.
    type Dis: Disambiguator;

    /// Returns the next disambiguator for a locally initiated insert.
    fn next_dis(&mut self) -> Self::Dis;

    /// The site this source allocates on behalf of.
    fn site(&self) -> SiteId;

    /// Tells the source that `dis` — one of *its own* earlier allocations —
    /// has been replayed from a durable log. Stateful sources (UDIS) must
    /// advance past it so post-recovery inserts never reuse an identifier;
    /// stateless sources (SDIS) ignore it.
    fn observe_replayed(&mut self, dis: &Self::Dis) {
        let _ = dis;
    }
}

/// Disambiguator source for [`Udis`]: a per-site persistent counter.
#[derive(Debug, Clone)]
pub struct UdisSource {
    site: SiteId,
    counter: u32,
}

impl UdisSource {
    /// Creates a source starting at counter 0.
    pub const fn new(site: SiteId) -> Self {
        UdisSource { site, counter: 0 }
    }

    /// A source whose next UDIS uses `counter`: one restored from a
    /// snapshot.
    pub(crate) const fn resume(site: SiteId, counter: u32) -> Self {
        UdisSource { site, counter }
    }

    /// Current value of the counter (the next UDIS issued will use it).
    pub const fn counter(&self) -> u32 {
        self.counter
    }
}

impl DisSource for UdisSource {
    type Dis = Udis;

    fn next_dis(&mut self) -> Udis {
        let d = Udis::new(self.counter, self.site);
        self.counter += 1;
        d
    }

    fn site(&self) -> SiteId {
        self.site
    }

    fn observe_replayed(&mut self, dis: &Udis) {
        // Uniqueness of UDIS identifiers depends on the counter never
        // revisiting a value already issued; a replayed allocation proves the
        // counter had passed it.
        self.counter = self.counter.max(dis.counter().saturating_add(1));
    }
}

/// Disambiguator source for [`Sdis`]: always the site identifier.
#[derive(Debug, Clone)]
pub struct SdisSource {
    site: SiteId,
}

impl SdisSource {
    /// Creates a source for the given site.
    pub const fn new(site: SiteId) -> Self {
        SdisSource { site }
    }
}

impl DisSource for SdisSource {
    type Dis = Sdis;

    fn next_dis(&mut self) -> Sdis {
        Sdis::new(self.site)
    }

    fn site(&self) -> SiteId {
        self.site
    }
}

/// Ties a disambiguator type to its canonical source, so `Treedoc<A, D>` can
/// construct the right source from just a [`SiteId`].
pub trait HasSource: Disambiguator {
    /// The source type that allocates this kind of disambiguator.
    type Source: DisSource<Dis = Self> + WireSource + Clone + Debug + Send + Sync + 'static;

    /// Builds a fresh source for the given site.
    fn source(site: SiteId) -> Self::Source;
}

impl HasSource for Udis {
    type Source = UdisSource;

    fn source(site: SiteId) -> UdisSource {
        UdisSource::new(site)
    }
}

impl HasSource for Sdis {
    type Source = SdisSource;

    fn source(site: SiteId) -> SdisSource {
        SdisSource::new(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udis_order_is_counter_then_site() {
        let a = Udis::new(0, SiteId::from_u64(9));
        let b = Udis::new(1, SiteId::from_u64(1));
        let c = Udis::new(1, SiteId::from_u64(2));
        assert!(a < b, "lower counter wins regardless of site");
        assert!(b < c, "equal counters fall back to site order");
    }

    #[test]
    fn sdis_order_is_site_order() {
        let a = Sdis::new(SiteId::from_u64(1));
        let b = Sdis::new(SiteId::from_u64(2));
        assert!(a < b);
        assert_eq!(a, Sdis::new(SiteId::from_u64(1)));
    }

    #[test]
    fn accounted_sizes_match_paper_constants() {
        // §5: 6 bytes for site identifiers, 4 bytes for the UDIS counter.
        assert_eq!(Sdis::ACCOUNTED_BYTES, 6);
        assert_eq!(Udis::ACCOUNTED_BYTES, 10);
    }

    #[test]
    fn deletion_policy_matches_design() {
        // Read through a binding so the policy flags are exercised as values
        // (the direct form trips clippy::assertions_on_constants).
        let policies = [Udis::DISCARD_ON_DELETE, Sdis::DISCARD_ON_DELETE];
        assert_eq!(policies, [true, false]);
    }

    #[test]
    fn udis_source_is_monotonic_and_unique() {
        let mut src = UdisSource::new(SiteId::from_u64(3));
        let issued: Vec<Udis> = (0..100).map(|_| src.next_dis()).collect();
        for w in issued.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(src.counter(), 100);
    }

    #[test]
    fn udis_source_advances_past_replayed_allocations() {
        // A recovered replica replays its own inserts from the WAL; the
        // source must never re-issue a counter it sees go by.
        let mut src = UdisSource::new(SiteId::from_u64(3));
        src.observe_replayed(&Udis::new(41, SiteId::from_u64(3)));
        assert_eq!(src.counter(), 42);
        // Observing something older must not move the counter backwards.
        src.observe_replayed(&Udis::new(7, SiteId::from_u64(3)));
        assert_eq!(src.counter(), 42);
        assert_eq!(src.next_dis(), Udis::new(42, SiteId::from_u64(3)));
    }

    #[test]
    fn sdis_source_is_constant() {
        let mut src = SdisSource::new(SiteId::from_u64(3));
        assert_eq!(src.next_dis(), src.next_dis());
        assert_eq!(src.site(), SiteId::from_u64(3));
    }

    #[test]
    fn display_forms() {
        let u = Udis::new(5, SiteId::from_u64(2));
        assert_eq!(u.to_string(), "s2#5");
        let s = Sdis::new(SiteId::from_u64(2));
        assert_eq!(s.to_string(), "s2");
    }
}
