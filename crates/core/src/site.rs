//! Site identifiers.
//!
//! Every replica (site) participating in a cooperative editing session is
//! identified by a [`SiteId`]. The paper (§3.3.2) considers two encodings:
//! a globally unique 6-byte identifier (e.g. a MAC address) and, in systems
//! with known membership, a compact small integer. We store the full 6-byte
//! form and additionally expose a compact constructor; the *accounted* size
//! used by the overhead model follows the paper's evaluation (§5): 6 bytes.

use std::fmt;

/// Number of bytes of a site identifier, as accounted in the paper's
/// evaluation ("We use 6 bytes for site identifiers in both UDIS and SDIS").
pub const SITE_ID_BYTES: usize = 6;

/// A globally unique identifier for a replica (site).
///
/// Ordered lexicographically; the ordering is only used to break ties between
/// concurrent inserts (via the disambiguator order) and carries no semantic
/// meaning.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId([u8; SITE_ID_BYTES]);

impl SiteId {
    /// Builds a site identifier from raw bytes (e.g. a MAC address).
    pub const fn from_bytes(bytes: [u8; SITE_ID_BYTES]) -> Self {
        SiteId(bytes)
    }

    /// Builds a site identifier from a small integer, as used in systems with
    /// known membership (§3.3.2 alternative (2)). The integer is stored
    /// big-endian in the low-order bytes so that numeric order and
    /// lexicographic byte order coincide.
    pub const fn from_u64(n: u64) -> Self {
        let b = n.to_be_bytes();
        SiteId([b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Returns the raw bytes of the identifier.
    pub const fn as_bytes(&self) -> &[u8; SITE_ID_BYTES] {
        &self.0
    }

    /// Returns the identifier as an integer (the inverse of [`from_u64`]
    /// for values that fit in 48 bits).
    ///
    /// [`from_u64`]: SiteId::from_u64
    pub fn as_u64(&self) -> u64 {
        let mut b = [0u8; 8];
        b[2..].copy_from_slice(&self.0);
        u64::from_be_bytes(b)
    }

    /// Size in bytes used by the paper's overhead accounting.
    pub const fn accounted_bytes() -> usize {
        SITE_ID_BYTES
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SiteId({})", self.as_u64())
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.as_u64())
    }
}

impl From<u64> for SiteId {
    fn from(n: u64) -> Self {
        SiteId::from_u64(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_u64_round_trips() {
        for n in [0u64, 1, 42, 0xFFFF, 0xFFFF_FFFF_FFFF] {
            assert_eq!(SiteId::from_u64(n).as_u64(), n);
        }
    }

    #[test]
    fn numeric_order_matches_byte_order() {
        let ids: Vec<SiteId> = [0u64, 1, 2, 255, 256, 65_535, 1 << 40]
            .iter()
            .map(|&n| SiteId::from_u64(n))
            .collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "{:?} should be < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn display_and_debug() {
        let s = SiteId::from_u64(7);
        assert_eq!(s.to_string(), "s7");
        assert_eq!(format!("{s:?}"), "SiteId(7)");
    }

    #[test]
    fn from_bytes_preserves_bytes() {
        let raw = [1, 2, 3, 4, 5, 6];
        assert_eq!(SiteId::from_bytes(raw).as_bytes(), &raw);
    }

    #[test]
    fn accounted_size_matches_paper() {
        assert_eq!(SiteId::accounted_bytes(), 6);
    }
}
