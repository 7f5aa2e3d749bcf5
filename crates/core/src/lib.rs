//! # treedoc-core
//!
//! A from-scratch implementation of **Treedoc**, the Commutative Replicated
//! Data Type (CRDT) for cooperative text editing described in:
//!
//! > Nuno Preguiça, Joan Manuel Marquès, Marc Shapiro, Mihai Leția.
//! > *A commutative replicated data type for cooperative editing.*
//! > 29th IEEE International Conference on Distributed Computing Systems
//! > (ICDCS 2009), pp. 395–403.
//!
//! A CRDT is a replicated data type whose concurrent operations commute, so
//! that replicas applying the same set of operations in any order compatible
//! with happened-before converge without any concurrency control.
//!
//! Treedoc realises a shared *sequence* (an edit buffer). Each atom (a
//! character, line or paragraph) is addressed by a **position identifier**
//! ([`PosId`]) drawn from a dense, totally ordered space implemented as paths
//! in an *extended binary tree*:
//!
//! * interior tree structure gives short, prefix-style identifiers,
//! * each tree position (a *major node*) may hold several *mini-nodes*
//!   created by concurrent inserts, disambiguated by a [`Disambiguator`],
//! * identifiers are ordered by an infix walk of the tree (§3.1 of the paper),
//! * new identifiers can always be allocated strictly between two existing
//!   ones (density), using Algorithm 1 of the paper ([`alloc`]),
//! * cold regions can be compacted with `flatten` (Algorithm 2,
//!   [`flatten`]) into plain bit-string identifiers with zero metadata.
//!
//! The tree is never built node by node: a replica stores its cells as
//! coalesced runs ([`RunTree`]) — a typing burst is one run, an exploded
//! region another — and that one structure serves edits, statistics,
//! digests, flatten and snapshots. (The per-atom tree lives on as a test
//! oracle in the `treedoc-reference` crate.)
//!
//! Two disambiguator designs from §3.3 are provided:
//!
//! * [`Udis`] — *(counter, site)* pairs; globally unique, deleted nodes can be
//!   discarded immediately (no tombstones),
//! * [`Sdis`] — site identifier only; cheaper per node, but deleted nodes must
//!   be kept as tombstones until a structural clean-up removes them.
//!
//! The user-facing entry point is [`Treedoc`], a single replica of the shared
//! buffer. Local edits return [`Op`] values that are shipped to the other
//! replicas (in causal order — see the `treedoc-replication` crate) and
//! applied there with [`Treedoc::apply`].
//!
//! ```
//! use treedoc_core::{Treedoc, Sdis, SiteId};
//!
//! let mut alice = Treedoc::<char, Sdis>::new(SiteId::from_u64(1));
//! let mut bob = Treedoc::<char, Sdis>::new(SiteId::from_u64(2));
//!
//! // Alice types "abc"; the ops are replayed at Bob's replica.
//! let ops: Vec<_> = "abc".chars().enumerate()
//!     .map(|(i, c)| alice.local_insert(i, c).unwrap())
//!     .collect();
//! for op in &ops { bob.apply(op).unwrap(); }
//!
//! // Concurrent edits at the same place commute.
//! let a = alice.local_insert(1, 'X').unwrap(); // a X b c
//! let b = bob.local_insert(1, 'Y').unwrap();   // a Y b c
//! alice.apply(&b).unwrap();
//! bob.apply(&a).unwrap();
//! assert_eq!(alice.to_string(), bob.to_string());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod atom;
pub mod codec;
pub mod disambiguator;
pub mod doc;
pub mod error;
pub mod flatten;
pub mod hash;
pub mod ops;
pub mod path;
pub mod run;
pub mod site;
pub mod stats;

pub use atom::{Atom, Content, Granularity};
pub use codec::{WireAtom, WireDis, WirePayload, WireSource, WIRE_VERSION};
pub use disambiguator::{DisSource, Disambiguator, HasSource, Sdis, SdisSource, Udis, UdisSource};
pub use doc::{Treedoc, TreedocConfig};
pub use error::{Error, Result};
pub use flatten::{explode_depth, FlattenOutcome};
pub use hash::{combine_hashes, content_hash64, crc32, ContentHash, Hasher64, DIGEST_BASE};
pub use ops::{Op, OpKind};
pub use path::{PathElem, PosId, Side};
pub use run::{cell_hash, spine_step, spine_successor, RunTree};
pub use site::SiteId;
pub use stats::{DocStats, MemoryModel, PosIdStats};
