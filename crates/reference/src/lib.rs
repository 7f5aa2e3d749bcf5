//! # treedoc-reference
//!
//! The per-atom reference implementation of Treedoc. The product stores a
//! document as runs (`treedoc_core::RunTree`) and snapshots it as its cell
//! stream; this crate keeps the paper's literal data structures so the run
//! store can be checked against them and the evaluation can still measure
//! them:
//!
//! * [`Tree`] — the extended binary tree of §3, one [`MajorNode`] /
//!   [`MiniNode`] per atom; [`Tree::from_cells`] materialises it from a run
//!   store's cells;
//! * [`explode`] / [`flatten_subtree`] — Algorithm 2 on that tree (§4.2);
//! * [`measure`] — Table 1's statistics counted slot by slot;
//! * [`RefPosId`] — identifiers as a plain element vector, the oracle for
//!   the chunked `PosId`;
//! * [`DiskImage`] — the §5.2 on-disk layout: a breadth-first "binary heap"
//!   structure file with run-length-encoded markers ([`rle`]) plus a
//!   separate atom file. Its structure size is the "On-disk overhead"
//!   column of Table 1.
//!
//! Mini-node children live in their own namespaces and do not fit the plain
//! positional array; the disk image stores them in an explicit overflow
//! section so round-tripping is always lossless.
//!
//! Only tests and the evaluation (`treedoc-trace`, `bench`) depend on this
//! crate; no product crate does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flatten;
pub mod heap;
pub mod node;
pub mod refpath;
pub mod rle;
pub mod stats;
pub mod tree;

pub use flatten::{explode, explode_node, flatten_subtree};
pub use heap::{DecodeError, DiskImage, EncodeStats};
pub use node::{MajorNode, MiniNode};
pub use refpath::RefPosId;
pub use rle::{rle_compress, rle_decompress};
pub use stats::measure;
pub use tree::{SlotView, Tree};
