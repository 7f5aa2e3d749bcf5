//! Atoms: the editable elements of the shared buffer.
//!
//! The paper deliberately leaves the atom granularity open (§2): an atom may
//! be a character, a line (used for the LaTeX/C++/Java traces in §5), a whole
//! paragraph (used for the Wikipedia traces), or any non-editable embedded
//! object. The CRDT is generic over the atom type; the only requirements are
//! cheap cloning and a way to account its size for the overhead model.

use std::fmt::Debug;

use serde::{de::DeserializeOwned, Deserialize, Serialize};

use crate::hash::ContentHash;

/// An element of the shared sequence.
///
/// Implemented for `char`, `String`, `Vec<u8>` and the unsigned integers;
/// user types qualify by meeting the bounds (including
/// [`ContentHash`], which the run store's incremental merkle digest hashes
/// cells with).
pub trait Atom:
    Clone + Eq + Debug + Send + Sync + Serialize + DeserializeOwned + ContentHash + 'static
{
    /// Size of the atom's *content* in bytes, used when relating metadata
    /// overhead to document size (Table 1 reports overhead relative to the
    /// document size in bytes).
    fn content_bytes(&self) -> usize;
}

impl Atom for char {
    fn content_bytes(&self) -> usize {
        self.len_utf8()
    }
}

impl Atom for String {
    fn content_bytes(&self) -> usize {
        self.len()
    }
}

impl Atom for Vec<u8> {
    fn content_bytes(&self) -> usize {
        self.len()
    }
}

impl Atom for u8 {
    fn content_bytes(&self) -> usize {
        1
    }
}

impl Atom for u32 {
    fn content_bytes(&self) -> usize {
        4
    }
}

impl Atom for u64 {
    fn content_bytes(&self) -> usize {
        8
    }
}

/// Atom granularity used when splitting a text document into atoms.
///
/// The paper's evaluation uses [`Granularity::Line`] for LaTeX and source
/// code and [`Granularity::Paragraph`] for Wikipedia pages (§5); characters
/// are supported for interactive-editor style workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Granularity {
    /// One atom per Unicode scalar value.
    Character,
    /// One atom per line (split on `'\n'`, terminator not included).
    Line,
    /// One atom per paragraph (split on blank lines).
    Paragraph,
}

impl Granularity {
    /// Splits `text` into atoms at this granularity.
    pub fn split(&self, text: &str) -> Vec<String> {
        match self {
            Granularity::Character => text.chars().map(|c| c.to_string()).collect(),
            Granularity::Line => {
                if text.is_empty() {
                    Vec::new()
                } else {
                    text.lines().map(|l| l.to_string()).collect()
                }
            }
            Granularity::Paragraph => text
                .split("\n\n")
                .filter(|p| !p.trim().is_empty())
                .map(|p| p.to_string())
                .collect(),
        }
    }

    /// Joins atoms back into a text document (inverse of [`split`] up to
    /// trailing separators).
    ///
    /// [`split`]: Granularity::split
    pub fn join(&self, atoms: &[String]) -> String {
        match self {
            Granularity::Character => atoms.concat(),
            Granularity::Line => atoms.join("\n"),
            Granularity::Paragraph => atoms.join("\n\n"),
        }
    }
}

/// The content of an atom slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Content<A> {
    /// No slot exists at this position (nothing was ever inserted here, or a
    /// UDIS node was discarded).
    Absent,
    /// A live atom.
    Live(A),
    /// A deleted atom whose node must be kept (SDIS, §3.3.2): the atom itself
    /// has been discarded but the identifier stays occupied.
    Tombstone,
    /// A structural node without an atom: either a non-leaf UDIS node whose
    /// atom was discarded but which still has descendants, or an ancestor
    /// re-created while replaying an insert whose original ancestors were
    /// concurrently discarded (§3.3.1).
    Ghost,
}

impl<A> Content<A> {
    /// `true` when the slot holds a live atom.
    pub fn is_live(&self) -> bool {
        matches!(self, Content::Live(_))
    }

    /// `true` when the slot exists at all (live, tombstone or ghost).
    pub fn is_present(&self) -> bool {
        !matches!(self, Content::Absent)
    }

    /// `true` for a tombstone.
    pub fn is_tombstone(&self) -> bool {
        matches!(self, Content::Tombstone)
    }

    /// Returns the live atom, if any.
    pub fn live(&self) -> Option<&A> {
        match self {
            Content::Live(a) => Some(a),
            _ => None,
        }
    }

    /// Precedence when state transfer meets a cell stored with other
    /// content: absent < ghost < live < tombstone (a tombstone never
    /// resurrects, a live atom outranks a structural ghost).
    pub fn rank(&self) -> u8 {
        match self {
            Content::Absent => 0,
            Content::Ghost => 1,
            Content::Live(_) => 2,
            Content::Tombstone => 3,
        }
    }

    /// Takes the live atom out, leaving the given replacement content.
    pub fn take_live(&mut self, replacement: Content<A>) -> Option<A> {
        if self.is_live() {
            match std::mem::replace(self, replacement) {
                Content::Live(a) => Some(a),
                _ => unreachable!(),
            }
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_and_string_sizes() {
        assert_eq!('a'.content_bytes(), 1);
        assert_eq!('é'.content_bytes(), 2);
        assert_eq!(String::from("hello").content_bytes(), 5);
        assert_eq!(vec![1u8, 2, 3].content_bytes(), 3);
    }

    #[test]
    fn line_split_round_trips() {
        let text = "alpha\nbeta\ngamma";
        let atoms = Granularity::Line.split(text);
        assert_eq!(atoms, vec!["alpha", "beta", "gamma"]);
        assert_eq!(Granularity::Line.join(&atoms), text);
    }

    #[test]
    fn paragraph_split_skips_blank_paragraphs() {
        let text = "first para\nstill first\n\nsecond para\n\n\nthird";
        let atoms = Granularity::Paragraph.split(text);
        assert_eq!(atoms.len(), 3);
        assert!(atoms[0].contains("still first"));
    }

    #[test]
    fn character_split_round_trips() {
        let text = "héllo";
        let atoms = Granularity::Character.split(text);
        assert_eq!(atoms.len(), 5);
        assert_eq!(Granularity::Character.join(&atoms), text);
    }

    #[test]
    fn empty_text_has_no_atoms() {
        assert!(Granularity::Line.split("").is_empty());
        assert!(Granularity::Character.split("").is_empty());
        assert!(Granularity::Paragraph.split("").is_empty());
    }
}
