//! Pattern entries translated into column dictionaries.
//!
//! The detection kernels of [`crate::stream`] translate pattern constants
//! into the per-column dictionaries of their shard source once per call,
//! after which every match test is a `u32` comparison.  A constant that
//! appears nowhere in its column ([`InternedEntry::Absent`]) can match no
//! cell — exactly the semantics of the value-level match operator `≍`,
//! short-circuited.

use crate::ecfd::SetPattern;
use crate::pattern::PatternValue;
use dq_relation::{Column, Value, ValueId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A CFD pattern entry translated into one column's dictionary.
#[derive(Clone, Copy, Debug)]
pub(crate) enum InternedEntry {
    /// The unnamed variable `_`: matches every cell.
    Wild,
    /// A constant present in the column, as its id.
    Id(ValueId),
    /// A constant absent from the column: matches no cell.
    Absent,
}

impl InternedEntry {
    /// Translates a pattern entry into `col`'s dictionary.
    pub(crate) fn of(p: &PatternValue, col: &Column) -> Self {
        match p {
            PatternValue::Any => InternedEntry::Wild,
            PatternValue::Const(v) => match col.interner().lookup(v) {
                Some(id) => InternedEntry::Id(id),
                None => InternedEntry::Absent,
            },
        }
    }

    /// Translates a whole entry list against positionally aligned columns.
    pub(crate) fn of_all(entries: &[PatternValue], cols: &[Arc<Column>]) -> Vec<InternedEntry> {
        entries
            .iter()
            .zip(cols)
            .map(|(p, c)| InternedEntry::of(p, c))
            .collect()
    }

    /// The match operator `≍` against a cell id.
    #[inline]
    pub(crate) fn matches(&self, id: ValueId) -> bool {
        match self {
            InternedEntry::Wild => true,
            InternedEntry::Id(x) => *x == id,
            InternedEntry::Absent => false,
        }
    }

    /// Componentwise match against the cells of `row`.
    #[inline]
    pub(crate) fn all_match_row(
        entries: &[InternedEntry],
        cols: &[Arc<Column>],
        row: usize,
    ) -> bool {
        entries
            .iter()
            .zip(cols)
            .all(|(e, c)| e.matches(c.id_at(row)))
    }
}

/// A [`SetPattern`] translated into one column's dictionary: member values
/// absent from the column are dropped (they can neither admit nor exclude
/// any cell), and the surviving ids are kept sorted for binary-search
/// membership tests.
#[derive(Clone, Debug)]
pub(crate) enum InternedSetPattern {
    Any,
    In(Vec<ValueId>),
    NotIn(Vec<ValueId>),
}

impl InternedSetPattern {
    /// Translates a set pattern into `col`'s dictionary.
    pub(crate) fn of(p: &SetPattern, col: &Column) -> Self {
        let translate = |s: &BTreeSet<Value>| {
            let mut ids: Vec<ValueId> = s.iter().filter_map(|v| col.interner().lookup(v)).collect();
            ids.sort_unstable();
            ids
        };
        match p {
            SetPattern::Any => InternedSetPattern::Any,
            SetPattern::In(s) => InternedSetPattern::In(translate(s)),
            SetPattern::NotIn(s) => InternedSetPattern::NotIn(translate(s)),
        }
    }

    /// Translates a whole entry list against positionally aligned columns.
    pub(crate) fn of_all(entries: &[SetPattern], cols: &[Arc<Column>]) -> Vec<Self> {
        entries
            .iter()
            .zip(cols)
            .map(|(p, c)| InternedSetPattern::of(p, c))
            .collect()
    }

    /// The generalized match operator against a cell id.
    #[inline]
    pub(crate) fn matches(&self, id: ValueId) -> bool {
        match self {
            InternedSetPattern::Any => true,
            InternedSetPattern::In(ids) => ids.binary_search(&id).is_ok(),
            InternedSetPattern::NotIn(ids) => ids.binary_search(&id).is_err(),
        }
    }

    /// Componentwise match against the cells of `row`.
    #[inline]
    pub(crate) fn all_match_row(entries: &[Self], cols: &[Arc<Column>], row: usize) -> bool {
        entries
            .iter()
            .zip(cols)
            .all(|(e, c)| e.matches(c.id_at(row)))
    }
}
