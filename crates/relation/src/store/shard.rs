//! Shard-cursor access to a relation's columnar form.
//!
//! A [`ShardSource`] abstracts over *where the ids live*: an in-RAM
//! [`ColumnarStore`] snapshot of a live instance, or a persisted relation
//! whose id segments are memory-mapped ([`super::persist::MappedRelation`]).
//! Detection passes and partition builds that consume a `ShardSource`
//! advance shard-by-shard — dictionaries stay resident, ids page in and out
//! — so resident memory is bounded by O(dictionaries + one shard + output)
//! regardless of the instance size, and the *same* algorithm code runs
//! byte-identically over both backings (the property suites assert exactly
//! that).

use super::columnar::{Column, ColumnarStore, SHARD_ROWS};
use crate::instance::{RelationInstance, TupleId};
use crate::schema::RelationSchema;
use std::ops::Range;
use std::sync::Arc;

/// A relation seen as a sequence of fixed-size row shards of
/// dictionary-encoded columns.
pub trait ShardSource: Sync {
    /// The relation's schema.
    fn schema(&self) -> &Arc<RelationSchema>;

    /// Number of rows.
    fn len(&self) -> usize;

    /// Is the relation empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows per shard (the last shard may be shorter).
    fn shard_rows(&self) -> usize;

    /// Number of shards.
    fn shard_count(&self) -> usize {
        self.len().div_ceil(self.shard_rows().max(1)).max(1)
    }

    /// The row range of shard `shard`.
    fn shard_range(&self, shard: usize) -> Range<usize> {
        let per = self.shard_rows().max(1);
        (shard * per).min(self.len())..((shard + 1) * per).min(self.len())
    }

    /// The dictionary-encoded column of attribute `attr`.  For mapped
    /// sources the returned column's ids are backed by segment files and
    /// paged in on access.
    fn column(&self, attr: usize) -> Arc<Column>;

    /// The tuple id stored in row `row`.
    fn tuple_id(&self, row: usize) -> TupleId;

    /// The row position of a tuple id, if present.
    fn row_of(&self, id: TupleId) -> Option<usize>;

    /// Hints that a shard's pages are no longer needed (no-op for in-RAM
    /// sources).  Shard-cursor loops call this behind the cursor.
    fn release_shard(&self, _shard: usize) {}
}

/// [`ShardSource`] over an in-RAM columnar snapshot of a live instance —
/// the backing the detection kernels read in RAM, pooled or not.
pub struct StoreShardSource<'a> {
    instance: &'a RelationInstance,
    store: Arc<ColumnarStore>,
}

impl<'a> StoreShardSource<'a> {
    /// Wraps the instance's current columnar snapshot.
    pub fn new(instance: &'a RelationInstance) -> Self {
        let store = instance.columnar();
        StoreShardSource { instance, store }
    }

    /// Wraps an explicit snapshot of `instance`.
    pub fn with_store(instance: &'a RelationInstance, store: Arc<ColumnarStore>) -> Self {
        StoreShardSource { instance, store }
    }

    /// The underlying snapshot.
    pub fn store(&self) -> &Arc<ColumnarStore> {
        &self.store
    }
}

impl ShardSource for StoreShardSource<'_> {
    fn schema(&self) -> &Arc<RelationSchema> {
        self.instance.schema()
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn shard_rows(&self) -> usize {
        SHARD_ROWS
    }

    fn column(&self, attr: usize) -> Arc<Column> {
        self.store.column(self.instance, attr)
    }

    fn tuple_id(&self, row: usize) -> TupleId {
        self.store.tuple_id(row)
    }

    fn row_of(&self, id: TupleId) -> Option<usize> {
        self.store.row_of(id)
    }
}
