//! Stripped partitions and partition-based error measures.
//!
//! A partition `π_X` of a relation instance groups tuples by their values on
//! an attribute list `X`.  The *stripped* partition drops singleton classes —
//! they can never witness an FD violation and dropping them keeps products
//! cheap.  Partitions are the workhorse of level-wise dependency discovery
//! (TANE and its conditional descendants): an FD `X → A` holds exactly when
//! `π_X` and `π_{X ∪ {A}}` have the same error, and the `g3` error of a
//! candidate FD is the minimum number of tuples that must be removed for it
//! to hold, which doubles as an approximation measure.

use dq_relation::{
    Column, FxHashMap, InternedIndex, KeyCodec, ProjectionKey, RelationInstance, ShardSource,
    TupleId, Value,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A stripped partition: the equivalence classes of size ≥ 2 of a relation
/// instance under "agrees on `X`".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrippedPartition {
    /// Equivalence classes with at least two members, each sorted by tuple id.
    classes: Vec<Vec<TupleId>>,
    /// Number of tuples in the underlying instance.
    total: usize,
}

impl StrippedPartition {
    /// Derives the stripped partition directly from the CSR postings of an
    /// interned index on the same attribute list: every group of size ≥ 2
    /// *is* an equivalence class (group keys never need decoding), and row
    /// numbers translate to ascending tuple ids for free, and no group key
    /// is ever decoded.  The index on the empty attribute list yields a
    /// single class holding every tuple (if there are at least two).
    pub fn from_interned(index: &InternedIndex) -> Self {
        let mut classes: Vec<Vec<TupleId>> = index
            .group_rows_iter()
            .filter(|rows| rows.len() >= 2)
            // Rows ascend within a CSR group and tuple ids ascend with row
            // numbers, so each class arrives pre-sorted.
            .map(|rows| rows.iter().map(|&r| index.tuple_id(r)).collect())
            .collect();
        classes.sort();
        StrippedPartition {
            classes,
            total: index.store().len(),
        }
    }

    /// Builds the stripped partition over a shard source — an in-RAM
    /// snapshot or a memory-mapped relation — with a two-scan count→collect
    /// pass: the first scan counts packed keys, the second collects tuple
    /// ids only for keys seen at least twice, so singleton projections
    /// (typically the bulk) never allocate a class.  Produces exactly
    /// [`from_interned`](Self::from_interned)'s partition; resident memory
    /// is bounded by the dictionaries, the key tallies and the surviving
    /// classes.
    pub fn from_shards(source: &dyn ShardSource, attrs: &[usize]) -> Self {
        let cols: Vec<Arc<Column>> = attrs.iter().map(|&a| source.column(a)).collect();
        let codec = KeyCodec::new(cols);
        let mut counts: FxHashMap<ProjectionKey, u32> = FxHashMap::default();
        for shard in 0..source.shard_count() {
            for row in source.shard_range(shard) {
                *counts.entry(codec.pack_row(row)).or_insert(0) += 1;
            }
        }
        let mut groups: FxHashMap<ProjectionKey, Vec<TupleId>> = FxHashMap::default();
        for shard in 0..source.shard_count() {
            for row in source.shard_range(shard) {
                let key = codec.pack_row(row);
                if counts.get(&key).copied().unwrap_or(0) >= 2 {
                    groups.entry(key).or_default().push(source.tuple_id(row));
                }
            }
            source.release_shard(shard);
        }
        // Rows ascend within the scan and tuple ids ascend with row numbers,
        // so each class arrives pre-sorted; only the class list needs a sort.
        let mut classes: Vec<Vec<TupleId>> = groups.into_values().collect();
        classes.sort();
        StrippedPartition {
            classes,
            total: source.len(),
        }
    }

    /// Constructs a partition directly from classes (used by [`product`]).
    ///
    /// [`product`]: StrippedPartition::product
    fn from_classes(mut classes: Vec<Vec<TupleId>>, total: usize) -> Self {
        for class in &mut classes {
            class.sort();
        }
        classes.retain(|c| c.len() >= 2);
        classes.sort();
        StrippedPartition { classes, total }
    }

    /// The equivalence classes of size ≥ 2.
    pub fn classes(&self) -> &[Vec<TupleId>] {
        &self.classes
    }

    /// Number of non-singleton classes, `|π|` in TANE notation (singletons
    /// stripped).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// `‖π‖`: the number of tuples that live in a non-singleton class.
    pub fn size(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Number of tuples in the underlying instance.
    pub fn total_tuples(&self) -> usize {
        self.total
    }

    /// The TANE error `e(π) = ‖π‖ − |π|`: the minimum number of tuples that
    /// must be removed so that every remaining class is a singleton — i.e.
    /// so that `X` becomes a key of the non-singleton part.
    pub fn error(&self) -> usize {
        self.size() - self.class_count()
    }

    /// Whether `X` (this partition's attribute list) is a superkey: every
    /// class is a singleton, so the stripped partition is empty.
    pub fn is_superkey(&self) -> bool {
        self.classes.is_empty()
    }

    /// The product `π_X · π_Y = π_{X ∪ Y}`: refines this partition by
    /// `other`, splitting every class of `self` by the class (or singleton)
    /// of `other` each member belongs to.
    pub fn product(&self, other: &StrippedPartition) -> StrippedPartition {
        self.product_with(other, &mut PartitionProber::new())
    }

    /// [`product`](Self::product) over a caller-owned [`PartitionProber`]:
    /// the tuple → class probe table and the per-class gather buckets are
    /// reused across calls, so the inner loop of level-wise discovery (one
    /// product per candidate) allocates nothing once warm.
    pub fn product_with(
        &self,
        other: &StrippedPartition,
        prober: &mut PartitionProber,
    ) -> StrippedPartition {
        // Stamp every tuple of a non-singleton class of `other` with its
        // class index; tuples outside are singletons there and stay
        // singletons in the product.
        let epoch = prober.begin(other.classes.len());
        for (idx, class) in other.classes.iter().enumerate() {
            for &id in class {
                prober.stamp(id, idx as u32, epoch);
            }
        }
        let mut out: Vec<Vec<TupleId>> = Vec::new();
        for class in &self.classes {
            for &id in class {
                if let Some(idx) = prober.class_of(id, epoch) {
                    let bucket = &mut prober.buckets[idx as usize];
                    if bucket.is_empty() {
                        prober.touched.push(idx);
                    }
                    bucket.push(id);
                }
            }
            for &idx in &prober.touched {
                let bucket = &mut prober.buckets[idx as usize];
                if bucket.len() >= 2 {
                    out.push(bucket.clone());
                }
                bucket.clear();
            }
            prober.touched.clear();
        }
        StrippedPartition::from_classes(out, self.total)
    }

    /// Whether the FD `X → Y` holds, where `self` is `π_X` and `with_rhs` is
    /// `π_{X ∪ Y}`: the FD holds iff refining by `Y` does not split any
    /// class, i.e. the two partitions have the same error.
    pub fn implies_with(&self, with_rhs: &StrippedPartition) -> bool {
        self.error() == with_rhs.error()
    }
}

/// Reusable scratch for [`StrippedPartition::product_with`]: an
/// epoch-stamped tuple-id → class probe table (no clearing between
/// products) plus the per-class gather buckets.  One prober serves an
/// entire discovery run.
#[derive(Debug, Default)]
pub struct PartitionProber {
    /// Class index of each tuple id in the current `other` partition.
    class_of: Vec<u32>,
    /// Epoch at which `class_of` was last written per tuple; stale stamps
    /// mean "singleton in `other`".
    stamps: Vec<u32>,
    epoch: u32,
    /// One gather bucket per class of `other`, cleared after each class of
    /// `self` (capacity is retained across products).
    buckets: Vec<Vec<TupleId>>,
    /// Bucket indexes touched while splitting the current class.
    touched: Vec<u32>,
}

impl PartitionProber {
    /// A fresh prober.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new product: advances the epoch (resetting all stamps on
    /// the rare wrap-around) and ensures at least `classes` buckets exist.
    fn begin(&mut self, classes: usize) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        if self.buckets.len() < classes {
            self.buckets.resize_with(classes, Vec::new);
        }
        self.epoch
    }

    #[inline]
    fn stamp(&mut self, id: TupleId, class: u32, epoch: u32) {
        if self.class_of.len() <= id.0 {
            self.class_of.resize(id.0 + 1, 0);
            self.stamps.resize(id.0 + 1, 0);
        }
        self.class_of[id.0] = class;
        self.stamps[id.0] = epoch;
    }

    #[inline]
    fn class_of(&self, id: TupleId, epoch: u32) -> Option<u32> {
        match self.stamps.get(id.0) {
            Some(&stamp) if stamp == epoch => Some(self.class_of[id.0]),
            _ => None,
        }
    }
}

/// The `g1` error of the FD `X → Y` on `instance`: the fraction of tuple
/// *pairs* that violate the FD (agree on `X` but disagree on `Y`), over all
/// ordered pairs of distinct tuples.  `0.0` means the FD holds exactly.
pub fn g1_error(instance: &RelationInstance, lhs: &[usize], rhs: &[usize]) -> f64 {
    let n = instance.len();
    if n < 2 {
        return 0.0;
    }
    let mut groups: HashMap<Vec<Value>, HashMap<Vec<Value>, usize>> = HashMap::new();
    for (_, tuple) in instance.iter() {
        *groups
            .entry(tuple.project(lhs))
            .or_default()
            .entry(tuple.project(rhs))
            .or_default() += 1;
    }
    let mut violating_pairs = 0usize;
    for rhs_counts in groups.values() {
        let group_size: usize = rhs_counts.values().sum();
        let same_rhs_pairs: usize = rhs_counts.values().map(|c| c * (c - 1)).sum();
        violating_pairs += group_size * (group_size - 1) - same_rhs_pairs;
    }
    violating_pairs as f64 / (n * (n - 1)) as f64
}

/// The `g3` error of the FD `X → Y`: the minimum fraction of tuples that
/// must be deleted for the FD to hold — within every `X`-group all tuples
/// except those carrying the most frequent `Y`-value must go.  `index` is
/// an interned index on `X`: group sizes come straight from the CSR layout
/// and the per-group `Y` tallies count packed id keys (machine words)
/// instead of materialized `Vec<Value>` projections.
pub fn g3_error_interned(index: &InternedIndex, instance: &RelationInstance, rhs: &[usize]) -> f64 {
    let n = index.store().len();
    if n == 0 {
        return 0.0;
    }
    let store = index.store();
    let rhs_cols: Vec<Arc<Column>> = rhs.iter().map(|&a| store.column(instance, a)).collect();
    let codec = KeyCodec::new(rhs_cols);
    let mut removed = 0usize;
    let mut counts: FxHashMap<ProjectionKey, usize> = FxHashMap::default();
    // Singleton groups keep their lone tuple, so only multi-row groups can
    // force removals.
    for rows in index.group_rows_iter().filter(|rows| rows.len() >= 2) {
        counts.clear();
        for &row in rows {
            *counts.entry(codec.pack_row(row as usize)).or_insert(0) += 1;
        }
        let keep = counts.values().copied().max().unwrap_or(0);
        removed += rows.len() - keep;
    }
    removed as f64 / n as f64
}

/// [`g3_error_interned`] over a shard source: a count scan finds the
/// multi-row `X`-groups, then a second scan tallies packed `Y`-keys per
/// such group.  Singleton groups force no removals, so skipping them
/// changes nothing — the arithmetic is identical to [`g3_error_interned`].
pub fn g3_error_from_shards(source: &dyn ShardSource, lhs: &[usize], rhs: &[usize]) -> f64 {
    let n = source.len();
    if n == 0 {
        return 0.0;
    }
    let lhs_codec = KeyCodec::new(lhs.iter().map(|&a| source.column(a)).collect());
    let rhs_codec = KeyCodec::new(rhs.iter().map(|&a| source.column(a)).collect());
    let mut counts: FxHashMap<ProjectionKey, u32> = FxHashMap::default();
    for shard in 0..source.shard_count() {
        for row in source.shard_range(shard) {
            *counts.entry(lhs_codec.pack_row(row)).or_insert(0) += 1;
        }
    }
    let mut tallies: FxHashMap<ProjectionKey, FxHashMap<ProjectionKey, usize>> =
        FxHashMap::default();
    for shard in 0..source.shard_count() {
        for row in source.shard_range(shard) {
            let key = lhs_codec.pack_row(row);
            if counts.get(&key).copied().unwrap_or(0) >= 2 {
                *tallies
                    .entry(key)
                    .or_default()
                    .entry(rhs_codec.pack_row(row))
                    .or_insert(0) += 1;
            }
        }
        source.release_shard(shard);
    }
    let mut removed = 0usize;
    for rhs_counts in tallies.values() {
        let group_size: usize = rhs_counts.values().sum();
        let keep = rhs_counts.values().copied().max().unwrap_or(0);
        removed += group_size - keep;
    }
    removed as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::{Domain, RelationSchema};
    use std::sync::Arc;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "r",
            vec![("a", Domain::Text), ("b", Domain::Text), ("c", Domain::Int)],
        ))
    }

    fn instance(rows: &[(&str, &str, i64)]) -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for (a, b, c) in rows {
            inst.insert_values(vec![Value::str(*a), Value::str(*b), Value::int(*c)])
                .unwrap();
        }
        inst
    }

    fn index(inst: &RelationInstance, attrs: &[usize]) -> InternedIndex {
        InternedIndex::build(inst, &inst.columnar(), attrs, 1)
    }

    fn partition(inst: &RelationInstance, attrs: &[usize]) -> StrippedPartition {
        StrippedPartition::from_interned(&index(inst, attrs))
    }

    fn g3(inst: &RelationInstance, lhs: &[usize], rhs: &[usize]) -> f64 {
        g3_error_interned(&index(inst, lhs), inst, rhs)
    }

    #[test]
    fn from_interned_groups_by_projection() {
        let inst = instance(&[("x", "p", 1), ("x", "q", 2), ("y", "p", 3)]);
        let pa = partition(&inst, &[0]);
        assert_eq!(pa.classes(), [vec![TupleId(0), TupleId(1)]]);
        assert_eq!(pa.class_count(), 1);
        assert_eq!(pa.size(), 2);
        assert_eq!(pa.error(), 1);
        let pb = partition(&inst, &[1]);
        assert_eq!(pb.classes(), [vec![TupleId(0), TupleId(2)]]);
        let pc = partition(&inst, &[2]);
        assert!(pc.is_superkey());
    }

    #[test]
    fn empty_attribute_list_is_one_class() {
        let inst = instance(&[("x", "p", 1), ("y", "q", 2), ("z", "r", 3)]);
        let p = partition(&inst, &[]);
        assert_eq!(p.class_count(), 1);
        assert_eq!(p.size(), 3);
        assert_eq!(p.error(), 2);
    }

    #[test]
    fn product_equals_direct_partition() {
        let inst = instance(&[
            ("x", "p", 1),
            ("x", "p", 1),
            ("x", "q", 1),
            ("y", "p", 2),
            ("y", "p", 2),
        ]);
        let product = partition(&inst, &[0]).product(&partition(&inst, &[1]));
        assert_eq!(product, partition(&inst, &[0, 1]));
        assert_eq!(
            product.classes(),
            dq_oracle::discovery::partition_classes(&inst, &[0, 1])
        );
    }

    #[test]
    fn product_is_commutative() {
        let inst = instance(&[
            ("x", "p", 1),
            ("x", "q", 2),
            ("x", "q", 3),
            ("y", "q", 4),
            ("y", "q", 5),
            ("y", "p", 6),
        ]);
        let pa = partition(&inst, &[0]);
        let pb = partition(&inst, &[1]);
        assert_eq!(pa.product(&pb), pb.product(&pa));
    }

    #[test]
    fn fd_detection_via_error_equality() {
        // a -> b holds; b -> a does not.
        let inst = instance(&[("x", "p", 1), ("x", "p", 2), ("y", "p", 3), ("z", "q", 4)]);
        assert!(partition(&inst, &[0]).implies_with(&partition(&inst, &[0, 1])));
        assert!(!partition(&inst, &[1]).implies_with(&partition(&inst, &[1, 0])));
    }

    #[test]
    fn g1_zero_iff_fd_holds() {
        let holds = instance(&[("x", "p", 1), ("x", "p", 2), ("y", "q", 3)]);
        assert_eq!(g1_error(&holds, &[0], &[1]), 0.0);
        let fails = instance(&[("x", "p", 1), ("x", "q", 2)]);
        assert!(g1_error(&fails, &[0], &[1]) > 0.0);
    }

    #[test]
    fn g3_counts_minimum_removals() {
        // Group "x" has b-values p,p,q: one removal fixes it.  4 tuples total.
        let inst = instance(&[("x", "p", 1), ("x", "p", 2), ("x", "q", 3), ("y", "r", 4)]);
        assert_eq!(g3(&inst, &[0], &[1]), 0.25);
    }

    #[test]
    fn g3_zero_on_empty_and_satisfying() {
        let empty = RelationInstance::new(schema());
        assert_eq!(g3(&empty, &[0], &[1]), 0.0);
        let holds = instance(&[("x", "p", 1), ("y", "q", 2)]);
        assert_eq!(g3(&holds, &[0], &[1]), 0.0);
    }

    #[test]
    fn from_shards_matches_the_oracle() {
        let inst = instance(&[
            ("x", "p", 1),
            ("x", "p", 1),
            ("x", "q", 1),
            ("y", "p", 2),
            ("y", "p", 2),
            ("z", "q", 3),
        ]);
        let source = dq_relation::StoreShardSource::new(&inst);
        for attrs in [&[0usize][..], &[1], &[2], &[0, 1], &[0, 1, 2], &[]] {
            let expected = dq_oracle::discovery::partition_classes(&inst, attrs);
            assert_eq!(
                StrippedPartition::from_shards(&source, attrs).classes(),
                expected,
                "attrs {attrs:?}"
            );
            assert_eq!(
                partition(&inst, attrs).classes(),
                expected,
                "attrs {attrs:?}"
            );
        }
    }

    #[test]
    fn g3_on_both_backings_matches_the_oracle() {
        let inst = instance(&[("x", "p", 1), ("x", "p", 2), ("x", "q", 3), ("y", "r", 4)]);
        let source = dq_relation::StoreShardSource::new(&inst);
        for (lhs, rhs) in [
            (&[0usize][..], &[1usize][..]),
            (&[1], &[0]),
            (&[0, 1], &[2]),
            (&[2], &[0]),
        ] {
            let expected = dq_oracle::discovery::g3_error(&inst, lhs, rhs);
            assert_eq!(
                g3_error_from_shards(&source, lhs, rhs),
                expected,
                "{lhs:?} -> {rhs:?}"
            );
            assert_eq!(g3(&inst, lhs, rhs), expected, "{lhs:?} -> {rhs:?}");
        }
    }

    #[test]
    fn superkey_partition_has_no_classes() {
        let inst = instance(&[("x", "p", 1), ("y", "p", 2), ("z", "p", 3)]);
        let p = partition(&inst, &[0]);
        assert!(p.is_superkey());
        assert_eq!(p.error(), 0);
    }
}
