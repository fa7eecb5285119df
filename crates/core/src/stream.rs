//! The detection kernels: one per dependency class.
//!
//! Every CFD, eCFD and denial-constraint detection in this crate runs
//! through one of the kernels here.  Each kernel reads cells through a
//! [`ShardSource`] — an in-RAM columnar snapshot
//! ([`dq_relation::StoreShardSource`]) or a memory-mapped on-disk relation
//! ([`dq_relation::MappedRelation`]) — and takes the *groups* of its pair
//! pass as a stream of row slices, each holding the ≥ 2 rows that share one
//! key.  The caller picks where the groups come from:
//!
//! * the engine's warm path reads them off a pooled
//!   [`InternedIndex`](dq_relation::InternedIndex)
//!   ([`multi_group_rows`](dq_relation::InternedIndex::multi_group_rows));
//! * mapped relations and the unpooled conveniences (`Cfd::violations`,
//!   `detect_cfd_violations`, …) group with a two-scan count→collect over
//!   the shards, so resident memory stays bounded by O(dictionaries + one
//!   shard + grouping state + violation output).
//!
//! Pattern constants are translated into the column dictionaries once per
//! call and cells are compared as dictionary ids: equal ids are equal
//! values within one column.  Reports come out in canonical (sorted) order,
//! so every entry point produces the same bytes over the same logical
//! relation whichever backing and group source it uses.

use crate::cfd::{Cfd, CfdViolation};
use crate::denial::{DcTerm, DenialConstraint};
use crate::ecfd::{Ecfd, EcfdViolation, SetPattern};
use crate::interned::{InternedEntry, InternedSetPattern};
use dq_relation::{
    Column, CompOp, FxHashMap, FxHashSet, KeyCodec, ProjectionKey, ShardSource, TupleId, Value,
    ValueId,
};
use std::sync::Arc;

/// Groups row positions by their projection onto `attrs`, keeping only
/// groups of two or more rows (the only ones that can produce pair
/// violations).
///
/// Two scans: the first counts keys, the second collects member rows for
/// keys seen at least twice — so the collection phase allocates nothing for
/// the (typically dominant) singleton keys.  Member rows are in ascending
/// row order, matching the CSR group order of an interned index.
fn streamed_multi_groups(
    source: &dyn ShardSource,
    attrs: &[usize],
) -> FxHashMap<ProjectionKey, Vec<u32>> {
    let codec = KeyCodec::new(attrs.iter().map(|&a| source.column(a)).collect());
    let mut counts: FxHashMap<ProjectionKey, u32> = FxHashMap::default();
    for row in 0..source.len() {
        *counts.entry(codec.pack_row(row)).or_insert(0) += 1;
    }
    let mut groups: FxHashMap<ProjectionKey, Vec<u32>> = FxHashMap::default();
    for row in 0..source.len() {
        let key = codec.pack_row(row);
        if counts.get(&key).copied().unwrap_or(0) >= 2 {
            groups.entry(key).or_default().push(row as u32);
        }
    }
    groups
}

/// The current groups on `attrs` of the rows holding `affected` tuples,
/// streamed: one scan collects every row whose key an affected row carries.
/// Groups of a single row are dropped.
fn streamed_groups_of(
    source: &dyn ShardSource,
    attrs: &[usize],
    affected: &[TupleId],
) -> FxHashMap<ProjectionKey, Vec<u32>> {
    let codec = KeyCodec::new(attrs.iter().map(|&a| source.column(a)).collect());
    let keys: FxHashSet<ProjectionKey> = affected
        .iter()
        .filter_map(|&id| source.row_of(id))
        .map(|row| codec.pack_row(row))
        .collect();
    let mut groups: FxHashMap<ProjectionKey, Vec<u32>> = FxHashMap::default();
    if keys.is_empty() {
        return groups;
    }
    for row in 0..source.len() {
        let key = codec.pack_row(row);
        if keys.contains(&key) {
            groups.entry(key).or_default().push(row as u32);
        }
    }
    groups.retain(|_, rows| rows.len() >= 2);
    groups
}

/// Hints that every shard's pages may go (the kernels run one pass each).
fn release_all(source: &dyn ShardSource) {
    for shard in 0..source.shard_count() {
        source.release_shard(shard);
    }
}

/// Sub-partitions one group's tuples by a packed projection and emits every
/// pair straddling two sub-partitions once per pattern in `patterns`, in
/// `(smaller id, larger id)` orientation.  Within a group, two tuples
/// disagree on the projection exactly when they land in different
/// sub-partitions, so clean groups cost O(|group|) and only violating pairs
/// are enumerated.
fn emit_cross_pairs<V>(
    rows: &[u32],
    codec: &KeyCodec,
    source: &dyn ShardSource,
    by_proj: &mut FxHashMap<ProjectionKey, Vec<TupleId>>,
    patterns: &[usize],
    violation: impl Fn(usize, TupleId, TupleId) -> V,
    out: &mut Vec<V>,
) {
    by_proj.clear();
    for &row in rows {
        by_proj
            .entry(codec.pack_row(row as usize))
            .or_default()
            .push(source.tuple_id(row as usize));
    }
    if by_proj.len() < 2 {
        return; // the whole group agrees on the projection
    }
    let partitions: Vec<&Vec<TupleId>> = by_proj.values().collect();
    for (i, first_part) in partitions.iter().enumerate() {
        for second_part in &partitions[i + 1..] {
            for &a in *first_part {
                for &b in *second_part {
                    let (first, second) = if a < b { (a, b) } else { (b, a) };
                    for &p in patterns {
                        out.push(violation(p, first, second));
                    }
                }
            }
        }
    }
}

/// A CFD's tableau translated into the column dictionaries of a source.
struct InternedCfd {
    lhs_cols: Vec<Arc<Column>>,
    rhs_cols: Vec<Arc<Column>>,
    /// Per pattern: translated LHS and RHS entries.
    tableau: Vec<(Vec<InternedEntry>, Vec<InternedEntry>)>,
    /// Patterns with a constant in the RHS (the only ones single tuples can
    /// violate) whose LHS constants all occur in their columns.
    single_patterns: Vec<usize>,
}

impl InternedCfd {
    fn new(cfd: &Cfd, source: &dyn ShardSource) -> Self {
        let lhs_cols: Vec<Arc<Column>> = cfd.lhs().iter().map(|&a| source.column(a)).collect();
        let rhs_cols: Vec<Arc<Column>> = cfd.rhs().iter().map(|&a| source.column(a)).collect();
        let tableau: Vec<(Vec<InternedEntry>, Vec<InternedEntry>)> = cfd
            .tableau()
            .iter()
            .map(|tp| {
                (
                    InternedEntry::of_all(&tp.lhs, &lhs_cols),
                    InternedEntry::of_all(&tp.rhs, &rhs_cols),
                )
            })
            .collect();
        // An LHS constant absent from its column matches no row at all.
        let single_patterns = cfd
            .tableau()
            .iter()
            .zip(&tableau)
            .enumerate()
            .filter(|(_, (tp, (ilhs, _)))| {
                tp.rhs.iter().any(|p| !p.is_any())
                    && !ilhs.iter().any(|e| matches!(e, InternedEntry::Absent))
            })
            .map(|(i, _)| i)
            .collect();
        InternedCfd {
            lhs_cols,
            rhs_cols,
            tableau,
            single_patterns,
        }
    }

    /// Pushes the single-tuple violations of the tuple in `row`.
    fn singles_at(&self, source: &dyn ShardSource, row: usize, out: &mut Vec<CfdViolation>) {
        for &p in &self.single_patterns {
            let (ilhs, irhs) = &self.tableau[p];
            if InternedEntry::all_match_row(ilhs, &self.lhs_cols, row)
                && !InternedEntry::all_match_row(irhs, &self.rhs_cols, row)
            {
                out.push(CfdViolation::SingleTuple {
                    pattern: p,
                    tuple: source.tuple_id(row),
                });
            }
        }
    }

    /// The patterns whose LHS matches the group key of `witness` (any row of
    /// the group: they all carry its key).
    fn matching_patterns(&self, witness: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.tableau
                .iter()
                .enumerate()
                .filter(|(_, (ilhs, _))| {
                    InternedEntry::all_match_row(ilhs, &self.lhs_cols, witness)
                })
                .map(|(i, _)| i),
        );
    }
}

fn cfd_pair(pattern: usize, first: TupleId, second: TupleId) -> CfdViolation {
    CfdViolation::TuplePair {
        pattern,
        first,
        second,
    }
}

/// The CFD kernel: all violations of `cfd`, given the ≥ 2-row groups of
/// `source` on the CFD's LHS.
///
/// Pass 1 sweeps the shards for single-tuple violations of constant RHS
/// patterns; pass 2 partitions each group by its RHS projection and emits
/// the pairs that straddle two partitions, once per matching pattern.
pub(crate) fn cfd_kernel<'g>(
    cfd: &Cfd,
    source: &dyn ShardSource,
    groups: impl IntoIterator<Item = &'g [u32]>,
) -> Vec<CfdViolation> {
    let icfd = InternedCfd::new(cfd, source);
    let mut out = Vec::new();
    if !icfd.single_patterns.is_empty() {
        for row in 0..source.len() {
            icfd.singles_at(source, row, &mut out);
        }
    }
    let rhs_codec = KeyCodec::new(icfd.rhs_cols.clone());
    let mut by_rhs: FxHashMap<ProjectionKey, Vec<TupleId>> = FxHashMap::default();
    let mut patterns: Vec<usize> = Vec::new();
    for rows in groups {
        icfd.matching_patterns(rows[0] as usize, &mut patterns);
        if !patterns.is_empty() {
            emit_cross_pairs(
                rows,
                &rhs_codec,
                source,
                &mut by_rhs,
                &patterns,
                cfd_pair,
                &mut out,
            );
        }
    }
    release_all(source);
    out.sort_unstable();
    out
}

/// The CFD re-derive routine: every violation of `cfd` that involves at
/// least one tuple of `affected`, in canonical order.
///
/// `groups` must contain the current LHS group of every affected tuple that
/// shares its key with another row; groups without an affected member
/// contribute nothing.  A pair of two affected tuples is emitted once.
/// Affected ids that are no longer live are skipped.  Incremental detection
/// is this routine with the appended tuples as `affected`; maintenance
/// carries every violation without an affected member over and re-derives
/// the rest here.
pub(crate) fn cfd_rederive<'g>(
    cfd: &Cfd,
    source: &dyn ShardSource,
    affected: &[TupleId],
    groups: impl IntoIterator<Item = &'g [u32]>,
) -> Vec<CfdViolation> {
    let mut affected = affected.to_vec();
    affected.sort_unstable();
    affected.dedup();
    let is_affected = |id: &TupleId| affected.binary_search(id).is_ok();
    let icfd = InternedCfd::new(cfd, source);
    let mut out = Vec::new();
    for &id in &affected {
        if let Some(row) = source.row_of(id) {
            icfd.singles_at(source, row, &mut out);
        }
    }
    let rhs_codec = KeyCodec::new(icfd.rhs_cols.clone());
    let mut patterns: Vec<usize> = Vec::new();
    for rows in groups {
        icfd.matching_patterns(rows[0] as usize, &mut patterns);
        if patterns.is_empty() {
            continue;
        }
        let packed: Vec<(TupleId, ProjectionKey)> = rows
            .iter()
            .map(|&row| {
                let row = row as usize;
                (source.tuple_id(row), rhs_codec.pack_row(row))
            })
            .collect();
        for (aff, aff_rhs) in packed.iter().filter(|(id, _)| is_affected(id)) {
            for (other, other_rhs) in &packed {
                // A pair of two affected members would surface from both
                // sides — emit it from the smaller id only.
                if other == aff || other_rhs == aff_rhs || (other < aff && is_affected(other)) {
                    continue;
                }
                let (first, second) = if aff < other {
                    (*aff, *other)
                } else {
                    (*other, *aff)
                };
                for &p in &patterns {
                    out.push(cfd_pair(p, first, second));
                }
            }
        }
    }
    release_all(source);
    out.sort_unstable();
    out
}

/// The eCFD kernel: all violations of `ecfd`, given the ≥ 2-row groups of
/// `source` on the eCFD's LHS.
///
/// Same two passes as [`cfd_kernel`] with the generalized match operator.
/// Following [19], the functional (equality) requirement applies only to
/// RHS positions carrying the unnamed variable `_`; a set entry is a
/// per-tuple domain restriction (handled in the single-tuple pass) and does
/// not force two matching tuples to agree.
pub(crate) fn ecfd_kernel<'g>(
    ecfd: &Ecfd,
    source: &dyn ShardSource,
    groups: impl IntoIterator<Item = &'g [u32]>,
) -> Vec<EcfdViolation> {
    let lhs_cols: Vec<Arc<Column>> = ecfd.lhs().iter().map(|&a| source.column(a)).collect();
    let rhs_cols: Vec<Arc<Column>> = ecfd.rhs().iter().map(|&a| source.column(a)).collect();
    let tableau: Vec<(Vec<InternedSetPattern>, Vec<InternedSetPattern>)> = ecfd
        .tableau()
        .iter()
        .map(|tp| {
            (
                InternedSetPattern::of_all(&tp.lhs, &lhs_cols),
                InternedSetPattern::of_all(&tp.rhs, &rhs_cols),
            )
        })
        .collect();
    let mut out = Vec::new();
    // Pass 1: single-tuple violations of RHS set constraints.  An `∈ S`
    // entry whose members are all absent from the column matches no row.
    for (pattern, (tp, (ilhs, irhs))) in ecfd.tableau().iter().zip(&tableau).enumerate() {
        if tp.rhs.iter().all(|p| matches!(p, SetPattern::Any))
            || ilhs
                .iter()
                .any(|p| matches!(p, InternedSetPattern::In(ids) if ids.is_empty()))
        {
            continue;
        }
        for row in 0..source.len() {
            if InternedSetPattern::all_match_row(ilhs, &lhs_cols, row)
                && !InternedSetPattern::all_match_row(irhs, &rhs_cols, row)
            {
                out.push(EcfdViolation::SingleTuple {
                    pattern,
                    tuple: source.tuple_id(row),
                });
            }
        }
    }
    // Pass 2: pairs of matching tuples that disagree on the `_` positions.
    let codecs: Vec<Option<KeyCodec>> = ecfd
        .tableau()
        .iter()
        .map(|tp| {
            let equality_cols: Vec<Arc<Column>> = tp
                .rhs
                .iter()
                .zip(&rhs_cols)
                .filter(|(p, _)| matches!(p, SetPattern::Any))
                .map(|(_, c)| Arc::clone(c))
                .collect();
            (!equality_cols.is_empty()).then(|| KeyCodec::new(equality_cols))
        })
        .collect();
    let mut by_proj: FxHashMap<ProjectionKey, Vec<TupleId>> = FxHashMap::default();
    for rows in groups {
        for (pattern, ((ilhs, _), codec)) in tableau.iter().zip(&codecs).enumerate() {
            let Some(codec) = codec else { continue };
            if InternedSetPattern::all_match_row(ilhs, &lhs_cols, rows[0] as usize) {
                emit_cross_pairs(
                    rows,
                    codec,
                    source,
                    &mut by_proj,
                    &[pattern],
                    |pattern, first, second| EcfdViolation::TuplePair {
                        pattern,
                        first,
                        second,
                    },
                    &mut out,
                );
            }
        }
    }
    release_all(source);
    out.sort_unstable();
    out
}

/// One side of a compiled denial predicate.
enum Operand<'a> {
    /// The cell of tuple variable `var` in the attribute gathered into
    /// `slot`.
    Cell { var: usize, slot: usize },
    /// A constant.
    Const(&'a Value),
}

/// A denial predicate compiled against a shard source.
struct Pred<'a> {
    left: Operand<'a>,
    op: CompOp,
    right: Operand<'a>,
    /// `t_i[a] = t_j[a]` or `t_i[a] ≠ t_j[a]`: both cells come from one
    /// column, so comparing dictionary ids decides it (equal ids are equal
    /// values).  Everything else resolves both operands to values.
    by_id: bool,
}

/// The cells a batch of rows contributes to a denial constraint: one id
/// vector per referenced attribute, plus the rows' tuple ids.
#[derive(Default)]
struct Gathered {
    ids: Vec<Vec<ValueId>>,
    tuples: Vec<TupleId>,
}

/// A denial constraint compiled against the columns of a shard source.
struct CompiledDenial<'a> {
    /// Columns of the referenced attributes, one per slot.
    cols: Vec<Arc<Column>>,
    preds: Vec<Pred<'a>>,
}

impl<'a> CompiledDenial<'a> {
    fn new(dc: &'a DenialConstraint, source: &dyn ShardSource) -> Self {
        let mut attrs: Vec<usize> = Vec::new();
        let mut operand = |term: &'a DcTerm| match term {
            DcTerm::Attr { var, attr } => {
                let slot = attrs.iter().position(|a| a == attr).unwrap_or_else(|| {
                    attrs.push(*attr);
                    attrs.len() - 1
                });
                Operand::Cell { var: *var, slot }
            }
            DcTerm::Const(v) => Operand::Const(v),
        };
        let preds = dc
            .predicates
            .iter()
            .map(|p| {
                let (left, right) = (operand(&p.left), operand(&p.right));
                let by_id = matches!(p.op, CompOp::Eq | CompOp::Ne)
                    && matches!(
                        (&left, &right),
                        (Operand::Cell { slot: a, .. }, Operand::Cell { slot: b, .. }) if a == b
                    );
                Pred {
                    left,
                    op: p.op,
                    right,
                    by_id,
                }
            })
            .collect();
        let cols = attrs.iter().map(|&a| source.column(a)).collect();
        CompiledDenial { cols, preds }
    }

    /// Gathers the referenced cells of `rows` into `into`.
    fn gather(
        &self,
        source: &dyn ShardSource,
        rows: impl Iterator<Item = usize> + Clone,
        into: &mut Gathered,
    ) {
        into.ids.resize_with(self.cols.len(), Vec::new);
        for (ids, col) in into.ids.iter_mut().zip(&self.cols) {
            ids.clear();
            ids.extend(rows.clone().map(|row| col.id_at(row)));
        }
        into.tuples.clear();
        into.tuples.extend(rows.map(|row| source.tuple_id(row)));
    }

    /// The value of `operand` with tuple variable `v` bound to gathered
    /// position `pos[v]`.
    #[inline]
    fn value<'s>(&'s self, operand: &'s Operand<'a>, g: &Gathered, pos: &[usize]) -> &'s Value {
        match operand {
            Operand::Cell { var, slot } => {
                self.cols[*slot].interner().resolve(g.ids[*slot][pos[*var]])
            }
            Operand::Const(v) => v,
        }
    }

    /// Does the conjunction hold with tuple variable `v` bound to gathered
    /// position `pos[v]`?
    #[inline]
    fn holds(&self, g: &Gathered, pos: &[usize]) -> bool {
        self.preds.iter().all(|p| match (&p.left, &p.right) {
            (Operand::Cell { var: l, slot }, Operand::Cell { var: r, .. }) if p.by_id => {
                (g.ids[*slot][pos[*l]] == g.ids[*slot][pos[*r]]) == (p.op == CompOp::Eq)
            }
            (left, right) => {
                p.op.eval(self.value(left, g, pos), self.value(right, g, pos))
            }
        })
    }

    /// Pushes every violating pair of gathered positions: each unordered
    /// pair is evaluated once, with the smaller tuple id bound to the first
    /// variable (the reporting convention of the quadratic reference scan).
    fn pairs(&self, g: &Gathered, out: &mut Vec<Vec<TupleId>>) {
        let n = g.tuples.len();
        for i in 0..n {
            for j in i + 1..n {
                let (a, b) = if g.tuples[i] < g.tuples[j] {
                    (i, j)
                } else {
                    (j, i)
                };
                if self.holds(g, &[a, b]) {
                    out.push(vec![g.tuples[a], g.tuples[b]]);
                }
            }
        }
    }
}

/// The denial-constraint kernel: every violating tuple combination of `dc`,
/// in ascending order.
///
/// Single-variable constraints are one sweep of the shards.  Two-variable
/// constraints with attribute equalities
/// ([`pair_partition_attrs`](DenialConstraint::pair_partition_attrs)) only
/// fire inside one group on those attributes, so `groups` — the source's
/// ≥ 2-row groups on exactly those attributes — bounds the pair scan; other
/// two-variable constraints scan every pair and ignore `groups`.
///
/// # Panics
/// Panics for constraints with other than one or two tuple variables, on
/// every backing alike.
pub(crate) fn denial_kernel<'g>(
    dc: &DenialConstraint,
    source: &dyn ShardSource,
    groups: impl IntoIterator<Item = &'g [u32]>,
) -> Vec<Vec<TupleId>> {
    let compiled = CompiledDenial::new(dc, source);
    let mut gathered = Gathered::default();
    let mut out = Vec::new();
    match dc.vars {
        1 => {
            for shard in 0..source.shard_count() {
                compiled.gather(source, source.shard_range(shard), &mut gathered);
                for (pos, &id) in gathered.tuples.iter().enumerate() {
                    if compiled.holds(&gathered, &[pos]) {
                        out.push(vec![id]);
                    }
                }
                source.release_shard(shard);
            }
        }
        2 if dc.pair_partition_attrs().is_some() => {
            for rows in groups {
                compiled.gather(source, rows.iter().map(|&r| r as usize), &mut gathered);
                compiled.pairs(&gathered, &mut out);
            }
            release_all(source);
        }
        2 => {
            compiled.gather(source, 0..source.len(), &mut gathered);
            compiled.pairs(&gathered, &mut out);
            release_all(source);
        }
        n => panic!("denial constraints with {n} tuple variables are not supported"),
    }
    out.sort_unstable();
    out
}

/// All violations of `cfd` over a shard source, grouping with a streamed
/// count→collect over the shards.
pub fn cfd_violations_from_shards(cfd: &Cfd, source: &dyn ShardSource) -> Vec<CfdViolation> {
    let groups = streamed_multi_groups(source, cfd.lhs());
    cfd_kernel(cfd, source, groups.values().map(Vec::as_slice))
}

/// All violations of `ecfd` over a shard source, grouping with a streamed
/// count→collect over the shards.
pub(crate) fn ecfd_violations_from_shards(
    ecfd: &Ecfd,
    source: &dyn ShardSource,
) -> Vec<EcfdViolation> {
    let groups = streamed_multi_groups(source, ecfd.lhs());
    ecfd_kernel(ecfd, source, groups.values().map(Vec::as_slice))
}

/// All violations of `dc` over a shard source, grouping a pair-partitionable
/// constraint with a streamed count→collect over the shards.
///
/// # Panics
/// Panics for constraints with other than one or two tuple variables.
pub fn denial_violations_from_shards(
    dc: &DenialConstraint,
    source: &dyn ShardSource,
) -> Vec<Vec<TupleId>> {
    let groups = dc
        .pair_partition_attrs()
        .map(|attrs| streamed_multi_groups(source, &attrs))
        .unwrap_or_default();
    denial_kernel(dc, source, groups.values().map(Vec::as_slice))
}

/// The violations of `cfd` over a shard source that involve at least one
/// tuple of `added`, assuming the rest was already checked: the added
/// tuples' single-tuple violations and every pair in their current LHS
/// groups, streamed in one scan.
pub(crate) fn incremental_cfd_violations_from_shards(
    cfd: &Cfd,
    source: &dyn ShardSource,
    added: &[TupleId],
) -> Vec<CfdViolation> {
    let groups = streamed_groups_of(source, cfd.lhs(), added);
    cfd_rederive(cfd, source, added, groups.values().map(Vec::as_slice))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denial::DcPredicate;
    use crate::pattern::{cst, wild, PatternTuple};
    use dq_relation::{Domain, RelationInstance, RelationSchema, StoreShardSource};

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "cust",
            [
                ("cc", Domain::Int),
                ("ac", Domain::Int),
                ("city", Domain::Text),
                ("zip", Domain::Text),
            ],
        ))
    }

    fn instance(rows: &[(i64, i64, &str)]) -> RelationInstance {
        let mut inst = RelationInstance::new(schema());
        for &(cc, ac, city) in rows {
            inst.insert_values([
                Value::int(cc),
                Value::int(ac),
                Value::str(city),
                Value::str("z"),
            ])
            .unwrap();
        }
        inst
    }

    fn pair(pattern: usize, a: usize, b: usize) -> CfdViolation {
        cfd_pair(pattern, TupleId(a), TupleId(b))
    }

    #[test]
    fn cfd_kernel_reports_singles_and_cross_partition_pairs() {
        let inst = instance(&[
            (44, 1, "a"),
            (44, 1, "b"),
            (44, 1, "a"),
            (43, 2, "x"),
            (43, 2, "city0"),
        ]);
        let cfd = Cfd::new(
            &schema(),
            &["cc", "ac"],
            &["city"],
            vec![
                PatternTuple::new(vec![cst(44i64), wild()], vec![wild()]),
                PatternTuple::new(vec![cst(43i64), cst(2i64)], vec![cst("city0")]),
            ],
        )
        .unwrap();
        let source = StoreShardSource::new(&inst);
        assert_eq!(
            cfd_violations_from_shards(&cfd, &source),
            vec![
                CfdViolation::SingleTuple {
                    pattern: 1,
                    tuple: TupleId(3)
                },
                pair(0, 0, 1),
                pair(0, 1, 2),
                pair(1, 3, 4),
            ]
        );
        // The added tuple 2 only pairs with tuple 1; tuple 0 agrees with it.
        assert_eq!(
            incremental_cfd_violations_from_shards(&cfd, &source, &[TupleId(2)]),
            vec![pair(0, 1, 2)]
        );
        // Two affected members of one group emit their pair once.
        assert_eq!(
            incremental_cfd_violations_from_shards(&cfd, &source, &[TupleId(1), TupleId(0)]),
            vec![pair(0, 0, 1), pair(0, 1, 2)]
        );
    }

    #[test]
    fn absent_pattern_constants_match_nothing() {
        let inst = instance(&[(44, 1, "a"), (44, 1, "b")]);
        let ghost = Cfd::new(
            &schema(),
            &["cc"],
            &["city"],
            vec![PatternTuple::new(vec![cst(999i64)], vec![cst("Nowhere")])],
        )
        .unwrap();
        let source = StoreShardSource::new(&inst);
        assert!(cfd_violations_from_shards(&ghost, &source).is_empty());
    }

    #[test]
    fn denial_kernel_covers_every_shape() {
        let inst = instance(&[(44, 1, "a"), (44, 1, "b"), (43, 1, "a"), (42, 2, "c")]);
        let source = StoreShardSource::new(&inst);
        // FD-shaped: t1[ac] = t2[ac] ∧ t1[city] ≠ t2[city].
        let fd_shaped = DenialConstraint::new(
            "cust",
            2,
            vec![
                DcPredicate::new(DcTerm::attr(0, 1), CompOp::Eq, DcTerm::attr(1, 1)),
                DcPredicate::new(DcTerm::attr(0, 2), CompOp::Ne, DcTerm::attr(1, 2)),
            ],
        );
        let ids = |pairs: &[(usize, usize)]| -> Vec<Vec<TupleId>> {
            pairs
                .iter()
                .map(|&(a, b)| vec![TupleId(a), TupleId(b)])
                .collect()
        };
        assert_eq!(
            denial_violations_from_shards(&fd_shaped, &source),
            ids(&[(0, 1), (1, 2)])
        );
        // Asymmetric and not partitionable: t1[cc] > t2[cc], reported only
        // with the smaller id first.
        let ordered = DenialConstraint::new(
            "cust",
            2,
            vec![DcPredicate::new(
                DcTerm::attr(0, 0),
                CompOp::Gt,
                DcTerm::attr(1, 0),
            )],
        );
        assert_eq!(
            denial_violations_from_shards(&ordered, &source),
            ids(&[(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        );
        // Single variable against a constant.
        let single = DenialConstraint::new(
            "cust",
            1,
            vec![DcPredicate::new(
                DcTerm::attr(0, 0),
                CompOp::Le,
                DcTerm::val(43i64),
            )],
        );
        assert_eq!(
            denial_violations_from_shards(&single, &source),
            vec![vec![TupleId(2)], vec![TupleId(3)]]
        );
    }

    #[test]
    #[should_panic(expected = "denial constraints with 3 tuple variables are not supported")]
    fn denial_kernel_rejects_unsupported_arity() {
        let inst = instance(&[(44, 1, "a")]);
        let dc = DenialConstraint::new("cust", 3, vec![]);
        denial_violations_from_shards(&dc, &StoreShardSource::new(&inst));
    }
}
