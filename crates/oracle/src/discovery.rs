//! Value-level reference miners for FD, CFD, IND and CIND discovery.
//!
//! `dq-discovery` mines over stripped partitions and pooled interned
//! indexes and fans every lattice level out across a thread pool.  The
//! miners here are the sequential definitions its output is checked
//! against: partitions are `Vec<Value>`-keyed hash groupings, the `g3`
//! error counts value projections, inclusion compares value sets under
//! `Eq`, and every search visits its candidates in the same canonical
//! order the production miners merge into — so the discovered sets, their
//! order and the candidate tallies compare with `==`.

use dq_core::{Cfd, Cind, CindPattern, Fd, Ind, PatternTuple, PatternValue};
use dq_relation::{Database, DqResult, RelationInstance, Tuple, TupleId, Value};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The canonical order of group keys: `Value`'s `Ord` compares mixed
/// numerics (`Int(3)` vs `Real(3.0)`) as equal while `Eq` distinguishes
/// them, so `Ord`-equal but distinct keys are ordered by their debug
/// rendering.
fn canonical_order(a: &[Value], b: &[Value]) -> Ordering {
    a.cmp(b)
        .then_with(|| format!("{a:?}").cmp(&format!("{b:?}")))
}

/// All subsets of `attrs` with exactly `size` elements, in lexicographic
/// order of positions.
fn subsets_of_size(attrs: &[usize], size: usize) -> Vec<Vec<usize>> {
    if size == 0 || size > attrs.len() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(size);
    fn extend(
        attrs: &[usize],
        start: usize,
        size: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == size {
            out.push(current.clone());
            return;
        }
        for i in start..attrs.len() {
            current.push(attrs[i]);
            extend(attrs, i + 1, size, current, out);
            current.pop();
        }
    }
    extend(attrs, 0, size, &mut current, &mut out);
    out
}

/// Tuples grouped by their projection on `attrs`, as positions into
/// `tuples`, with at least `min_size` members, in canonical key order.
fn groups(tuples: &[Tuple], attrs: &[usize], min_size: usize) -> Vec<(Vec<Value>, Vec<usize>)> {
    let mut by_key: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (pos, tuple) in tuples.iter().enumerate() {
        by_key.entry(tuple.project(attrs)).or_default().push(pos);
    }
    let mut out: Vec<(Vec<Value>, Vec<usize>)> = by_key
        .into_iter()
        .filter(|(_, members)| members.len() >= min_size)
        .collect();
    out.sort_by(|a, b| canonical_order(&a.0, &b.0));
    out
}

/// Do all `members` agree on `attrs`?
fn agree(tuples: &[Tuple], members: &[usize], attrs: &[usize]) -> bool {
    let first = tuples[members[0]].project(attrs);
    members.iter().all(|&m| tuples[m].project(attrs) == first)
}

/// The stripped partition of `instance` on `attrs`: the classes of at
/// least two tuples agreeing on `attrs`, each sorted by tuple id, the list
/// sorted.  The empty attribute list puts every tuple in one class.
pub fn partition_classes(instance: &RelationInstance, attrs: &[usize]) -> Vec<Vec<TupleId>> {
    let mut by_key: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::new();
    for (id, tuple) in instance.iter() {
        by_key.entry(tuple.project(attrs)).or_default().push(id);
    }
    let mut classes: Vec<Vec<TupleId>> = by_key
        .into_values()
        .filter(|class| class.len() >= 2)
        .collect();
    for class in &mut classes {
        class.sort();
    }
    classes.sort();
    classes
}

/// The `g3` error of the FD `X → Y` on `instance`: the minimum fraction of
/// tuples that must be deleted for the FD to hold.  Within every `X`-group
/// all tuples except those carrying the most frequent `Y`-value must go.
pub fn g3_error(instance: &RelationInstance, lhs: &[usize], rhs: &[usize]) -> f64 {
    let n = instance.len();
    if n == 0 {
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
    let mut removed = 0usize;
    for rhs_counts in groups.values() {
        let group_size: usize = rhs_counts.values().sum();
        let keep = rhs_counts.values().copied().max().unwrap_or(0);
        removed += group_size - keep;
    }
    removed as f64 / n as f64
}

/// Parameters of [`discover_fds`], mirroring `dq-discovery`'s
/// `FdDiscoveryConfig`.
#[derive(Clone, Debug, Default)]
pub struct FdSearch {
    /// Maximum size of the left-hand side.
    pub max_lhs: usize,
    /// Maximum admissible `g3` error; `0.0` (or less) asks for exact FDs.
    pub max_g3: f64,
    /// Attributes excluded from both sides.
    pub exclude: Vec<usize>,
}

/// The result of [`discover_fds`].
#[derive(Clone, Debug)]
pub struct FoundFds {
    /// Minimal FDs, one right-hand-side attribute each.
    pub fds: Vec<Fd>,
    /// Candidate FDs validated against the data.
    pub candidates_checked: usize,
}

/// Minimal (approximate) FDs of `instance` by their definition: every LHS
/// set up to `max_lhs` in level and lexicographic order, every RHS
/// attribute outside it in ascending order, skipping a candidate `X → A`
/// exactly when an FD `Y → A` with `Y ⊆ X` was already found.  A candidate
/// holds when no `X`-group disagrees on `A` (exact) or when its `g3` error
/// is at most `max_g3`.
pub fn discover_fds(instance: &RelationInstance, search: &FdSearch) -> FoundFds {
    let schema = instance.schema();
    let attrs: Vec<usize> = (0..schema.arity())
        .filter(|a| !search.exclude.contains(a))
        .collect();
    let tuples: Vec<Tuple> = instance.iter().map(|(_, t)| t.clone()).collect();
    let mut found: Vec<(Vec<usize>, usize)> = Vec::new();
    let mut candidates_checked = 0usize;
    let max_lhs = search.max_lhs.min(attrs.len().saturating_sub(1)).max(1);
    for level in 1..=max_lhs {
        for lhs in subsets_of_size(&attrs, level) {
            let lhs_groups = groups(&tuples, &lhs, 1);
            for &rhs in &attrs {
                if lhs.contains(&rhs)
                    || found
                        .iter()
                        .any(|(l, r)| *r == rhs && l.iter().all(|a| lhs.contains(a)))
                {
                    continue;
                }
                candidates_checked += 1;
                let holds = if search.max_g3 <= 0.0 {
                    lhs_groups
                        .iter()
                        .all(|(_, members)| agree(&tuples, members, &[rhs]))
                } else {
                    g3_error(instance, &lhs, &[rhs]) <= search.max_g3
                };
                if holds {
                    found.push((lhs.clone(), rhs));
                }
            }
        }
    }
    FoundFds {
        fds: found
            .into_iter()
            .map(|(lhs, rhs)| Fd::from_indices(schema, lhs, vec![rhs]))
            .collect(),
        candidates_checked,
    }
}

/// Parameters of the CFD miners, mirroring `dq-discovery`'s
/// `CfdDiscoveryConfig` (without its thread budget and minimal-cover
/// post-pass).
#[derive(Clone, Debug)]
pub struct CfdSearch {
    /// Minimum number of tuples a pattern tuple must match.
    pub min_support: usize,
    /// Maximum size of embedded-FD left-hand sides.
    pub max_lhs: usize,
    /// Maximum number of constants in a variable-CFD pattern's LHS.
    pub max_condition_attrs: usize,
    /// Maximum `g3` error of an embedded FD worth conditioning.
    pub max_candidate_g3: f64,
    /// Cap on the pattern tuples collected per dependency.
    pub max_tableau: usize,
    /// Attributes excluded from discovery.
    pub exclude: Vec<usize>,
}

/// The result of [`discover_cfds`].
#[derive(Clone, Debug)]
pub struct FoundCfds {
    /// Exact FDs as all-wildcard CFDs, then mined conditional tableaux.
    pub variable_cfds: Vec<Cfd>,
    /// Constant CFDs.
    pub constant_cfds: Vec<Cfd>,
    /// Candidate FDs and conditioned embedded FDs validated.
    pub candidates_checked: usize,
}

/// Whether the LHS pattern `a` matches every tuple `b` matches.
fn lhs_more_general(a: &[PatternValue], b: &[PatternValue]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(pa, pb)| pa.is_any() || pa == pb)
}

/// A pattern tableau for the embedded FD `fd`: condition-position sets in
/// order of their constant count, groups in canonical key order, keeping
/// the most general patterns under which the FD holds on at least
/// `min_support` tuples.  The tableau cap is checked after each accepted
/// pattern and ends the current condition set only.
pub fn discover_tableau_for_fd(
    instance: &RelationInstance,
    fd: &Fd,
    search: &CfdSearch,
) -> Option<Cfd> {
    let tuples: Vec<Tuple> = instance.iter().map(|(_, t)| t.clone()).collect();
    let (lhs, rhs) = (fd.lhs(), fd.rhs());
    let positions: Vec<usize> = (0..lhs.len()).collect();
    let mut accepted: Vec<PatternTuple> = Vec::new();
    for constants in 0..=search.max_condition_attrs.min(lhs.len()) {
        if accepted.len() >= search.max_tableau {
            break;
        }
        let position_sets = if constants == 0 {
            vec![Vec::new()]
        } else {
            subsets_of_size(&positions, constants)
        };
        for cond_positions in position_sets {
            let cond_attrs: Vec<usize> = cond_positions.iter().map(|&p| lhs[p]).collect();
            for (cond_values, members) in groups(&tuples, &cond_attrs, search.min_support) {
                let lhs_pattern: Vec<PatternValue> = (0..lhs.len())
                    .map(|p| match cond_positions.iter().position(|&c| c == p) {
                        Some(i) => PatternValue::Const(cond_values[i].clone()),
                        None => PatternValue::Any,
                    })
                    .collect();
                if accepted
                    .iter()
                    .any(|a| lhs_more_general(&a.lhs, &lhs_pattern))
                {
                    continue;
                }
                let mut by_lhs: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
                let holds = members.iter().all(|&m| {
                    let value = tuples[m].project(rhs);
                    by_lhs
                        .entry(tuples[m].project(lhs))
                        .or_insert(value.clone())
                        == &value
                });
                if !holds {
                    continue;
                }
                let rhs_pattern: Vec<PatternValue> =
                    if !cond_positions.is_empty() && agree(&tuples, &members, rhs) {
                        tuples[members[0]]
                            .project(rhs)
                            .into_iter()
                            .map(PatternValue::Const)
                            .collect()
                    } else {
                        vec![PatternValue::Any; rhs.len()]
                    };
                accepted.push(PatternTuple::new(lhs_pattern, rhs_pattern));
                if accepted.len() >= search.max_tableau {
                    break;
                }
            }
        }
    }
    if accepted.is_empty() {
        return None;
    }
    accepted.sort_by_key(|tp| format!("{tp}"));
    accepted.dedup();
    Cfd::from_indices(instance.schema(), lhs.to_vec(), rhs.to_vec(), accepted).ok()
}

/// Constant CFDs: for every LHS set up to `max_lhs` (level and
/// lexicographic order) and every group of at least `min_support` tuples
/// (canonical key order), each attribute on which the group agrees yields
/// the pattern `lhs values → constant` — unless a sub-condition one
/// attribute shorter already forces the same constant on at least
/// `min_support` tuples.  Patterns merge into one tableau per
/// `(LHS, RHS)`, capped at `max_tableau`.
pub fn discover_constant_cfds(instance: &RelationInstance, search: &CfdSearch) -> Vec<Cfd> {
    let schema = instance.schema();
    let attrs: Vec<usize> = (0..schema.arity())
        .filter(|a| !search.exclude.contains(a))
        .collect();
    let tuples: Vec<Tuple> = instance.iter().map(|(_, t)| t.clone()).collect();
    let mut tableaux: BTreeMap<(Vec<usize>, usize), Vec<PatternTuple>> = BTreeMap::new();
    for size in 1..=search.max_lhs.min(attrs.len()) {
        for lhs in subsets_of_size(&attrs, size) {
            for (lhs_values, members) in groups(&tuples, &lhs, search.min_support) {
                for &rhs in &attrs {
                    if lhs.contains(&rhs) || !agree(&tuples, &members, &[rhs]) {
                        continue;
                    }
                    let value = tuples[members[0]].get(rhs);
                    if size >= 2
                        && is_redundant_constant_pattern(
                            &tuples,
                            &lhs,
                            &lhs_values,
                            rhs,
                            value,
                            search.min_support,
                        )
                    {
                        continue;
                    }
                    let entry = tableaux.entry((lhs.clone(), rhs)).or_default();
                    if entry.len() < search.max_tableau {
                        entry.push(PatternTuple::new(
                            lhs_values
                                .iter()
                                .cloned()
                                .map(PatternValue::Const)
                                .collect(),
                            vec![PatternValue::Const(value.clone())],
                        ));
                    }
                }
            }
        }
    }
    tableaux
        .into_iter()
        .filter_map(|((lhs, rhs), mut tableau)| {
            tableau.sort_by_key(|tp| format!("{tp}"));
            tableau.dedup();
            Cfd::from_indices(schema, lhs, vec![rhs], tableau).ok()
        })
        .collect()
}

/// Whether some condition one attribute shorter than `lhs = lhs_values`
/// already forces `rhs = value` on at least `min_support` tuples.
fn is_redundant_constant_pattern(
    tuples: &[Tuple],
    lhs: &[usize],
    lhs_values: &[Value],
    rhs: usize,
    value: &Value,
    min_support: usize,
) -> bool {
    (0..lhs.len()).any(|drop| {
        let matching: Vec<&Tuple> = tuples
            .iter()
            .filter(|t| {
                lhs.iter()
                    .zip(lhs_values)
                    .enumerate()
                    .all(|(i, (&a, v))| i == drop || t.get(a) == v)
            })
            .collect();
        matching.len() >= min_support && matching.iter().all(|t| t.get(rhs) == value)
    })
}

/// Full CFD discovery: exact FDs as all-wildcard CFDs, a tableau for every
/// approximate FD that fails globally (one candidate each), then constant
/// CFDs.
pub fn discover_cfds(instance: &RelationInstance, search: &CfdSearch) -> FoundCfds {
    let fd_search = |max_g3| FdSearch {
        max_lhs: search.max_lhs,
        max_g3,
        exclude: search.exclude.clone(),
    };
    let exact = discover_fds(instance, &fd_search(0.0));
    let approx = discover_fds(instance, &fd_search(search.max_candidate_g3));
    let mut candidates_checked = exact.candidates_checked + approx.candidates_checked;
    let mut variable_cfds: Vec<Cfd> = exact.fds.iter().map(Cfd::from_fd).collect();
    for fd in &approx.fds {
        if exact
            .fds
            .iter()
            .any(|e| e.lhs() == fd.lhs() && e.rhs() == fd.rhs())
            || g3_error(instance, fd.lhs(), fd.rhs()) == 0.0
        {
            continue;
        }
        candidates_checked += 1;
        if let Some(cfd) = discover_tableau_for_fd(instance, fd, search) {
            if !cfd.tableau().iter().all(PatternTuple::is_all_wildcards) {
                variable_cfds.push(cfd);
            }
        }
    }
    FoundCfds {
        variable_cfds,
        constant_cfds: discover_constant_cfds(instance, search),
        candidates_checked,
    }
}

/// Parameters of the IND miners, mirroring `dq-discovery`'s
/// `IndDiscoveryConfig`.
#[derive(Clone, Debug)]
pub struct IndSearch {
    /// `1` finds unary INDs only; any larger value also finds binary ones.
    pub max_arity: usize,
    /// Minimum number of distinct LHS projections.
    pub min_distinct: usize,
    /// Minimum number of tuples a CIND condition must select.
    pub min_support: usize,
    /// Maximum number of distinct values of a condition attribute.
    pub max_condition_values: usize,
    /// SQL-style semantics: LHS projections with a `NULL` are exempt.
    pub ignore_nulls: bool,
}

/// The result of [`discover_inds`].
#[derive(Clone, Debug)]
pub struct FoundInds {
    /// INDs that hold on the database.
    pub inds: Vec<Ind>,
    /// Candidate INDs checked.
    pub candidates_checked: usize,
}

/// The distinct values of `attr` under `Eq`, in canonical order.
fn distinct_values(instance: &RelationInstance, attr: usize) -> Vec<Value> {
    let set: HashSet<&Value> = instance.iter().map(|(_, t)| t.get(attr)).collect();
    let mut values: Vec<Value> = set.into_iter().cloned().collect();
    values.sort_by(|a, b| canonical_order(std::slice::from_ref(a), std::slice::from_ref(b)));
    values
}

/// Unary and binary INDs between distinct relations of `db`, for every
/// ordered relation pair in database order: each domain-compatible
/// attribute pair whose LHS value set (under `Eq`) is included in the RHS
/// value set, then every pair of two such unary INDs over distinct
/// attributes on both sides whose projections are included.
pub fn discover_inds(db: &Database, search: &IndSearch) -> DqResult<FoundInds> {
    let mut inds = Vec::new();
    let mut candidates_checked = 0usize;
    let relations: Vec<(&str, &RelationInstance)> = db.iter().collect();
    let projections = |inst: &RelationInstance, attrs: &[usize], skip_nulls: bool| {
        inst.iter()
            .map(|(_, t)| t.project(attrs))
            .filter(|key| !skip_nulls || !key.iter().any(Value::is_null))
            .collect::<HashSet<Vec<Value>>>()
    };
    for (lhs_name, lhs_inst) in &relations {
        for (rhs_name, rhs_inst) in &relations {
            if lhs_name == rhs_name {
                continue;
            }
            let (lhs_schema, rhs_schema) = (lhs_inst.schema(), rhs_inst.schema());
            let mut unary: Vec<(usize, usize)> = Vec::new();
            for la in 0..lhs_schema.arity() {
                for ra in 0..rhs_schema.arity() {
                    if !lhs_schema.domain(la).compatible_with(rhs_schema.domain(ra)) {
                        continue;
                    }
                    candidates_checked += 1;
                    let lhs_values = projections(lhs_inst, &[la], search.ignore_nulls);
                    if lhs_values.len() >= search.min_distinct
                        && lhs_values.is_subset(&projections(rhs_inst, &[ra], false))
                    {
                        unary.push((la, ra));
                        inds.push(Ind::from_indices(*lhs_name, vec![la], *rhs_name, vec![ra]));
                    }
                }
            }
            if search.max_arity < 2 {
                continue;
            }
            for &(l1, r1) in &unary {
                for &(l2, r2) in &unary {
                    if l1 >= l2 || r1 == r2 {
                        continue;
                    }
                    candidates_checked += 1;
                    let lhs_proj = projections(lhs_inst, &[l1, l2], search.ignore_nulls);
                    if lhs_proj.len() >= search.min_distinct
                        && lhs_proj.is_subset(&projections(rhs_inst, &[r1, r2], false))
                    {
                        inds.push(Ind::from_indices(
                            *lhs_name,
                            vec![l1, l2],
                            *rhs_name,
                            vec![r1, r2],
                        ));
                    }
                }
            }
        }
    }
    Ok(FoundInds {
        inds,
        candidates_checked,
    })
}

/// CIND conditions for an embedded IND `R1[X] ⊆ R2[Y]`: none when it
/// already holds; otherwise, for every attribute `B` of `R1` outside `X`
/// with at most `max_condition_values` distinct values, one CIND whose
/// tableau lists (in canonical value order) every `b` selecting at least
/// `min_support` tuples that all have their `X`-projection in `R2[Y]`.
pub fn discover_cind_conditions(
    db: &Database,
    embedded: &Ind,
    search: &IndSearch,
) -> DqResult<Vec<Cind>> {
    let lhs_inst = db.require_relation(embedded.lhs_relation())?;
    let rhs_inst = db.require_relation(embedded.rhs_relation())?;
    if crate::ind_violations(embedded, db, search.ignore_nulls)?.is_empty() {
        return Ok(Vec::new());
    }
    let x = embedded.lhs_attrs();
    let rhs_proj: HashSet<Vec<Value>> = rhs_inst
        .iter()
        .map(|(_, t)| t.project(embedded.rhs_attrs()))
        .collect();
    let mut out = Vec::new();
    for cond_attr in 0..lhs_inst.schema().arity() {
        if x.contains(&cond_attr) {
            continue;
        }
        let values = distinct_values(lhs_inst, cond_attr);
        if values.is_empty() || values.len() > search.max_condition_values {
            continue;
        }
        let mut patterns: Vec<CindPattern> = Vec::new();
        for value in values {
            let selected: Vec<&Tuple> = lhs_inst
                .iter()
                .map(|(_, t)| t)
                .filter(|t| t.get(cond_attr) == &value)
                .collect();
            let included = selected.iter().all(|t| {
                (search.ignore_nulls && x.iter().any(|&a| t.get(a).is_null()))
                    || rhs_proj.contains(&t.project(x))
            });
            if selected.len() >= search.min_support && included {
                patterns.push(CindPattern::new(vec![value], Vec::new()));
            }
        }
        if patterns.is_empty() {
            continue;
        }
        out.push(Cind::from_indices(
            lhs_inst.schema(),
            x.to_vec(),
            vec![cond_attr],
            rhs_inst.schema(),
            embedded.rhs_attrs().to_vec(),
            Vec::new(),
            patterns,
        )?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::{Domain, RelationSchema};
    use std::sync::Arc;

    fn instance() -> RelationInstance {
        let schema = Arc::new(RelationSchema::new(
            "r",
            [("a", Domain::Text), ("b", Domain::Text), ("c", Domain::Int)],
        ));
        let mut inst = RelationInstance::new(schema);
        for (a, b, c) in [("x", "p", 1), ("x", "p", 2), ("x", "q", 3), ("y", "r", 4)] {
            inst.insert_values([Value::str(a), Value::str(b), Value::int(c)])
                .unwrap();
        }
        inst
    }

    #[test]
    fn partitions_and_g3_follow_their_definitions() {
        let inst = instance();
        assert_eq!(
            partition_classes(&inst, &[0]),
            vec![vec![TupleId(0), TupleId(1), TupleId(2)]]
        );
        assert_eq!(
            partition_classes(&inst, &[0, 1]),
            vec![vec![TupleId(0), TupleId(1)]]
        );
        assert!(partition_classes(&inst, &[2]).is_empty());
        // Group "x" keeps its two `p` tuples: one removal out of four.
        assert_eq!(g3_error(&inst, &[0], &[1]), 0.25);
    }

    #[test]
    fn fd_search_reports_minimal_fds_in_lattice_order() {
        let found = discover_fds(
            &instance(),
            &FdSearch {
                max_lhs: 2,
                ..FdSearch::default()
            },
        );
        let shapes: Vec<(Vec<usize>, Vec<usize>)> = found
            .fds
            .iter()
            .map(|fd| (fd.lhs().to_vec(), fd.rhs().to_vec()))
            .collect();
        // c is a key; b → a; nothing else is minimal.
        assert_eq!(
            shapes,
            vec![(vec![1], vec![0]), (vec![2], vec![0]), (vec![2], vec![1]),]
        );
        // Level 1: six candidates; level 2: {a,b} → c only ({a,c} and
        // {b,c} have every RHS determined by a subset).
        assert_eq!(found.candidates_checked, 7);
    }

    #[test]
    fn subsets_come_in_lexicographic_order() {
        assert_eq!(
            subsets_of_size(&[0, 1, 2], 2),
            vec![vec![0, 1], vec![0, 2], vec![1, 2]]
        );
        assert!(subsets_of_size(&[0], 2).is_empty());
        assert!(subsets_of_size(&[0, 1], 0).is_empty());
    }
}
