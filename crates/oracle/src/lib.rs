//! # dq-oracle
//!
//! Value-level reference implementations for detection and discovery.
//!
//! `dq-core` runs one production kernel per dependency class over
//! dictionary-encoded columns, and `dq-discovery` mines over pooled
//! interned indexes.  The code here is the straightforward definitions
//! both are checked against: the detectors group tuples in a
//! `Vec<Value>`-keyed [`HashIndex`], compare [`Value`]s directly, and scan
//! every ordered pair for denial constraints; the miners of [`discovery`]
//! project `Vec<Value>` keys per tuple and run sequentially.  They are
//! deliberately slow and deliberately simple; the identity suites and the
//! benchmark harness's naive columns depend on this crate, no production
//! code does.
//!
//! Every detector returns violations in the canonical order the production
//! kernels use, and every miner reports dependencies in the production
//! miners' canonical order, so results compare with `==`.

pub mod discovery;

use dq_core::ecfd::EcfdViolation;
use dq_core::{
    Cfd, CfdViolation, CfdViolationReport, Cind, CindViolation, CindViolationReport, DcTerm,
    DenialConstraint, Ecfd, EcfdViolationReport, Ind, SetPattern,
};
use dq_relation::{Database, DqResult, HashIndex, RelationInstance, Tuple, TupleId, Value};
use std::collections::{BTreeSet, HashMap};

/// All violations of `cfd` in `instance`.
///
/// A scan finds single-tuple violations of constant RHS patterns; a hash
/// partitioning on `X` finds pairs that agree on `X`, match a pattern, and
/// disagree on `Y`.  Each group is partitioned by its `Y`-projection, so
/// only pairs straddling two partitions are enumerated.
pub fn cfd_violations(cfd: &Cfd, instance: &RelationInstance) -> Vec<CfdViolation> {
    let index = HashIndex::build(instance, cfd.lhs());
    let mut out = Vec::new();
    // Pass 1: single-tuple (constant) violations.
    for (pattern_idx, tp) in cfd.tableau().iter().enumerate() {
        let has_rhs_constant = tp.rhs.iter().any(|p| !p.is_any());
        if !has_rhs_constant {
            continue;
        }
        for (id, tuple) in instance.iter() {
            if tp.lhs_matches(tuple, cfd.lhs()) && !tp.rhs_matches(tuple, cfd.rhs()) {
                out.push(CfdViolation::SingleTuple {
                    pattern: pattern_idx,
                    tuple: id,
                });
            }
        }
    }
    // Pass 2: tuple-pair (variable) violations, via grouping on X.
    let mut by_rhs: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::new();
    for (key, group) in index.multi_groups() {
        let matching_patterns: Vec<usize> = cfd
            .tableau()
            .iter()
            .enumerate()
            .filter(|(_, tp)| tp.lhs.iter().zip(key.iter()).all(|(p, v)| p.matches(v)))
            .map(|(i, _)| i)
            .collect();
        if matching_patterns.is_empty() {
            continue;
        }
        by_rhs.clear();
        for &id in group {
            let tuple = instance.tuple(id).expect("live tuple");
            by_rhs.entry(tuple.project(cfd.rhs())).or_default().push(id);
        }
        if by_rhs.len() < 2 {
            continue; // the whole group agrees on Y
        }
        let partitions: Vec<&Vec<TupleId>> = by_rhs.values().collect();
        for (i, first_part) in partitions.iter().enumerate() {
            for second_part in &partitions[i + 1..] {
                for &a in *first_part {
                    for &b in *second_part {
                        let (first, second) = if a < b { (a, b) } else { (b, a) };
                        for &p in &matching_patterns {
                            out.push(CfdViolation::TuplePair {
                                pattern: p,
                                first,
                                second,
                            });
                        }
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Incremental CFD detection: assuming `instance` minus the tuples in
/// `added` was already checked, the violations involving at least one tuple
/// of `added`.
///
/// Constant violations are checked on the added tuples alone; variable
/// violations are found by probing a full index with the added tuples' LHS
/// keys.
pub fn incremental_cfd_violations(
    instance: &RelationInstance,
    cfd: &Cfd,
    added: &[TupleId],
) -> Vec<CfdViolation> {
    let index = HashIndex::build(instance, cfd.lhs());
    let mut violations = Vec::new();
    // Single-tuple violations among the added tuples.
    for (pattern_idx, tp) in cfd.tableau().iter().enumerate() {
        if tp.rhs.iter().all(|p| p.is_any()) {
            continue;
        }
        for &id in added {
            if let Some(tuple) = instance.tuple(id) {
                if tp.lhs_matches(tuple, cfd.lhs()) && !tp.rhs_matches(tuple, cfd.rhs()) {
                    violations.push(CfdViolation::SingleTuple {
                        pattern: pattern_idx,
                        tuple: id,
                    });
                }
            }
        }
    }
    // Pair violations involving an added tuple.
    let mut seen_pairs: BTreeSet<(TupleId, TupleId)> = BTreeSet::new();
    for &id in added {
        let Some(tuple) = instance.tuple(id) else {
            continue;
        };
        let key = tuple.project(cfd.lhs());
        let matching_patterns: Vec<usize> = cfd
            .tableau()
            .iter()
            .enumerate()
            .filter(|(_, tp)| tp.lhs.iter().zip(key.iter()).all(|(p, v)| p.matches(v)))
            .map(|(i, _)| i)
            .collect();
        if matching_patterns.is_empty() {
            continue;
        }
        for &other in index.get(&key) {
            if other == id {
                continue;
            }
            // Report each unordered pair once; pairs entirely inside the old
            // data never reach this loop because `id` is added.
            let pair = if other < id { (other, id) } else { (id, other) };
            if !seen_pairs.insert(pair) {
                continue;
            }
            let a = instance.tuple(pair.0).expect("live tuple");
            let b = instance.tuple(pair.1).expect("live tuple");
            if !a.agree_on(b, cfd.rhs()) {
                for &p in &matching_patterns {
                    violations.push(CfdViolation::TuplePair {
                        pattern: p,
                        first: pair.0,
                        second: pair.1,
                    });
                }
            }
        }
    }
    violations.sort();
    violations.dedup();
    violations
}

/// All violations of `ecfd` in `instance`: the two CFD passes with the
/// generalized match operator.
///
/// Following [19], the functional (equality) requirement applies only to
/// RHS positions carrying the unnamed variable `_`; a set entry is a
/// per-tuple domain restriction (checked in the first pass) and does not
/// force two matching tuples to agree.
pub fn ecfd_violations(ecfd: &Ecfd, instance: &RelationInstance) -> Vec<EcfdViolation> {
    let index = HashIndex::build(instance, ecfd.lhs());
    let mut out = Vec::new();
    // Single-tuple violations of RHS set constraints.
    for (pattern_idx, tp) in ecfd.tableau().iter().enumerate() {
        let rhs_constrains = tp.rhs.iter().any(|p| !matches!(p, SetPattern::Any));
        if !rhs_constrains {
            continue;
        }
        for (id, tuple) in instance.iter() {
            let lhs_ok = tp
                .lhs
                .iter()
                .zip(ecfd.lhs())
                .all(|(p, &a)| p.matches(tuple.get(a)));
            if lhs_ok {
                let rhs_ok = tp
                    .rhs
                    .iter()
                    .zip(ecfd.rhs())
                    .all(|(p, &a)| p.matches(tuple.get(a)));
                if !rhs_ok {
                    out.push(EcfdViolation::SingleTuple {
                        pattern: pattern_idx,
                        tuple: id,
                    });
                }
            }
        }
    }
    // Pair violations of the embedded FD restricted to matching tuples.
    let mut by_proj: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::new();
    for (key, group) in index.multi_groups() {
        for (pattern_idx, tp) in ecfd.tableau().iter().enumerate() {
            if !tp.lhs.iter().zip(key.iter()).all(|(p, v)| p.matches(v)) {
                continue;
            }
            let equality_attrs: Vec<usize> = tp
                .rhs
                .iter()
                .zip(ecfd.rhs())
                .filter(|(p, _)| matches!(p, SetPattern::Any))
                .map(|(_, &a)| a)
                .collect();
            if equality_attrs.is_empty() {
                continue;
            }
            by_proj.clear();
            for &id in group {
                let tuple = instance.tuple(id).expect("live tuple");
                by_proj
                    .entry(tuple.project(&equality_attrs))
                    .or_default()
                    .push(id);
            }
            if by_proj.len() < 2 {
                continue;
            }
            let partitions: Vec<&Vec<TupleId>> = by_proj.values().collect();
            for (i, first_part) in partitions.iter().enumerate() {
                for second_part in &partitions[i + 1..] {
                    for &a in *first_part {
                        for &b in *second_part {
                            let (first, second) = if a < b { (a, b) } else { (b, a) };
                            out.push(EcfdViolation::TuplePair {
                                pattern: pattern_idx,
                                first,
                                second,
                            });
                        }
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// The value of `term` under an assignment of tuples to variables.
fn term_value<'a>(term: &'a DcTerm, tuples: &[&'a Tuple]) -> &'a Value {
    match term {
        DcTerm::Attr { var, attr } => tuples[*var].get(*attr),
        DcTerm::Const(v) => v,
    }
}

/// Does every predicate of `dc` hold under the assignment `tuples`?
fn predicates_hold(dc: &DenialConstraint, tuples: &[&Tuple]) -> bool {
    dc.predicates.iter().all(|p| {
        p.op.eval(term_value(&p.left, tuples), term_value(&p.right, tuples))
    })
}

/// All violations of `dc`: combinations of tuples satisfying every
/// predicate, found by evaluating every assignment.  Two-variable
/// constraints scan every ordered pair and report an unordered pair once,
/// when the assignment with the smaller tuple id first satisfies them.
///
/// # Panics
/// Panics unless the constraint has one or two tuple variables.
pub fn denial_violations(dc: &DenialConstraint, instance: &RelationInstance) -> Vec<Vec<TupleId>> {
    let mut out = Vec::new();
    match dc.vars {
        1 => {
            for (id, t) in instance.iter() {
                if predicates_hold(dc, &[t]) {
                    out.push(vec![id]);
                }
            }
        }
        2 => {
            let entries: Vec<(TupleId, &Tuple)> = instance.iter().collect();
            for i in 0..entries.len() {
                for j in 0..entries.len() {
                    if i == j {
                        continue;
                    }
                    let (id1, t1) = entries[i];
                    let (id2, t2) = entries[j];
                    if predicates_hold(dc, &[t1, t2]) {
                        // Report unordered pairs once.
                        if id1 < id2 {
                            out.push(vec![id1, id2]);
                        }
                    }
                }
            }
        }
        n => panic!("denial constraints with {n} tuple variables are not supported"),
    }
    out
}

/// LHS tuples violating `cind`: tuples matching some pattern's `Xp`
/// constants with no RHS tuple matching both the correspondence and the
/// pattern's `Yp` constants, pattern by pattern in ascending tuple-id
/// order.
pub fn cind_violations(cind: &Cind, db: &Database) -> DqResult<Vec<CindViolation>> {
    let lhs = db.require_relation(cind.lhs_schema().name())?;
    let rhs = db.require_relation(cind.rhs_schema().name())?;
    // Index the RHS relation on Y ++ Yp so each probe is a single lookup.
    let index = HashIndex::build(rhs, &cind.rhs_probe_attrs());
    let mut out = Vec::new();
    for (pattern_idx, tp) in cind.tableau().iter().enumerate() {
        for (id, tuple) in lhs.iter() {
            let applies = cind
                .lhs_pattern_attrs()
                .iter()
                .zip(&tp.lhs)
                .all(|(&a, v)| tuple.get(a) == v);
            if !applies {
                continue;
            }
            let mut key = tuple.project(cind.lhs_attrs());
            key.extend(tp.rhs.iter().cloned());
            if !index.contains_key(&key) {
                out.push(CindViolation {
                    pattern: pattern_idx,
                    tuple: id,
                });
            }
        }
    }
    Ok(out)
}

/// LHS tuples of `ind` with no matching RHS tuple, in ascending tuple-id
/// order.  With `ignore_nulls`, tuples carrying `NULL` in any `X` position
/// are exempt (SQL's foreign-key semantics).
pub fn ind_violations(ind: &Ind, db: &Database, ignore_nulls: bool) -> DqResult<Vec<TupleId>> {
    let lhs = db.require_relation(ind.lhs_relation())?;
    let rhs = db.require_relation(ind.rhs_relation())?;
    let index = HashIndex::build(rhs, ind.rhs_attrs());
    let mut out = Vec::new();
    for (id, tuple) in lhs.iter() {
        if ignore_nulls && ind.lhs_attrs().iter().any(|&a| tuple.get(a).is_null()) {
            continue;
        }
        if !index.contains_key(&tuple.project(ind.lhs_attrs())) {
            out.push(id);
        }
    }
    Ok(out)
}

/// [`cind_violations`] for every CIND of `cinds`.
pub fn detect_cind_violations(db: &Database, cinds: &[Cind]) -> DqResult<CindViolationReport> {
    let per_dependency = cinds
        .iter()
        .map(|c| cind_violations(c, db))
        .collect::<DqResult<Vec<_>>>()?;
    Ok(CindViolationReport::from_per_dependency(per_dependency))
}

/// [`cfd_violations`] for every CFD of `cfds`.
pub fn detect_cfd_violations(instance: &RelationInstance, cfds: &[Cfd]) -> CfdViolationReport {
    CfdViolationReport::from_per_dependency(
        cfds.iter().map(|c| cfd_violations(c, instance)).collect(),
    )
}

/// [`incremental_cfd_violations`] for every CFD of `cfds`.
pub fn detect_cfd_violations_incremental(
    instance: &RelationInstance,
    cfds: &[Cfd],
    added: &[TupleId],
) -> CfdViolationReport {
    CfdViolationReport::from_per_dependency(
        cfds.iter()
            .map(|c| incremental_cfd_violations(instance, c, added))
            .collect(),
    )
}

/// [`ecfd_violations`] for every eCFD of `ecfds`.
pub fn detect_ecfd_violations(instance: &RelationInstance, ecfds: &[Ecfd]) -> EcfdViolationReport {
    EcfdViolationReport::from_per_dependency(
        ecfds.iter().map(|e| ecfd_violations(e, instance)).collect(),
    )
}

/// [`denial_violations`] for every constraint of `constraints`.
pub fn detect_denial_violations(
    instance: &RelationInstance,
    constraints: &[DenialConstraint],
) -> Vec<Vec<Vec<TupleId>>> {
    constraints
        .iter()
        .map(|d| denial_violations(d, instance))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_core::{cst, wild, DcPredicate, PatternTuple};
    use dq_relation::{CompOp, Domain, RelationSchema};
    use std::sync::Arc;

    fn instance() -> RelationInstance {
        let schema = Arc::new(RelationSchema::new(
            "emp",
            [("dept", Domain::Text), ("boss", Domain::Text)],
        ));
        let mut inst = RelationInstance::new(schema);
        for (dept, boss) in [("cs", "ann"), ("cs", "bob"), ("ee", "cy")] {
            inst.insert_values([Value::str(dept), Value::str(boss)])
                .unwrap();
        }
        inst
    }

    #[test]
    fn references_agree_on_an_fd_violation() {
        let inst = instance();
        let cfd = Cfd::new(
            inst.schema(),
            &["dept"],
            &["boss"],
            vec![PatternTuple::new(vec![wild()], vec![wild()])],
        )
        .unwrap();
        let pair = CfdViolation::TuplePair {
            pattern: 0,
            first: TupleId(0),
            second: TupleId(1),
        };
        assert_eq!(cfd_violations(&cfd, &inst), vec![pair]);
        assert_eq!(
            incremental_cfd_violations(&inst, &cfd, &[TupleId(1)]),
            vec![pair]
        );
        let dc = DenialConstraint::new(
            "emp",
            2,
            vec![
                DcPredicate::new(DcTerm::attr(0, 0), CompOp::Eq, DcTerm::attr(1, 0)),
                DcPredicate::new(DcTerm::attr(0, 1), CompOp::Ne, DcTerm::attr(1, 1)),
            ],
        );
        assert_eq!(
            denial_violations(&dc, &inst),
            vec![vec![TupleId(0), TupleId(1)]]
        );
        let constant = Cfd::new(
            inst.schema(),
            &["dept"],
            &["boss"],
            vec![PatternTuple::new(vec![cst("ee")], vec![cst("dan")])],
        )
        .unwrap();
        assert_eq!(
            cfd_violations(&constant, &inst),
            vec![CfdViolation::SingleTuple {
                pattern: 0,
                tuple: TupleId(2)
            }]
        );
    }
}
