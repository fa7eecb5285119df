//! eCFDs: CFDs extended with disjunction and inequality (Section 2.3).
//!
//! An eCFD generalizes the pattern entries of a CFD from a single constant or
//! `_` to a *set* of allowed constants (`∈ S`, disjunction) or a set of
//! excluded constants (`∉ S`, inequality/negation).  The paper's examples:
//!
//! * `ecfd1: CT ∉ {NYC, LI} → AC` — the FD `CT → AC` holds for cities outside
//!   New York City and Long Island;
//! * `ecfd2: CT ∈ {NYC} → AC ∈ {212, 718, 646, 347, 917}` — NYC area codes
//!   are restricted to the listed five.
//!
//! Per [19], the added expressive power does not change the complexity of
//! consistency (NP-complete) or implication (coNP-complete); the benches of
//! `dq-bench` measure the two classes side by side.

use dq_relation::{
    DqError, DqResult, RelationInstance, RelationSchema, StoreShardSource, TupleId, Value,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A generalized pattern entry of an eCFD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetPattern {
    /// Matches any value (the unnamed variable `_`).
    Any,
    /// Matches values belonging to the set (disjunction of constants).
    In(BTreeSet<Value>),
    /// Matches values *not* belonging to the set (inequality).
    NotIn(BTreeSet<Value>),
}

impl SetPattern {
    /// The `_` entry.
    pub fn any() -> Self {
        SetPattern::Any
    }

    /// A single-constant entry (plain CFD constant).
    pub fn eq(v: impl Into<Value>) -> Self {
        SetPattern::In([v.into()].into_iter().collect())
    }

    /// An `∈ S` entry.
    pub fn in_set<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        SetPattern::In(values.into_iter().map(Into::into).collect())
    }

    /// A `∉ S` entry.
    pub fn not_in<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        SetPattern::NotIn(values.into_iter().map(Into::into).collect())
    }

    /// Does a data value match this entry?
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            SetPattern::Any => true,
            SetPattern::In(s) => s.contains(v),
            SetPattern::NotIn(s) => !s.contains(v),
        }
    }

    /// Constants mentioned by the entry (used by consistency analysis to
    /// bound the search space).
    pub fn constants(&self) -> Vec<Value> {
        match self {
            SetPattern::Any => Vec::new(),
            SetPattern::In(s) | SetPattern::NotIn(s) => s.iter().cloned().collect(),
        }
    }
}

impl fmt::Display for SetPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetPattern::Any => write!(f, "_"),
            SetPattern::In(s) => {
                let items: Vec<String> = s.iter().map(|v| v.to_string()).collect();
                write!(f, "∈ {{{}}}", items.join(", "))
            }
            SetPattern::NotIn(s) => {
                let items: Vec<String> = s.iter().map(|v| v.to_string()).collect();
                write!(f, "∉ {{{}}}", items.join(", "))
            }
        }
    }
}

/// A pattern tuple of an eCFD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcfdPattern {
    /// Entries for the LHS attributes.
    pub lhs: Vec<SetPattern>,
    /// Entries for the RHS attributes.
    pub rhs: Vec<SetPattern>,
}

impl EcfdPattern {
    /// Creates a pattern tuple.
    pub fn new(lhs: Vec<SetPattern>, rhs: Vec<SetPattern>) -> Self {
        EcfdPattern { lhs, rhs }
    }
}

/// An eCFD: a CFD whose pattern entries may be sets or negated sets.
#[derive(Clone, Debug, PartialEq)]
pub struct Ecfd {
    schema: Arc<RelationSchema>,
    lhs: Vec<usize>,
    rhs: Vec<usize>,
    tableau: Vec<EcfdPattern>,
}

impl Ecfd {
    /// Creates an eCFD from attribute names.
    pub fn new(
        schema: &Arc<RelationSchema>,
        lhs: &[&str],
        rhs: &[&str],
        tableau: Vec<EcfdPattern>,
    ) -> DqResult<Self> {
        let lhs_idx: Vec<usize> = lhs
            .iter()
            .map(|a| schema.require_attr(a))
            .collect::<DqResult<_>>()?;
        let rhs_idx: Vec<usize> = rhs
            .iter()
            .map(|a| schema.require_attr(a))
            .collect::<DqResult<_>>()?;
        for tp in &tableau {
            if tp.lhs.len() != lhs_idx.len() || tp.rhs.len() != rhs_idx.len() {
                return Err(DqError::MalformedDependency {
                    reason: "eCFD pattern tuple width mismatch".into(),
                });
            }
        }
        Ok(Ecfd {
            schema: Arc::clone(schema),
            lhs: lhs_idx,
            rhs: rhs_idx,
            tableau,
        })
    }

    /// The relation schema.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// LHS attribute positions.
    pub fn lhs(&self) -> &[usize] {
        &self.lhs
    }

    /// RHS attribute positions.
    pub fn rhs(&self) -> &[usize] {
        &self.rhs
    }

    /// The pattern tableau.
    pub fn tableau(&self) -> &[EcfdPattern] {
        &self.tableau
    }

    /// All constants mentioned by the eCFD for attribute position `attr`.
    pub fn constants_for(&self, attr: usize) -> Vec<Value> {
        let mut out = Vec::new();
        for tp in &self.tableau {
            for (p, &a) in tp
                .lhs
                .iter()
                .zip(&self.lhs)
                .chain(tp.rhs.iter().zip(&self.rhs))
            {
                if a == attr {
                    out.extend(p.constants());
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Violations of the eCFD in `instance`, in canonical (sorted) order —
    /// same two-pass structure as CFD detection, with the generalized match
    /// operator: the eCFD kernel of [`crate::stream`] over the instance's
    /// columnar snapshot, grouping with a streamed scan.  Batch detection
    /// should share indexes through [`crate::engine::DetectionEngine`].
    pub fn violations(&self, instance: &RelationInstance) -> Vec<EcfdViolation> {
        crate::stream::ecfd_violations_from_shards(self, &StoreShardSource::new(instance))
    }

    /// Does the instance satisfy this eCFD?
    pub fn holds_on(&self, instance: &RelationInstance) -> bool {
        self.violations(instance).is_empty()
    }
}

/// A violation of an eCFD.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EcfdViolation {
    /// A tuple matching the LHS pattern fails an RHS set constraint.
    SingleTuple {
        /// Violated pattern tuple index.
        pattern: usize,
        /// The violating tuple.
        tuple: TupleId,
    },
    /// Two matching tuples agree on the LHS but differ on the RHS.
    TuplePair {
        /// Violated pattern tuple index.
        pattern: usize,
        /// First tuple.
        first: TupleId,
        /// Second tuple.
        second: TupleId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use dq_relation::Domain;

    fn ny_schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::new(
            "nycust",
            [
                ("CT", Domain::Text),
                ("AC", Domain::Int),
                ("name", Domain::Text),
            ],
        ))
    }

    fn instance(rows: &[(&str, i64, &str)]) -> RelationInstance {
        let mut inst = RelationInstance::new(ny_schema());
        for (ct, ac, name) in rows {
            inst.insert_values([Value::str(*ct), Value::int(*ac), Value::str(*name)])
                .unwrap();
        }
        inst
    }

    /// ecfd1: CT ∉ {NYC, LI} → AC (an FD conditional on the city).
    fn ecfd1() -> Ecfd {
        Ecfd::new(
            &ny_schema(),
            &["CT"],
            &["AC"],
            vec![EcfdPattern::new(
                vec![SetPattern::not_in(["NYC", "LI"])],
                vec![SetPattern::any()],
            )],
        )
        .unwrap()
    }

    /// ecfd2: CT ∈ {NYC} → AC ∈ {212, 718, 646, 347, 917}.
    fn ecfd2() -> Ecfd {
        Ecfd::new(
            &ny_schema(),
            &["CT"],
            &["AC"],
            vec![EcfdPattern::new(
                vec![SetPattern::in_set(["NYC"])],
                vec![SetPattern::in_set([212i64, 718, 646, 347, 917])],
            )],
        )
        .unwrap()
    }

    #[test]
    fn ecfd1_allows_multiple_area_codes_for_nyc_and_li() {
        let d = instance(&[
            ("NYC", 212, "a"),
            ("NYC", 718, "b"),
            ("LI", 516, "c"),
            ("LI", 631, "d"),
            ("Albany", 518, "e"),
            ("Albany", 518, "f"),
        ]);
        assert!(ecfd1().holds_on(&d));
    }

    #[test]
    fn ecfd1_rejects_two_area_codes_for_an_upstate_city() {
        let d = instance(&[("Albany", 518, "e"), ("Albany", 212, "f")]);
        let v = ecfd1().violations(&d);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], EcfdViolation::TuplePair { .. }));
    }

    #[test]
    fn ecfd2_restricts_nyc_area_codes() {
        let good = instance(&[("NYC", 212, "a"), ("NYC", 917, "b")]);
        assert!(ecfd2().holds_on(&good));
        let bad = instance(&[("NYC", 518, "a")]);
        let v = ecfd2().violations(&bad);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            EcfdViolation::SingleTuple {
                pattern: 0,
                tuple: TupleId(0)
            }
        ));
    }

    #[test]
    fn ecfd2_does_not_constrain_other_cities() {
        let d = instance(&[("Buffalo", 716, "a"), ("LI", 516, "b")]);
        assert!(ecfd2().holds_on(&d));
    }

    #[test]
    fn constants_are_collected_per_attribute() {
        let e = ecfd2();
        let s = ny_schema();
        assert_eq!(e.constants_for(s.attr("CT")), vec![Value::str("NYC")]);
        assert_eq!(e.constants_for(s.attr("AC")).len(), 5);
        assert!(e.constants_for(s.attr("name")).is_empty());
    }

    #[test]
    fn absent_set_members_neither_admit_nor_exclude() {
        let d = instance(&[("NYC", 212, "a"), ("Albany", 518, "c")]);
        // `∈ {Utica}` matches no tuple at all, `∉ {999}` admits every one.
        let ghost = Ecfd::new(
            &ny_schema(),
            &["CT"],
            &["AC"],
            vec![
                EcfdPattern::new(
                    vec![SetPattern::in_set(["Utica"])],
                    vec![SetPattern::eq(1i64)],
                ),
                EcfdPattern::new(vec![SetPattern::any()], vec![SetPattern::not_in([999i64])]),
            ],
        )
        .unwrap();
        assert!(ghost.holds_on(&d));
    }

    #[test]
    fn set_pattern_matching() {
        assert!(SetPattern::any().matches(&Value::int(7)));
        assert!(SetPattern::eq("x").matches(&Value::str("x")));
        assert!(!SetPattern::eq("x").matches(&Value::str("y")));
        assert!(SetPattern::not_in(["x"]).matches(&Value::str("y")));
        assert!(!SetPattern::not_in(["x"]).matches(&Value::str("x")));
    }

    #[test]
    fn width_mismatch_is_rejected() {
        assert!(Ecfd::new(
            &ny_schema(),
            &["CT"],
            &["AC"],
            vec![EcfdPattern::new(vec![], vec![SetPattern::any()])],
        )
        .is_err());
    }

    #[test]
    fn display_of_set_patterns() {
        assert_eq!(SetPattern::any().to_string(), "_");
        assert!(SetPattern::in_set(["NYC"]).to_string().contains("NYC"));
        assert!(SetPattern::not_in(["LI"]).to_string().contains("∉"));
    }
}
