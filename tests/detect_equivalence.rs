//! Equivalence properties of the detection kernels: every CFD, eCFD,
//! denial-constraint, CIND and IND entry point must produce reports equal
//! to the value-level reference detectors of `dq-oracle`, on every backing
//! the kernels run over —
//!
//! * *pooled*: the engine's warm path, groups read off pooled indexes;
//! * *unpooled*: the free `detect_*` functions and the engine's
//!   `*_from_shards` paths over an in-RAM [`StoreShardSource`], groups
//!   streamed;
//! * *mapped*: the `*_from_shards` paths over a relation saved with a tiny
//!   shard override and re-opened with `open_mmap`, so it spans many
//!   shards —
//!
//! at threads {1, 2}.  CINDs and INDs span two relations and have no shard
//! paths: their convenience methods (unpooled) and the engine (pooled) are
//! checked, under both IND null semantics.  Batch detection must also
//! equal clean-prefix detection plus incremental detection of appended
//! tuples.
//!
//! All cases are generated from seeded strategies (the offline proptest
//! stand-in derives its RNG seed from the test name), so runs are exactly
//! reproducible — no fixed-seed flakiness.

use dataquality::prelude::*;
use dq_gen::customer::{generate_customers, paper_cfds, CustomerConfig};
use dq_gen::orders::{generate_orders, paper_cinds, OrderConfig};
use dq_relation::instance::CellRef;
use dq_relation::store::persist;
use dq_relation::{MappedRelation, RelationInstance, StoreShardSource, TupleId, Value};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Rows per shard of the mapped backing: tiny, so generated instances span
/// several shards and end in a partial one.
const MAPPED_SHARD_ROWS: usize = 16;

/// Thread counts every engine path runs at.
const THREADS: [usize; 2] = [1, 2];

/// Workload shapes worth exercising: tiny through few-hundred tuples, clean
/// through heavily corrupted, paper-style (three huge `[CC, AC]` groups)
/// through scaled city pools (many small groups).
fn workload_config() -> impl Strategy<Value = CustomerConfig> {
    (
        1usize..250,
        0usize..4,
        0u64..1_000,
        prop_oneof![3usize..4, 20usize..40],
    )
        .prop_map(
            |(tuples, rate_idx, seed, cities_per_country)| CustomerConfig {
                tuples,
                error_rate: [0.0, 0.01, 0.05, 0.25][rate_idx],
                seed,
                cities_per_country,
            },
        )
}

/// The paper's CINDs over the order/book/CD database plus ϕ6 with a `Yp`
/// constant no book carries: its probe must short-circuit on the absent
/// dictionary entry and report every audio-book CD.
fn order_cinds(db: &Database) -> Vec<Cind> {
    let mut cinds = paper_cinds();
    let cd = db.relation("CD").expect("CD relation").schema();
    let book = db.relation("book").expect("book relation").schema();
    cinds.push(
        Cind::new(
            cd,
            &["album", "price"],
            &["genre"],
            book,
            &["title", "price"],
            &["format"],
            vec![CindPattern::new(
                vec![Value::str("a-book")],
                vec![Value::str("no-such-format")],
            )],
        )
        .expect("well-formed"),
    );
    cinds
}

/// Runs `check` over `instance` saved with [`MAPPED_SHARD_ROWS`]-row shards
/// and re-opened memory-mapped; the files are removed afterwards.
fn with_mapped<R>(instance: &RelationInstance, check: impl FnOnce(&MappedRelation) -> R) -> R {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dq_detect_equivalence_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    instance
        .columnar()
        .save_to_with_shard_rows(instance, &dir, MAPPED_SHARD_ROWS)
        .expect("relation saves");
    let mapped = persist::open_mmap(&dir).expect("saved relation opens");
    let out = check(&mapped);
    drop(mapped);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Denial constraints over the customer schema: FD-shaped (grouped path), a
/// grouped constraint with an order comparison, a lone same-attribute `≠`
/// (quadratic path on dictionary ids), an asymmetric `<` (quadratic path
/// on values) and a single-variable range constraint.
fn customer_denials(schema: &Arc<RelationSchema>) -> Vec<DenialConstraint> {
    let (cc, ac, phn, city) = (
        schema.attr("CC"),
        schema.attr("AC"),
        schema.attr("phn"),
        schema.attr("city"),
    );
    let mut constraints = DenialConstraint::from_fd(&Fd::new(schema, &["CC", "zip"], &["street"]));
    constraints.extend(DenialConstraint::from_fd(&Fd::new(
        schema,
        &["CC", "AC"],
        &["city"],
    )));
    constraints.push(DenialConstraint::new(
        "customer",
        2,
        vec![
            DcPredicate::new(DcTerm::attr(0, city), CompOp::Eq, DcTerm::attr(1, city)),
            DcPredicate::new(DcTerm::attr(0, ac), CompOp::Lt, DcTerm::attr(1, ac)),
        ],
    ));
    constraints.push(DenialConstraint::new(
        "customer",
        2,
        vec![DcPredicate::new(
            DcTerm::attr(0, cc),
            CompOp::Ne,
            DcTerm::attr(1, cc),
        )],
    ));
    constraints.push(DenialConstraint::new(
        "customer",
        2,
        vec![
            DcPredicate::new(DcTerm::attr(1, phn), CompOp::Lt, DcTerm::attr(0, phn)),
            DcPredicate::new(DcTerm::attr(0, ac), CompOp::Ne, DcTerm::val(131i64)),
        ],
    ));
    constraints.push(DenialConstraint::new(
        "customer",
        1,
        vec![DcPredicate::new(
            DcTerm::attr(0, cc),
            CompOp::Gt,
            DcTerm::val(50i64),
        )],
    ));
    constraints
}

/// Checks every denial entry point against the oracle on `instance`.
fn assert_denials_match_oracle(
    instance: &RelationInstance,
    constraints: &[DenialConstraint],
) -> Result<(), TestCaseError> {
    let oracle = dq_oracle::detect_denial_violations(instance, constraints);
    prop_assert_eq!(&detect_denial_violations(instance, constraints), &oracle);
    with_mapped(instance, |mapped| {
        for threads in THREADS {
            let engine = DetectionEngine::with_threads(threads);
            prop_assert_eq!(
                &engine.detect_denial_violations(instance, constraints),
                &oracle,
                "pooled, threads {}",
                threads
            );
            let unpooled = StoreShardSource::new(instance);
            prop_assert_eq!(
                &engine.detect_denial_violations_from_shards(&unpooled, constraints),
                &oracle,
                "unpooled, threads {}",
                threads
            );
            prop_assert_eq!(
                &engine.detect_denial_violations_from_shards(mapped, constraints),
                &oracle,
                "mapped, threads {}",
                threads
            );
        }
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// CFD reports equal the oracle on every backing, sequential and
    /// parallel, cold pool and warm pool.
    #[test]
    fn engine_cfd_detection_equals_naive(config in workload_config()) {
        let workload = generate_customers(&config);
        let instance = &workload.dirty;
        let cfds = paper_cfds();
        let oracle = dq_oracle::detect_cfd_violations(instance, &cfds);
        prop_assert_eq!(&detect_cfd_violations(instance, &cfds), &oracle);
        with_mapped(instance, |mapped| {
            for threads in THREADS {
                let engine = DetectionEngine::with_threads(threads);
                let cold = engine.detect_cfd_violations(instance, &cfds);
                prop_assert_eq!(&cold, &oracle, "pooled cold, threads {}", threads);
                let warm = engine.detect_cfd_violations(instance, &cfds);
                prop_assert_eq!(&warm, &oracle, "pooled warm, threads {}", threads);
                let unpooled = StoreShardSource::new(instance);
                prop_assert_eq!(
                    &engine.detect_cfd_violations_from_shards(&unpooled, &cfds),
                    &oracle,
                    "unpooled, threads {}",
                    threads
                );
                prop_assert_eq!(
                    &engine.detect_cfd_violations_from_shards(mapped, &cfds),
                    &oracle,
                    "mapped, threads {}",
                    threads
                );
            }
            Ok(())
        })?;
    }

    /// Equivalence also holds for the normalized fragment set, where many
    /// dependencies share a LHS and the pool serves one index to all.
    #[test]
    fn engine_equivalence_on_normalized_fragments(config in workload_config()) {
        let workload = generate_customers(&config);
        let fragments: Vec<Cfd> = paper_cfds().iter().flat_map(|c| c.normalize()).collect();
        let oracle = dq_oracle::detect_cfd_violations(&workload.dirty, &fragments);
        let engine = DetectionEngine::new();
        prop_assert_eq!(engine.detect_cfd_violations(&workload.dirty, &fragments), oracle);
        // One distinct LHS per paper CFD, regardless of fragment count.
        prop_assert_eq!(engine.pool_stats().misses, 3);
    }

    /// The oracle's report on the extended instance equals its report on
    /// the prefix plus incremental detection of the appended tuples.
    #[test]
    fn batch_equals_prefix_plus_incremental(
        config in workload_config(),
        split_percent in 0usize..=100,
    ) {
        let workload = generate_customers(&config);
        let cfds = paper_cfds();
        let split = workload.dirty.len() * split_percent / 100;
        let mut prefix = RelationInstance::new(Arc::clone(workload.dirty.schema()));
        let mut extended = RelationInstance::new(Arc::clone(workload.dirty.schema()));
        let mut added = Vec::new();
        for (i, (_, tuple)) in workload.dirty.iter().enumerate() {
            let id = extended.insert(tuple.clone()).expect("compatible tuple");
            if i < split {
                prefix.insert(tuple.clone()).expect("compatible tuple");
            } else {
                added.push(id);
            }
        }
        let full = dq_oracle::detect_cfd_violations(&extended, &cfds);
        let prefix_report = dq_oracle::detect_cfd_violations(&prefix, &cfds);
        let incremental = detect_cfd_violations_incremental(&extended, &cfds, &added);
        for i in 0..cfds.len() {
            let mut combined: Vec<CfdViolation> = prefix_report
                .of(i)
                .iter()
                .chain(incremental.of(i))
                .copied()
                .collect();
            combined.sort_unstable();
            prop_assert_eq!(
                combined,
                full.of(i).to_vec(),
                "dependency {} disagrees (split {} of {})",
                i,
                split,
                extended.len()
            );
        }
    }

    /// Incremental CFD detection equals the oracle's incremental detector
    /// on every backing.
    #[test]
    fn engine_incremental_equals_naive_incremental(
        config in workload_config(),
        split_percent in 0usize..=100,
    ) {
        let workload = generate_customers(&config);
        let instance = &workload.dirty;
        let cfds = paper_cfds();
        let split = instance.len() * split_percent / 100;
        let added: Vec<_> = instance.iter().skip(split).map(|(id, _)| id).collect();
        let oracle = dq_oracle::detect_cfd_violations_incremental(instance, &cfds, &added);
        prop_assert_eq!(&detect_cfd_violations_incremental(instance, &cfds, &added), &oracle);
        with_mapped(instance, |mapped| {
            for threads in THREADS {
                let engine = DetectionEngine::with_threads(threads);
                prop_assert_eq!(
                    &engine.detect_cfd_violations_incremental(instance, &cfds, &added),
                    &oracle,
                    "pooled, threads {}",
                    threads
                );
                let unpooled = StoreShardSource::new(instance);
                prop_assert_eq!(
                    &engine.detect_cfd_violations_incremental_from_shards(&unpooled, &cfds, &added),
                    &oracle,
                    "unpooled, threads {}",
                    threads
                );
                prop_assert_eq!(
                    &engine.detect_cfd_violations_incremental_from_shards(mapped, &cfds, &added),
                    &oracle,
                    "mapped, threads {}",
                    threads
                );
            }
            Ok(())
        })?;
    }

    /// The maintained CFD report equals the oracle after every step of a
    /// random stream of cell edits, appends and removals (a removal falls
    /// back to full detection), at threads {1, 2}.
    #[test]
    fn maintained_report_equals_oracle_across_mixed_histories(
        config in workload_config(),
        steps in proptest::collection::vec(
            (0usize..3, 0usize..1_000_000, 0usize..1_000_000, 0usize..1_000_000),
            1..8,
        ),
    ) {
        let cfds = paper_cfds();
        for threads in THREADS {
            let mut instance = generate_customers(&config).dirty;
            let engine = DetectionEngine::with_threads(threads);
            let mut maintained = engine.maintain_cfd_violations(&instance, &cfds, None);
            prop_assert_eq!(
                maintained.report(),
                &dq_oracle::detect_cfd_violations(&instance, &cfds)
            );
            let arity = instance.schema().arity();
            for &(kind, t, a, d) in &steps {
                let ids = instance.ids();
                if ids.is_empty() {
                    break;
                }
                let target = ids[t % ids.len()];
                let donor = instance.tuple(ids[d % ids.len()]).expect("live").clone();
                match kind {
                    // Copy a donor's cell: in-domain, often moves the target
                    // between LHS groups.
                    0 => {
                        let attr = a % arity;
                        instance
                            .update_cell(CellRef::new(target, attr), donor.get(attr).clone())
                            .expect("donor values are in-domain");
                    }
                    1 => {
                        instance.insert(donor).expect("same schema");
                    }
                    _ => {
                        instance.remove(target);
                    }
                }
                maintained = engine.maintain_cfd_violations(&instance, &cfds, Some(&maintained));
                prop_assert_eq!(
                    maintained.report(),
                    &dq_oracle::detect_cfd_violations(&instance, &cfds),
                    "threads {}",
                    threads
                );
                prop_assert_eq!(maintained.version(), instance.version());
            }
        }
    }

    /// eCFD reports equal the oracle on every backing.
    #[test]
    fn engine_ecfd_detection_equals_naive(config in workload_config()) {
        let workload = generate_customers(&config);
        let instance = &workload.dirty;
        let schema = instance.schema();
        let ecfds = vec![
            // FD city → AC outside the fixed UK cities.
            Ecfd::new(
                schema,
                &["city"],
                &["AC"],
                vec![EcfdPattern::new(
                    vec![SetPattern::not_in(["EDI", "GLA", "LDN"])],
                    vec![SetPattern::any()],
                )],
            )
            .expect("well-formed eCFD"),
            // EDI tuples must carry one of the Edinburgh-ish area codes.
            Ecfd::new(
                schema,
                &["city"],
                &["AC"],
                vec![EcfdPattern::new(
                    vec![SetPattern::eq("EDI")],
                    vec![SetPattern::in_set([131i64, 132])],
                )],
            )
            .expect("well-formed eCFD"),
            // Mixed: [CC, AC] → [city, zip] with a set-restricted city.
            Ecfd::new(
                schema,
                &["CC", "AC"],
                &["city", "zip"],
                vec![EcfdPattern::new(
                    vec![SetPattern::in_set([44i64, 1]), SetPattern::any()],
                    vec![SetPattern::not_in(["Nowhere"]), SetPattern::any()],
                )],
            )
            .expect("well-formed eCFD"),
        ];
        let oracle = dq_oracle::detect_ecfd_violations(instance, &ecfds);
        prop_assert_eq!(&detect_ecfd_violations(instance, &ecfds), &oracle);
        with_mapped(instance, |mapped| {
            for threads in THREADS {
                let engine = DetectionEngine::with_threads(threads);
                prop_assert_eq!(
                    &engine.detect_ecfd_violations(instance, &ecfds),
                    &oracle,
                    "pooled, threads {}",
                    threads
                );
                let unpooled = StoreShardSource::new(instance);
                prop_assert_eq!(
                    &engine.detect_ecfd_violations_from_shards(&unpooled, &ecfds),
                    &oracle,
                    "unpooled, threads {}",
                    threads
                );
                prop_assert_eq!(
                    &engine.detect_ecfd_violations_from_shards(mapped, &ecfds),
                    &oracle,
                    "mapped, threads {}",
                    threads
                );
            }
            Ok(())
        })?;
    }

    /// The engine detects over interned columnar snapshots memoized per
    /// instance version; after mutations (cell updates, inserts, removals)
    /// a fresh snapshot must be taken and reports must still equal the
    /// oracle — this is the property a stale snapshot or index would break.
    #[test]
    fn engine_equivalence_survives_mutation(
        config in workload_config(),
        victim in 0usize..250,
        attr_pick in 0usize..3,
    ) {
        let workload = generate_customers(&config);
        let mut instance = workload.dirty;
        let cfds = paper_cfds();
        let engine = DetectionEngine::new();
        let before = engine.detect_cfd_violations(&instance, &cfds);
        prop_assert_eq!(&before, &dq_oracle::detect_cfd_violations(&instance, &cfds));
        // Mutate: update a cell, insert a colliding tuple, remove a tuple.
        let schema = Arc::clone(instance.schema());
        let attr = [schema.attr("city"), schema.attr("street"), schema.attr("zip")][attr_pick];
        let victim = TupleId(victim % instance.len().max(1));
        instance
            .update_cell(CellRef::new(victim, attr), Value::str("MUTATED"))
            .unwrap();
        let donor = instance.tuple(TupleId(0)).expect("live tuple").clone();
        instance.insert(donor).expect("same schema");
        instance.remove(victim);
        let after = engine.detect_cfd_violations(&instance, &cfds);
        prop_assert_eq!(&after, &dq_oracle::detect_cfd_violations(&instance, &cfds));
    }

    /// CIND reports over the order/book/CD database equal the oracle's
    /// `HashIndex` probe — per dependency from `Cind::violations`, batched
    /// from the free `detect_cind_violations`, and from the engine cold and
    /// warm at threads {1, 2} — for the paper's CINDs plus one whose `Yp`
    /// constant is absent from the RHS dictionary.
    #[test]
    fn engine_cind_detection_equals_naive(
        orders in 1usize..250,
        rate_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let workload = generate_orders(&OrderConfig {
            orders,
            violation_rate: [0.0, 0.01, 0.05, 0.25][rate_idx],
            seed,
        });
        let db = &workload.db;
        let cinds = order_cinds(db);
        let expected = dq_oracle::detect_cind_violations(db, &cinds).unwrap();
        prop_assert_eq!(&detect_cind_violations(db, &cinds).unwrap(), &expected);
        for (i, cind) in cinds.iter().enumerate() {
            prop_assert_eq!(&cind.violations(db).unwrap()[..], expected.of(i), "{}", cind);
            prop_assert_eq!(cind.holds_on(db).unwrap(), expected.of(i).is_empty());
        }
        for threads in THREADS {
            let engine = DetectionEngine::with_threads(threads);
            let cold = engine.detect_cind_violations(db, &cinds).unwrap();
            prop_assert_eq!(&cold, &expected, "cold, threads {}", threads);
            let warm = engine.detect_cind_violations(db, &cinds).unwrap();
            prop_assert_eq!(&warm, &expected, "warm, threads {}", threads);
        }
    }

    /// IND violation lists over the order/book/CD database with null titles
    /// injected equal the oracle's `HashIndex` probe under both null
    /// semantics — from `Ind::violations_with` / `holds_on_with` (unpooled)
    /// and from the engine's `detect_ind_violations` / `ind_holds` (pooled)
    /// at threads {1, 2}.
    #[test]
    fn engine_ind_detection_equals_oracle(
        orders in 1usize..250,
        rate_idx in 0usize..4,
        seed in 0u64..1_000,
        null_titles in 0usize..3,
    ) {
        let mut db = generate_orders(&OrderConfig {
            orders,
            violation_rate: [0.0, 0.01, 0.05, 0.25][rate_idx],
            seed,
        })
        .db;
        let order = db.relation_mut("order").expect("order relation");
        for i in 0..null_titles {
            order
                .insert_values([
                    Value::str(format!("n{i}")),
                    Value::Null,
                    Value::str("book"),
                    Value::real(1.0),
                ])
                .expect("fits the schema");
        }
        let attr = |relation: &str, name: &str| db.relation(relation).unwrap().schema().attr(name);
        let inds = vec![
            Ind::from_indices(
                "order",
                vec![attr("order", "title"), attr("order", "price")],
                "book",
                vec![attr("book", "title"), attr("book", "price")],
            ),
            Ind::from_indices("order", vec![attr("order", "title")], "CD", vec![attr("CD", "album")]),
            Ind::from_indices("book", vec![attr("book", "title")], "order", vec![attr("order", "title")]),
            Ind::from_indices("CD", vec![attr("CD", "price")], "book", vec![attr("book", "price")]),
        ];
        for ignore_nulls in [false, true] {
            let expected: Vec<Vec<TupleId>> = inds
                .iter()
                .map(|ind| dq_oracle::ind_violations(ind, &db, ignore_nulls).unwrap())
                .collect();
            for (ind, violations) in inds.iter().zip(&expected) {
                prop_assert_eq!(&ind.violations_with(&db, ignore_nulls).unwrap(), violations, "{}", ind);
                prop_assert_eq!(ind.holds_on_with(&db, ignore_nulls).unwrap(), violations.is_empty());
            }
            for threads in THREADS {
                let engine = DetectionEngine::with_threads(threads);
                prop_assert_eq!(
                    &engine.detect_ind_violations(&db, &inds, ignore_nulls).unwrap(),
                    &expected,
                    "ignore_nulls {}, threads {}", ignore_nulls, threads
                );
                for (ind, violations) in inds.iter().zip(&expected) {
                    prop_assert_eq!(
                        engine.ind_holds(&db, ind, ignore_nulls).unwrap(),
                        violations.is_empty(),
                        "{}", ind
                    );
                }
            }
        }
    }

    /// Denial-constraint reports equal the oracle's quadratic scan on every
    /// backing, for grouped (FD-shaped), quadratic and single-variable
    /// constraints alike.
    #[test]
    fn engine_denial_detection_equals_naive(config in workload_config()) {
        let workload = generate_customers(&config);
        let constraints = customer_denials(workload.dirty.schema());
        assert_denials_match_oracle(&workload.dirty, &constraints)?;
    }
}

/// The denial kernel compares same-attribute `=`/`≠` on dictionary ids.
/// Ids are equal exactly when values are `==`, so cells whose equality is
/// easy to get wrong — Nulls, NaN, ±0.0, and an Int next to an equal Real
/// in a domain that admits both — must still match the value oracle.
#[test]
fn denial_id_shortcut_agrees_with_values_on_edge_cells() {
    let schema = Arc::new(RelationSchema::new(
        "edge",
        [
            ("g", Domain::Text),
            ("x", Domain::Real),
            ("y", Domain::Real),
        ],
    ));
    let mut instance = RelationInstance::new(Arc::clone(&schema));
    let cells = [
        Value::Null,
        Value::real(f64::NAN),
        Value::real(0.0),
        Value::real(-0.0),
        Value::int(1),
        Value::real(1.0),
        Value::int(0),
        Value::real(2.5),
    ];
    let groups = [Value::Null, Value::str("a"), Value::str("b")];
    for (i, x) in cells.iter().enumerate() {
        for (j, y) in cells.iter().enumerate().filter(|(j, _)| (i + j) % 3 == 0) {
            instance
                .insert_values([groups[(i + j) % groups.len()].clone(), x.clone(), y.clone()])
                .unwrap();
        }
        // Duplicates so every edge value meets an equal cell.
        instance
            .insert_values([groups[i % groups.len()].clone(), x.clone(), x.clone()])
            .unwrap();
    }
    let attr = |var, a| DcTerm::attr(var, a);
    let pred = DcPredicate::new;
    let constraints = vec![
        // FD-shaped: g → x, and x → y (grouped on the edge column itself).
        DenialConstraint::new(
            "edge",
            2,
            vec![
                pred(attr(0, 0), CompOp::Eq, attr(1, 0)),
                pred(attr(0, 1), CompOp::Ne, attr(1, 1)),
            ],
        ),
        DenialConstraint::new(
            "edge",
            2,
            vec![
                pred(attr(1, 1), CompOp::Eq, attr(0, 1)),
                pred(attr(1, 2), CompOp::Ne, attr(0, 2)),
            ],
        ),
        // Lone same-attribute ≠ (quadratic, ids) and < (quadratic, values).
        DenialConstraint::new("edge", 2, vec![pred(attr(0, 1), CompOp::Ne, attr(1, 1))]),
        DenialConstraint::new("edge", 2, vec![pred(attr(0, 2), CompOp::Lt, attr(1, 2))]),
        // Cross-attribute equality resolves values (mixed Int/Real cells).
        DenialConstraint::new("edge", 2, vec![pred(attr(0, 1), CompOp::Eq, attr(1, 2))]),
        // Single variable: a cell against itself and against constants.
        DenialConstraint::new("edge", 1, vec![pred(attr(0, 1), CompOp::Eq, attr(0, 1))]),
        DenialConstraint::new("edge", 1, vec![pred(attr(0, 1), CompOp::Ne, attr(0, 2))]),
        DenialConstraint::new(
            "edge",
            1,
            vec![pred(attr(0, 1), CompOp::Eq, DcTerm::val(0.0f64))],
        ),
        DenialConstraint::new(
            "edge",
            1,
            vec![pred(attr(0, 2), CompOp::Ge, DcTerm::val(1i64))],
        ),
    ];
    assert_denials_match_oracle(&instance, &constraints).expect("kernel equals oracle");
    let reports = dq_oracle::detect_denial_violations(&instance, &constraints);
    assert!(
        reports.iter().all(|r| !r.is_empty()),
        "every edge constraint should fire"
    );
}

/// Constraints with other than one or two tuple variables panic on every
/// backing alike — none of them may report the data as clean.
#[test]
fn unsupported_denial_arity_panics_on_every_backing() {
    let workload = generate_customers(&CustomerConfig {
        tuples: 40,
        error_rate: 0.1,
        seed: 7,
        cities_per_country: 3,
    });
    let instance = &workload.dirty;
    let cc = instance.schema().attr("CC");
    with_mapped(instance, |mapped| {
        for vars in [0usize, 3] {
            let dc = vec![DenialConstraint::new(
                "customer",
                vars,
                vec![DcPredicate::new(
                    DcTerm::attr(0, cc),
                    CompOp::Eq,
                    DcTerm::val(44i64),
                )],
            )];
            let panics = |run: &dyn Fn()| catch_unwind(AssertUnwindSafe(run)).is_err();
            assert!(panics(&|| {
                dq_oracle::detect_denial_violations(instance, &dc);
            }));
            assert!(panics(&|| {
                detect_denial_violations(instance, &dc);
            }));
            for threads in THREADS {
                let engine = DetectionEngine::with_threads(threads);
                assert!(
                    panics(&|| {
                        engine.detect_denial_violations(instance, &dc);
                    }),
                    "pooled, {vars} vars"
                );
                let unpooled = StoreShardSource::new(instance);
                assert!(
                    panics(&|| {
                        engine.detect_denial_violations_from_shards(&unpooled, &dc);
                    }),
                    "unpooled, {vars} vars"
                );
                assert!(
                    panics(&|| {
                        engine.detect_denial_violations_from_shards(mapped, &dc);
                    }),
                    "mapped, {vars} vars"
                );
            }
        }
    });
}
