//! `audit_dense`: a nightly consistency audit of a violation-dense customer
//! relation against the paper's CFDs and its FDs as denial constraints,
//! run both in RAM and over the relation saved at set-up.
//!
//! Report emission and the per-class kernels dominate: about 1.4M CFD and
//! 1.4M denial violation pairs per path.  Every pass is cold — a fresh
//! clone, a fresh mapping and a fresh engine — so the index pool and
//! caches are bypassed.  Each pass cross-checks the two paths' reports.

use crate::trace::PASS;
use crate::{dir_bytes, repeated_setup, stats, timed, Counts, Ctx, Outcome};
use dq_core::{Cfd, CfdViolationReport, DenialConstraint, DetectionEngine};
use dq_gen::customer::{generate_customers, paper_cfds, paper_fds, CustomerConfig};
use dq_relation::store::persist::open_mmap;
use dq_relation::{csv, IndexPoolStats, RelationInstance, TupleId};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

const TUPLES: usize = 200_000;
const ERROR_RATE: f64 = 0.05;
/// `(CC, AC)` groups of about 300 tuples: 2 countries × 333 area codes.
const CITIES_PER_COUNTRY: usize = 333;

struct Rules {
    cfds: Vec<Cfd>,
    denials: Vec<DenialConstraint>,
}

/// One audit's reports, dropped outside the timer with whatever the pass
/// built to produce them.
struct Audit {
    cfd: CfdViolationReport,
    denial: Vec<Vec<Vec<TupleId>>>,
    pool: Option<IndexPoolStats>,
    _held: Box<dyn std::any::Any>,
}

fn in_ram_pass(ctx: &Ctx, instance: RelationInstance, rules: &Rules) -> Audit {
    let tr = &ctx.tracer;
    let engine = DetectionEngine::with_threads(ctx.threads);
    tr.span("columnar.encode", || {
        let store = instance.columnar();
        for attr in 0..instance.schema().arity() {
            store.column(&instance, attr);
        }
    });
    let lhs_sets: BTreeSet<Vec<usize>> = rules
        .cfds
        .iter()
        .map(|c| c.lhs().to_vec())
        .chain(
            rules
                .denials
                .iter()
                .filter_map(|d| d.pair_partition_attrs()),
        )
        .collect();
    tr.span("index.build", || {
        for lhs in &lhs_sets {
            engine.pool().interned_for(&instance, lhs, ctx.threads);
        }
    });
    let cfd = tr.span("detect.cfd", || {
        engine.detect_cfd_violations(&instance, &rules.cfds)
    });
    let denial = tr.span("detect.denial", || {
        engine.detect_denial_violations(&instance, &rules.denials)
    });
    Audit {
        cfd,
        denial,
        pool: Some(engine.pool_stats()),
        _held: Box::new((instance, engine)),
    }
}

fn mapped_pass(ctx: &Ctx, dir: &std::path::Path, rules: &Rules) -> Audit {
    let tr = &ctx.tracer;
    let engine = DetectionEngine::with_threads(ctx.threads);
    let mapped = tr.span("persist.open", || {
        open_mmap(dir).expect("saved relation opens")
    });
    let cfd = tr.span("detect.cfd_shards", || {
        engine.detect_cfd_violations_from_shards(&mapped, &rules.cfds)
    });
    let denial = tr.span("detect.denial_shards", || {
        engine.detect_denial_violations_from_shards(&mapped, &rules.denials)
    });
    Audit {
        cfd,
        denial,
        pool: None,
        _held: Box::new((mapped, engine)),
    }
}

fn fingerprint(a: &Audit) -> u64 {
    let mut h = DefaultHasher::new();
    a.cfd.per_dependency().hash(&mut h);
    a.denial.hash(&mut h);
    h.finish()
}

fn counts(a: &Audit) -> Counts {
    let mut c = Counts::new();
    c.insert("detect.violations_cfd", a.cfd.total() as u64);
    c.insert(
        "detect.violations_denial",
        a.denial.iter().map(|d| d.len() as u64).sum(),
    );
    if let Some(pool) = &a.pool {
        c.insert("pool.hits", pool.hits);
        c.insert("pool.misses", pool.misses);
        c.insert("pool.patches", pool.patches);
        c.insert("pool.appends", pool.appends);
    }
    c
}

/// One nightly audit: the cold in-RAM audit of a fresh clone, then
/// `open_mmap` of the saved relation and shard-cursor detection.  Returns
/// both audits and the wall time of each.
fn audit_pass(
    ctx: &Ctx,
    instance: RelationInstance,
    dir: &std::path::Path,
    rules: &Rules,
) -> ((Audit, f64), (Audit, f64)) {
    let in_ram = timed(|| in_ram_pass(ctx, instance, rules));
    let mapped = timed(|| mapped_pass(ctx, dir, rules));
    (in_ram, mapped)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let (base, synth_s) = timed(|| {
        generate_customers(&CustomerConfig {
            tuples: TUPLES,
            error_rate: ERROR_RATE,
            seed: ctx.seed,
            cities_per_country: CITIES_PER_COUNTRY,
        })
        .dirty
    });
    println!("synthesis {synth_s:.3} s (not gated): {TUPLES} tuples");
    let rules = Rules {
        cfds: paper_cfds(),
        denials: paper_fds()
            .iter()
            .flat_map(DenialConstraint::from_fd)
            .collect(),
    };
    let dir = ctx.work_dir.join("customer.store");

    // Set-up: load the relation and save it once for the mapped audit.
    let ((), setup_s) = repeated_setup(|| {
        let instance = base.clone();
        instance
            .columnar()
            .save_to(&instance, &dir)
            .expect("save relation");
    });
    let csv_bytes = csv::to_text(&base).expect("relation renders as CSV").len();
    let disk_ratio = dir_bytes(&dir) as f64 / csv_bytes as f64;

    // Output checks, outside the timers: the mapped reports equal the
    // in-RAM ones, and every pass reproduces the first pass's reports.
    let mut reference = None;
    let mut check = |ctx: &mut Ctx, in_ram: &Audit, mapped: &Audit| {
        ctx.check(
            in_ram.cfd == mapped.cfd,
            "mapped CFD report equals the in-RAM CFD report",
        );
        ctx.check(
            in_ram.denial == mapped.denial,
            "mapped denial report equals the in-RAM denial report",
        );
        let print = fingerprint(in_ram);
        ctx.check(
            *reference.get_or_insert(print) == print,
            "every pass reproduces the first pass's reports",
        );
        let counts = counts(in_ram);
        ctx.repeat(&counts);
        counts
    };

    let instance = base.clone();
    let (((warm_ram, _), (warm_mapped, _)), warmup_s) =
        timed(|| audit_pass(ctx, instance, &dir, &rules));
    let first = check(ctx, &warm_ram, &warm_mapped);
    drop((warm_ram, warm_mapped));

    let mut in_ram_s = Vec::new();
    let mut mapped_s = Vec::new();
    let passes = ctx.measure(3, true, |ctx, _| {
        ctx.attempt();
        let instance = base.clone();
        let (((in_ram, ram_t), (mapped, map_t)), t) = timed(|| {
            ctx.tracer
                .span(PASS, || audit_pass(ctx, instance, &dir, &rules))
        });
        check(ctx, &in_ram, &mapped);
        in_ram_s.push(ram_t);
        mapped_s.push(map_t);
        drop((in_ram, mapped));
        t
    });
    println!(
        "audit_s (in-RAM audit) median {:.6} s, audit_mapped_s (open + shard detection) median {:.6} s",
        stats::median(&in_ram_s),
        stats::median(&mapped_s)
    );
    Outcome {
        setup_s,
        warmup_s,
        passes,
        job_names: ["audit_dense_s", "audit_dense_tail_s"],
        counts: first,
        disk_bytes_per_input_byte: Some(disk_ratio),
    }
}
