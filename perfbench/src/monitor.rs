//! `monitor`: a customer relation kept current under writes, one client in
//! a closed loop.  Each round applies cell edits and appends drawn from
//! donor tuples, brings the CFD violation report up to date through the
//! engine's warm pool, and saves the relation.
//!
//! The write path, store and index patches, incremental maintenance and
//! persistence do the work; discovery, vetting and the cold kernels stay
//! idle.  Edits defeat the incremental save, so every save rewrites the
//! relation; the persist layer issues no fsync.

use crate::trace::PASS;
use crate::{dir_bytes, repeated_setup, timed, Counts, Ctx, Outcome};
use dq_core::{Cfd, DetectionEngine, MaintainedCfdViolations};
use dq_gen::customer::{generate_customers, paper_cfds, CustomerConfig};
use dq_relation::instance::CellRef;
use dq_relation::store::persist::open_mmap;
use dq_relation::{csv, RelationInstance, Tuple, TupleId};
use std::collections::BTreeSet;
use std::path::Path;

const TUPLES: usize = 300_000;
const ERROR_RATE: f64 = 0.005;
/// `(CC, AC)` groups of about 50 tuples, the `onboard` shape.
const CITIES_PER_COUNTRY: usize = 3_000;
const DONORS: usize = 20_000;
const EDITS_PER_ROUND: usize = 30;
const APPENDS_PER_ROUND: usize = 15;
/// Warm-up rounds run as part of set-up.
const WARMUP_ROUNDS: usize = 5;
/// The reported layer counts cover this many timed rounds, so they do not
/// depend on how many rounds fit in the run.
const COUNTED_ROUNDS: u32 = 20;
/// The maintained report is checked against full re-detection every this
/// many rounds, and at the end.
const CHECK_EVERY: u32 = 32;

/// Seeded 64-bit LCG (Knuth's MMIX constants) drawing the writes.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

struct Monitor {
    instance: RelationInstance,
    engine: DetectionEngine,
    maintained: MaintainedCfdViolations,
    lcg: Lcg,
}

/// What one round did, read from public stats outside the timer.
struct RoundWork {
    bytes_written: u64,
    incremental: bool,
    pool: [u64; 4],
}

fn lhs_sets(cfds: &[Cfd]) -> BTreeSet<Vec<usize>> {
    cfds.iter().map(|c| c.lhs().to_vec()).collect()
}

fn round(ctx: &Ctx, m: &mut Monitor, donors: &[Tuple], cfds: &[Cfd], dir: &Path) -> RoundWork {
    let tr = &ctx.tracer;
    let before = m.engine.pool_stats();
    let arity = m.instance.schema().arity();
    let slots = m.instance.len();
    let (lcg, instance) = (&mut m.lcg, &mut m.instance);
    tr.span("instance.write", || {
        for _ in 0..EDITS_PER_ROUND {
            let tuple = TupleId(lcg.below(slots));
            let attr = lcg.below(arity);
            let value = donors[lcg.below(donors.len())].get(attr).clone();
            instance
                .update_cell(CellRef::new(tuple, attr), value)
                .expect("donor values fit the schema");
        }
        for _ in 0..APPENDS_PER_ROUND {
            let donor = donors[lcg.below(donors.len())].clone();
            instance.insert(donor).expect("donor tuples fit the schema");
        }
    });
    let instance = &m.instance;
    let store = tr.span("columnar.patch", || {
        let store = instance.columnar();
        for attr in 0..arity {
            store.column(instance, attr);
        }
        store
    });
    tr.span("index.patch", || {
        for lhs in lhs_sets(cfds) {
            m.engine.pool().interned_for(instance, &lhs, ctx.threads);
        }
    });
    let next = tr.span("maintain.cfd", || {
        m.engine
            .maintain_cfd_violations(instance, cfds, Some(&m.maintained))
    });
    // Releasing the previous state frees the snapshot it pinned.
    let prev = std::mem::replace(&mut m.maintained, next);
    tr.span("columnar.release", || drop(prev));
    let saved = tr.span("persist.save", || {
        store.save_to(instance, dir).expect("save relation")
    });
    let after = m.engine.pool_stats();
    RoundWork {
        bytes_written: saved.bytes_written,
        incremental: saved.incremental,
        pool: [
            after.hits - before.hits,
            after.misses - before.misses,
            after.patches - before.patches,
            after.appends - before.appends,
        ],
    }
}

/// The maintained report must equal full detection by a fresh engine.
fn check_maintained(ctx: &mut Ctx, m: &Monitor, cfds: &[Cfd]) {
    let full = DetectionEngine::with_threads(ctx.threads).detect_cfd_violations(&m.instance, cfds);
    ctx.check(
        &full == m.maintained.report(),
        "maintained report equals full re-detection",
    );
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let ((base, donors), synth_s) = timed(|| {
        let config = |tuples, seed| CustomerConfig {
            tuples,
            error_rate: ERROR_RATE,
            seed,
            cities_per_country: CITIES_PER_COUNTRY,
        };
        let base = generate_customers(&config(TUPLES, ctx.seed)).dirty;
        let donors = generate_customers(&config(DONORS, ctx.seed ^ 0x5eed_d0d0))
            .dirty
            .tuples();
        (base, donors)
    });
    println!("synthesis {synth_s:.3} s (not gated): {TUPLES} tuples, {DONORS} donors");
    let cfds = paper_cfds();
    let dir = ctx.work_dir.join("customer.store");

    // Set-up: load the relation, encode it, detect in full and save once.
    let (monitor, setup_s) = repeated_setup(|| {
        let instance = base.clone();
        let engine = DetectionEngine::with_threads(ctx.threads);
        let store = instance.columnar();
        for attr in 0..instance.schema().arity() {
            store.column(&instance, attr);
        }
        let maintained = engine.maintain_cfd_violations(&instance, &cfds, None);
        store.save_to(&instance, &dir).expect("initial save");
        Monitor {
            instance,
            engine,
            maintained,
            lcg: Lcg(ctx.seed),
        }
    });
    let mut m = monitor;
    let csv_bytes = csv::to_text(&m.instance)
        .expect("relation renders as CSV")
        .len();
    let disk_ratio = dir_bytes(&dir) as f64 / csv_bytes as f64;
    let ((), warmup_s) = timed(|| {
        for _ in 0..WARMUP_ROUNDS {
            round(ctx, &mut m, &donors, &cfds, &dir);
        }
    });
    check_maintained(ctx, &m, &cfds);

    let mut bytes_counted = 0u64;
    let mut incremental_saves = 0u64;
    let mut violations_after_counted = 0u64;
    let mut first_pool = None;
    let passes = ctx.measure(COUNTED_ROUNDS as usize, false, |ctx, id| {
        ctx.attempt();
        let (work, t) = timed(|| {
            ctx.tracer
                .span(PASS, || round(ctx, &mut m, &donors, &cfds, &dir))
        });
        // Every round patches the same indexes: its pool work repeats
        // exactly.
        match first_pool {
            None => first_pool = Some(work.pool),
            Some(p) => ctx.check(p == work.pool, "per-round pool counts repeat exactly"),
        }
        if id <= COUNTED_ROUNDS {
            bytes_counted += work.bytes_written;
            incremental_saves += u64::from(work.incremental);
            if id == COUNTED_ROUNDS {
                violations_after_counted = m.maintained.report().total() as u64;
            }
        }
        if id % CHECK_EVERY == 0 {
            check_maintained(ctx, &m, &cfds);
        }
        t
    });

    // Final checks: maintenance against full detection, and the saved
    // relation re-opened and detected over its shards against the in-RAM
    // detection.
    check_maintained(ctx, &m, &cfds);
    let mapped = open_mmap(&dir).expect("saved relation opens");
    let engine = DetectionEngine::with_threads(ctx.threads);
    ctx.check(
        engine.detect_cfd_violations_from_shards(&mapped, &cfds)
            == engine.detect_cfd_violations(&m.instance, &cfds),
        "re-opened store detects the same violations as the in-RAM relation",
    );

    let pool = first_pool.unwrap_or_default();
    let mut counts = Counts::new();
    counts.insert("detect.violations_cfd", violations_after_counted);
    counts.insert("pool.hits", pool[0]);
    counts.insert("pool.misses", pool[1]);
    counts.insert("pool.patches", pool[2]);
    counts.insert("pool.appends", pool[3]);
    counts.insert(
        "persist.bytes_written_per_round",
        bytes_counted / u64::from(COUNTED_ROUNDS),
    );
    counts.insert("persist.incremental_saves", incremental_saves);
    Outcome {
        setup_s,
        warmup_s,
        passes,
        job_names: ["round_p50_ms", "round_tail_ms"],
        counts,
        disk_bytes_per_input_byte: Some(disk_ratio),
    }
}
