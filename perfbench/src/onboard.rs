//! `onboard`: a new customer relation arrives as CSV text and is profiled
//! end to end — parse, encode, mine CFDs, vet them, and detect with the
//! vetted rules plus the paper's CFDs.
//!
//! Discovery, vetting and many-rule detection do the work; the violation
//! report is small (zero on the mined rules), so a change to report
//! emission must leave this workload unchanged.  Nothing is persisted.

use crate::trace::PASS;
use crate::{repeated_setup, timed, Counts, Ctx, Outcome};
use dq_core::analysis::{analyze_cfds, AnalysisOptions, AnalyzedCfds};
use dq_core::{Cfd, CfdViolationReport, DetectionEngine};
use dq_discovery::cfd_discovery::{discover_cfds, CfdDiscoveryConfig, DiscoveredCfds};
use dq_gen::customer::{customer_schema, generate_customers, paper_cfds, CustomerConfig};
use dq_relation::{csv, RelationInstance};
use std::collections::BTreeSet;
use std::sync::Arc;

const TUPLES: usize = 200_000;
const ERROR_RATE: f64 = 0.005;
/// `(CC, AC)` groups of about 50 tuples: 2 countries × 2000 area codes.
const CITIES_PER_COUNTRY: usize = 2_000;

/// Everything one onboarding pass produces, dropped outside the timer.
struct Onboarded {
    _instance: RelationInstance,
    discovered: DiscoveredCfds,
    vetted: Option<AnalyzedCfds>,
    mined_report: CfdViolationReport,
    paper_report: CfdViolationReport,
    engine: DetectionEngine,
}

fn onboard_pass(ctx: &Ctx, text: &str, paper: &[Cfd]) -> Onboarded {
    let tr = &ctx.tracer;
    let schema = customer_schema();
    let instance = tr.span("csv.parse", || {
        csv::from_text(Arc::clone(&schema), text).expect("synthesized CSV parses")
    });
    tr.span("columnar.encode", || {
        let store = instance.columnar();
        for attr in 0..schema.arity() {
            store.column(&instance, attr);
        }
    });
    let config = CfdDiscoveryConfig {
        exclude: vec![schema.attr("phn"), schema.attr("name")],
        threads: ctx.threads,
        ..CfdDiscoveryConfig::default()
    };
    let discovered = tr.span("discover.cfd", || discover_cfds(&instance, &config));
    let options = AnalysisOptions {
        threads: ctx.threads,
        minimal_cover: true,
        lint: true,
    };
    let vetted = tr.span("analysis.vet", || {
        analyze_cfds(&discovered.all(), &options).ok()
    });
    let rules: &[Cfd] = vetted.as_ref().map_or(&[], |v| &v.rules);
    let engine = DetectionEngine::with_threads(ctx.threads);
    let lhs_sets: BTreeSet<&[usize]> = rules.iter().chain(paper).map(Cfd::lhs).collect();
    tr.span("index.build", || {
        for lhs in lhs_sets {
            engine.pool().interned_for(&instance, lhs, ctx.threads);
        }
    });
    let mined_report = tr.span("detect.mined", || {
        engine.detect_cfd_violations(&instance, rules)
    });
    let paper_report = tr.span("detect.cfd", || {
        engine.detect_cfd_violations(&instance, paper)
    });
    Onboarded {
        _instance: instance,
        discovered,
        vetted,
        mined_report,
        paper_report,
        engine,
    }
}

/// Output checks of one pass, outside the timer; returns its layer counts.
fn check_pass(ctx: &mut Ctx, out: &Onboarded) -> Counts {
    ctx.check(
        out.mined_report.is_clean(),
        "mined rules hold on the relation they were mined from",
    );
    ctx.check(out.vetted.is_some(), "mined rule set passes vetting");
    if let Some(vetted) = &out.vetted {
        // The consistency witness must satisfy every vetted rule.
        let consistent = vetted.witness.as_ref().is_some_and(|w| {
            let mut one = RelationInstance::new(customer_schema());
            one.insert(w.clone()).is_ok()
                && dq_core::detect_cfd_violations(&one, &vetted.rules).is_clean()
        });
        ctx.check(
            consistent,
            "vetted rule set is consistent (witness satisfies it)",
        );
    }
    let pool = out.engine.pool_stats();
    let mut counts = Counts::new();
    counts.insert("detect.violations_cfd", out.paper_report.total() as u64);
    counts.insert(
        "discover.candidates",
        out.discovered.candidates_checked as u64,
    );
    counts.insert("discover.rules_mined", out.discovered.len() as u64);
    counts.insert(
        "analysis.rules_vetted",
        out.vetted.as_ref().map_or(0, |v| v.rules.len() as u64),
    );
    counts.insert(
        "analysis.nodes",
        out.vetted.as_ref().map_or(0, |v| v.stats.nodes),
    );
    counts.insert("pool.hits", pool.hits);
    counts.insert("pool.misses", pool.misses);
    counts.insert("pool.patches", pool.patches);
    counts.insert("pool.appends", pool.appends);
    ctx.repeat(&counts);
    counts
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let (text, synth_s) = timed(|| {
        let w = generate_customers(&CustomerConfig {
            tuples: TUPLES,
            error_rate: ERROR_RATE,
            seed: ctx.seed,
            cities_per_country: CITIES_PER_COUNTRY,
        });
        csv::to_text(&w.dirty).expect("generated relation renders as CSV")
    });
    println!(
        "synthesis {synth_s:.3} s (not gated): {TUPLES} tuples, {} CSV bytes",
        text.len()
    );
    let paper = paper_cfds();
    // The relation arrives as a file; set-up reads it into memory.
    std::fs::create_dir_all(&ctx.work_dir).expect("create work dir");
    let input = ctx.work_dir.join("customer.csv");
    std::fs::write(&input, &text).expect("write input CSV");
    drop(text);
    let (text, setup_s) = repeated_setup(|| std::fs::read_to_string(&input).expect("read input"));
    let (warm, warmup_s) = timed(|| onboard_pass(ctx, &text, &paper));
    let counts = check_pass(ctx, &warm);
    drop(warm);

    let passes = ctx.measure(2, true, |ctx, _| {
        ctx.attempt();
        let (out, t) = timed(|| ctx.tracer.span(PASS, || onboard_pass(ctx, &text, &paper)));
        check_pass(ctx, &out);
        drop(out);
        t
    });
    Outcome {
        setup_s,
        warmup_s,
        passes,
        job_names: ["onboard_s", "onboard_tail_s"],
        counts,
        disk_bytes_per_input_byte: None,
    }
}
