//! End-to-end and per-layer benchmark of the data-quality workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <onboard|audit_dense|monitor> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload.  Inputs are synthesized from `--seed`
//! (synthesis is timed but not part of any gated metric), set-up runs, and
//! then whole user jobs ("passes"; a monitor round) repeat until
//! `--seconds` have elapsed.  Output checks run outside the timers.  The
//! last stdout line is one JSON object: with `--trace 0` it carries the
//! end-to-end metrics, with `--trace 1` the per-layer metrics from spans
//! the benchmark records around its calls into each layer.  The process
//! exits non-zero when any output check fails.  See `perfbench/README.md`
//! for the workloads and what each metric should respond to.

mod audit;
mod monitor;
mod onboard;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Per-pass exact counts of one workload (layer work counters).
pub type Counts = BTreeMap<&'static str, u64>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Run-wide state shared by the workloads.
pub struct Ctx {
    pub tracer: Tracer,
    pub threads: usize,
    pub seed: u64,
    seconds: f64,
    trace: bool,
    /// Scratch directory for persisted relations, removed at exit.
    pub work_dir: PathBuf,
    attempted: u64,
    failed: u64,
    first_counts: Option<Counts>,
}

impl Ctx {
    /// Records one attempted operation or output check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }

    /// Counts one timed operation that cannot fail on its own (its output
    /// is checked separately).
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Exact-repeat check: every pass of a run must report the same layer
    /// counts as the first.  A difference is a defect in the program, not
    /// noise, and counts as a failed check.
    pub fn repeat(&mut self, counts: &Counts) {
        match &self.first_counts {
            None => self.first_counts = Some(counts.clone()),
            Some(first) => {
                let same = first == counts;
                if !same {
                    for (k, v) in counts {
                        if first.get(k) != Some(v) {
                            println!(
                                "count {k} differs across passes: {:?} then {v}",
                                first.get(k)
                            );
                        }
                    }
                }
                self.check(same, "per-pass layer counts repeat exactly");
            }
        }
    }

    /// Repeats timed passes until the run's budget is spent (at least
    /// `min_passes`).  `pass` gets the pass id and returns the wall time of
    /// its timed job in seconds; it does its preparation, drops and output
    /// checks outside that time.  A traced run alternates untraced and
    /// traced passes, so drift over the run biases neither side.
    ///
    /// With `fresh_heap` each pass starts with the allocator's free pages
    /// handed back to the OS, as a one-shot job in a fresh process would;
    /// without it the heap stays warm across passes, as in a long-lived
    /// service.
    pub fn measure(
        &mut self,
        min_passes: usize,
        fresh_heap: bool,
        mut pass: impl FnMut(&mut Ctx, u32) -> f64,
    ) -> Passes {
        let mut out = Passes::default();
        let start = Instant::now();
        let mut id = 0u32;
        while out.untraced.len() < min_passes
            || (self.trace && out.traced.len() < min_passes)
            || start.elapsed().as_secs_f64() < self.seconds
        {
            id += 1;
            let traced = self.trace && id.is_multiple_of(2);
            if fresh_heap {
                stats::release_free_heap();
            }
            stats::reset_peak_rss();
            self.tracer.set_pass(id);
            self.tracer.set_enabled(traced);
            let t = pass(self, id);
            self.tracer.set_enabled(false);
            if traced {
                out.traced.push(t);
            } else {
                out.untraced.push(t);
                out.peak_rss_mib.extend(stats::peak_rss_mib());
            }
        }
        out
    }
}

/// Timed pass durations of one run, in seconds.
#[derive(Default)]
pub struct Passes {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
    /// Peak resident set of each untraced pass, MiB.
    pub peak_rss_mib: Vec<f64>,
}

/// What a workload hands back to the reporter.
pub struct Outcome {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of the warm-up pass(es) that ran after set-up, seconds.
    pub warmup_s: f64,
    pub passes: Passes,
    /// The names the median and tail job times go by in the workload's own
    /// terms; the suffix gives the unit they print in (`_s` or `_ms`).
    pub job_names: [&'static str; 2],
    /// Layer counts of one pass (identical across passes; see
    /// [`Ctx::repeat`]).
    pub counts: Counts,
    /// Persisted bytes per CSV byte of the live data, where the workload
    /// persists.
    pub disk_bytes_per_input_byte: Option<f64>,
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Total size of the files in `dir`: a persisted relation's footprint.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("store directory lists")
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Runs the workload's set-up [`SETUP_REPS`] times from the synthesized
/// input, keeping the last state; returns it with each repetition's time.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let (s, t) = timed(&mut setup);
        times.push(t);
        state = Some(s);
    }
    (state.expect("at least one set-up repetition"), times)
}

/// Per-layer time metrics: metric name, span name, unit, scale from
/// seconds.  A layer a workload leaves idle reports 0.
const LAYER_TIMES: &[(&str, &str, &str, f64)] = &[
    ("csv.parse_s", "csv.parse", "s", 1.0),
    ("columnar.encode_s", "columnar.encode", "s", 1.0),
    ("index.build_s", "index.build", "s", 1.0),
    ("discover.cfd_s", "discover.cfd", "s", 1.0),
    ("analysis.vet_s", "analysis.vet", "s", 1.0),
    ("detect.mined_s", "detect.mined", "s", 1.0),
    ("detect.cfd_s", "detect.cfd", "s", 1.0),
    ("detect.denial_s", "detect.denial", "s", 1.0),
    ("persist.open_s", "persist.open", "s", 1.0),
    ("detect.cfd_shards_s", "detect.cfd_shards", "s", 1.0),
    ("detect.denial_shards_s", "detect.denial_shards", "s", 1.0),
    ("instance.write_ms", "instance.write", "ms", 1e3),
    ("columnar.patch_ms", "columnar.patch", "ms", 1e3),
    ("columnar.release_ms", "columnar.release", "ms", 1e3),
    ("index.patch_ms", "index.patch", "ms", 1e3),
    ("maintain.cfd_ms", "maintain.cfd", "ms", 1e3),
    ("persist.save_ms", "persist.save", "ms", 1e3),
];

/// Per-layer exact counts: metric name (also the [`Counts`] key), unit.
const LAYER_COUNTS: &[(&str, &str)] = &[
    ("detect.violations_cfd", "count"),
    ("detect.violations_denial", "count"),
    ("discover.candidates", "count"),
    ("discover.rules_mined", "count"),
    ("analysis.rules_vetted", "count"),
    ("analysis.nodes", "count"),
    ("pool.hits", "count"),
    ("pool.misses", "count"),
    ("pool.patches", "count"),
    ("pool.appends", "count"),
    ("persist.bytes_written_per_round", "bytes"),
    ("persist.incremental_saves", "count"),
];

fn metric(out: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    println!("  {name:<34} {value:>16.6} {unit}");
    out.push(format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        json_number(value)
    ));
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let mut ctx = Ctx {
        tracer: Tracer::new(),
        threads,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
        attempted: 0,
        failed: 0,
        first_counts: None,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={threads} (available_parallelism)",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match args.workload.as_str() {
        "onboard" => onboard::run(&mut ctx),
        "audit_dense" => audit::run(&mut ctx),
        "monitor" => monitor::run(&mut ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work_dir);

    let fail_ratio = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    let mut json = Vec::new();
    println!("end-to-end ({}):", args.workload);
    let setup_s = stats::median(&outcome.setup_s) + outcome.warmup_s;
    let jobs = &outcome.passes.untraced;
    let p50 = stats::median(jobs);
    let tail = stats::tail(jobs);
    let [p50_name, tail_name] = outcome.job_names;
    let (scale, unit) = if p50_name.ends_with("_ms") {
        (1e3, "ms")
    } else {
        (1.0, "s")
    };
    println!(
        "  {p50_name} = {:.6} {unit} (median of {} jobs); {tail_name} = {:.6} {unit} (p{:.1} of {} samples)",
        p50 * scale,
        jobs.len(),
        tail.value * scale,
        tail.percentile,
        tail.samples
    );
    println!(
        "  job times {:?} s",
        jobs.iter()
            .map(|t| (t * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    println!(
        "  set-up repetitions {:?} s + warm-up {:.6} s",
        outcome.setup_s, outcome.warmup_s
    );
    println!(
        "  fail_ratio = {fail_ratio} ({} of {} failed)",
        ctx.failed, ctx.attempted
    );
    if let Some(d) = outcome.disk_bytes_per_input_byte {
        println!("  disk_bytes_per_input_byte = {d:.6}");
    }
    if !args.trace {
        metric(&mut json, "setup_s", setup_s, "s");
        metric(&mut json, "pass_p50_s", p50, "s");
        metric(
            &mut json,
            "peak_rss_mib",
            stats::median(&outcome.passes.peak_rss_mib),
            "MiB",
        );
    } else {
        let spans = ctx.tracer.spans();
        let trace_path = PathBuf::from(".bench_work")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write_jsonl(&trace_path) {
            Ok(()) => println!(
                "  {} spans written to {}",
                spans.len(),
                trace_path.display()
            ),
            Err(e) => println!("  spans not written to {}: {e}", trace_path.display()),
        }
        let layers = trace::layer_times(&spans);
        println!("per-layer ({}):", args.workload);
        for &(name, span, unit, scale) in LAYER_TIMES {
            let v = layers
                .self_s
                .get(span)
                .map_or(0.0, |s| stats::median(s) * scale);
            metric(&mut json, name, v, unit);
        }
        for &(name, unit) in LAYER_COUNTS {
            let v = outcome.counts.get(name).copied().unwrap_or(0) as f64;
            metric(&mut json, name, v, unit);
        }
        let patches = outcome.counts.get("pool.patches").copied().unwrap_or(0);
        let misses = outcome.counts.get("pool.misses").copied().unwrap_or(0);
        let patch_ratio = if misses == 0 {
            0.0
        } else {
            patches as f64 / misses as f64
        };
        metric(&mut json, "pool.patch_ratio", patch_ratio, "ratio");
        metric(
            &mut json,
            "persist.disk_bytes_per_input_byte",
            outcome.disk_bytes_per_input_byte.unwrap_or(0.0),
            "ratio",
        );
        let coverage = stats::median(&layers.coverage);
        metric(&mut json, "layer_coverage", coverage, "ratio");
        let overhead = stats::median(&outcome.passes.traced) / stats::median(jobs);
        metric(&mut json, "trace_overhead", overhead, "ratio");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.failed == 0,
        ctx.attempted,
        ctx.failed,
        json.join(", ")
    );
    if ctx.failed > 0 {
        std::process::exit(1);
    }
}
