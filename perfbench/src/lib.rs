//! The lab's benchmark: four closed-loop workloads (`separation`, `scale`,
//! `heal`, `adversary`) whose every trial output is checked, end-to-end
//! trial metrics, and a traced run that splits each trial by layer.
//!
//! ```text
//! perfbench        --workload heal --seed 1 --seconds 10
//! perfbench_traced --workload heal --seed 1 --seconds 10 --trace-dir DIR
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! print every metric by name and unit plus the run metadata. README.md
//! holds the workload table and the layer-to-metric map.

pub mod alloc;
pub mod meter;
pub mod workloads;

use local_obs::{FileSink, ResourceSample, SpanProfile, Trace, TraceEvent, TraceSink};
use meter::Meter;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Bench, Fnv, Trial};

/// Set-ups per run: at least `SETUP_MIN_REPS`, then more while the set-ups
/// so far took under `SETUP_BUDGET` (none in tiny mode), up to
/// `SETUP_MAX_REPS`. `setup_s` is their median.
const SETUP_MIN_REPS: usize = 11;
const SETUP_MAX_REPS: usize = 201;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// `trial_ms.p90` needs at least ten samples beyond it.
const P90_MIN_TRIALS: usize = 100;

/// The end-to-end metrics of the result line (`--trace 0`), the ones
/// `BENCHMARK.json` bounds. `trial_ms.p50`, `trial_ms.p90`, `trials_per_s`
/// and `failed_frac` are printed beside them.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("trial_ms.best", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// How a per-layer metric folds over a run's traced trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// The first traced trial's value: exact counts, which repeat for a
    /// given seed.
    First,
    /// The median over traced trials: times and ratios of times.
    Median,
}

/// Per-layer metrics with fixed names (the adversary families' groups are
/// appended by [`per_layer`]).
const PER_LAYER_FIXED: [(&str, &str, Fold); 47] = [
    ("graphs.gen_ms", "ms", Fold::Median),
    ("graphs.n", "count", Fold::First),
    ("graphs.m", "count", Fold::First),
    ("graphs.rss_mib", "MiB", Fold::First),
    ("model.flood_ms", "ms", Fold::Median),
    ("model.flood_sweeps", "count", Fold::First),
    ("model.flood_messages", "count", Fold::First),
    ("model.ns_per_msg", "ns", Fold::Median),
    ("model.flood_allocs", "count", Fold::First),
    ("sync.luby_ms", "ms", Fold::Median),
    ("sync.luby_sweeps", "count", Fold::First),
    ("sync.luby_messages", "count", Fold::First),
    ("sync.luby_allocs_per_vertex", "allocs/vertex", Fold::First),
    ("sync.overhead_x", "x", Fold::Median),
    ("sync.faulty_ms", "ms", Fold::Median),
    ("sync.faulty_sweeps", "count", Fold::First),
    ("sync.faulty_messages", "count", Fold::First),
    ("sync.slot_fill", "ratio", Fold::First),
    ("sync.us_per_sweep", "us", Fold::Median),
    ("sync.faulty_allocs", "count", Fold::First),
    ("sync.cut", "count", Fold::First),
    ("sync.crashed", "count", Fold::First),
    ("tree.det_ms", "ms", Fold::Median),
    ("tree.det_rounds", "count", Fold::First),
    ("tree.det_peel", "count", Fold::First),
    ("tree.det_allocs_per_vertex", "allocs/vertex", Fold::First),
    ("tree.rand_ms", "ms", Fold::Median),
    ("tree.rand_rounds", "count", Fold::First),
    ("tree.rand_phase2", "count", Fold::First),
    ("tree.rand_allocs_per_vertex", "allocs/vertex", Fold::First),
    ("tree.round_ratio", "ratio", Fold::First),
    ("lcl.check_ms", "ms", Fold::Median),
    ("lcl.checked", "count", Fold::First),
    ("lcl.skipped", "count", Fold::First),
    ("lcl.violations", "count", Fold::First),
    ("lcl.ns_per_vertex", "ns", Fold::Median),
    ("faults.plan_ms", "ms", Fold::Median),
    ("repair.ms", "ms", Fold::Median),
    ("repair.attempts", "count", Fold::First),
    ("repair.core", "count", Fold::First),
    ("repair.residue", "count", Fold::First),
    ("repair.allocs", "count", Fold::First),
    ("repair.recovered_frac", "ratio", Fold::Median),
    ("adversary.accept_frac", "ratio", Fold::First),
    ("trace.trial_ms", "ms", Fold::Median),
    ("trace.overhead_ms", "ms", Fold::Median),
    ("trace.glue_ms", "ms", Fold::Median),
];

/// Every per-layer metric (`--trace 1`) with its unit and fold, in print
/// order. A layer a workload does not run reads 0 on that workload.
fn per_layer() -> Vec<(String, &'static str, Fold)> {
    let mut out: Vec<(String, &'static str, Fold)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u, f)| (n.to_string(), u, f))
        .collect();
    for (name, unit) in workloads::adversary_metric_names() {
        let fold = if matches!(unit, "ms" | "us") {
            Fold::Median
        } else {
            Fold::First
        };
        out.push((name, unit, fold));
    }
    out
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`workloads::NAMES`].
    pub workload: String,
    /// Seed every input and trial seed derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run; set
    /// by the binary, not the command line.
    pub trace: bool,
    /// Shrink every workload so a run takes seconds (self-tests).
    pub tiny: bool,
    /// Where the traced run writes its trace and folded profile.
    pub trace_dir: Option<PathBuf>,
}

/// Parse `--workload NAME --seed N --seconds S [--tiny] [--trace-dir DIR]`.
///
/// # Errors
///
/// A missing or malformed value, or an unknown flag.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        trace_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            out.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace-dir" => out.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            out.workload
        ));
    }
    Ok(out)
}

/// Seed of trial `k`: a SplitMix64 step off the run seed.
pub fn trial_seed(seed: u64, k: u64) -> u64 {
    let mut x = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Run one trial, turning a panic into a failed trial.
fn run_trial(bench: &dyn Bench, seed: u64, meter: &mut Meter<'_>) -> Trial {
    catch_unwind(AssertUnwindSafe(|| bench.trial(seed, meter)))
        .unwrap_or_else(|_| workloads::failed())
}

/// Attempted and failed trials plus their wall times.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Trials run.
    pub attempted: u64,
    /// Trials whose output failed its check, whose run errored, or that
    /// panicked.
    pub failed: u64,
    /// Wall time of every trial, in milliseconds.
    pub ms: Vec<f64>,
}

impl Tally {
    /// Record one trial.
    pub fn record(&mut self, ok: bool, took: Duration) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.ms.push(took.as_secs_f64() * 1e3);
    }

    /// Trials that passed their checks.
    pub fn verified(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Failed ÷ attempted (0 when nothing ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of a non-empty sample.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The mean over `seeds` trial seeds of each seed's fastest trial, where
/// `ms[k]` is trial `k`'s time and trial `k` runs at seed index
/// `k % seeds`. A run that is slowed for a stretch still finds every
/// seed's time at full speed, and the seeds are fixed, so how many trials
/// fit does not change which inputs are measured.
fn best_per_seed(ms: &[f64], seeds: usize) -> f64 {
    let mut best = vec![f64::INFINITY; seeds];
    for (k, &t) in ms.iter().enumerate() {
        best[k % seeds] = best[k % seeds].min(t);
    }
    best.iter().sum::<f64>() / seeds as f64
}

/// The CPU model from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / f64::from(1 << 20)
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}

/// Render the result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_line(correct: bool, tally: &Tally, metrics: &[(String, f64, &str)]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        )
        .expect("writing to a String");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted, tally.failed
    )
}

/// Run the benchmark described by `args` and print its report.
///
/// # Errors
///
/// A workload that cannot be set up, or a trace file that cannot be
/// written. Failed trials are not errors: they are counted and reported.
pub fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Set-up, several times in this warm process; the last one is kept.
    let setup_trace = Trace::new(0);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut gen_ms = Vec::new();
    let mut bench = None;
    let budget = if args.tiny {
        Duration::ZERO
    } else {
        SETUP_BUDGET
    };
    alloc::set_counting(args.trace);
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < budget.as_secs_f64())
    {
        drop(bench.take());
        let start = Instant::now();
        let root = args.trace.then(|| setup_trace.span("setup"));
        let mut meter = if args.trace {
            Meter::on(&setup_trace)
        } else {
            Meter::off()
        };
        let b = workloads::setup(&args.workload, args.seed, args.tiny, &mut meter)?;
        drop(root);
        setup_s.push(start.elapsed().as_secs_f64());
        gen_ms.push(meter.get("graphs.gen").ms());
        bench = Some(b);
    }
    alloc::set_counting(false);
    let bench = bench.expect("at least one set-up");
    let (n, m) = bench.size();
    let rss_after_setup = ResourceSample::capture().map_or(0, |s| s.current_rss_bytes);

    // The timed phase: a closed loop, each trial starting when the previous
    // one ends. A traced run pairs every untraced trial with a traced one
    // at the same seed, so the tracing overhead is measured on equal input.
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    let mut traced = Tally::default();
    let mut fingerprints = Vec::new();
    let mut deterministic = true;
    let mut layer_values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut events: Vec<TraceEvent> = Vec::new();
    let phase = Instant::now();
    // Trial `k` runs at seed index `k % seeds`: a run repeats the same
    // inputs however many trials fit, and makes every seed's trial at least
    // twice, so the determinism gate always compares repeats.
    let seeds = bench.seeds();
    let mut k = 0;
    while k < 2 * seeds || phase.elapsed() < seconds {
        let seed = trial_seed(args.seed, (k % seeds) as u64);
        let t0 = Instant::now();
        let trial = run_trial(bench.as_ref(), seed, &mut Meter::off());
        tally.record(trial.ok, t0.elapsed());
        // Determinism gate: every repeat of a seed reproduces its first
        // trial's fingerprint.
        match fingerprints.get(k % seeds) {
            Some(&f) => deterministic &= trial.fingerprint == f,
            None => fingerprints.push(trial.fingerprint),
        }
        if args.trace {
            let trace = Trace::new(k as u64 + 1);
            alloc::set_counting(true);
            let t0 = Instant::now();
            let t = {
                let _root = trace.span("trial");
                run_trial(bench.as_ref(), seed, &mut Meter::on(&trace))
            };
            let took = t0.elapsed();
            alloc::set_counting(false);
            traced.record(t.ok, took);
            deterministic &= t.fingerprint == trial.fingerprint;
            for (name, value) in t.layers {
                layer_values.entry(name).or_default().push(value);
            }
            events.extend(trace.into_events());
        }
        k += 1;
    }
    let elapsed = phase.elapsed().as_secs_f64();

    let mut fp = Fnv::new();
    for &f in &fingerprints {
        fp.write(f);
    }
    let fp = fp.0;
    let peak_rss = ResourceSample::capture().map_or(0, |s| s.peak_rss_bytes);

    let p90 = (tally.ms.len() >= P90_MIN_TRIALS).then(|| quantile(&tally.ms, 0.9));
    println!(
        "# meta {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"tiny\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"n\": {n}, \"m\": {m}, \"setup_reps\": {}, \"trials\": {}, \"samples\": {{\"p50\": {}, \"p90\": {}}}, \"fingerprint\": \"{fp:016x}\", \"deterministic\": {deterministic}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        args.tiny,
        json_str(&cpu_model()),
        setup_s.len(),
        tally.attempted,
        tally.ms.len(),
        if p90.is_some() { tally.ms.len() } else { 0 },
    );

    let mut all = tally.clone();
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        all.attempted += traced.attempted;
        all.failed += traced.failed;
        traced_metrics(
            args,
            &tally,
            &traced,
            &layer_values,
            &gen_ms,
            (n, m, rss_after_setup),
            setup_trace.into_events(),
            events,
        )?
    } else {
        let values = [
            median(&setup_s),
            best_per_seed(&tally.ms, seeds),
            mib(peak_rss),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    };

    for (name, value, unit) in &metrics {
        let note = match name.as_str() {
            "setup_s" => format!("median of {} set-ups", setup_s.len()),
            "trial_ms.best" => format!("{} trials over {seeds} seeds", tally.ms.len()),
            _ => String::new(),
        };
        println!("{name:<44} {value:>16.4} {unit:<14} {note}");
    }
    println!(
        "{:<44} {:>16.4} {:<14} {} samples",
        "trial_ms.p50",
        median(&tally.ms),
        "ms",
        tally.ms.len()
    );
    match p90 {
        Some(p) => println!(
            "{:<44} {p:>16.4} {:<14} {} samples",
            "trial_ms.p90",
            "ms",
            tally.ms.len()
        ),
        None => println!(
            "{:<44} {:>16} {:<14} needs {P90_MIN_TRIALS} trials, ran {}",
            "trial_ms.p90",
            "-",
            "ms",
            tally.ms.len()
        ),
    }
    println!(
        "{:<44} {:>16.4} {:<14} {} verified in {elapsed:.3} s",
        "trials_per_s",
        tally.verified() as f64 / elapsed,
        "1/s",
        tally.verified()
    );
    println!(
        "{:<44} {:>16.4} {:<14} {} of {} failed",
        "failed_frac",
        all.failed_frac(),
        "ratio",
        all.failed,
        all.attempted
    );
    let correct = all.failed == 0 && deterministic;
    println!("{}", result_line(correct, &all, &metrics));
    Ok(())
}

/// Fold the traced trials into the per-layer metrics, write the trace and
/// its folded profile, and print the self-time split of the trial span.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    args: &Args,
    untraced: &Tally,
    traced: &Tally,
    layer_values: &BTreeMap<String, Vec<f64>>,
    gen_ms: &[f64],
    (n, m, rss): (usize, usize, u64),
    setup_events: Vec<TraceEvent>,
    trial_events: Vec<TraceEvent>,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let profile = SpanProfile::from_events(&trial_events);
    let root = profile
        .entries()
        .iter()
        .find(|e| e.path == "trial")
        .ok_or("traced run recorded no trial span")?;
    let trials = root.count as f64;
    println!("# profile: per traced trial, self time by span (from the trial span down)");
    for e in profile.entries() {
        println!(
            "#   {:<44} {:>12.3} ms {:>6.1}%",
            e.path,
            e.self_micros as f64 / 1e3 / trials,
            100.0 * e.self_micros as f64 / root.total_micros.max(1) as f64
        );
    }
    let self_sum: u64 = profile.entries().iter().map(|e| e.self_micros).sum();
    println!(
        "#   layer self-times + glue = {:.3} ms; trial span = {:.3} ms (orphan ends {}, unclosed {})",
        self_sum as f64 / 1e3 / trials,
        root.total_micros as f64 / 1e3 / trials,
        profile.orphan_ends(),
        profile.unclosed_starts()
    );

    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace.jsonl", args.workload));
        let mut sink = FileSink::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for e in setup_events.iter().chain(&trial_events) {
            sink.record(e);
        }
        sink.flush();
        let folded = dir.join(format!("{}.folded", args.workload));
        std::fs::write(&folded, profile.folded())
            .map_err(|e| format!("{}: {e}", folded.display()))?;
        println!("# trace: {} (folded: {})", path.display(), folded.display());
    }

    let traced_p50 = median(&traced.ms);
    let mut from_run: BTreeMap<&str, f64> = BTreeMap::new();
    from_run.insert("graphs.gen_ms", median(gen_ms));
    from_run.insert("graphs.n", n as f64);
    from_run.insert("graphs.m", m as f64);
    from_run.insert("graphs.rss_mib", mib(rss));
    from_run.insert("trace.trial_ms", traced_p50);
    from_run.insert("trace.overhead_ms", traced_p50 - median(&untraced.ms));
    from_run.insert("trace.glue_ms", root.self_micros as f64 / 1e3 / trials);

    Ok(per_layer()
        .into_iter()
        .map(|(name, unit, fold)| {
            let value = from_run.get(name.as_str()).copied().unwrap_or_else(|| {
                match (layer_values.get(&name), fold) {
                    (None, _) => 0.0,
                    (Some(v), Fold::First) => v[0],
                    (Some(v), Fold::Median) => median(v),
                }
            });
            (name, value, unit)
        })
        .collect())
}

/// Entry point shared by both binaries. `counting` is whether the binary
/// installed [`alloc::CountingAlloc`]; only that binary may trace.
pub fn main_with(counting: bool) -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => Args {
            trace: counting,
            ..a
        },
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench[_traced] --workload NAME --seed N --seconds S [--tiny] [--trace-dir DIR]"
            );
            return std::process::ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
