//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-decode|single-exact|disagg-observed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the named workload as a single-process batch simulation, over
//! and over for `--seconds`, checks every repetition's outputs, and
//! prints a table and, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (medians over untraced repetitions);
//! with `--trace 1` they are the per-layer ones from traced repetitions,
//! interleaved with untraced ones to price the tracing itself.
//!
//! The exact-mode reference behind the fidelity metrics runs in a child
//! process (`--reference`), once per build and seed, and is cached next
//! to the executable.

mod check;
mod layers;
mod measure;
mod sys;
mod trace;
mod workload;

use std::time::Instant;

use check::{error_factor, Outcome, Reference};
use layers::{LayerValues, LAYER_METRICS};
use measure::{Prepared, Rep};
use workload::Workload;

/// Fewest untraced repetitions a run reports a median over.
const MIN_REPS: usize = 5;
/// Fewest repetitions of each kind in a traced run.
const MIN_TRACED_REPS: usize = 2;

/// `(name, unit, better)` of every end-to-end metric.
const END_TO_END: [(&str, &str, &str); 7] = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("iters_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ttft_p99_err_factor", "x", "lower"),
    ("tpot_p99_err_factor", "x", "lower"),
    ("makespan_err_factor", "x", "lower"),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut reference) = (None, 10.0_f64, false, false);
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            if flag == "--reference" {
                reference = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {value} (expected {})", names.join(" | "))
                    })?)
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if seconds.is_nan() || seconds <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            reference,
        })
    }
}

/// Median (mean of the middle two for an even count).
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles (medians of the lower and upper halves).
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let half = v.len() / 2;
    (
        median(v[..half.max(1)].iter().copied()),
        median(v[v.len() - half.max(1)..].iter().copied()),
    )
}

/// A JSON number; non-finite values (never expected) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let dir = measure::data_dir()?;
    let prep = Prepared::new(args.workload, args.seed, &dir)?;
    let build_id = sys::build_id()?;
    let cache_dir = dir.join("reference");
    std::fs::create_dir_all(&cache_dir).map_err(|e| format!("create reference cache: {e}"))?;
    let ref_path = Reference::cache_path(&cache_dir, &build_id, args.workload, args.seed);
    if args.reference {
        return Reference::compute(args.workload, &prep.text, &prep.offered)?.store(&ref_path);
    }
    let reference = Reference::load_or_compute(&ref_path, args.workload, args.seed)?;

    // The measured loop: untraced repetitions, interleaved one-for-one
    // with traced ones under --trace 1, until --seconds have passed. A
    // traced run starts with a traced repetition, so its memory samples
    // come from a fresh process.
    let start = Instant::now();
    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    loop {
        let want_traced = args.trace && traced.len() <= untraced.len();
        let rep = measure::run_once(&prep, want_traced)?;
        if want_traced { &mut traced } else { &mut untraced }.push(rep);
        let enough = if args.trace {
            untraced.len() >= MIN_TRACED_REPS && traced.len() >= MIN_TRACED_REPS
        } else {
            untraced.len() >= MIN_REPS
        };
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let peak_rss_mb = sys::status_mb("VmHWM")?;

    // The gate: every repetition must pass and reproduce the digest.
    let offered = prep.offered.len() as u64;
    let reps = untraced.len() + traced.len();
    let mut failed = 0u64;
    for rep in untraced.iter().chain(&traced) {
        let verdict = match &rep.outcome {
            Ok(o) if o.digest == reference.digest => Ok(()),
            Ok(o) => Err(format!(
                "digest {:016x} differs from the reference run's {:016x}",
                o.digest, reference.digest
            )),
            Err(e) => Err(e.clone()),
        };
        if let Err(e) = verdict {
            eprintln!("perfbench: check failed: {e}");
            failed += offered;
        }
    }
    let outcome: Option<&Outcome> = untraced.iter().find_map(|r| r.outcome.as_ref().ok());

    println!(
        "perfbench {} seed={} seconds={} trace={}: {reps} repetitions ({} untraced, {} \
         traced) of {offered} requests, measured over {:.2}s",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
    );
    if let Some(o) = outcome {
        print_outputs(o, &reference.exact);
    }

    let walls: Vec<f64> = untraced.iter().map(|r| r.phases.wall()).collect();
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let layer = traced_layers(&untraced, &traced);
        print_layers(&layer, &traced);
        LAYER_METRICS.iter().map(|m| (m.name, m.unit, layer[m.name])).collect()
    } else {
        let exact = &reference.exact;
        let factor =
            |f: fn(&Outcome) -> f64| outcome.map_or(0.0, |o| error_factor(f(o), f(exact)));
        let setups: Vec<f64> = untraced.iter().map(|r| r.phases.setup()).collect();
        let rates: Vec<f64> = untraced.iter().map(Rep::iters_per_s).collect();
        let samples = [&walls, &setups, &rates];
        let values = [
            median(walls.iter().copied()),
            median(setups.iter().copied()),
            median(rates.iter().copied()),
            peak_rss_mb,
            factor(|o| o.ttft_p99_s),
            factor(|o| o.tpot_p99_s),
            factor(|o| o.makespan_s),
        ];
        println!("end-to-end: medians over {} untraced repetitions", untraced.len());
        for (i, (&(name, unit, better), value)) in END_TO_END.iter().zip(values).enumerate() {
            let spread = samples.get(i).map_or(String::new(), |s| {
                let (q1, q3) = quartiles(s);
                format!("  q1 {q1:.6} q3 {q3:.6}")
            });
            println!("  {name:<22} {value:>14.6} {unit:<4} ({better} is better){spread}");
        }
        END_TO_END.iter().zip(values).map(|(&(name, unit, _), v)| (name, unit, v)).collect()
    };

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value))
        })
        .collect();
    let provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"host_parallelism\": {}, \"profile\": \"{}\", \"commit\": {}, \
         \"build_id\": \"{build_id}\"}}",
        args.workload.name(),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        sys::nproc(),
        sys::host_parallelism(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        sys::commit().map_or("null".into(), |c| format!("\"{c}\"")),
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        offered * reps as u64,
        metrics_json.join(", ")
    );
    write_result(&dir, &args, &provenance, &result, &walls, traced.last())?;
    println!("provenance: {provenance}");
    println!("{result}");
    Ok(())
}

/// Prints the simulated outputs (not metrics) beside the exact mode's.
fn print_outputs(o: &Outcome, exact: &Outcome) {
    let pct = |a: f64, e: f64| 100.0 * (a - e) / e;
    println!(
        "outputs: ttft p50 {:.6}s p99 {:.6}s, tpot p50 {:.6}s p99 {:.6}s, makespan {:.6}s, \
         digest {:016x}",
        o.ttft_p50_s, o.ttft_p99_s, o.tpot_p50_s, o.tpot_p99_s, o.makespan_s, o.digest
    );
    println!(
        "exact mode: ttft p99 {:.6}s ({:+.3}%), tpot p99 {:.6}s ({:+.3}%), makespan {:.6}s \
         ({:+.3}%)",
        exact.ttft_p99_s,
        pct(o.ttft_p99_s, exact.ttft_p99_s),
        exact.tpot_p99_s,
        pct(o.tpot_p99_s, exact.tpot_p99_s),
        exact.makespan_s,
        pct(o.makespan_s, exact.makespan_s),
    );
}

/// Per-layer medians over the traced repetitions (memory from the first
/// one, taken in a fresh process), plus the tracing overhead against the
/// interleaved untraced ones.
fn traced_layers(untraced: &[Rep], traced: &[Rep]) -> LayerValues {
    let mut out = LayerValues::new();
    for metric in LAYER_METRICS {
        let values = traced.iter().filter_map(|r| r.layers.as_ref()?.get(metric.name).copied());
        let value =
            if metric.name.starts_with("mem.") { values.take(1).sum() } else { median(values) };
        out.insert(metric.name, value);
    }
    let wall = |reps: &[Rep]| median(reps.iter().map(|r| r.phases.wall()));
    out.insert("trace.overhead_s", wall(traced) - wall(untraced));
    out
}

fn print_layers(layer: &LayerValues, traced: &[Rep]) {
    println!(
        "per-layer: medians over {} traced repetitions (mem.* from the first); step \
         percentiles over fleet.steps samples each",
        traced.len()
    );
    println!(
        "  {:<26} {:>14} {:<6} {:<7} {:<30} {:<30} should not move on",
        "metric", "value", "unit", "better", "should move", "on"
    );
    for m in LAYER_METRICS {
        println!(
            "  {:<26} {:>14.6} {:<6} {:<7} {:<30} {:<30} {}",
            m.name, layer[m.name], m.unit, m.better, m.moves, m.on, m.not_on
        );
    }
}

/// Writes the run's result, provenance, every untraced repetition's
/// `wall_s` in run order, and (for traced runs) the last traced
/// repetition's spans next to the executable.
fn write_result(
    dir: &std::path::Path,
    args: &Args,
    provenance: &str,
    result: &str,
    walls: &[f64],
    traced: Option<&Rep>,
) -> Result<(), String> {
    let results = dir.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("create results: {e}"))?;
    let spans = traced.and_then(|r| r.spans.as_ref()).map_or("null".into(), |s| s.to_json());
    let walls: Vec<String> = walls.iter().map(|&w| num(w)).collect();
    let path = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"provenance\": {provenance}, \"result\": {result}, \"wall_s_samples\": [{}], \
         \"spans\": {spans}}}\n",
        walls.join(", ")
    );
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
}
