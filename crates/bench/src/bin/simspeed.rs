//! simspeed — the repo's serving-simulator throughput baseline.
//!
//! Runs a decode-heavy 512-request bursty trace through the three serving
//! shapes (single replica, 4-replica cluster, 2×2 disaggregated) with
//! iteration-outcome memoization off, exact (KV bucket 1), and bucketed
//! ([`KV_BUCKET`]), and writes `BENCH_simspeed.json` with wall-clock,
//! iterations/second, the per-component wall breakdown, and the operator-
//! and iteration-level reuse hit rates. This file is the perf-trajectory
//! anchor: future PRs compare against it.
//!
//! Simulated-time statistics (iterations, simulated duration, reuse hit
//! rates) are read back from the report's machine-readable
//! `-summary.json` artifact rather than the report structs, so the bench
//! exercises the same surface downstream tooling consumes; only the
//! wall-clock breakdown comes from the structs (it is deliberately kept
//! out of the deterministic summary artifact).
//!
//! `--smoke` shrinks the trace for CI and *gates*: the run fails (exit 1)
//! if the bucketed iteration-reuse hit rate on the decode-heavy trace
//! drops below 50% in any scenario, if exact memoization changed the
//! simulated duration (it must be bit-identical), or if the telemetry
//! layer breaks its cost contract (an unattached handle must be free,
//! a recording sink must stay within [`TELEMETRY_MAX_OVERHEAD`], and
//! neither may perturb the simulated duration).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Serialize, Value};

use llmss_bench::{cluster_fleet, disagg_fleet};
use llmss_core::{
    json, ClusterReport, DisaggReport, Fabric, MemorySink, RoutingPolicyKind, SimConfig,
    SimReport, Telemetry, WallBreakdown,
};
use llmss_model::ModelSpec;
use llmss_net::LinkSpec;
use llmss_sched::{bursty_trace, BurstyTraceSpec, Request};

/// The bucketed-memoization granularity the headline numbers use.
const KV_BUCKET: usize = 64;
/// CI gate: minimum bucketed iteration-reuse hit rate.
const MIN_ITER_HIT_RATE: f64 = 0.50;
/// Serving-style batch cap: real deployments bound concurrency (the
/// artifact's `max_batch`), which is also the regime where steady-state
/// decode batches recur instead of absorbing every arrival burst.
const MAX_BATCH: usize = 32;
/// CI gate: a recording memory sink may cost at most this wall ratio
/// over running with telemetry off entirely.
const TELEMETRY_MAX_OVERHEAD: f64 = 1.05;
/// CI gate: an attached-but-sinkless handle must be within timer noise
/// of no handle at all (the zero-cost-when-off contract).
const NOOP_MAX_OVERHEAD: f64 = 1.02;
/// Absolute slack for timer noise on small smoke runs.
const TELEMETRY_SLACK_S: f64 = 0.010;
/// Best-of-N wall times in the telemetry phase, to shave jitter.
const TELEMETRY_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Memo {
    Off,
    Exact,
    Bucketed,
}

impl Memo {
    fn label(self) -> &'static str {
        match self {
            Memo::Off => "off",
            Memo::Exact => "exact",
            Memo::Bucketed => "bucketed",
        }
    }

    fn apply(self, cfg: SimConfig) -> SimConfig {
        match self {
            Memo::Off => cfg.iteration_memo(false),
            Memo::Exact => cfg.kv_bucket(1),
            Memo::Bucketed => cfg.kv_bucket(KV_BUCKET),
        }
    }
}

#[derive(Debug, Serialize)]
struct ScenarioResult {
    scenario: String,
    memo: String,
    wall_s: f64,
    iterations: u64,
    iterations_per_s: f64,
    sched_s: f64,
    engine_s: f64,
    convert_s: f64,
    net_s: f64,
    op_hit_rate: f64,
    iter_hit_rate: f64,
    sim_duration_ps: u64,
}

#[derive(Debug, Serialize)]
struct TelemetryOverhead {
    baseline_wall_s: f64,
    off_handle_wall_s: f64,
    recording_wall_s: f64,
    off_handle_overhead: f64,
    recording_overhead: f64,
    events: usize,
    sim_duration_ps: u64,
}

#[derive(Debug, Serialize)]
struct SimspeedReport {
    smoke: bool,
    requests: usize,
    kv_bucket: usize,
    results: Vec<ScenarioResult>,
    /// Bucketed-vs-off wall-clock speedup per scenario.
    speedup_single: f64,
    speedup_cluster: f64,
    speedup_cluster_shared: f64,
    speedup_disagg: f64,
    telemetry: TelemetryOverhead,
}

/// Member lookup on a summary-JSON object (`Null` when absent).
fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(pairs) => {
            pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap_or(&Value::Null)
        }
        _ => &Value::Null,
    }
}

fn as_u64(value: &Value) -> u64 {
    match value {
        Value::Int(i) => u64::try_from(*i).unwrap_or(0),
        _ => 0,
    }
}

fn as_f64(value: &Value) -> f64 {
    match value {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        _ => 0.0,
    }
}

/// Sums the `iterations` member across replica-array entries.
fn sum_iterations(pools: &[&Value]) -> u64 {
    pools
        .iter()
        .filter_map(|pool| match pool {
            Value::Array(entries) => Some(entries),
            _ => None,
        })
        .flatten()
        .map(|entry| as_u64(field(entry, "iterations")))
        .sum()
}

fn replica_config() -> SimConfig {
    SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel().max_batch(MAX_BATCH)
}

fn trace(smoke: bool) -> Vec<Request> {
    // 90% of requests stream long outputs from short prompts: the
    // steady-state decode regime the iteration cache targets.
    let mut spec = BurstyTraceSpec::decode_heavy_mix(0.9, 42);
    spec.heavy = (32, 512);
    spec.light = (32, 64);
    if smoke {
        spec.bursts = 1;
        spec.burst_size = 64; // 64 requests
    } else {
        spec.bursts = 4;
        spec.burst_size = 128; // 512 requests
    }
    bursty_trace(&spec)
}

/// Builds a scenario row from the parsed `-summary.json` value (the
/// simulated-time statistics) plus the wall numbers the artifact
/// deliberately omits.
fn collect(
    scenario: &str,
    memo: Memo,
    wall_s: f64,
    wall: WallBreakdown,
    iterations: u64,
    sim_duration_ps: u64,
    summary: &Value,
) -> ScenarioResult {
    let reuse = field(summary, "reuse");
    ScenarioResult {
        scenario: scenario.to_owned(),
        memo: memo.label().to_owned(),
        wall_s,
        iterations,
        iterations_per_s: if wall_s > 0.0 { iterations as f64 / wall_s } else { 0.0 },
        sched_s: wall.scheduler.as_secs_f64(),
        engine_s: wall.engine.as_secs_f64(),
        convert_s: wall.converter.as_secs_f64(),
        net_s: wall.network.as_secs_f64(),
        op_hit_rate: as_f64(field(reuse, "hit_rate")),
        iter_hit_rate: as_f64(field(reuse, "iteration_hit_rate")),
        sim_duration_ps,
    }
}

/// Merges per-replica wall breakdowns (struct-side: wall clock is kept
/// out of the summary artifact to preserve byte-determinism).
fn wall_breakdown(reports: &[&SimReport]) -> WallBreakdown {
    let mut wall = WallBreakdown::default();
    for r in reports {
        wall.scheduler += r.wall.scheduler;
        wall.engine += r.wall.engine;
        wall.converter += r.wall.converter;
        wall.network += r.wall.network;
    }
    wall
}

fn parse_summary(text: &str) -> Value {
    json::parse(text).expect("summary artifact parses as JSON")
}

fn run_single(memo: Memo, requests: Vec<Request>) -> ScenarioResult {
    let cfg = memo.apply(replica_config());
    let t0 = Instant::now();
    let report = llmss_core::ServingSimulator::new(cfg, requests)
        .expect("gpt2 fits one Table-I NPU")
        .run();
    let wall_s = t0.elapsed().as_secs_f64();
    let summary = parse_summary(&report.summary_json());
    let iterations = as_u64(field(&summary, "iterations"));
    let sim_duration_ps = as_u64(field(&summary, "sim_duration_ps"));
    let wall = wall_breakdown(&[&report]);
    collect("single", memo, wall_s, wall, iterations, sim_duration_ps, &summary)
}

fn run_cluster(memo: Memo, requests: Vec<Request>) -> ScenarioResult {
    let cfg = memo.apply(replica_config());
    let t0 = Instant::now();
    let report = ClusterReport::from(cluster_fleet(cfg, 4, requests).run());
    let wall_s = t0.elapsed().as_secs_f64();
    let summary = parse_summary(&report.summary_json());
    let iterations = sum_iterations(&[field(&summary, "replicas")]);
    let sim_duration_ps = as_u64(field(&summary, "makespan_ps"));
    let refs: Vec<&SimReport> = report.replica_reports.iter().collect();
    let wall = wall_breakdown(&refs);
    collect("cluster-4", memo, wall_s, wall, iterations, sim_duration_ps, &summary)
}

/// The cluster-4 scenario with the fleet-wide shared reuse cache armed:
/// the four replicas warm one iteration/op cache instead of four, which
/// removes the cold-start artifact that made cluster-4 the worst
/// memoization win in earlier baselines.
fn run_cluster_shared(memo: Memo, requests: Vec<Request>) -> ScenarioResult {
    let cfg = memo.apply(replica_config());
    let t0 = Instant::now();
    let mut sim = cluster_fleet(cfg, 4, requests);
    sim.enable_shared_cache();
    let report = ClusterReport::from(sim.run());
    let wall_s = t0.elapsed().as_secs_f64();
    let summary = parse_summary(&report.summary_json());
    let iterations = sum_iterations(&[field(&summary, "replicas")]);
    let sim_duration_ps = as_u64(field(&summary, "makespan_ps"));
    let refs: Vec<&SimReport> = report.replica_reports.iter().collect();
    let wall = wall_breakdown(&refs);
    collect("cluster-4-shared", memo, wall_s, wall, iterations, sim_duration_ps, &summary)
}

fn run_disagg(memo: Memo, requests: Vec<Request>) -> ScenarioResult {
    let cfg = memo.apply(replica_config());
    let t0 = Instant::now();
    let fleet = disagg_fleet(cfg, 2, 2, Fabric::fifo(vec![LinkSpec::cxl()]), requests).run();
    let report = DisaggReport::from_fleet(fleet, 2, RoutingPolicyKind::LeastKvLoad);
    let wall_s = t0.elapsed().as_secs_f64();
    let summary = parse_summary(&report.summary_json());
    let iterations =
        sum_iterations(&[field(&summary, "prefill_pool"), field(&summary, "decode_pool")]);
    let sim_duration_ps = as_u64(field(&summary, "makespan_ps"));
    let refs: Vec<&SimReport> =
        report.prefill_reports.iter().chain(&report.decode_reports).collect();
    let wall = wall_breakdown(&refs);
    collect("disagg-2x2", memo, wall_s, wall, iterations, sim_duration_ps, &summary)
}

/// How the telemetry layer is attached for an overhead measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TelemetryMode {
    /// No `set_telemetry` call at all.
    Baseline,
    /// `Telemetry::off()` attached: the handle exists but has no sink.
    OffHandle,
    /// A `MemorySink` attached and recording every event.
    Recording,
}

/// Measures the single-replica bucketed run under the three telemetry
/// attachments (best-of-[`TELEMETRY_REPS`] wall each).
fn telemetry_overhead(requests: &[Request]) -> TelemetryOverhead {
    let measure = |mode: TelemetryMode| -> (f64, u64, usize) {
        let mut best = f64::INFINITY;
        let mut sim_duration_ps = 0u64;
        let mut events = 0usize;
        for _ in 0..TELEMETRY_REPS {
            let cfg = Memo::Bucketed.apply(replica_config());
            let mut sim = llmss_core::ServingSimulator::new(cfg, requests.to_vec())
                .expect("gpt2 fits one Table-I NPU");
            let sink = Arc::new(Mutex::new(MemorySink::new()));
            match mode {
                TelemetryMode::Baseline => {}
                TelemetryMode::OffHandle => sim.set_telemetry(Telemetry::off()),
                TelemetryMode::Recording => sim.set_telemetry(Telemetry::new(sink.clone())),
            }
            let t0 = Instant::now();
            let report = sim.run();
            best = best.min(t0.elapsed().as_secs_f64());
            sim_duration_ps = report.sim_duration_ps;
            events = sink.lock().expect("telemetry sink lock").events().len();
        }
        (best, sim_duration_ps, events)
    };

    let (baseline_wall_s, baseline_dur, _) = measure(TelemetryMode::Baseline);
    let (off_handle_wall_s, off_dur, _) = measure(TelemetryMode::OffHandle);
    let (recording_wall_s, rec_dur, events) = measure(TelemetryMode::Recording);
    assert_eq!(baseline_dur, off_dur, "telemetry handle must not perturb simulated time");
    assert_eq!(baseline_dur, rec_dur, "recording sink must not perturb simulated time");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 1.0 };
    TelemetryOverhead {
        baseline_wall_s,
        off_handle_wall_s,
        recording_wall_s,
        off_handle_overhead: ratio(off_handle_wall_s, baseline_wall_s),
        recording_overhead: ratio(recording_wall_s, baseline_wall_s),
        events,
        sim_duration_ps: baseline_dur,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let requests = trace(smoke);
    let n = requests.len();
    println!(
        "simspeed — decode-heavy trace, {n} requests{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<12} {:>9} {:>9} {:>11} {:>9} {:>10} {:>12}",
        "scenario", "memo", "wall(s)", "iters", "iters/s", "op-hit", "iter-hit"
    );

    type Runner = fn(Memo, Vec<Request>) -> ScenarioResult;
    let runners: [(&str, Runner); 4] = [
        ("single", run_single),
        ("cluster-4", run_cluster),
        ("cluster-4-shared", run_cluster_shared),
        ("disagg-2x2", run_disagg),
    ];

    let mut results: Vec<ScenarioResult> = Vec::new();
    for (_, runner) in &runners {
        for memo in [Memo::Off, Memo::Exact, Memo::Bucketed] {
            let r = runner(memo, requests.clone());
            println!(
                "{:<12} {:>9} {:>9.3} {:>11} {:>9.0} {:>9.1}% {:>11.1}%",
                r.scenario,
                r.memo,
                r.wall_s,
                r.iterations,
                r.iterations_per_s,
                r.op_hit_rate * 100.0,
                r.iter_hit_rate * 100.0,
            );
            results.push(r);
        }
    }

    let wall_of = |scenario: &str, memo: Memo| {
        results
            .iter()
            .find(|r| r.scenario == scenario && r.memo == memo.label())
            .map(|r| r.wall_s)
            .unwrap_or(0.0)
    };
    let speedup = |scenario: &str| {
        let off = wall_of(scenario, Memo::Off);
        let on = wall_of(scenario, Memo::Bucketed);
        if on > 0.0 {
            off / on
        } else {
            0.0
        }
    };
    let (speedup_single, speedup_cluster, speedup_cluster_shared, speedup_disagg) = (
        speedup("single"),
        speedup("cluster-4"),
        speedup("cluster-4-shared"),
        speedup("disagg-2x2"),
    );
    println!(
        "\nbucketed-vs-off speedup: single {speedup_single:.1}x, \
         cluster {speedup_cluster:.1}x (shared {speedup_cluster_shared:.1}x), \
         disagg {speedup_disagg:.1}x"
    );

    let telemetry = telemetry_overhead(&requests);
    println!(
        "telemetry overhead: off-handle {:.2}x, recording {:.2}x ({} events)",
        telemetry.off_handle_overhead, telemetry.recording_overhead, telemetry.events
    );

    let report = SimspeedReport {
        smoke,
        requests: n,
        kv_bucket: KV_BUCKET,
        results,
        speedup_single,
        speedup_cluster,
        speedup_cluster_shared,
        speedup_disagg,
        telemetry,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_simspeed.json", json).expect("write BENCH_simspeed.json");
    println!("wrote BENCH_simspeed.json");

    // Exactness gate (always): exact memoization must not perturb the
    // simulated duration relative to memo-off.
    let mut failed = false;
    for (scenario, _) in &runners {
        let dur = |memo: Memo| {
            report
                .results
                .iter()
                .find(|r| r.scenario == *scenario && r.memo == memo.label())
                .map(|r| r.sim_duration_ps)
                .unwrap_or(0)
        };
        if dur(Memo::Off) != dur(Memo::Exact) {
            eprintln!(
                "FAIL: {scenario}: exact memoization changed the simulated duration \
                 ({} vs {})",
                dur(Memo::Off),
                dur(Memo::Exact)
            );
            failed = true;
        }
    }

    // Hit-rate gate (smoke/CI): the decode-heavy trace must keep the
    // bucketed iteration cache above the floor in every serving shape.
    if smoke {
        for r in &report.results {
            if r.memo == Memo::Bucketed.label() && r.iter_hit_rate < MIN_ITER_HIT_RATE {
                eprintln!(
                    "FAIL: {}: bucketed iteration hit rate {:.1}% below the {:.0}% floor",
                    r.scenario,
                    r.iter_hit_rate * 100.0,
                    MIN_ITER_HIT_RATE * 100.0
                );
                failed = true;
            }
        }
        // Shared-cache gate: with one fleet-wide cache the cluster's
        // iteration hit rate must sit within 10 points of the
        // single-replica rate (the cold-start artifact it eliminates).
        let rate = |scenario: &str| {
            report
                .results
                .iter()
                .find(|r| r.scenario == scenario && r.memo == Memo::Bucketed.label())
                .map_or(0.0, |r| r.iter_hit_rate)
        };
        let (single_rate, shared_rate) = (rate("single"), rate("cluster-4-shared"));
        if shared_rate < single_rate - 0.10 {
            eprintln!(
                "FAIL: cluster-4-shared bucketed hit rate {:.1}% is more than 10 points \
                 below the single-replica {:.1}%",
                shared_rate * 100.0,
                single_rate * 100.0
            );
            failed = true;
        }
        // Telemetry cost gates: the unattached handle is free, a
        // recording sink stays within its wall budget, and a recording
        // run must actually capture events.
        let t = &report.telemetry;
        if t.off_handle_wall_s > t.baseline_wall_s * NOOP_MAX_OVERHEAD + TELEMETRY_SLACK_S {
            eprintln!(
                "FAIL: telemetry off-handle run {:.3}s exceeds the {NOOP_MAX_OVERHEAD:.2}x \
                 zero-cost budget over the {:.3}s baseline",
                t.off_handle_wall_s, t.baseline_wall_s
            );
            failed = true;
        }
        if t.recording_wall_s > t.baseline_wall_s * TELEMETRY_MAX_OVERHEAD + TELEMETRY_SLACK_S {
            eprintln!(
                "FAIL: telemetry recording run {:.3}s exceeds the \
                 {TELEMETRY_MAX_OVERHEAD:.2}x overhead budget over the {:.3}s baseline",
                t.recording_wall_s, t.baseline_wall_s
            );
            failed = true;
        }
        if t.events == 0 {
            eprintln!("FAIL: recording telemetry run captured no events");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
