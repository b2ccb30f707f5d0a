//! fabricspeed — the fabric flow model's overhead guard.
//!
//! Runs the same uncongested 2×2 disaggregated bench twice: over the
//! legacy dedicated FIFO wire, and over a fair-sharing `single` fabric.
//! With ample bandwidth the two simulate near-identical deployments, so
//! any wall-clock gap is pure flow-model overhead (per-commit max–min
//! recomputes plus fabric events in the virtual-time loop). Writes
//! `BENCH_fabricspeed.json` with both wall times and the overhead ratio.
//!
//! `--smoke` shrinks the trace for CI and *gates*: the run fails
//! (exit 1) if the fair-sharing run is more than 10% slower than the
//! FIFO baseline (plus a small absolute slack for timer noise), or if
//! the two disciplines disagree on the completion count. The gate
//! statistics (completions, makespan) are read back from the report's
//! machine-readable `-summary.json` artifact, the same surface
//! downstream tooling consumes.

use std::time::Instant;

use serde::{Serialize, Value};

use llmss_bench::disagg_fleet;
use llmss_core::{json, DisaggReport, Fabric, FabricGraph, RoutingPolicyKind, SimConfig};
use llmss_model::ModelSpec;
use llmss_net::LinkSpec;
use llmss_sched::{bursty_trace, BurstyTraceSpec, Request};

/// CI gate: the fair fabric may cost at most this ratio over FIFO.
const MAX_OVERHEAD: f64 = 1.10;
/// Absolute slack for timer noise on small smoke runs.
const SLACK_S: f64 = 0.010;
/// Best-of-N wall times, to shave scheduler jitter.
const REPS: usize = 3;

#[derive(Debug, Serialize)]
struct FabricspeedReport {
    smoke: bool,
    requests: usize,
    fifo_wall_s: f64,
    fair_wall_s: f64,
    overhead: f64,
    fifo_makespan_ps: u64,
    fair_makespan_ps: u64,
    completions: usize,
}

/// Gate statistics of one discipline, parsed from `-summary.json`.
#[derive(Debug, Clone, Copy)]
struct SummaryStats {
    completions: usize,
    makespan_ps: u64,
    makespan_s: f64,
}

impl SummaryStats {
    fn parse(report: &DisaggReport) -> SummaryStats {
        let value =
            json::parse(&report.summary_json()).expect("summary artifact parses as JSON");
        let field = |key: &str| match &value {
            Value::Object(pairs) => {
                pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap_or(&Value::Null)
            }
            _ => &Value::Null,
        };
        let int = |key: &str| match field(key) {
            Value::Int(i) => u64::try_from(*i).unwrap_or(0),
            _ => 0,
        };
        SummaryStats {
            completions: int("completions") as usize,
            makespan_ps: int("makespan_ps"),
            makespan_s: int("makespan_ps") as f64 / 1e12,
        }
    }
}

fn replica_config() -> SimConfig {
    SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel().max_batch(32)
}

fn trace(smoke: bool) -> Vec<Request> {
    // Decode-heavy and well spread: KV transfers are small and rarely
    // overlap, so the fabric run measures bookkeeping, not contention.
    let mut spec = BurstyTraceSpec::decode_heavy_mix(0.9, 42);
    spec.heavy = (32, 256);
    spec.light = (32, 32);
    if smoke {
        spec.bursts = 1;
        spec.burst_size = 48;
    } else {
        spec.bursts = 4;
        spec.burst_size = 96;
    }
    bursty_trace(&spec)
}

/// The ample, uncongested KV link both disciplines run over.
fn kv_link() -> LinkSpec {
    LinkSpec::new(256.0, LinkSpec::cxl().latency_ns)
}

fn run(requests: &[Request], fair: bool) -> (f64, SummaryStats) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let fabric = if fair {
            Fabric::fair("single", FabricGraph::single(4, kv_link()))
        } else {
            Fabric::fifo(vec![kv_link()])
        };
        let t0 = Instant::now();
        let fleet = disagg_fleet(replica_config(), 2, 2, fabric, requests.to_vec()).run();
        let report = DisaggReport::from_fleet(fleet, 2, RoutingPolicyKind::LeastKvLoad);
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(report);
    }
    (best, SummaryStats::parse(&last.expect("REPS > 0")))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let requests = trace(smoke);
    let n = requests.len();
    println!(
        "fabricspeed — uncongested 2x2 disagg, {n} requests{}",
        if smoke { " (smoke)" } else { "" }
    );

    let (fifo_wall, fifo_stats) = run(&requests, false);
    let (fair_wall, fair_stats) = run(&requests, true);
    let overhead = if fifo_wall > 0.0 { fair_wall / fifo_wall } else { 1.0 };

    println!("fifo wire : {fifo_wall:.3}s wall, makespan {:.3}s", fifo_stats.makespan_s);
    println!("fair flows: {fair_wall:.3}s wall, makespan {:.3}s", fair_stats.makespan_s);
    println!("flow-model overhead: {overhead:.2}x");

    let report = FabricspeedReport {
        smoke,
        requests: n,
        fifo_wall_s: fifo_wall,
        fair_wall_s: fair_wall,
        overhead,
        fifo_makespan_ps: fifo_stats.makespan_ps,
        fair_makespan_ps: fair_stats.makespan_ps,
        completions: fair_stats.completions,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_fabricspeed.json", json).expect("write BENCH_fabricspeed.json");
    println!("wrote BENCH_fabricspeed.json");

    let mut failed = false;
    if fifo_stats.completions != fair_stats.completions {
        eprintln!(
            "FAIL: disciplines disagree on completions ({} fifo vs {} fair)",
            fifo_stats.completions, fair_stats.completions
        );
        failed = true;
    }
    if smoke && fair_wall > fifo_wall * MAX_OVERHEAD + SLACK_S {
        eprintln!(
            "FAIL: fair-sharing run {fair_wall:.3}s exceeds the {MAX_OVERHEAD:.2}x \
             overhead budget over the {fifo_wall:.3}s FIFO baseline"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
