//! Per-layer metrics of a traced repetition: the benchmark's spans
//! joined with the counters the program already exposes
//! (`WallBreakdown`, `ReuseStats`, `IterationRecord`, fabric transfers).
//!
//! Layer names follow the program's modules: `scenario` (parse,
//! validate, build), `fleet` (the event loop behind `Simulate::step`),
//! `sched` (batching and KV paging), `reuse` (iteration and operator
//! caches), `convert` (graph converter), `engine` (NPU/PIM pricing),
//! `net` (the network DES), `fabric` (KV transfers), `telemetry` (event
//! capture and export), `report` (finalize and rendering) and `mem`.

use std::collections::BTreeMap;

use llmss_core::{SimReport, WallBreakdown};
use llmss_scenario::AnyReport;

use crate::trace::{Histogram, Spans};

/// One per-layer metric and the end-to-end metric it should move.
#[derive(Debug)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// Workloads where it should move.
    pub on: &'static str,
    /// Workloads where it should not move.
    pub not_on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
    not_on: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, better, moves, on, not_on }
}

const FLEET_ON: &str = "fleet-decode, disagg-observed";

/// Every per-layer metric, in report order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("scenario.build_s", "s", "lower", "setup_s", "fleet-decode", "single-exact"),
    m("fleet.steps", "count", "lower", "iters_per_s, wall_s", FLEET_ON, "single-exact"),
    m(
        "fleet.iters_per_step",
        "count",
        "higher",
        "iters_per_s, wall_s",
        FLEET_ON,
        "single-exact",
    ),
    m("fleet.step_p50_us", "us", "lower", "iters_per_s, wall_s", FLEET_ON, "single-exact"),
    m("fleet.step_p99_us", "us", "lower", "iters_per_s, wall_s", FLEET_ON, "single-exact"),
    m("fleet.self_s", "s", "lower", "iters_per_s, wall_s", FLEET_ON, "single-exact"),
    m("sched.s", "s", "lower", "iters_per_s", "fleet-decode", "-"),
    m("sched.iterations", "count", "lower", "iters_per_s", "fleet-decode", "-"),
    m("sched.batch_mean", "count", "higher", "iters_per_s", "fleet-decode", "-"),
    m("sched.evictions", "count", "lower", "iters_per_s", "fleet-decode", "-"),
    m(
        "reuse.iter_hit_rate",
        "ratio",
        "higher",
        "iters_per_s, *_err_factor",
        "fleet-decode, single-exact",
        "-",
    ),
    m(
        "reuse.local_iter_hit_rate",
        "ratio",
        "higher",
        "iters_per_s, *_err_factor",
        "fleet-decode",
        "-",
    ),
    m("reuse.shared_hits", "count", "higher", "iters_per_s, *_err_factor", "fleet-decode", "-"),
    m(
        "reuse.iter_misses",
        "count",
        "lower",
        "iters_per_s, *_err_factor",
        "fleet-decode, single-exact",
        "-",
    ),
    m("reuse.op_hit_rate", "ratio", "higher", "iters_per_s", "single-exact", "-"),
    m("reuse.op_lookups", "count", "lower", "iters_per_s", "single-exact", "-"),
    m("reuse.op_misses", "count", "lower", "iters_per_s", "single-exact", "-"),
    m("convert.s", "s", "lower", "iters_per_s", "single-exact", "fleet-decode"),
    m("convert.us_per_miss", "us", "lower", "iters_per_s", "single-exact", "fleet-decode"),
    m("engine.s", "s", "lower", "iters_per_s", "single-exact", "fleet-decode"),
    m("net.s", "s", "lower", "iters_per_s", "single-exact", "fleet-decode"),
    m("net.us_per_miss", "us", "lower", "iters_per_s", "single-exact", "fleet-decode"),
    m(
        "fabric.transfers",
        "count",
        "lower",
        "wall_s",
        "disagg-observed",
        "fleet-decode, single-exact",
    ),
    m("fabric.kv_mb", "MB", "lower", "wall_s", "disagg-observed", "fleet-decode, single-exact"),
    m(
        "fabric.contention_p99",
        "x",
        "lower",
        "wall_s",
        "disagg-observed",
        "fleet-decode, single-exact",
    ),
    m(
        "telemetry.events",
        "count",
        "lower",
        "wall_s, peak_rss_mb",
        "disagg-observed",
        "fleet-decode, single-exact",
    ),
    m(
        "telemetry.export_s",
        "s",
        "lower",
        "wall_s, peak_rss_mb",
        "disagg-observed",
        "fleet-decode, single-exact",
    ),
    m(
        "telemetry.export_mb",
        "MB",
        "lower",
        "wall_s, peak_rss_mb",
        "disagg-observed",
        "fleet-decode, single-exact",
    ),
    m("report.finalize_s", "s", "lower", "wall_s", "fleet-decode", "single-exact"),
    m("report.render_s", "s", "lower", "wall_s", "fleet-decode", "single-exact"),
    m("mem.rss_setup_mb", "MB", "lower", "peak_rss_mb", "fleet-decode", "-"),
    m("mem.rss_run_mb", "MB", "lower", "peak_rss_mb", "fleet-decode", "-"),
    m("trace.overhead_s", "s", "lower", "- (traced wall_s - untraced wall_s)", "all", "-"),
];

/// Per-layer values by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Every replica's serving report, whatever the shape.
pub fn replica_reports(report: &AnyReport) -> Vec<&SimReport> {
    match report {
        AnyReport::Single(r) => vec![r],
        AnyReport::Cluster(r) => r.replica_reports.iter().collect(),
        AnyReport::Disagg(r) => r.prefill_reports.iter().chain(&r.decode_reports).collect(),
        AnyReport::Fleet(r) => r.replicas.iter().map(|x| &x.report).collect(),
    }
}

/// What a traced repetition hands to [`collect`].
#[derive(Debug)]
pub struct Inputs<'a> {
    pub report: &'a AnyReport,
    pub spans: &'a Spans,
    /// Index of the span around the step loop.
    pub step_span: usize,
    pub hist: &'a Histogram,
    pub events: usize,
    pub export_bytes: usize,
    pub rss_setup_mb: f64,
    pub rss_run_mb: f64,
}

/// `num / den`, or 0 when nothing was counted.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Joins a traced repetition's spans with the report's counters. The
/// replica `WallBreakdown`s are summed; on threaded fleet windows that
/// sum is CPU time, not wall time.
pub fn collect(inputs: &Inputs<'_>) -> LayerValues {
    let Inputs { report, spans, step_span, hist, .. } = *inputs;
    let replicas = replica_reports(report);
    let mut wall = WallBreakdown::default();
    let (mut iterations, mut batched, mut evictions) = (0u64, 0u64, 0u64);
    for r in &replicas {
        wall.scheduler += r.wall.scheduler;
        wall.engine += r.wall.engine;
        wall.converter += r.wall.converter;
        wall.network += r.wall.network;
        iterations += r.iterations.len() as u64;
        for it in &r.iterations {
            batched += it.batch_size as u64;
            evictions += it.evictions as u64;
        }
    }
    let reuse = report.reuse();
    let full_path = (reuse.iteration_misses + reuse.iteration_uncacheable) as f64;
    let (transfers, kv_bytes, contention) = match report {
        AnyReport::Fleet(r) => {
            (r.transfers.len(), r.transfers.iter().map(|(_, t)| t.bytes).sum(), r.contention())
        }
        AnyReport::Disagg(r) => (
            r.completions.iter().filter(|c| c.kv_bytes > 0).count(),
            r.total_kv_bytes(),
            r.contention(),
        ),
        AnyReport::Single(_) | AnyReport::Cluster(_) => (0, 0, None),
    };
    let steps = hist.count() as f64;
    let s = |d: std::time::Duration| d.as_secs_f64();
    let values = [
        ("scenario.build_s", spans.seconds("scenario.parse") + spans.seconds("scenario.build")),
        ("fleet.steps", steps),
        ("fleet.iters_per_step", per(iterations as f64, steps)),
        ("fleet.step_p50_us", hist.quantile_ns(0.50) as f64 / 1e3),
        ("fleet.step_p99_us", hist.quantile_ns(0.99) as f64 / 1e3),
        ("fleet.self_s", spans.spans[step_span].seconds() - s(wall.total())),
        ("sched.s", s(wall.scheduler)),
        ("sched.iterations", iterations as f64),
        ("sched.batch_mean", per(batched as f64, iterations as f64)),
        ("sched.evictions", evictions as f64),
        ("reuse.iter_hit_rate", reuse.iteration_hit_rate()),
        ("reuse.local_iter_hit_rate", reuse.local_iteration_hit_rate()),
        ("reuse.shared_hits", reuse.shared_hits as f64),
        ("reuse.iter_misses", reuse.iteration_misses as f64),
        ("reuse.op_hit_rate", reuse.hit_rate()),
        ("reuse.op_lookups", (reuse.hits() + reuse.misses()) as f64),
        ("reuse.op_misses", reuse.misses() as f64),
        ("convert.s", s(wall.converter)),
        ("convert.us_per_miss", per(s(wall.converter) * 1e6, full_path)),
        ("engine.s", s(wall.engine)),
        ("net.s", s(wall.network)),
        ("net.us_per_miss", per(s(wall.network) * 1e6, full_path)),
        ("fabric.transfers", transfers as f64),
        ("fabric.kv_mb", kv_bytes as f64 / 1e6),
        ("fabric.contention_p99", contention.map_or(0.0, |(_, _, p99)| p99)),
        ("telemetry.events", inputs.events as f64),
        ("telemetry.export_s", spans.seconds("telemetry.export")),
        ("telemetry.export_mb", inputs.export_bytes as f64 / 1e6),
        ("report.finalize_s", spans.seconds("report.finalize")),
        ("report.render_s", spans.seconds("report.render")),
        ("mem.rss_setup_mb", inputs.rss_setup_mb),
        ("mem.rss_run_mb", inputs.rss_run_mb),
    ];
    values.into_iter().collect()
}
