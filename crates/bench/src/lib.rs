//! Shared harness utilities for the figure/table and simulator-speed
//! binaries.
//!
//! Every binary regenerates one table or figure of the paper and writes its
//! rows as TSV under `evaluation/` (mirroring the artifact's layout), plus
//! a human-readable summary on stdout.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use llmss_core::{
    EngineStack, Fabric, FleetEngine, GraphConverter, ParallelismSpec, PimMode, ReuseStats,
    RoutingPolicyKind, SimConfig, SimReport, StaticControl, WallBreakdown,
};
use llmss_model::{ModelSpec, SeqSlot};
use llmss_net::{simulate_graph, LinkSpec, TimePs, Topology};
use llmss_npu::NpuConfig;
use llmss_sched::{IterationBatch, Request};

/// A static cluster: `replicas` copies of `config` behind round-robin
/// routing, with no KV links.
#[expect(clippy::expect_used, reason = "the figure configs are fixed, and each fits its NPUs")]
pub fn cluster_fleet(config: SimConfig, replicas: usize, trace: Vec<Request>) -> FleetEngine {
    let control = StaticControl::new(
        RoutingPolicyKind::RoundRobin.build(0),
        RoutingPolicyKind::LeastKvLoad.build(0),
    );
    FleetEngine::new(vec![config; replicas], Vec::new(), Box::new(control), trace)
        .expect("the replica config fits its NPUs")
}

/// A static disaggregated deployment: `prefill` prefill-role then
/// `decode` decode-role copies of `config` (fleet indices `0..P`, then
/// `P..P+D`) behind least-outstanding routing and least-KV pairing, with
/// KV handoffs over `fabric`.
#[expect(clippy::expect_used, reason = "the figure configs are fixed, and each fits its NPUs")]
pub fn disagg_fleet(
    config: SimConfig,
    prefill: usize,
    decode: usize,
    fabric: Fabric,
    trace: Vec<Request>,
) -> FleetEngine {
    let mut configs = vec![config.clone().prefill_only(); prefill];
    configs.resize(prefill + decode, config.decode_only());
    let control = StaticControl::new(
        RoutingPolicyKind::LeastOutstanding.build(0),
        RoutingPolicyKind::LeastKvLoad.build(0),
    );
    FleetEngine::with_fabric(configs, fabric, Box::new(control), trace)
        .expect("the replica config fits its NPUs")
}

/// Result of timing LLMServingSim on a standalone iteration (no serving
/// loop, no memory admission — the simulation-time experiments' setup).
#[derive(Debug, Clone, Copy)]
pub struct SingleIterationResult {
    /// Wall-clock breakdown by component.
    pub wall: WallBreakdown,
    /// Simulated iteration latency.
    pub sim_latency_ps: TimePs,
    /// Execution-graph operations.
    pub graph_ops: usize,
    /// Network-simulator events.
    pub events: u64,
    /// Reuse statistics.
    pub reuse: ReuseStats,
}

/// Runs LLMServingSim on one uniform prefill iteration (`batch` requests of
/// `seq_len` tokens) under a `tp x pp` layout, measuring wall-clock per
/// component.
///
/// # Panics
///
/// Panics if the layout is invalid for the model (e.g. more stages than
/// layers).
pub fn run_single_iteration(
    spec: &ModelSpec,
    tp: usize,
    pp: usize,
    batch: usize,
    seq_len: usize,
    reuse: bool,
) -> SingleIterationResult {
    let parallelism = ParallelismSpec { tp, pp };
    let topology = Topology::grouped_npus(tp * pp, pp, LinkSpec::pcie4_x16());
    let mut converter =
        GraphConverter::new(spec.clone(), parallelism, &topology, PimMode::None, true, false);
    let mut stack = EngineStack::homogeneous(NpuConfig::table1(), reuse);

    let slots: Vec<SeqSlot> =
        (0..batch as u64).map(|id| SeqSlot::prefill(id, seq_len)).collect();
    let batch = IterationBatch { slots, evictions: vec![], reloads: vec![] };

    let mut wall = WallBreakdown::default();
    let t0 = Instant::now();
    let graph = converter.convert(&batch, &mut stack);
    let convert_total = t0.elapsed();
    wall.engine = stack.engine_wall();
    wall.converter = convert_total.saturating_sub(wall.engine);

    let t1 = Instant::now();
    #[expect(clippy::expect_used, reason = "an inconsistent graph is a converter bug")]
    let outcome = simulate_graph(&graph, &topology).expect("valid graph");
    wall.network = t1.elapsed();

    SingleIterationResult {
        wall,
        sim_latency_ps: outcome.makespan_ps,
        graph_ops: graph.len(),
        events: outcome.events,
        reuse: stack.reuse_stats(),
    }
}

/// Mean absolute percentage error between paired series, ignoring bins
/// where the reference is (near) zero.
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn mape(reference: &[f64], measured: &[f64]) -> f64 {
    assert_eq!(reference.len(), measured.len(), "series must align");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&r, &m) in reference.iter().zip(measured) {
        if r.abs() < 1e-9 {
            continue;
        }
        sum += ((m - r) / r).abs();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Geometric mean of a slice of positive values.
///
/// # Panics
///
/// Panics if the slice is empty or contains non-positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Aligns two throughput reports into paired per-bin series over the same
/// horizon: `(ref_prompt, sim_prompt, ref_gen, sim_gen)`.
pub fn aligned_throughput(
    reference: &SimReport,
    measured: &SimReport,
    bin_s: f64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let horizon = reference.sim_duration_s().max(measured.sim_duration_s());
    let n_bins = (horizon / bin_s).ceil().max(1.0) as usize;
    let expand = |r: &SimReport| {
        let bins = r.throughput_series(bin_s);
        let mut prompt = vec![0.0; n_bins];
        let mut gen = vec![0.0; n_bins];
        for (i, b) in bins.iter().enumerate().take(n_bins) {
            prompt[i] = b.prompt_tps;
            gen[i] = b.gen_tps;
        }
        (prompt, gen)
    };
    let (rp, rg) = expand(reference);
    let (mp, mg) = expand(measured);
    (rp, mp, rg, mg)
}

/// The evaluation output directory (created on demand).
///
/// Quick-mode runs write to `evaluation-quick/` so smoke tests never
/// overwrite full results.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn eval_dir(sub: &str) -> PathBuf {
    let root = if quick_mode() { "evaluation-quick" } else { "evaluation" };
    let dir = Path::new(root).join(sub);
    #[expect(
        clippy::expect_used,
        reason = "a figure binary aborts when it cannot write its output"
    )]
    std::fs::create_dir_all(&dir).expect("create evaluation directory");
    dir
}

/// Writes a TSV file under the evaluation directory.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_tsv(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    #[expect(
        clippy::expect_used,
        reason = "a figure binary aborts when it cannot write its output"
    )]
    std::fs::write(&path, content).expect("write TSV");
    println!("  wrote {}", path.display());
}

/// Returns true when the binary was invoked with `--quick` (reduced scale
/// for smoke runs) — figure binaries default to the full configuration.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_ignores_zero_reference_bins() {
        let r = vec![0.0, 100.0, 200.0];
        let m = vec![50.0, 110.0, 180.0];
        let e = mape(&r, &m);
        assert!((e - 0.1).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_iteration_reuse_cuts_engine_time() {
        let spec = llmss_model::ModelSpec::gpt2();
        let with = run_single_iteration(&spec, 1, 1, 2, 64, true);
        let without = run_single_iteration(&spec, 1, 1, 2, 64, false);
        assert!(with.reuse.hits() > 0);
        assert_eq!(without.reuse.hits(), 0);
        assert_eq!(with.sim_latency_ps, without.sim_latency_ps);
        assert!(without.wall.engine >= with.wall.engine);
    }

    #[test]
    fn single_iteration_harness_never_folds_blocks() {
        // The simulation-time figures time one unfolded iteration. A
        // no-reuse run never folds, so equal op and event counts show
        // the reuse run did not fold either.
        for (tp, pp) in [(1, 1), (4, 1), (2, 2)] {
            let spec = llmss_model::ModelSpec::gpt2();
            let with = run_single_iteration(&spec, tp, pp, 4, 64, true);
            let without = run_single_iteration(&spec, tp, pp, 4, 64, false);
            assert_eq!(with.graph_ops, without.graph_ops, "tp{tp} pp{pp}");
            assert_eq!(with.events, without.events, "tp{tp} pp{pp}");
            assert_eq!(with.sim_latency_ps, without.sim_latency_ps, "tp{tp} pp{pp}");
        }
    }
}
