//! Iteration-outcome memoization equivalence: with a KV bucket of 1 the
//! cache is *exact*, so memoized and unmemoized runs must produce
//! bit-identical virtual-time results — same simulated duration, same
//! per-iteration records, same completion times — across all three
//! serving shapes (unified, cluster, disaggregated). Wall-clock is the
//! only thing allowed to differ.

use llmservingsim::core::{
    ClusterReport, DisaggReport, FleetEngine, RoutingPolicyKind, ServingSimulator, SimConfig,
    SimReport, StaticControl,
};
use llmservingsim::model::ModelSpec;
use llmservingsim::net::LinkSpec;
use llmservingsim::sched::{bursty_trace, BurstyTraceSpec, Dataset, Request, TraceGenerator};

/// A mixed conversational trace whose request shapes overlap in KV range,
/// so *exact* (bucket 1) signatures genuinely recur across requests —
/// the regime where the equivalence assertions are load-bearing.
fn overlapping_trace(n: usize) -> Vec<Request> {
    TraceGenerator::new(Dataset::Alpaca, 11).rate_per_s(40.0).generate(n)
}

/// A decode-heavy trace with a serving-style batch cap: lockstep cohorts
/// whose exact signatures rarely repeat but whose bucketed signatures
/// almost always do — the coarse-bucket fidelity/speed regime.
fn decode_heavy_trace() -> Vec<Request> {
    let mut spec = BurstyTraceSpec::decode_heavy_mix(0.9, 7);
    spec.bursts = 2;
    spec.burst_size = 24;
    spec.heavy = (32, 128);
    spec.light = (32, 24);
    bursty_trace(&spec)
}

fn config(memo: bool) -> SimConfig {
    let cfg = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel().max_batch(16);
    // Bucket 1 (the default) keys signatures on exact KV lengths.
    cfg.iteration_memo(memo)
}

/// Everything virtual-time in a report must match; wall-clock and reuse
/// statistics legitimately differ between the two runs.
fn assert_reports_equivalent(memoized: &SimReport, plain: &SimReport, label: &str) {
    assert_eq!(memoized.sim_duration_ps, plain.sim_duration_ps, "{label}: duration");
    assert_eq!(memoized.iterations, plain.iterations, "{label}: iteration records");
    assert_eq!(memoized.completions, plain.completions, "{label}: completions");
}

#[test]
fn unified_bucket1_memoization_is_bit_identical() {
    let trace = overlapping_trace(32);
    let memoized = ServingSimulator::new(config(true), trace.clone()).unwrap().run();
    let plain = ServingSimulator::new(config(false), trace).unwrap().run();

    assert_reports_equivalent(&memoized, &plain, "unified");
    // The equivalence must be *load-bearing*: the cache has to have
    // actually served iterations, or this test proves nothing.
    assert!(
        memoized.reuse.iteration_hits > 0,
        "exact-mode cache never hit — the equivalence test is vacuous"
    );
    assert_eq!(plain.reuse.iteration_hits, 0, "disabled cache must never hit");
}

#[test]
fn cluster_bucket1_memoization_is_bit_identical() {
    let trace = overlapping_trace(48);
    let cluster = |memo: bool| {
        let control = StaticControl::new(
            RoutingPolicyKind::RoundRobin.build(0),
            RoutingPolicyKind::LeastKvLoad.build(0),
        );
        let fleet = FleetEngine::new(
            vec![config(memo); 3],
            Vec::new(),
            Box::new(control),
            trace.clone(),
        );
        ClusterReport::from(fleet.unwrap().run())
    };
    let memoized = cluster(true);
    let plain = cluster(false);

    assert_eq!(memoized.makespan_ps(), plain.makespan_ps(), "cluster makespan");
    assert_eq!(memoized.replica_reports.len(), plain.replica_reports.len(), "replica count");
    for (i, (m, p)) in memoized.replica_reports.iter().zip(&plain.replica_reports).enumerate() {
        assert_reports_equivalent(m, p, &format!("cluster replica {i}"));
    }
    assert!(
        memoized.aggregate_reuse().iteration_hits > 0,
        "cluster exact-mode cache never hit"
    );
}

#[test]
fn disagg_bucket1_memoization_is_bit_identical() {
    let trace = decode_heavy_trace();
    let disagg = |memo: bool| {
        let mut configs = vec![config(memo).prefill_only(); 2];
        configs.resize(4, config(memo).decode_only());
        let control = StaticControl::new(
            RoutingPolicyKind::LeastOutstanding.build(0),
            RoutingPolicyKind::LeastKvLoad.build(0),
        );
        let fleet =
            FleetEngine::new(configs, vec![LinkSpec::cxl()], Box::new(control), trace.clone());
        DisaggReport::from_fleet(fleet.unwrap().run(), 2, RoutingPolicyKind::LeastKvLoad)
    };
    let memoized = disagg(true);
    let plain = disagg(false);

    assert_eq!(memoized.makespan_ps(), plain.makespan_ps(), "disagg makespan");
    let lifecycle = |r: &DisaggReport| {
        r.completions
            .iter()
            .map(|c| {
                (c.id, c.prefill_done_ps, c.transfer_done_ps, c.first_token_ps, c.finish_ps)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(lifecycle(&memoized), lifecycle(&plain), "per-request lifecycle");
    for (pool, m, p) in [
        ("prefill", &memoized.prefill_reports, &plain.prefill_reports),
        ("decode", &memoized.decode_reports, &plain.decode_reports),
    ] {
        for (i, (mr, pr)) in m.iter().zip(p.iter()).enumerate() {
            assert_reports_equivalent(mr, pr, &format!("disagg {pool} replica {i}"));
        }
    }
    assert!(memoized.aggregate_reuse().iteration_hits > 0, "disagg exact-mode cache never hit");
}

#[test]
fn coarse_buckets_trade_fidelity_for_hit_rate() {
    let trace = decode_heavy_trace();
    let exact = ServingSimulator::new(config(true), trace.clone()).unwrap().run();
    let coarse = ServingSimulator::new(config(true).kv_bucket(64), trace).unwrap().run();

    // Coarse buckets must strictly raise the hit rate on decode-heavy
    // traffic...
    assert!(
        coarse.reuse.iteration_hit_rate() > exact.reuse.iteration_hit_rate(),
        "bucket 64 ({:.2}) should beat bucket 1 ({:.2})",
        coarse.reuse.iteration_hit_rate(),
        exact.reuse.iteration_hit_rate()
    );
    // ...while still serving every request to completion, with bounded
    // drift: pricing a decode iteration as its bucket representative
    // cannot move the total duration by more than the bucket fraction.
    assert_eq!(coarse.completions.len(), exact.completions.len());
    let drift = (coarse.sim_duration_ps as f64 - exact.sim_duration_ps as f64).abs()
        / exact.sim_duration_ps as f64;
    assert!(drift < 0.25, "bucket-64 duration drift {drift:.3} out of bounds");
}

#[test]
fn disabling_memo_keeps_operator_reuse_on() {
    let trace = decode_heavy_trace();
    let report = ServingSimulator::new(config(false), trace).unwrap().run();
    assert_eq!(report.reuse.iteration_hits, 0);
    assert!(report.reuse.hits() > 0, "op-level reuse must survive --no-iter-memo");
}
