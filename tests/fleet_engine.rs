//! The fleet-engine acceptance suite.
//!
//! * **Engine equivalence** — every multi-replica shape is one
//!   `llmss_core::FleetEngine` built by one scenario builder; the golden
//!   files under `tests/golden/` were generated by the pre-refactor
//!   bespoke event loops and report types, so byte-identical artifacts
//!   prove the refactors changed no simulated behavior or report byte.
//! * **Control planes** — flexing never strands a request mid-drain and
//!   autoscaling respects its `min..max` bounds (property tests).
//! * **Sweep runner** — parallel sweeps are byte-identical to serial
//!   ones, and named metric selections shape the TSV.
//! * **Work counters** — admission captures only the snapshots its
//!   routing policy reads, and windows too small to give every thread
//!   two members start no helper thread.

use proptest::prelude::*;

use llmservingsim::core::{
    AutoscaleConfig, AutoscaleControl, FleetEngine, FleetWork, FlexPools, FlexPoolsConfig,
    ReplicaRole, ReportOutput, RoutingPolicyKind, SimConfig, Simulate, StaticControl,
};
use llmservingsim::model::ModelSpec;
use llmservingsim::net::LinkSpec;
use llmservingsim::scenario::{AnySimulator, FleetSpec, ReplicaOverride, Scenario, Sweep};
use llmservingsim::sched::{bursty_trace, BurstyTraceSpec, Request};

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn scenario(name: &str) -> Scenario {
    let path = format!("{}/examples/scenarios/{name}.toml", env!("CARGO_MANIFEST_DIR"));
    Scenario::from_path(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The checked-in scenario corpus reproduces the pre-refactor reports
/// byte for byte under the `Static` control plane. (The wall-clock
/// breakdown artifact is excluded — it measures host time, not
/// simulated behavior.)
#[test]
fn scenario_corpus_reports_match_pre_refactor_goldens() {
    let corpus = [
        ("quickstart", vec!["-throughput.tsv"]),
        ("cluster_small", vec!["-cluster.tsv", "-summary.json"]),
        ("cluster_routing", vec!["-cluster.tsv"]),
        ("disagg_small", vec!["-disagg.tsv", "-disagg-metrics.tsv", "-summary.json"]),
        ("disagg_vs_unified", vec!["-disagg.tsv", "-disagg-metrics.tsv"]),
        ("disagg_fabric", vec!["-disagg.tsv", "-summary.json"]),
    ];
    for (name, suffixes) in corpus {
        let report = scenario(name).run().unwrap_or_else(|e| panic!("{name}: {e}"));
        let artifacts = report.artifacts();
        for suffix in suffixes {
            let (_, content) = artifacts
                .iter()
                .find(|(s, _)| *s == suffix)
                .unwrap_or_else(|| panic!("{name} emits no {suffix}"));
            assert_eq!(
                content,
                &golden(&format!("{name}{suffix}")),
                "{name}{suffix} drifted from the pre-refactor golden"
            );
        }
    }
}

/// The sweep grid reproduces its pre-refactor consolidated TSV — and the
/// parallel runner reproduces it byte for byte too.
#[test]
fn sweep_corpus_tsv_matches_golden_serial_and_parallel() {
    let path = format!("{}/examples/scenarios/sweep_routing.toml", env!("CARGO_MANIFEST_DIR"));
    let sweep = Sweep::from_path(&path).unwrap();
    let expected = golden("sweep_routing-sweep.tsv");
    assert_eq!(sweep.run().unwrap().to_tsv(), expected, "serial sweep drifted");
    assert_eq!(
        sweep.run_jobs(3).unwrap().to_tsv(),
        expected,
        "parallel sweep must be byte-identical to serial"
    );
}

#[test]
fn metric_selection_shapes_the_tsv() {
    let base = scenario("quickstart");
    let report = Sweep::new(base.clone())
        .axis("max_batch", ["4", "16"])
        .metrics(["ttft_p99", "tpot_p50"])
        .run()
        .unwrap();
    let tsv = report.to_tsv();
    let lines: Vec<&str> = tsv.lines().collect();
    assert_eq!(lines[0], "point\tmax_batch\tttft_p99\ttpot_p50");
    assert_eq!(lines.len(), 3);
    assert_eq!(lines[1].split('\t').count(), 4);

    let err = Sweep::new(base).axis("max_batch", ["4"]).metrics(["ttft_p123"]).run();
    assert!(err.is_err(), "unknown metric names must fail before running");
}

/// A heterogeneous `[fleet]` file round-trips losslessly (including the
/// `[[fleet.replica]]` array of tables) and runs end-to-end via the
/// `run` and `sweep` library paths.
#[test]
fn heterogeneous_autoscale_scenario_runs_and_round_trips() {
    let s = scenario("autoscale");
    let fleet = s.fleet.as_ref().expect("autoscale.toml declares [fleet]");
    assert_eq!(fleet.replicas.len(), 2, "a per-replica config list");
    assert_eq!(fleet.replicas[1].max_batch, Some(4), "heterogeneous overrides");
    // A slot overriding only max_batch still gets a config of its own.
    let mut batch_only = s.clone();
    batch_only.fleet.as_mut().unwrap().replicas[1].npus = None;
    let AnySimulator { engine, .. } = batch_only.build().expect("a fleet");
    let batches: Vec<usize> = engine.slots().iter().map(|r| r.config.max_batch).collect();
    assert_eq!(batches, [s.max_batch, 4]);
    // Lossless round trip through the canonical TOML form.
    let back = Scenario::from_toml(&s.to_toml()).unwrap();
    assert_eq!(back, s);
    // End-to-end run: the burst pressure must scale past the initial 2.
    let report = s.run().unwrap();
    assert_eq!(report.shape(), "fleet");
    let fleet_report = report.as_fleet().expect("fleet runs produce fleet reports");
    assert_eq!(fleet_report.total_completions(), 48);
    assert!(
        fleet_report.replicas.len() > 2,
        "the autoscaler never scaled up under burst pressure"
    );
    // And through the sweep runner (the acceptance path).
    let sweep_path =
        format!("{}/examples/scenarios/sweep_autoscale.toml", env!("CARGO_MANIFEST_DIR"));
    let sweep = Sweep::from_path(&sweep_path).unwrap();
    let sweep_report = sweep.run_jobs(2).unwrap();
    assert_eq!(sweep_report.rows.len(), 4);
    for row in &sweep_report.rows {
        assert_eq!(row.completions, 24, "every autoscale grid point serves the trace");
    }
}

#[test]
fn fleet_conflicts_are_typed_errors() {
    use llmservingsim::scenario::ScenarioError;
    let base = scenario("autoscale");
    // [fleet] + disagg is a conflict.
    let mut s = base.clone();
    s.disagg = Some((1, 1));
    assert!(matches!(s.validate(), Err(ScenarioError::Conflict { .. })));
    // An initial size outside the autoscale bounds is invalid.
    let mut s = base.clone();
    s.fleet.as_mut().unwrap().max_replicas = 1;
    assert!(matches!(s.validate(), Err(ScenarioError::InvalidValue { .. })));
    // A slot's overrides are checked like the base config when it builds.
    let mut s = base.clone();
    s.fleet.as_mut().unwrap().replicas[0].npus = Some(0);
    assert!(matches!(s.build(), Err(ScenarioError::InvalidValue { .. })));
    // Flex without prefill/decode roles is a conflict.
    let mut s = base;
    s.set("fleet.control", "flex").unwrap();
    assert!(matches!(s.validate(), Err(ScenarioError::Conflict { .. })));
    // Unknown fleet sub-keys are schema drift.
    let mut s = Scenario::default();
    assert!(matches!(s.set("fleet.max_replicsa", "4"), Err(ScenarioError::UnknownKey { .. })));
    // Positive durations that round to 0 ps are invalid values, not
    // panics inside a control plane or the chaos schedule.
    let flex = Scenario::model("gpt2").npus(1).tensor_parallel().fleet(FleetSpec::flex(1, 1));
    for valid in [scenario("autoscale"), flex] {
        let mut s = valid.clone();
        s.set("fleet.tick_ms", "1e-10").unwrap();
        let err = s.build().unwrap_err();
        assert!(
            matches!(&err, ScenarioError::InvalidValue { field, .. } if field == "fleet.tick_ms"),
            "{err}"
        );
        let mut s = valid;
        s.set("chaos.crash_rate_per_s", "5.0").unwrap();
        s.set("chaos.mttr_ms", "1e-10").unwrap();
        let err = s.build().unwrap_err();
        assert!(
            matches!(&err, ScenarioError::InvalidValue { field, .. } if field == "chaos.mttr_ms"),
            "{err}"
        );
    }
}

fn gpt2_replica() -> SimConfig {
    SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel()
}

/// A two-phase trace: a prefill-heavy burst, then a decode-heavy burst
/// `gap_ms` later.
fn phase_shift_trace(
    prefill_n: usize,
    decode_n: usize,
    gap_ms: f64,
    seed: u64,
) -> Vec<Request> {
    let mut trace = bursty_trace(&BurstyTraceSpec {
        bursts: 1,
        burst_size: prefill_n.max(1),
        heavy_every: 1,
        heavy: (256, 4),
        seed,
        ..BurstyTraceSpec::default()
    });
    let decode_phase = bursty_trace(&BurstyTraceSpec {
        bursts: 1,
        burst_size: decode_n.max(1),
        heavy_every: 1,
        heavy: (16, 48),
        seed: seed.wrapping_add(1),
        ..BurstyTraceSpec::default()
    });
    let shift = trace.last().expect("non-empty").arrival_ps + (gap_ms * 1e9).round() as u64;
    let base_id = trace.len() as u64;
    trace.extend(decode_phase.into_iter().map(|r| {
        Request::new(base_id + r.id, r.input_len, r.output_len, r.arrival_ps + shift)
    }));
    trace
}

fn flex_fleet(trace: Vec<Request>, tick_ps: u64, idle_ticks: u32) -> FleetEngine {
    let configs = vec![
        gpt2_replica().prefill_only(),
        gpt2_replica().prefill_only(),
        gpt2_replica().decode_only(),
    ];
    FleetEngine::new(
        configs,
        vec![LinkSpec::new(32.0, LinkSpec::cxl().latency_ns)],
        Box::new(FlexPools::new(
            RoutingPolicyKind::LeastOutstanding.build(0),
            RoutingPolicyKind::LeastKvLoad.build(0),
            FlexPoolsConfig { tick_ps, idle_ticks, min_prefill: 1 },
        )),
        trace,
    )
    .expect("gpt2 fits a single Table-I NPU")
}

/// The flex example's claim, pinned as a test: on a phase-shifting
/// workload, flexing a prefill replica into the decode pool beats the
/// static split on p99 TPOT, with every request served.
#[test]
fn flex_beats_static_p99_tpot_on_phase_shift() {
    let trace = phase_shift_trace(20, 20, 5.0, 0);
    let static_fleet = FleetEngine::new(
        vec![
            gpt2_replica().prefill_only(),
            gpt2_replica().prefill_only(),
            gpt2_replica().decode_only(),
        ],
        vec![LinkSpec::new(32.0, LinkSpec::cxl().latency_ns)],
        Box::new(StaticControl::new(
            RoutingPolicyKind::LeastOutstanding.build(0),
            RoutingPolicyKind::LeastKvLoad.build(0),
        )),
        trace.clone(),
    )
    .unwrap()
    .run();
    let flex = flex_fleet(trace, 200_000_000, 2).run();
    assert_eq!(static_fleet.total_completions(), 40);
    assert_eq!(flex.total_completions(), 40);
    let p99 = |r: &llmservingsim::core::FleetReport| r.slo().tpot.unwrap().p99_s;
    assert!(
        p99(&flex) < p99(&static_fleet),
        "flex p99 TPOT {:.6}s must beat static {:.6}s",
        p99(&flex),
        p99(&static_fleet)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// FlexPools never strands a request mid-drain: whatever the phase
    /// shape, tick, or idle threshold, every request completes exactly
    /// once, and transfer causality holds.
    #[test]
    fn flex_pools_never_strand_requests(
        prefill_n in 2usize..14,
        decode_n in 2usize..14,
        gap_ms in 0.5f64..12.0,
        tick_ps in 100_000_000u64..2_000_000_000,
        idle_ticks in 1u32..4,
        seed in 0u64..1_000,
    ) {
        let trace = phase_shift_trace(prefill_n, decode_n, gap_ms, seed);
        let total = trace.len();
        let report = flex_fleet(trace, tick_ps, idle_ticks).run();
        prop_assert_eq!(report.total_completions(), total, "stranded requests");
        let mut ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), total, "duplicated completions");
        prop_assert_eq!(report.transfers.len(), total, "every request ships KV once");
        for (id, t) in &report.transfers {
            prop_assert!(t.start_ps >= t.ready_ps, "transfer {id} before its KV was ready");
            prop_assert!(t.done_ps > t.start_ps, "zero-time transfer {id}");
        }
    }

    /// The autoscaler respects its `min..max` bounds at every step, and
    /// still serves the whole trace.
    #[test]
    fn autoscale_respects_bounds(
        min in 1usize..3,
        extra in 0usize..3,
        queue_high in 1.5f64..6.0,
        burst_size in 4usize..20,
        seed in 0u64..1_000,
    ) {
        let max = min + extra;
        let trace = bursty_trace(&BurstyTraceSpec {
            bursts: 2,
            burst_size,
            burst_gap_ms: 25.0,
            seed,
            ..BurstyTraceSpec::default()
        });
        let total = trace.len();
        let mut engine = FleetEngine::new(
            vec![gpt2_replica(); min],
            Vec::new(),
            Box::new(AutoscaleControl::new(
                RoutingPolicyKind::LeastOutstanding.build(0),
                AutoscaleConfig {
                    tick_ps: 500_000_000,
                    min_replicas: min,
                    max_replicas: max,
                    queue_high,
                    queue_low: 0.5,
                    warmup_ps: 2_000_000_000,
                },
            )),
            trace,
        ).expect("gpt2 fleet builds");
        let mut peak = engine.active_replicas();
        while engine.step() {
            let active = engine.active_replicas();
            prop_assert!(active >= min, "fell under the floor: {active} < {min}");
            prop_assert!(active <= max, "burst past the ceiling: {active} > {max}");
            peak = peak.max(active);
        }
        prop_assert_eq!(engine.completed_requests(), total);
        let report = engine.into_report();
        prop_assert_eq!(report.total_completions(), total);
        prop_assert!(report.replicas.len() <= max, "fleet vector outgrew the ceiling");
    }

    /// Role flexing preserves decode-side physics: first tokens never
    /// precede the KV transfer that enables them.
    #[test]
    fn flexed_decode_respects_transfer_causality(
        prefill_n in 2usize..10,
        decode_n in 2usize..10,
        seed in 0u64..500,
    ) {
        let trace = phase_shift_trace(prefill_n, decode_n, 3.0, seed);
        let report = flex_fleet(trace, 300_000_000, 1).run();
        let transfers: std::collections::BTreeMap<u64, _> =
            report.transfers.iter().cloned().collect();
        for c in &report.completions {
            let t = transfers[&c.id];
            prop_assert!(
                c.first_token_ps > t.done_ps,
                "request {}: first token at {} but KV landed at {}",
                c.id, c.first_token_ps, t.done_ps
            );
        }
    }
}

/// A static fleet with explicit roles behaves like the disagg shape on
/// the shared-surface metrics (same engine underneath, different report
/// view).
#[test]
fn fleet_static_roles_match_disagg_wrapper() {
    let spec = BurstyTraceSpec { bursts: 2, burst_size: 8, ..BurstyTraceSpec::default() };
    let trace = bursty_trace(&spec);
    let disagg = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .disagg(2, 1)
        .kv_link_gbps(32.0)
        .routing(RoutingPolicyKind::LeastOutstanding)
        .pairing(RoutingPolicyKind::LeastKvLoad)
        .workload(spec)
        .run()
        .unwrap();
    let disagg = disagg.as_disagg().expect("disagg scenarios produce disagg reports");
    let mut configs = vec![gpt2_replica().prefill_only(); 2];
    configs.push(gpt2_replica().decode_only());
    let link = LinkSpec::new(32.0, LinkSpec::cxl().latency_ns);
    let control = StaticControl::new(
        RoutingPolicyKind::LeastOutstanding.build(0),
        RoutingPolicyKind::LeastKvLoad.build(0),
    );
    let fleet = FleetEngine::new(configs, vec![link], Box::new(control), trace).unwrap().run();
    assert_eq!(fleet.total_completions(), disagg.total_completions());
    assert_eq!(fleet.makespan_ps(), disagg.makespan_ps());
    let (f, d) = (fleet.slo(), disagg.slo());
    assert_eq!(f.ttft, d.ttft);
    assert_eq!(f.latency, d.latency);
}

/// One builder behind every multi-replica shape: a static `[fleet]`
/// table that spells out a cluster, or a disaggregated deployment whose
/// handoffs cross a `[fabric]`, runs exactly like the shape it spells
/// out.
#[test]
fn static_fleet_tables_reproduce_cluster_and_disagg_shapes() {
    let cluster = scenario("cluster_small");
    let mut fleet = cluster.clone();
    fleet.set("fleet", "static").unwrap();
    let (cluster, fleet) = (cluster.run().unwrap(), fleet.run().unwrap());
    let (cluster, fleet) = (cluster.as_cluster().unwrap(), fleet.as_fleet().unwrap());
    assert_eq!(cluster.assignments, fleet.assignments);
    assert_eq!(cluster.replica_reports.len(), fleet.replicas.len());
    for (c, f) in cluster.replica_reports.iter().zip(&fleet.replicas) {
        assert_eq!(c.iterations, f.report.iterations);
        assert_eq!(c.completions, f.report.completions);
        assert_eq!(c.sim_duration_ps, f.report.sim_duration_ps);
    }

    let disagg = scenario("disagg_fabric");
    let (prefill, decode) = disagg.disagg.expect("disagg_fabric.toml is a disagg scenario");
    let mut roles = vec![ReplicaRole::Prefill; prefill];
    roles.resize(prefill + decode, ReplicaRole::Decode);
    let mut fleet = disagg.clone();
    fleet.disagg = None;
    fleet.fleet = Some(FleetSpec::with_roles(&roles));
    let (disagg, fleet) = (disagg.run().unwrap(), fleet.run().unwrap());
    let (disagg, fleet) = (disagg.as_disagg().unwrap(), fleet.as_fleet().unwrap());
    assert!(fleet.fabric.is_some(), "the [fleet] run must cross the fair fabric");
    assert_eq!(fleet.total_completions(), 48);
    let disagg_lives =
        disagg.completions.iter().map(|c| (c.id, c.arrival_ps, c.first_token_ps, c.finish_ps));
    let fleet_lives =
        fleet.completions.iter().map(|c| (c.id, c.arrival_ps, c.first_token_ps, c.finish_ps));
    assert!(disagg_lives.eq(fleet_lives), "the two runs' request lifecycles diverge");
    let handoffs = disagg.completions.iter().map(|c| {
        let times = (c.prefill_done_ps, c.transfer_start_ps, c.transfer_done_ps);
        (c.id, c.prefill_replica, prefill + c.decode_replica, times, c.kv_bytes)
    });
    let fleet_handoffs = fleet
        .transfers
        .iter()
        .map(|&(id, t)| (id, t.from, t.to, (t.ready_ps, t.start_ps, t.done_ps), t.bytes));
    assert!(handoffs.eq(fleet_handoffs), "the two runs' KV handoffs diverge");
}

/// The `[fleet]` builder surface: `FleetSpec::flex` + builder chaining
/// produce a running scenario with roles.
#[test]
fn flex_scenario_via_builder_runs() {
    let mut spec = FleetSpec::flex(2, 1);
    spec.tick_ms = 0.2;
    spec.replicas[0] = ReplicaOverride { npus: Some(1), ..spec.replicas[0] };
    assert_eq!(spec.role_of(2), ReplicaRole::Decode);
    let report = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .kv_link_gbps(32.0)
        .fleet(spec)
        .workload(llmservingsim::sched::WorkloadSpec::from(BurstyTraceSpec {
            bursts: 2,
            burst_size: 6,
            ..BurstyTraceSpec::default()
        }))
        .run()
        .unwrap();
    assert_eq!(report.shape(), "fleet");
    assert_eq!(report.total_completions(), 12);
}

/// Runs a static cluster of `replicas` GPT-2 replicas that admits with
/// `routing`, returning its work counters and its admission count.
fn cluster_work(
    replicas: usize,
    routing: RoutingPolicyKind,
    requests: usize,
) -> (FleetWork, usize) {
    let trace = bursty_trace(&BurstyTraceSpec {
        bursts: 2,
        burst_size: requests / 2,
        seed: 11,
        ..BurstyTraceSpec::default()
    });
    let mut fleet = FleetEngine::new(
        vec![gpt2_replica(); replicas],
        Vec::new(),
        Box::new(StaticControl::new(routing.build(5), RoutingPolicyKind::LeastKvLoad.build(0))),
        trace,
    )
    .expect("gpt2 fits a single Table-I NPU");
    while fleet.step() {}
    (fleet.work(), fleet.assignments().len())
}

/// Round-robin admission reads no replica's load, so a 64-replica
/// cluster captures no snapshot at all; every admission is a barrier
/// step.
#[test]
fn round_robin_admission_captures_no_snapshot() {
    let (work, admitted) = cluster_work(64, RoutingPolicyKind::RoundRobin, 128);
    assert_eq!(admitted, 128);
    assert_eq!(work.snapshots, 0, "{work:?}");
    assert!(work.barrier_steps > admitted as u64, "{work:?}");
}

/// Load-aware admission captures exactly the snapshots its policy reads:
/// least-outstanding one per candidate per admission, power-of-two two
/// per admission.
#[test]
fn load_aware_admission_captures_the_snapshots_it_reads() {
    let (work, admitted) = cluster_work(8, RoutingPolicyKind::LeastOutstanding, 24);
    assert_eq!(work.snapshots, 8 * admitted as u64, "{work:?}");
    let (work, admitted) = cluster_work(8, RoutingPolicyKind::PowerOfTwoChoices, 24);
    assert_eq!(work.snapshots, 2 * admitted as u64, "{work:?}");
}

/// `cluster_small` has three replicas, so no window can give two threads
/// two members each: at `shards = 4` it steps every window inline.
#[test]
fn small_windows_start_no_helper_thread() {
    let mut s = scenario("cluster_small");
    s.set("shards", "4").unwrap();
    let mut sim = s.build().unwrap();
    while sim.step() {}
    let work = sim.engine.work();
    assert!(work.windows > 0, "{work:?}");
    assert_eq!((work.threaded_windows, work.helper_threads), (0, 0), "{work:?}");
}
