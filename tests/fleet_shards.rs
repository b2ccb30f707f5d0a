//! Sharded windowed stepping and the fleet-wide shared reuse cache.
//!
//! * **Shard-count invariance** — `--shards N` changes wall-clock
//!   strategy only: every artifact a run emits must be byte-identical
//!   under any shard count, on every multi-replica shape (cluster,
//!   disagg, `[fleet]` with autoscale and flex control planes), and on a
//!   fleet wide enough that its windows do start helper threads.
//! * **Shared-cache semantics** — arming [`SharedReuse`] never changes
//!   simulated timing (the shared tier memoizes outcomes the local tier
//!   would have recomputed identically); it only converts local misses
//!   into shared hits. The local hit-rate split must reconstruct the
//!   un-shared counters exactly.
//! * **Fingerprint isolation** — replicas with differing
//!   [`SimConfig`]s must never serve each other's cached outcomes:
//!   an all-heterogeneous fleet records `shared_hits == 0` no matter
//!   the shard count.

use proptest::prelude::*;

use llmservingsim::core::{
    FleetEngine, FleetWork, FlexPools, FlexPoolsConfig, ReportOutput, RoutingPolicyKind,
    SimConfig, Simulate, StaticControl,
};
use llmservingsim::model::ModelSpec;
use llmservingsim::net::LinkSpec;
use llmservingsim::scenario::{
    AnyReport, Scenario, ScenarioError, ServingShape, TelemetrySpec,
};
use llmservingsim::sched::{bursty_trace, BurstyTraceSpec, Request};

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn scenario_path(name: &str) -> String {
    format!("{}/examples/scenarios/{name}.toml", env!("CARGO_MANIFEST_DIR"))
}

fn scenario(name: &str) -> Scenario {
    let path = scenario_path(name);
    Scenario::from_path(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Runs a checked-in scenario with `overrides` and the fleet-scaling
/// keys set (what `--set`, `--shards` and `--shared-cache` do).
fn report_for(
    name: &str,
    overrides: &[(&str, &str)],
    shards: usize,
    shared: bool,
) -> AnyReport {
    let mut s = scenario(name);
    for (key, value) in overrides {
        s.set(key, value).unwrap_or_else(|e| panic!("{name}: {key}={value}: {e}"));
    }
    s.set("shards", &shards.to_string()).unwrap();
    s.set("shared_cache", &shared.to_string()).unwrap();
    s.run().unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// As [`report_for`] without the shared cache, stepping the engine by
/// hand to read its work counters before the run finalizes.
fn artifacts_and_work(
    name: &str,
    overrides: &[(&str, &str)],
    shards: usize,
) -> (Vec<(&'static str, String)>, FleetWork) {
    let mut s = scenario(name);
    for (key, value) in overrides {
        s.set(key, value).unwrap_or_else(|e| panic!("{name}: {key}={value}: {e}"));
    }
    s.set("shards", &shards.to_string()).unwrap();
    let mut sim = s.build().unwrap_or_else(|e| panic!("{name}: {e}"));
    while sim.step() {}
    let work = sim.engine.work();
    (sim.finalize().artifacts(), work)
}

/// The two spellings of the fleet-scaling keys: the top-level keys and
/// the `fleet.*` input alias.
const SPELLINGS: [(&str, &str); 2] =
    [("shards", "shared_cache"), ("fleet.shards", "fleet.shared_cache")];

fn artifact<'a>(artifacts: &'a [(&'static str, String)], suffix: &str) -> &'a str {
    artifacts
        .iter()
        .find(|(s, _)| *s == suffix)
        .map(|(_, c)| c.as_str())
        .unwrap_or_else(|| panic!("no {suffix} artifact"))
}

/// Every artifact of every multi-replica shape is byte-identical under
/// any shard count — cluster, disagg, and a tick-driven autoscale
/// fleet. The 2x2 disagg cases pair KV handoffs by decode load, which
/// a window advances up to the handoff's KV-ready barrier before the
/// pairing reads it. (Multi-replica artifacts carry no host-time
/// columns, so the full set is compared.)
#[test]
fn sharded_runs_are_byte_identical_across_shapes() {
    let cases: [(&str, &[(&str, &str)]); 6] = [
        ("cluster_small", &[]),
        ("cluster_routing", &[]),
        ("disagg_small", &[]),
        ("autoscale", &[]),
        ("disagg_vs_unified", &[("disagg", "2x2"), ("pairing", "least-kv")]),
        ("disagg_vs_unified", &[("disagg", "2x2"), ("pairing", "least-outstanding")]),
    ];
    for (name, overrides) in cases {
        let inline = report_for(name, overrides, 1, false).artifacts();
        for shards in [2, 4, 7] {
            let sharded = report_for(name, overrides, shards, false).artifacts();
            assert_eq!(inline, sharded, "{name} {overrides:?} drifted at shards={shards}");
        }
    }
}

/// A window starts helper threads only when every thread gets two
/// members, so the small fleets above step almost every window inline.
/// `cluster_small` at 16 replicas has 15 windows of four to seven
/// members: on a multi-core host its sharded runs do start helper
/// threads (the work counters show it), and every artifact stays
/// byte-identical.
#[test]
fn threaded_windows_are_byte_identical() {
    let wide: &[(&str, &str)] = &[("replicas", "16")];
    let (inline, work) = artifacts_and_work("cluster_small", wide, 1);
    assert_eq!(work.helper_threads, 0, "shards = 1 steps every window inline");
    assert!(work.windows > 0, "the fleet must step in windows");
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for shards in [2, 4, 7] {
        let (sharded, work) = artifacts_and_work("cluster_small", wide, shards);
        assert_eq!(inline, sharded, "16-replica cluster_small drifted at shards={shards}");
        if host >= 2 {
            assert!(
                work.threaded_windows > 0 && work.helper_threads >= work.threaded_windows,
                "no window started a helper thread at shards={shards}: {work:?}"
            );
        }
    }
}

/// A sharded run still reproduces the pre-refactor golden byte for byte
/// — sharding composes with the engine-equivalence guarantee, not just
/// with today's single-thread output.
#[test]
fn sharded_cluster_report_matches_pre_sharding_golden() {
    let report = report_for("cluster_small", &[], 4, false);
    let artifacts = report.artifacts();
    assert_eq!(
        artifact(&artifacts, "-cluster.tsv"),
        golden("cluster_small-cluster.tsv"),
        "sharded cluster_small drifted from the golden"
    );
}

/// The shared cache changes accounting, never timing: the per-request
/// TSV is byte-identical to the un-shared run, the local/shared
/// hit split reconstructs the un-shared counters exactly, and the
/// summary (counters included) is invariant across shard counts.
#[test]
fn shared_cache_preserves_timing_and_splits_hit_accounting() {
    let serial = report_for("cluster_routing", &[], 1, false);
    let shared = report_for("cluster_routing", &[], 1, true);

    let serial_arts = serial.artifacts();
    let shared_arts = shared.artifacts();
    assert_eq!(
        artifact(&serial_arts, "-cluster.tsv"),
        artifact(&shared_arts, "-cluster.tsv"),
        "the shared cache must not change simulated timing"
    );

    let base = serial.reuse();
    let tiered = shared.reuse();
    assert!(tiered.shared_armed, "shared_cache must arm the stats");
    assert!(!base.shared_armed, "un-shared runs must not report the shared tier");
    assert!(tiered.shared_hits > 0, "homogeneous replicas must share outcomes");
    // Every shared hit is a converted local miss; nothing else moves.
    assert_eq!(
        tiered.iteration_hits - tiered.shared_hits,
        base.iteration_hits,
        "local hits must match the un-shared run"
    );
    assert_eq!(
        base.iteration_misses - tiered.iteration_misses,
        tiered.shared_hits,
        "each shared hit must replace exactly one full simulation"
    );
    assert_eq!(
        tiered.local_iteration_hit_rate(),
        base.iteration_hit_rate(),
        "the per-replica rate must equal the un-shared fleet rate"
    );
    assert!(
        tiered.iteration_hit_rate() > base.iteration_hit_rate(),
        "the fleet-wide rate must improve over the per-replica rate"
    );

    // The publish discipline pins counter totals: shard counts change
    // thread assignment, never which lookups hit.
    for shards in [2, 4, 7] {
        let arts = report_for("cluster_routing", &[], shards, true).artifacts();
        assert_eq!(shared_arts, arts, "shared-cache run drifted at shards={shards}");
    }
}

fn gpt2_replica() -> SimConfig {
    SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel()
}

fn static_control() -> Box<StaticControl> {
    Box::new(StaticControl::new(
        RoutingPolicyKind::RoundRobin.build(0),
        RoutingPolicyKind::LeastKvLoad.build(0),
    ))
}

/// A two-phase trace (prefill-heavy burst, then a decode-heavy burst)
/// — the workload that exercises linked prefill/decode fleets.
fn phase_shift_trace(prefill_n: usize, decode_n: usize, seed: u64) -> Vec<Request> {
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
    let shift = trace.last().expect("non-empty").arrival_ps + 5_000_000_000;
    let base_id = trace.len() as u64;
    trace.extend(decode_phase.into_iter().map(|r| {
        Request::new(base_id + r.id, r.input_len, r.output_len, r.arrival_ps + shift)
    }));
    trace
}

fn flex_fleet(trace: Vec<Request>) -> FleetEngine {
    FleetEngine::new(
        vec![
            gpt2_replica().prefill_only(),
            gpt2_replica().prefill_only(),
            gpt2_replica().decode_only(),
        ],
        vec![LinkSpec::new(32.0, LinkSpec::cxl().latency_ns)],
        Box::new(FlexPools::new(
            RoutingPolicyKind::LeastOutstanding.build(0),
            RoutingPolicyKind::LeastKvLoad.build(0),
            FlexPoolsConfig { tick_ps: 200_000_000, idle_ticks: 2, min_prefill: 1 },
        )),
        trace,
    )
    .expect("gpt2 fits a single Table-I NPU")
}

/// Linked prefill/decode fleets under a ticking flex control plane —
/// the hardest shape for windowed stepping (KV transfers, role
/// switches, and ticks all bound the window) — stay byte-identical.
#[test]
fn sharded_flex_fleet_matches_serial() {
    let trace = phase_shift_trace(20, 20, 7);
    let serial = flex_fleet(trace.clone()).run().artifacts();
    for shards in [2, 4, 7] {
        let mut fleet = flex_fleet(trace.clone());
        fleet.set_shards(shards);
        assert_eq!(serial, fleet.run().artifacts(), "flex fleet drifted at shards={shards}");
    }
}

/// An all-heterogeneous fleet: every replica has a distinct config
/// fingerprint, so the shared cache must never serve a hit.
fn hetero_fleet(replicas: usize, trace: Vec<Request>) -> FleetEngine {
    let configs: Vec<SimConfig> =
        (0..replicas).map(|i| gpt2_replica().max_batch(2 + 2 * i)).collect();
    FleetEngine::new(configs, Vec::new(), static_control(), trace)
        .expect("gpt2 fits a single Table-I NPU")
}

/// A config between two equal ones keeps its own fingerprint: in an
/// `A, A, B, A` fleet of identical requests, each replica trailing the
/// one before it, the last A reads outcomes the first A published while
/// the lone B reads none.
#[test]
fn a_lone_config_between_equal_ones_shares_nothing() {
    let a = gpt2_replica();
    let b = gpt2_replica().max_batch(64);
    let trace: Vec<Request> =
        (0..4).map(|i| Request::new(i, 64, 16, i * 50_000_000_000)).collect();
    let mut fleet =
        FleetEngine::new(vec![a.clone(), a.clone(), b, a], Vec::new(), static_control(), trace)
            .expect("gpt2 fits a single Table-I NPU");
    fleet.enable_shared_cache();
    let hits: Vec<u64> =
        fleet.run().replicas.iter().map(|r| r.report.reuse.shared_hits).collect();
    assert!(hits[3] > 0, "equal configs must share outcomes: {hits:?}");
    assert_eq!(hits[2], 0, "the B replica read another config's outcomes: {hits:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random homogeneous fleets: the sharded run (with or without the
    /// shared cache) emits byte-identical artifacts to the shards=1
    /// run, whatever the fleet size, trace shape, or shard count.
    #[test]
    fn random_fleets_are_shard_invariant(
        replicas in 2usize..12,
        shards in 2usize..8,
        burst_size in 4usize..12,
        bursts in 1usize..3,
        seed in 0u64..1_000,
        shared in proptest::bool::ANY,
    ) {
        let trace = bursty_trace(&BurstyTraceSpec {
            bursts,
            burst_size,
            seed,
            ..BurstyTraceSpec::default()
        });
        let build = |shards: usize| {
            let mut fleet = FleetEngine::new(
                vec![gpt2_replica(); replicas],
                Vec::new(),
                static_control(),
                trace.clone(),
            )
            .expect("gpt2 fits a single Table-I NPU");
            fleet.set_shards(shards);
            if shared {
                fleet.enable_shared_cache();
            }
            fleet
        };
        let baseline = build(1).run();
        let sharded = build(shards).run();
        prop_assert_eq!(
            baseline.artifacts(),
            sharded.artifacts(),
            "fleet of {} drifted at shards={} (shared={})",
            replicas,
            shards,
            shared
        );
    }

    /// The shared cache never crosses config fingerprints: a fleet of
    /// all-distinct replicas records zero shared hits under any shard
    /// count, and its timing is identical to the un-shared run.
    #[test]
    fn shared_cache_never_crosses_config_fingerprints(
        replicas in 2usize..5,
        burst_size in 6usize..16,
        seed in 0u64..1_000,
        shards in 1usize..5,
    ) {
        let trace = bursty_trace(&BurstyTraceSpec {
            bursts: 2,
            burst_size,
            seed,
            ..BurstyTraceSpec::default()
        });
        let base = hetero_fleet(replicas, trace.clone()).run();
        let mut fleet = hetero_fleet(replicas, trace);
        fleet.set_shards(shards);
        fleet.enable_shared_cache();
        let shared = fleet.run();
        let reuse = shared.aggregate_reuse();
        prop_assert!(reuse.shared_armed, "the shared tier must be armed");
        prop_assert_eq!(
            reuse.shared_hits, 0,
            "distinct fingerprints must never share outcomes"
        );
        prop_assert_eq!(base.to_tsv(), shared.to_tsv(), "timing must be unchanged");
        prop_assert_eq!(base.aggregate_reuse().iteration_hits, reuse.iteration_hits);
        prop_assert_eq!(base.aggregate_reuse().iteration_misses, reuse.iteration_misses);
    }
}

/// `shards` / `shared_cache` (or their `fleet.*` spelling) round-trip
/// through the canonical TOML form on a `[fleet]` scenario and on a
/// cluster, which stays a cluster; scenarios that never set them
/// serialize byte-identically to the pre-sharding schema.
#[test]
fn fleet_scaling_keys_round_trip_and_stay_absent_by_default() {
    for name in ["autoscale", "cluster_small"] {
        for (shards, shared_cache) in SPELLINGS {
            let mut s = scenario(name);
            s.set(shards, "4").unwrap();
            s.set(shared_cache, "true").unwrap();
            let back = Scenario::from_toml(&s.to_toml()).unwrap();
            assert_eq!(back, s, "{name}/{shards}: lossless round trip");
            assert_eq!(back.shards, 4);
            assert!(back.shared_cache);
            assert_eq!(back.shape(), scenario(name).shape(), "{name}/{shards} changed shape");
        }
        let plain = scenario(name).to_toml();
        assert!(!plain.contains("shards"), "{name}: default shards must not serialize");
        assert!(
            !plain.contains("shared_cache"),
            "{name}: default shared_cache must not serialize"
        );
    }
    assert_eq!(scenario("cluster_small").shape(), ServingShape::Cluster { replicas: 3 });
}

/// Validation, under either spelling and on any shape: zero shards is
/// invalid, and the fleet-scaling keys combine with telemetry (a traced
/// fleet steps its windows on one thread).
#[test]
fn fleet_scaling_validation() {
    let telemetry = TelemetrySpec { trace: Some("auto".into()), ..TelemetrySpec::default() };
    for name in ["autoscale", "cluster_small"] {
        for (shards, shared_cache) in SPELLINGS {
            let mut s = scenario(name);
            s.set(shards, "0").unwrap();
            assert!(matches!(s.validate(), Err(ScenarioError::InvalidValue { .. })));

            let mut s = scenario(name);
            s.set(shards, "4").unwrap();
            s.telemetry = Some(telemetry.clone());
            s.validate().unwrap_or_else(|e| panic!("{name}: {shards}=4 with telemetry: {e}"));

            let mut s = scenario(name);
            s.set(shared_cache, "true").unwrap();
            s.telemetry = Some(telemetry.clone());
            s.validate()
                .unwrap_or_else(|e| panic!("{name}: {shared_cache} with telemetry: {e}"));
        }
    }
}

/// A `[fleet]` table that spells `shards` and `shared_cache` inside it
/// (as older scenario files do) describes the same run as the top-level
/// keys, and writes the same artifacts.
#[test]
fn fleet_table_spelling_of_the_scaling_keys_matches_the_top_level_keys() {
    let text = std::fs::read_to_string(scenario_path("cluster_small")).unwrap();
    let (head, workload) = text.split_once("[workload]").unwrap();
    let in_table = format!(
        "{head}[fleet]\ncontrol = \"static\"\nshards = 2\nshared_cache = true\n\n\
         [workload]{workload}"
    );
    let top_level = format!(
        "shards = 2\nshared_cache = true\n{head}[fleet]\ncontrol = \"static\"\n\n\
         [workload]{workload}"
    );
    let in_table = Scenario::from_toml(&in_table).unwrap();
    let top_level = Scenario::from_toml(&top_level).unwrap();
    assert_eq!(in_table, top_level);
    assert_eq!((in_table.shards, in_table.shared_cache), (2, true));
    let report = in_table.run().unwrap();
    assert!(report.reuse().shared_armed, "the table spelling must arm the shared cache");
    assert_eq!(report.artifacts(), top_level.run().unwrap().artifacts());
}
