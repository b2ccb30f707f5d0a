//! The `Scenario` API surface: serde round-trips, builder-chain
//! properties, and bit-identical equivalence between scenario-driven and
//! hand-composed (legacy library-level) runs across the serving shapes.

use proptest::collection::vec;
use proptest::prelude::*;

use llmservingsim::core::{
    ClusterReport, DisaggReport, FleetEngine, KvBucket, ReportOutput, RoutingPolicyKind,
    ServingSimulator, SimConfig, Simulate, StaticControl,
};
use llmservingsim::model::ModelSpec;
use llmservingsim::net::LinkSpec;
use llmservingsim::npu::NpuConfig;
use llmservingsim::scenario::{AnyReport, Scenario, ScenarioError, Sweep};
use llmservingsim::sched::{
    BurstyTraceSpec, Dataset, SchedulingPolicy, TraceGenerator, WorkloadSpec,
};

fn synthetic(requests: usize, rate: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::Synthetic { dataset: Dataset::Alpaca, requests, rate_per_s: rate, seed }
}

/// The deterministic artifacts of a report: everything except the
/// wall-clock `-simulation-time.tsv` (which legitimately differs between
/// any two runs).
fn deterministic_artifacts(report: &impl ReportOutput) -> Vec<(&'static str, String)> {
    report
        .artifacts()
        .into_iter()
        .filter(|(suffix, _)| *suffix != "-simulation-time.tsv")
        .collect()
}

/// The single shape runs as a one-replica static fleet, whose front end
/// admits each request at its arrival. For every knob that online
/// admission could disturb, it must write the bytes a bare
/// `ServingSimulator` writes when it holds the whole trace from t = 0.
#[test]
fn scenario_matches_legacy_unified_run_bit_identically() {
    let base = || {
        Scenario::model("gpt2")
            .npus(1)
            .tensor_parallel()
            .max_batch(16)
            .workload(synthetic(32, 40.0, 42))
    };
    let via_scenario = base().run().unwrap();

    // The legacy path: hand-built SimConfig + TraceGenerator.
    let cfg = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel().max_batch(16);
    let trace = TraceGenerator::new(Dataset::Alpaca, 42).rate_per_s(40.0).generate(32);
    let legacy = ServingSimulator::new(cfg, trace).unwrap().run();
    assert_eq!(
        deterministic_artifacts(&via_scenario),
        deterministic_artifacts(&legacy),
        "scenario and legacy unified runs must write byte-equal reports"
    );

    let bursty = WorkloadSpec::Bursty {
        spec: BurstyTraceSpec { bursts: 2, burst_size: 16, ..BurstyTraceSpec::default() },
    };
    let cases = [
        ("batch_delay_ms 3.5", base().batch_delay_ms(3.5)),
        (
            "batch_delay_ms 40 at rate 30",
            base().batch_delay_ms(40.0).workload(synthetic(32, 30.0, 42)),
        ),
        ("scheduling request", base().scheduling(SchedulingPolicy::RequestLevel)),
        ("max_batch 2", base().max_batch(2)),
        (
            "gpt3-7b on one 15 GiB NPU",
            Scenario::model("gpt3-7b").npus(1).tensor_parallel().npu_mem_gib(15.0).workload(
                WorkloadSpec::Synthetic {
                    dataset: Dataset::ShareGpt,
                    requests: 32,
                    rate_per_s: 100.0,
                    seed: 42,
                },
            ),
        ),
        ("kv_manage max", base().kv_max_len()),
        ("gen_only", base().gen_only(true)),
        ("pim pool with sub_batch", base().npus(2).pim_pool(2).sub_batch(true)),
        ("kv_bucket 64", base().kv_bucket(64usize)),
        ("kv_bucket adaptive", base().kv_bucket(KvBucket::adaptive())),
        ("reuse off", base().reuse(false)),
        ("bursty workload", base().workload(bursty)),
    ];
    for (name, scenario) in cases {
        let via_scenario = scenario.run().unwrap();
        let AnyReport::Single(single) = &via_scenario else { panic!("{name}: not single") };
        assert!(!single.completions.is_empty(), "{name}: served nothing");
        if name.starts_with("gpt3-7b") {
            let evictions: usize = single.iterations.iter().map(|it| it.evictions).sum();
            assert!(evictions > 0, "{name}: no eviction pressure");
        }
        let (cfg, trace) = (scenario.replica_config().unwrap(), scenario.trace().unwrap());
        let legacy = ServingSimulator::new(cfg, trace).unwrap().run();
        assert_eq!(
            deterministic_artifacts(&via_scenario),
            deterministic_artifacts(&legacy),
            "{name}: the one-replica fleet and the bare replica must write byte-equal reports"
        );
    }
}

/// The single shape is a one-replica fleet, so the fleet-scaling keys
/// apply to it: `shards` leaves every report byte unchanged, and
/// `shared_cache` only adds the shared-tier counters to the summary.
#[test]
fn fleet_scaling_keys_apply_to_the_single_shape() {
    let base = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .max_batch(16)
        .workload(synthetic(32, 40.0, 42));
    let run_with = |key: &str, value: &str| {
        let mut scenario = base.clone();
        scenario.set(key, value).unwrap();
        deterministic_artifacts(&scenario.run().unwrap())
    };
    let plain = deterministic_artifacts(&base.run().unwrap());
    assert_eq!(run_with("shards", "4"), plain, "shards changed a single-shape report");
    let shared = run_with("shared_cache", "true");
    let summary = |artifacts: &[(&str, String)]| {
        artifacts.iter().find(|(suffix, _)| *suffix == "-summary.json").unwrap().1.clone()
    };
    let (before, after) = (summary(&plain), summary(&shared));
    assert!(!before.contains("shared_hits"), "{before}");
    assert!(after.contains("\"shared_hits\": 0"), "{after}");
    let without_shared_tier = after
        .lines()
        .filter(|l| !l.contains("shared_hits") && !l.contains("local_iteration_hit_rate"))
        .map(|l| l.trim_end_matches(','))
        .collect::<Vec<_>>();
    let plain_lines = before.lines().map(|l| l.trim_end_matches(',')).collect::<Vec<_>>();
    assert_eq!(without_shared_tier, plain_lines);
    let others = |artifacts: Vec<(&'static str, String)>| {
        artifacts
            .into_iter()
            .filter(|(suffix, _)| *suffix != "-summary.json")
            .collect::<Vec<_>>()
    };
    assert_eq!(others(shared), others(plain));
}

#[test]
fn scenario_matches_legacy_cluster_run_bit_identically() {
    let scenario = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .replicas(3)
        .routing(RoutingPolicyKind::PowerOfTwoChoices)
        .seed(7)
        .workload(synthetic(24, 100.0, 7));
    let via_scenario = scenario.run().unwrap();

    // The legacy path: three hand-built replicas behind the router.
    let cfg = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel();
    let control = StaticControl::new(
        RoutingPolicyKind::PowerOfTwoChoices.build(7),
        RoutingPolicyKind::LeastKvLoad.build(0),
    );
    let trace = TraceGenerator::new(Dataset::Alpaca, 7).rate_per_s(100.0).generate(24);
    let fleet = FleetEngine::new(vec![cfg; 3], Vec::new(), Box::new(control), trace).unwrap();
    let legacy = ClusterReport::from(fleet.run());

    assert_eq!(deterministic_artifacts(&via_scenario), deterministic_artifacts(&legacy));
}

#[test]
fn scenario_matches_legacy_disagg_run_bit_identically() {
    let scenario = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .disagg(1, 1)
        .kv_link_gbps(32.0)
        .pairing(RoutingPolicyKind::Sticky)
        .seed(9)
        .workload(synthetic(16, 200.0, 9));
    let via_scenario = scenario.run().unwrap();

    // The legacy path: a hand-built prefill/decode pair over one KV link.
    let cfg = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel();
    let control = StaticControl::new(
        RoutingPolicyKind::RoundRobin.build(9),
        RoutingPolicyKind::Sticky.build(0),
    );
    let link = LinkSpec::new(32.0, LinkSpec::cxl().latency_ns);
    let trace = TraceGenerator::new(Dataset::Alpaca, 9).rate_per_s(200.0).generate(16);
    let configs = vec![cfg.clone().prefill_only(), cfg.decode_only()];
    let fleet = FleetEngine::new(configs, vec![link], Box::new(control), trace).unwrap();
    let legacy = DisaggReport::from_fleet(fleet.run(), 1, RoutingPolicyKind::Sticky);

    assert_eq!(deterministic_artifacts(&via_scenario), deterministic_artifacts(&legacy));
}

#[test]
fn checked_in_scenario_files_parse_build_and_round_trip() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/scenarios exists") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".toml") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        if name.starts_with("sweep_") {
            let sweep = Sweep::from_toml(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!sweep.is_empty(), "{name}: empty grid");
            // Every point must validate without running it.
            for point in sweep.points().unwrap_or_else(|e| panic!("{name}: {e}")) {
                point.scenario.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        } else {
            // Schema-drift gate: parse -> build -> re-serialize must be
            // lossless, and the canonical text must be stable.
            let scenario = Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            scenario.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let canonical = scenario.to_toml();
            let back = Scenario::from_toml(&canonical).unwrap();
            assert_eq!(back, scenario, "{name}: TOML round trip is lossy");
            assert_eq!(back.to_toml(), canonical, "{name}: canonical form unstable");
            let json_back = Scenario::from_json(&scenario.to_json()).unwrap();
            assert_eq!(json_back, scenario, "{name}: JSON round trip is lossy");
        }
    }
    assert!(seen >= 5, "expected the checked-in scenario corpus, found {seen} files");
}

#[test]
fn simulate_trait_drives_any_shape_through_one_surface() {
    // Push the same trace into each shape through the Simulate trait
    // only — no shape-specific calls — and drain it. Pushed ids start at
    // 100 so they never collide with the scenario's own workload.
    let trace: Vec<_> = TraceGenerator::new(Dataset::Alpaca, 3)
        .rate_per_s(80.0)
        .generate(6)
        .into_iter()
        .map(|r| {
            llmservingsim::sched::Request::new(
                100 + r.id,
                r.input_len,
                r.output_len,
                r.arrival_ps,
            )
        })
        .collect();
    let scenarios = [
        Scenario::model("gpt2").npus(1).tensor_parallel().workload(synthetic(1, 1.0, 0)),
        Scenario::model("gpt2")
            .npus(1)
            .tensor_parallel()
            .replicas(2)
            .workload(synthetic(1, 1.0, 0)),
        Scenario::model("gpt2")
            .npus(1)
            .tensor_parallel()
            .disagg(1, 1)
            .workload(synthetic(1, 1.0, 0)),
    ];
    for scenario in scenarios {
        let mut sim = scenario.build().unwrap();
        for r in &trace {
            sim.push_request(*r);
        }
        assert!(sim.next_ready_ps().is_some());
        while sim.step() {}
        // 6 pushed + 1 from the scenario's own workload.
        assert_eq!(sim.completed_requests(), 7, "{}", scenario.shape());
        let report = sim.finalize();
        assert_eq!(report.total_completions(), 7);
        assert!(report.makespan_ps() > 0);
    }
}

#[test]
fn adaptive_bucket_scenario_runs_and_reports_annealed_bucket() {
    let scenario = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .max_batch(16)
        .kv_bucket(KvBucket::Adaptive {
            min_tokens: 1,
            max_tokens: 64,
            target_hit_rate: 0.8,
            window: 32,
        })
        .workload(WorkloadSpec::Bursty {
            spec: llmservingsim::sched::BurstyTraceSpec {
                bursts: 2,
                burst_size: 24,
                heavy_every: 0,
                heavy_frac: 0.9,
                heavy: (32, 128),
                light: (32, 24),
                poisson_rate_per_s: 5_000.0,
                seed: 7,
                ..Default::default()
            },
        });
    let report = scenario.run().unwrap();
    assert_eq!(report.total_completions(), 48);
    let reuse = report.reuse();
    assert!(reuse.kv_bucket_end > 1, "adaptive bucket never annealed");
    assert!(reuse.kv_bucket_end <= 64, "drift budget exceeded");
}

#[test]
fn typed_errors_cover_the_failure_modes() {
    // Unknown model.
    assert!(matches!(Scenario::model("nope").run(), Err(ScenarioError::UnknownModel { .. })));
    // Conflicting shape flags.
    assert!(matches!(
        Scenario::model("gpt2").replicas(2).disagg(1, 1).run(),
        Err(ScenarioError::Conflict { .. })
    ));
    // Unrealizable layout (16 stages on 12 layers).
    assert!(matches!(
        Scenario::model("gpt2").npus(16).pipeline_parallel().run(),
        Err(ScenarioError::Config(_))
    ));
    // Unreadable workload trace.
    let missing = Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .workload(WorkloadSpec::TraceFile { path: "/nonexistent/trace.tsv".into() });
    assert!(matches!(missing.run(), Err(ScenarioError::Workload(_))));
    // Unknown keys and values from the string surface.
    let mut s = Scenario::default();
    assert!(matches!(s.set("replcas", "2"), Err(ScenarioError::UnknownKey { .. })));
    assert!(matches!(s.set("parallel", "diag"), Err(ScenarioError::UnknownValue { .. })));
}

/// A `network` file written to the temp directory under `tag`; the
/// caller removes it.
fn network_file(tag: &str, json: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("llmss-network-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, json).unwrap();
    path.to_string_lossy().into_owned()
}

fn network_scenario() -> Scenario {
    Scenario::model("gpt2").npus(1).tensor_parallel().workload(synthetic(16, 40.0, 5))
}

/// `network` names an NPU config file in the format
/// `NpuConfig::to_json` writes: the hardware it describes is the
/// hardware the replicas simulate.
#[test]
fn network_file_replaces_the_npu_config() {
    let mut slow = NpuConfig::table1();
    slow.mem_bw_gbps /= 2.0;
    let path = network_file("half-bw", &slow.to_json());
    let report = network_scenario().network(path.as_str()).run();
    std::fs::remove_file(&path).unwrap();
    let report = report.unwrap();
    let default = network_scenario().run().unwrap();
    assert_eq!(report.total_completions(), 16);
    assert!(
        report.makespan_ps() != default.makespan_ps(),
        "half the memory bandwidth left the makespan at {} ps",
        default.makespan_ps()
    );
}

#[test]
fn network_file_errors_are_typed() {
    let mut zero_clock = NpuConfig::table1();
    zero_clock.freq_ghz = 0.0;
    for (tag, json) in [("empty", "{}".to_owned()), ("zero-clock", zero_clock.to_json())] {
        let path = network_file(tag, &json);
        let result = network_scenario().network(path.as_str()).run();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(&result, Err(ScenarioError::InvalidValue { field, .. }) if field == "network"),
            "{tag}: {:?}",
            result.err()
        );
    }
    let missing = network_scenario().network("/nonexistent/npu.json").run();
    assert!(
        matches!(&missing, Err(ScenarioError::Io { path, .. }) if path == "/nonexistent/npu.json"),
        "{:?}",
        missing.err()
    );
}

/// A random-but-valid builder chain: any combination this strategy
/// produces must validate, build, and (for small workloads) run to
/// completion. This is the "any valid chain is runnable" contract.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            0usize..3,  // parallelism flavor
            1usize..3,  // npu group count (hybrid splits)
            0usize..16, // max_batch
        ),
        (
            0usize..4, // shape: 0-1 single, 2 cluster, 3 disagg
            1usize..3, // replicas / pool size
            0usize..5, // routing policy index
        ),
        (
            1usize..5, // requests
            0u64..64,  // seed
            0usize..3, // kv bucket flavor: exact / fixed 32 / adaptive
        ),
    )
        .prop_map(
            |((par, groups, max_batch), (shape, fleet, route), (requests, seed, bucket))| {
                // npus chosen so every parallelism flavor is realizable
                // on gpt2 (12 layers).
                let npus = match par {
                    0 => 2,
                    1 => 4,
                    _ => 4,
                };
                let mut s = Scenario::model("gpt2")
                    .npus(npus)
                    .max_batch(max_batch)
                    .seed(seed)
                    .workload(synthetic(requests, 100.0, seed));
                s = match par {
                    0 => s.tensor_parallel(),
                    1 => s.pipeline_parallel(),
                    _ => s.hybrid_parallel(groups.min(npus)),
                };
                s = match shape {
                    2 => s.replicas(fleet + 1),
                    3 => s.disagg(fleet, fleet),
                    _ => s,
                };
                s = s.routing(RoutingPolicyKind::ALL[route]);
                match bucket {
                    0 => s,
                    1 => s.kv_bucket(32usize),
                    _ => s.kv_bucket(KvBucket::adaptive()),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid builder chain produces a runnable scenario whose report
    /// serves the whole workload, and whose file form round-trips.
    #[test]
    fn valid_builder_chains_are_runnable_and_serializable(scenario in arb_scenario()) {
        prop_assert!(scenario.validate().is_ok(), "validate failed: {scenario:?}");
        let report = scenario.run().unwrap();
        let expected = match &scenario.workload {
            WorkloadSpec::Synthetic { requests, .. } => *requests,
            _ => unreachable!("strategy emits synthetic workloads"),
        };
        prop_assert_eq!(report.total_completions(), expected);
        let back = Scenario::from_toml(&scenario.to_toml()).unwrap();
        prop_assert_eq!(back, scenario);
    }
}

/// Every checked-in `examples/scenarios/*.toml` text, then the
/// `to_json()` text of each that parses as a scenario.
fn scenario_corpus() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios");
    let mut paths: Vec<_> =
        std::fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path()).collect();
    paths.sort();
    let tomls: Vec<String> = paths
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    let jsons: Vec<String> = tomls
        .iter()
        .filter_map(|text| Scenario::from_toml(text).ok())
        .map(|s| s.to_json())
        .collect();
    tomls.into_iter().chain(jsons).collect()
}

/// Values at the edges of every key's domain.
const EDGE_VALUES: [&str; 10] = [
    "0",
    "-1",
    "1e-300",
    "1e300",
    "\"none\"",
    "\"\"",
    "[1, 2]",
    "{ a = 1 }",
    "true",
    "1234567890123456789012345678901234567890",
];

/// Applies one random edit to `text`: delete a line, duplicate a line,
/// replace a line's value with an edge value, or truncate at a byte.
fn mutate(text: &str, op: usize, at: usize, edge: usize) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let line = at % lines.len().max(1);
    match op {
        0 if !lines.is_empty() => {
            lines.remove(line);
        }
        1 if !lines.is_empty() => lines.insert(line, lines[line].clone()),
        2 if !lines.is_empty() => {
            let value = EDGE_VALUES[edge];
            let edited = match (lines[line].split_once(" = "), lines[line].split_once(": ")) {
                (Some((key, _)), _) => format!("{key} = {value}"),
                (None, Some((key, rest))) => {
                    let comma = if rest.ends_with(',') { "," } else { "" };
                    format!("{key}: {value}{comma}")
                }
                (None, None) => value.to_owned(),
            };
            lines[line] = edited;
        }
        _ => {
            let mut cut = at % (text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_owned();
        }
    }
    lines.join("\n")
}

/// The tables' `--set` sub-keys (`Scenario::KEYS` lists the top level).
const SUB_KEYS: [&str; 44] = [
    "fleet.control",
    "fleet.tick_ms",
    "fleet.flex_idle_ticks",
    "fleet.min_prefill",
    "fleet.min_replicas",
    "fleet.max_replicas",
    "fleet.queue_high",
    "fleet.queue_low",
    "fleet.warmup_ms",
    "fleet.shards",
    "fleet.shared_cache",
    "fabric.topology",
    "fabric.sharing",
    "fabric.bw_gbps",
    "fabric.latency_ns",
    "fabric.trunk_gbps",
    "telemetry.trace",
    "telemetry.timeline",
    "telemetry.window_ps",
    "telemetry.slo_ttft_ms",
    "telemetry.slo_tpot_ms",
    "telemetry.requests",
    "telemetry.replicas",
    "chaos.seed",
    "chaos.crash_rate_per_s",
    "chaos.mttr_ms",
    "chaos.horizon_ms",
    "chaos.max_retries",
    "chaos.retry_backoff_ms",
    "chaos.retry_backoff_mult",
    "workload.kind",
    "workload.dataset",
    "workload.requests",
    "workload.rate",
    "workload.seed",
    "workload.path",
    "workload.bursts",
    "workload.burst_size",
    "workload.burst_gap_ms",
    "workload.heavy_every",
    "workload.heavy_frac",
    "workload.poisson_rate",
    "workload.light",
    "workload.heavy",
];

/// Finite `--set` values, valid for some key or other.
const SET_VALUES: [&str; 44] = [
    "0",
    "1",
    "7",
    "64",
    "18446744073709551615",
    "0.5",
    "-2.5",
    "-0",
    "1e-300",
    "1e300",
    "none",
    "",
    "true",
    "off",
    "adaptive",
    "auto",
    "static",
    "flex",
    "autoscale",
    "orca",
    "request",
    "tensor",
    "pipeline",
    "hybrid",
    "vllm",
    "max",
    "local",
    "pool",
    "p2c",
    "sticky",
    "least-kv",
    "2x3",
    "star4",
    "fair",
    "fifo",
    "synthetic",
    "bursty",
    "trace",
    "sharegpt",
    "fixed:8x4",
    "32x8",
    "3, 1,2",
    "a \"quoted\" # not a comment\t\\",
    "gpt3-7b",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutated scenario files never panic the codecs: every parse ends in
    /// a scenario (which then validates or fails typed) or a typed error.
    #[test]
    fn mutated_scenario_files_parse_or_fail_typed(
        pick in 0usize..64,
        edits in vec((0usize..4, 0usize..100_000, 0usize..EDGE_VALUES.len()), 1..4),
    ) {
        let corpus = scenario_corpus();
        let mut text = corpus[pick % corpus.len()].clone();
        for (op, at, edge) in edits {
            text = mutate(&text, op, at, edge);
        }
        for parsed in [Scenario::from_toml(&text), Scenario::from_json(&text)] {
            match parsed.and_then(|s| s.validate()) {
                Ok(()) => {}
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever a sequence of successful `set` calls expresses, a file
    /// carries back: the scenario equals its TOML and JSON round trips.
    #[test]
    fn set_sequences_round_trip_through_both_codecs(
        calls in vec((0usize..Scenario::KEYS.len() + SUB_KEYS.len(), 0usize..SET_VALUES.len()), 1..24),
    ) {
        let mut scenario = Scenario::default();
        for (key, value) in calls {
            let key = Scenario::KEYS.get(key).copied().unwrap_or_else(|| SUB_KEYS[key - Scenario::KEYS.len()]);
            let mut next = scenario.clone();
            if next.set(key, SET_VALUES[value]).is_ok() {
                scenario = next;
            }
        }
        let toml = scenario.to_toml();
        let back = Scenario::from_toml(&toml)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{toml}")))?;
        prop_assert_eq!(&back, &scenario, "TOML round trip:\n{}", toml);
        let json = scenario.to_json();
        let back = Scenario::from_json(&json)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{json}")))?;
        prop_assert_eq!(&back, &scenario, "JSON round trip:\n{}", json);
    }
}
