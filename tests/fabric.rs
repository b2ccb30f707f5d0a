//! The fabric acceptance suite.
//!
//! * **Flow-model properties** — under arbitrary admission schedules the
//!   max–min division never over-allocates a link, conserves bytes
//!   exactly, and is deterministic.
//! * **Golden parity** — a `[fabric]` table configured as the single
//!   dedicated FIFO wire reproduces the pre-fabric disaggregated report
//!   byte for byte.
//! * **Commit order** — transfers whose KV caches become ready at the
//!   same instant commit in request-id order (the tie-break contract on
//!   the engine's pending heap).

use proptest::prelude::*;

use llmservingsim::core::{
    DisaggReport, Fabric, FabricGraph, FleetEngine, FlowDone, FlowModel, ReportOutput,
    RoutingPolicyKind, SimConfig, StaticControl,
};
use llmservingsim::model::ModelSpec;
use llmservingsim::net::LinkSpec;
use llmservingsim::scenario::Scenario;
use llmservingsim::sched::Request;

/// A three-link fabric with deliberately unequal capacities (GB/s) and
/// latencies, and the path set the schedules draw from.
fn links() -> [LinkSpec; 3] {
    [LinkSpec::new(2.0, 100.0), LinkSpec::new(1.0, 50.0), LinkSpec::new(4.0, 0.0)]
}

const PATHS: [&[usize]; 5] = [&[0], &[1], &[2], &[0, 2], &[1, 2]];

/// Runs one admission schedule to completion, checking the capacity
/// bound at every recompute point, and returns the deliveries in the
/// order they surfaced.
fn drive(schedule: &[(usize, u64, u64)]) -> (FlowModel, Vec<FlowDone>) {
    let links = links();
    let mut model = FlowModel::new(&links);
    let mut delivered = Vec::new();
    let mut t = 0u64;
    let check = |model: &FlowModel| {
        for (l, (&alloc, &cap)) in model.allocated().iter().zip(model.capacities()).enumerate()
        {
            assert!(
                alloc <= cap * (1.0 + 1e-9),
                "link {l} allocated {alloc} bytes/ps over its {cap} bytes/ps capacity"
            );
        }
    };
    for (i, &(p, bytes, gap)) in schedule.iter().enumerate() {
        t += gap;
        // Admissions may land behind deliveries already due; the engine
        // never does this, so drain first like the engine would.
        while let Some(next) = model.next_event_ps() {
            if next > t.max(model.now_ps()) {
                break;
            }
            delivered.extend(model.advance(next));
            check(&model);
        }
        let path = PATHS[p % PATHS.len()];
        let latency_ps: u64 = path.iter().map(|&l| links[l].latency_ps()).sum();
        let serialize_ps = path.iter().map(|&l| links[l].serialize_ps(bytes)).max();
        let nominal_ps = latency_ps + serialize_ps.unwrap_or(0);
        let start = t.max(model.now_ps());
        model.start(i as u64 + 1, path, bytes, latency_ps, nominal_ps, start);
        check(&model);
    }
    while let Some(next) = model.next_event_ps() {
        delivered.extend(model.advance(next));
        check(&model);
    }
    (model, delivered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-link allocation never exceeds capacity at any recompute
    /// point, and every admitted flow is delivered exactly once.
    #[test]
    fn allocation_respects_capacity_and_every_flow_lands(
        schedule in proptest::collection::vec(
            (0usize..5, 1_000u64..5_000_000, 0u64..2_000_000),
            1..16,
        )
    ) {
        let (model, delivered) = drive(&schedule);
        prop_assert_eq!(model.in_flight(), 0);
        prop_assert_eq!(delivered.len(), schedule.len());
        let mut ids: Vec<u64> = delivered.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), schedule.len(), "a flow was delivered twice");
    }

    /// Bytes are conserved across recompute points: each link's carried
    /// integral equals the sum of bytes of exactly the flows that
    /// crossed it, and each delivery happens after its start plus the
    /// path latency.
    #[test]
    fn carried_bytes_are_conserved(
        schedule in proptest::collection::vec(
            (0usize..5, 1_000u64..5_000_000, 0u64..2_000_000),
            1..16,
        )
    ) {
        let links = links();
        let (model, delivered) = drive(&schedule);
        let mut expected = [0.0f64; 3];
        for &(p, bytes, _) in &schedule {
            for &l in PATHS[p % PATHS.len()] {
                expected[l] += bytes as f64;
            }
        }
        for (l, (&carried, &want)) in
            model.carried_bytes().iter().zip(&expected).enumerate()
        {
            prop_assert!(
                (carried - want).abs() < 1.0,
                "link {l} carried {carried} bytes, schedule shipped {want}"
            );
        }
        for d in &delivered {
            let (p, bytes, _) = schedule[d.id as usize - 1];
            let path = PATHS[p % PATHS.len()];
            let latency: u64 = path.iter().map(|&l| links[l].latency_ps()).sum();
            prop_assert_eq!(d.bytes, bytes);
            prop_assert!(
                d.done_ps >= d.start_ps + latency,
                "flow {} landed before its path latency elapsed",
                d.id
            );
            prop_assert!(
                d.done_ps >= d.start_ps + d.nominal_ps,
                "flow {} beat its uncontended time",
                d.id
            );
        }
    }

    /// The same schedule produces the identical delivery sequence on
    /// every run — fair sharing is deterministic.
    #[test]
    fn completion_order_is_deterministic(
        schedule in proptest::collection::vec(
            (0usize..5, 1_000u64..5_000_000, 0u64..2_000_000),
            1..16,
        )
    ) {
        let (_, first) = drive(&schedule);
        let (_, second) = drive(&schedule);
        prop_assert_eq!(first, second);
    }
}

fn scenario(name: &str) -> Scenario {
    let path = format!("{}/examples/scenarios/{name}.toml", env!("CARGO_MANIFEST_DIR"));
    Scenario::from_path(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A `[fabric]` table degenerated to the legacy wire — FIFO sharing on
/// the single topology — reproduces the pre-fabric disaggregated report
/// byte for byte.
#[test]
fn fifo_single_fabric_matches_the_pre_fabric_goldens() {
    for name in ["disagg_small", "disagg_vs_unified"] {
        let mut s = scenario(name);
        s.set("fabric.sharing", "fifo").unwrap();
        let report = s.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        let artifacts = report.artifacts();
        for suffix in ["-disagg.tsv", "-disagg-metrics.tsv"] {
            let (_, content) = artifacts
                .iter()
                .find(|(s, _)| *s == suffix)
                .unwrap_or_else(|| panic!("{name} emits no {suffix}"));
            assert_eq!(
                content,
                &golden(&format!("{name}{suffix}")),
                "{name}{suffix}: a fifo-single fabric must be byte-identical to the \
                 legacy dedicated wire"
            );
        }
    }
}

/// A fair single fabric on the same scenarios still serves every
/// request and reports per-link usage plus contention percentiles.
#[test]
fn fair_single_fabric_reports_link_usage() {
    let mut s = scenario("disagg_small");
    s.set("fabric", "single").unwrap();
    let report = s.run().unwrap();
    let legacy = scenario("disagg_small").run().unwrap();
    assert_eq!(report.total_completions(), legacy.total_completions());
    let artifacts = report.artifacts();
    let (_, content) = artifacts.iter().find(|(s, _)| *s == "-disagg.tsv").expect("disagg TSV");
    assert!(content.contains("\nfabric\tsingle\n"), "missing fabric section:\n{content}");
    assert!(content.contains("contention_p99"), "missing contention row:\n{content}");
}

/// A 1+1 disaggregated gpt2 deployment (sticky pairing) over `fabric`,
/// serving two identical prompts that arrive together.
fn tied_pair(fabric: Fabric) -> DisaggReport {
    let config = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel();
    let configs = vec![config.clone().prefill_only(), config.decode_only()];
    let control = StaticControl::new(
        RoutingPolicyKind::LeastOutstanding.build(0),
        RoutingPolicyKind::Sticky.build(0),
    );
    let trace = vec![Request::new(1, 128, 4, 0), Request::new(2, 128, 4, 0)];
    let fleet = FleetEngine::with_fabric(configs, fabric, Box::new(control), trace).unwrap();
    DisaggReport::from_fleet(fleet.run(), 1, RoutingPolicyKind::Sticky)
}

/// The slow wire that makes the tie's serialization visible.
fn slow_link() -> LinkSpec {
    LinkSpec::new(0.5, LinkSpec::cxl().latency_ns)
}

/// Transfers whose KV caches become ready at the same instant commit in
/// request-id order: the tie-break contract on the engine's pending
/// heap, observable as FIFO wire order.
#[test]
fn equal_ready_transfers_commit_in_request_id_order() {
    // Two identical prompts arriving together batch into the same
    // prefill iteration, so both KV caches become ready at the same
    // instant; a slow link makes the serialization visible.
    let report = tied_pair(Fabric::fifo(vec![slow_link()]));
    let mut completions = report.completions.clone();
    completions.sort_by_key(|c| c.id);
    let [first, second] = completions.as_slice() else {
        panic!("both requests must complete, got {}", completions.len());
    };
    assert_eq!(
        first.prefill_done_ps, second.prefill_done_ps,
        "the scenario must produce an actual ready-time tie"
    );
    assert_eq!(first.transfer_start_ps, first.prefill_done_ps);
    assert_eq!(
        second.transfer_start_ps, first.transfer_done_ps,
        "request 2 must queue behind request 1 on the wire"
    );
}

/// The same tie resolves identically through a fair fabric: request-id
/// order decides admission, and both flows then share the wire.
#[test]
fn fair_fabric_resolves_ties_deterministically() {
    let run = || tied_pair(Fabric::fair("single", FabricGraph::single(2, slow_link())));
    let first = run();
    let second = run();
    assert_eq!(first.completions, second.completions);
    assert_eq!(first.completions.len(), 2);
}
