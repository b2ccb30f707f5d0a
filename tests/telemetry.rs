//! The telemetry layer's contracts: byte-identical exports for a fixed
//! seed, complete request lifecycles in the event stream across all
//! serving shapes, structurally valid Chrome traces, and zero
//! perturbation of the report artifacts when a sink is attached.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use llmservingsim::core::{
    chrome_trace, timeline_tsv, validate_chrome_trace, MemorySink, ReportOutput, SimEvent,
    Telemetry, TimelineConfig,
};
use llmservingsim::scenario::{AnyReport, FleetSpec, Scenario};
use llmservingsim::sched::{Dataset, WorkloadSpec};

fn synthetic(requests: usize, rate: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::Synthetic { dataset: Dataset::Alpaca, requests, rate_per_s: rate, seed }
}

/// One scenario per serving shape, same workload knobs.
fn shapes(requests: usize, seed: u64) -> Vec<(&'static str, Scenario)> {
    let base = || Scenario::model("gpt2").npus(1).tensor_parallel().seed(seed);
    vec![
        ("single", base().max_batch(8).workload(synthetic(requests, 60.0, seed))),
        ("cluster", base().replicas(3).workload(synthetic(requests, 120.0, seed))),
        ("disagg", base().disagg(2, 2).workload(synthetic(requests, 120.0, seed))),
        (
            "fleet",
            base().fleet(FleetSpec::flex(2, 1)).workload(synthetic(requests, 120.0, seed)),
        ),
    ]
}

/// Builds, attaches a memory sink, runs to completion, and returns the
/// recorded events alongside the finished report.
fn traced_run(scenario: &Scenario) -> (Vec<SimEvent>, AnyReport) {
    let mut sim = scenario.build().expect("scenario builds");
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    sim.set_telemetry(Telemetry::new(sink.clone()));
    let report = sim.run();
    let events = sink.lock().expect("telemetry sink lock").take();
    (events, report)
}

#[test]
fn same_seed_exports_are_byte_identical() {
    let scenario = &shapes(16, 11)[2].1; // disagg: exercises transfers too
    let (a, _) = traced_run(scenario);
    let (b, _) = traced_run(scenario);
    let cfg = TimelineConfig::default();
    assert!(!a.is_empty(), "a traced run must record events");
    assert_eq!(
        chrome_trace(&a),
        chrome_trace(&b),
        "same seed must export byte-identical trace JSON"
    );
    assert_eq!(
        timeline_tsv(&a, &cfg),
        timeline_tsv(&b, &cfg),
        "same seed must export byte-identical timeline TSV"
    );
}

#[test]
fn chrome_trace_validates_for_every_shape() {
    for (name, scenario) in shapes(12, 3) {
        let (events, _) = traced_run(&scenario);
        let json = chrome_trace(&events);
        validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{name}: exported trace is malformed: {e}"));
    }
}

#[test]
fn attaching_telemetry_leaves_report_artifacts_byte_identical() {
    for (name, scenario) in shapes(14, 9) {
        let plain = scenario.run().expect("plain run succeeds");
        let (_, traced) = traced_run(&scenario);
        let deterministic = |report: &AnyReport| -> Vec<(&'static str, String)> {
            report
                .artifacts()
                .into_iter()
                .filter(|(suffix, _)| *suffix != "-simulation-time.tsv")
                .collect()
        };
        assert_eq!(
            deterministic(&plain),
            deterministic(&traced),
            "{name}: recording telemetry must not perturb the report"
        );
    }
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn checked_in(name: &str) -> Scenario {
    let path = format!("{}/examples/scenarios/{name}.toml", env!("CARGO_MANIFEST_DIR"));
    Scenario::from_path(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The exports of two checked-in scenarios are pinned byte for byte, at
/// every shard count: `disagg_fabric` draws request slices, iteration
/// slices, flow arrows, link counters and track metadata; `chaos` adds
/// the instant events (control commands, a replica fault, its recovery
/// and retries).
#[test]
fn trace_exports_match_the_goldens() {
    for (name, timeline) in [("disagg_fabric", true), ("chaos", false)] {
        for shards in ["1", "2", "4"] {
            let mut scenario = checked_in(name);
            scenario.set("shards", shards).unwrap();
            let (events, _) = traced_run(&scenario);
            assert!(
                chrome_trace(&events) == golden(&format!("{name}-trace.json")),
                "{name}-trace.json drifted from the golden at shards={shards}"
            );
            if timeline {
                assert_eq!(
                    timeline_tsv(&events, &TimelineConfig::default()),
                    golden(&format!("{name}-timeline.tsv")),
                    "{name}-timeline.tsv drifted from the golden at shards={shards}"
                );
            }
        }
    }
}

/// The single shape runs behind the fleet front end, so its trace has
/// the front-end half of every lifecycle. On every shape an iteration's
/// queue depth counts only requests that have reached its replica by
/// its start: no future arrivals, and no KV handoffs still on the wire.
#[test]
fn single_shape_traces_its_front_end() {
    let (events, report) = traced_run(&checked_in("quickstart"));
    assert_eq!(report.shape(), "single");
    let requests = report.total_completions();

    let (mut arrivals, mut admitted) = (vec![0usize; requests], vec![0usize; requests]);
    for event in &events {
        match *event {
            SimEvent::Arrival { id, .. } => arrivals[id as usize] += 1,
            SimEvent::Admitted { id, .. } => admitted[id as usize] += 1,
            _ => {}
        }
    }
    assert!(arrivals.iter().all(|&n| n == 1), "one Arrival per request: {arrivals:?}");
    assert!(admitted.iter().all(|&n| n == 1), "one Admitted per request: {admitted:?}");
    let trace = chrome_trace(&events);
    validate_chrome_trace(&trace).unwrap_or_else(|e| panic!("malformed trace: {e}"));
    assert_eq!(trace.matches("\"name\": \"queued\"").count(), 19, "queued slices");

    assert_queue_depth_counts_waiting_requests("quickstart", &events);
    for name in ["disagg_fabric", "disagg_vs_unified", "disagg_small"] {
        assert_queue_depth_counts_waiting_requests(name, &traced_run(&checked_in(name)).0);
    }
}

/// Checks, per replica, that no iteration's `queue_depth` exceeds the
/// requests that had reached that replica by the iteration's start
/// (`Admitted` to it, or a KV handoff's `TransferEnd` on it) and had
/// not started there yet (their first `PrefillStart` or `DecodeStart`
/// on it).
fn assert_queue_depth_counts_waiting_requests(name: &str, events: &[SimEvent]) {
    use std::collections::BTreeMap;

    let mut reached: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut first_start: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    for event in events {
        match *event {
            SimEvent::Admitted { t_ps, replica, .. }
            | SimEvent::TransferEnd { t_ps, to: replica, .. } => {
                reached.entry(replica).or_default().push(t_ps)
            }
            SimEvent::PrefillStart { t_ps, id, replica }
            | SimEvent::DecodeStart { t_ps, id, replica } => {
                let first = first_start.entry((replica, id)).or_insert(t_ps);
                *first = (*first).min(t_ps);
            }
            _ => {}
        }
    }
    let mut started: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for ((replica, _), t_ps) in first_start {
        started.entry(replica).or_default().push(t_ps);
    }
    for times in reached.values_mut().chain(started.values_mut()) {
        times.sort_unstable();
    }
    let by = |times: &BTreeMap<usize, Vec<u64>>, replica: usize, t: u64| {
        times.get(&replica).map_or(0, |ts| ts.partition_point(|&s| s <= t))
    };
    let mut iterations = 0;
    for event in events {
        if let SimEvent::Iteration { replica, start_ps, queue_depth, .. } = *event {
            let waiting = by(&reached, replica, start_ps) - by(&started, replica, start_ps);
            assert!(
                queue_depth <= waiting,
                "{name}: replica {replica}'s iteration at {start_ps} ps queues \
                 {queue_depth} of {waiting} waiting requests"
            );
            iterations += 1;
        }
    }
    assert!(iterations > 0, "{name}: no iteration traced");
}

/// Checks that every completed request in `events` has a complete
/// lifecycle — balanced prefill-start/end pairs and exactly one
/// completion — and, where the shape routes through a front-end (the
/// stream carries `Arrival`/`Admitted` events), that every admitted
/// request arrived once, was admitted once, and went on to complete
/// after its admission.
fn assert_complete_lifecycles(name: &str, events: &[SimEvent], completions: usize) {
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct Life {
        arrivals: usize,
        admitted: Vec<u64>,
        prefill_starts: usize,
        prefill_ends: usize,
        completed: Vec<u64>,
        handoffs: usize,
    }

    let mut lives: BTreeMap<u64, Life> = BTreeMap::new();
    for event in events {
        match event {
            SimEvent::Arrival { id, .. } => lives.entry(*id).or_default().arrivals += 1,
            SimEvent::Admitted { t_ps, id, .. } => {
                lives.entry(*id).or_default().admitted.push(*t_ps)
            }
            SimEvent::PrefillStart { id, .. } => {
                lives.entry(*id).or_default().prefill_starts += 1
            }
            SimEvent::PrefillEnd { id, .. } => lives.entry(*id).or_default().prefill_ends += 1,
            SimEvent::Completed { t_ps, id, .. } => {
                lives.entry(*id).or_default().completed.push(*t_ps)
            }
            SimEvent::TransferEnd { id, .. } => lives.entry(*id).or_default().handoffs += 1,
            _ => {}
        }
    }

    let mut total_completed = 0usize;
    for (id, life) in &lives {
        assert_eq!(
            life.prefill_starts, life.prefill_ends,
            "{name}: request {id} has unbalanced prefill start/end events"
        );
        if !life.admitted.is_empty() {
            // Routed shapes: the front-end half of the lifecycle.
            assert_eq!(life.arrivals, 1, "{name}: request {id} must arrive exactly once");
            assert_eq!(
                life.admitted.len(),
                1,
                "{name}: request {id} must be admitted exactly once"
            );
            assert!(
                !life.completed.is_empty(),
                "{name}: admitted request {id} never completed"
            );
            assert!(
                life.completed.iter().max() >= life.admitted.iter().max(),
                "{name}: request {id} completed before it was admitted"
            );
        }
        if !life.completed.is_empty() {
            // Engine half: a disaggregated request closes once on its
            // prefill replica and once on its decode replica, so the
            // completion count is one plus the KV handoffs it took.
            assert_eq!(
                life.completed.len(),
                1 + life.handoffs,
                "{name}: request {id} must complete once per serving leg"
            );
            assert!(
                life.prefill_starts >= 1,
                "{name}: completed request {id} must have run a prefill"
            );
            total_completed += 1;
        }
    }
    assert_eq!(
        total_completed, completions,
        "{name}: lifecycle count must match the report's completions"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_admitted_request_has_a_complete_lifecycle(
        requests in 4usize..20,
        seed in 0u64..1000,
    ) {
        for (name, scenario) in shapes(requests, seed) {
            let (events, report) = traced_run(&scenario);
            assert_complete_lifecycles(name, &events, report.total_completions());
        }
    }
}
