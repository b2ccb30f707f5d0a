//! The chaos-engine acceptance suite.
//!
//! * **Dead replicas take no work** — admission and KV pairing skip a
//!   crashed replica for as long as it is down (the regression that
//!   motivated parking a crashed replica in the `ReadyHeap`).
//! * **Conservation** — under arbitrary fault schedules every arrived
//!   request either completes or is abandoned with a recorded reason;
//!   nothing is silently lost or duplicated (property test).
//! * **Determinism** — the same seed and the same `[chaos]` schedule
//!   reproduce the report byte for byte (property test).
//! * **Pure extension** — arming chaos with an empty schedule changes
//!   nothing but the presence of an all-zero resilience section.

use std::collections::HashSet;

use proptest::prelude::*;

use llmservingsim::core::{
    ChaosSchedule, FleetEngine, LinkFault, ReplicaFault, ReplicaFaultKind, RetryPolicy,
    RoutingPolicyKind, SimConfig, StaticControl,
};
use llmservingsim::model::ModelSpec;
use llmservingsim::net::LinkSpec;
use llmservingsim::sched::{bursty_trace, BurstyTraceSpec, Request};

fn gpt2_replica() -> SimConfig {
    SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel()
}

fn unified_fleet(n: usize, trace: Vec<Request>) -> FleetEngine {
    FleetEngine::new(
        vec![gpt2_replica(); n],
        Vec::new(),
        Box::new(StaticControl::new(
            RoutingPolicyKind::LeastOutstanding.build(0),
            RoutingPolicyKind::LeastKvLoad.build(0),
        )),
        trace,
    )
    .expect("gpt2 fits a single Table-I NPU")
}

fn disagg_fleet(trace: Vec<Request>) -> FleetEngine {
    FleetEngine::new(
        vec![gpt2_replica().prefill_only(), gpt2_replica().decode_only()],
        vec![LinkSpec::new(32.0, LinkSpec::cxl().latency_ns)],
        Box::new(StaticControl::new(
            RoutingPolicyKind::LeastOutstanding.build(0),
            RoutingPolicyKind::LeastKvLoad.build(0),
        )),
        trace,
    )
    .expect("gpt2 fits a single Table-I NPU")
}

fn burst(bursts: usize, burst_size: usize, seed: u64) -> Vec<Request> {
    bursty_trace(&BurstyTraceSpec { bursts, burst_size, seed, ..BurstyTraceSpec::default() })
}

const MS: u64 = 1_000_000_000; // one virtual millisecond in picoseconds

/// The satellite-1 regression: a replica that is down for the whole run
/// must never be routed a request — the live replica absorbs everything.
#[test]
fn admission_skips_a_crashed_replica() {
    let trace = burst(2, 6, 0);
    let total = trace.len();
    let mut engine = unified_fleet(2, trace);
    engine.set_chaos(ChaosSchedule::new().replica_fault(ReplicaFault {
        replica: 1,
        kind: ReplicaFaultKind::Crash,
        at_ps: 0,
        recover_ps: None,
    }));
    let report = engine.run();
    assert_eq!(report.total_completions(), total, "the live replica serves the whole trace");
    for (id, replica) in &report.assignments {
        assert_eq!(*replica, 0, "request {id} was routed to the dead replica");
    }
    let res = report.resilience.as_ref().expect("chaos runs report resilience");
    assert_eq!(res.faults_injected, 1);
    assert_eq!(res.requests_abandoned, 0);
    let availability = report.availability().expect("chaos runs report availability");
    assert!(
        (0.0..1.0).contains(&availability),
        "one of two replicas down all run: availability {availability} must be fractional"
    );
}

/// A mid-burst crash on a single-replica fleet loses the in-flight work,
/// retries it after recovery, and accounts the outage window.
#[test]
fn a_mid_run_crash_retries_lost_work_and_reports_downtime() {
    let trace = burst(2, 8, 1);
    let total = trace.len();
    let mut engine = unified_fleet(1, trace);
    engine.set_chaos(ChaosSchedule::new().replica_fault(ReplicaFault {
        replica: 0,
        kind: ReplicaFaultKind::Crash,
        at_ps: 2 * MS,
        recover_ps: Some(10 * MS),
    }));
    let report = engine.run();
    let res = report.resilience.as_ref().expect("chaos runs report resilience");
    assert_eq!(res.faults_injected, 1);
    assert!(res.requests_retried > 0, "work in flight at 2 ms must be retried");
    assert!(res.kv_bytes_lost > 0, "a crash destroys resident KV");
    assert_eq!(
        report.total_completions() + res.requests_abandoned,
        total,
        "every request completes or is abandoned"
    );
    assert_eq!(res.downtime, vec![8 * MS], "the outage window is 2 ms → 10 ms");
    assert_eq!(res.fault_windows, vec![(2 * MS, 10 * MS)]);
    assert!(report.availability().unwrap() < 1.0);
    let (_, clear) = report.slo_by_fault_window().expect("chaos runs split SLO");
    assert!(clear.latency.is_some(), "requests complete outside the outage window");
}

/// A hang freezes work instead of destroying it: nothing is retried, KV
/// survives, and the run still serves every request after recovery.
#[test]
fn a_hang_parks_work_without_losing_it() {
    let trace = burst(2, 6, 2);
    let total = trace.len();
    let mut engine = unified_fleet(1, trace);
    engine.set_chaos(ChaosSchedule::new().replica_fault(ReplicaFault {
        replica: 0,
        kind: ReplicaFaultKind::Hang,
        at_ps: 2 * MS,
        recover_ps: Some(6 * MS),
    }));
    let report = engine.run();
    let res = report.resilience.as_ref().unwrap();
    assert_eq!(report.total_completions(), total);
    assert_eq!(res.kv_bytes_lost, 0, "a hang keeps its KV");
    assert_eq!(res.requests_abandoned, 0);
    assert_eq!(res.downtime, vec![4 * MS]);
}

/// A full fabric partition stalls KV handoffs for its window; the
/// transfers resume at recovery and every request still completes.
#[test]
fn a_partition_window_delays_transfers_but_loses_nothing() {
    let trace = burst(2, 5, 3);
    let total = trace.len();
    let plain = disagg_fleet(trace.clone()).run();
    let mut engine = disagg_fleet(trace);
    engine.set_chaos(ChaosSchedule::new().link_fault(LinkFault {
        link: 0,
        at_ps: MS / 2,
        recover_ps: Some(8 * MS),
        degrade_to_gbps: 0.0,
    }));
    let report = engine.run();
    assert_eq!(report.total_completions(), total);
    let res = report.resilience.as_ref().unwrap();
    assert_eq!(res.faults_injected, 1);
    assert_eq!(res.requests_abandoned, 0, "a partition delays, it does not destroy");
    assert!(
        report.makespan_ps() >= plain.makespan_ps(),
        "blocking the KV link for 7.5 ms cannot shorten the run"
    );
}

/// Arming chaos with an empty schedule is a pure extension: the simulated
/// run is identical, and the only difference is an all-zero resilience
/// section in the report.
#[test]
fn an_empty_schedule_changes_nothing_but_the_report_section() {
    let trace = burst(2, 6, 4);
    let plain = unified_fleet(2, trace.clone()).run();
    let mut armed_engine = unified_fleet(2, trace);
    armed_engine.set_chaos(ChaosSchedule::new());
    let armed = armed_engine.run();
    assert_eq!(armed.completions, plain.completions, "completions must be byte-identical");
    assert_eq!(armed.assignments, plain.assignments);
    assert_eq!(armed.makespan_ps(), plain.makespan_ps());
    assert!(plain.resilience.is_none(), "unarmed runs carry no resilience section");
    let res = armed.resilience.as_ref().expect("armed runs always report resilience");
    assert_eq!(res.faults_injected, 0);
    assert_eq!(res.requests_retried, 0);
    assert_eq!(res.kv_bytes_lost, 0);
    assert_eq!(armed.availability(), Some(1.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Request conservation under arbitrary fault schedules: every
    /// arrived request either completes exactly once or is abandoned
    /// with a recorded reason — never silently lost, never duplicated.
    #[test]
    fn requests_are_conserved_under_arbitrary_faults(
        replicas in 1usize..4,
        burst_size in 4usize..14,
        seed in 0u64..1_000,
        faults in proptest::collection::vec(
            (0usize..4, 0u64..30 * MS, MS..20 * MS, 0u8..3),
            0..6,
        ),
    ) {
        let trace = burst(2, burst_size, seed);
        let total = trace.len();
        let mut schedule = ChaosSchedule::new();
        for (target, at_ps, window, kind) in faults {
            let kind = match kind {
                0 => ReplicaFaultKind::Crash,
                1 => ReplicaFaultKind::Hang,
                _ => ReplicaFaultKind::Drain,
            };
            schedule = schedule.replica_fault(ReplicaFault {
                replica: target % replicas,
                kind,
                at_ps,
                recover_ps: Some(at_ps + window),
            });
        }
        let mut engine = unified_fleet(replicas, trace);
        engine.set_chaos(schedule);
        let report = engine.run();
        let res = report.resilience.as_ref().expect("chaos runs report resilience");
        let mut seen = HashSet::new();
        for c in &report.completions {
            prop_assert!(seen.insert(c.id), "request {} completed twice", c.id);
        }
        for (id, reason) in &res.abandoned {
            prop_assert!(seen.insert(*id), "request {id} both completed and abandoned");
            prop_assert!(!reason.is_empty(), "abandonment must carry a reason");
        }
        prop_assert_eq!(
            seen.len(),
            total,
            "{} of {} requests unaccounted for",
            total - seen.len(),
            total
        );
        prop_assert_eq!(report.total_completions() + res.requests_abandoned, total);
    }

    /// Determinism: the same seed and the same `[chaos]` schedule
    /// reproduce the full report (summary JSON and TSV) byte for byte.
    #[test]
    fn same_seed_chaos_runs_are_byte_identical(
        seed in 0u64..500,
        rate in 0.5f64..20.0,
    ) {
        let run = || {
            let trace = burst(2, 8, seed);
            let mut engine = unified_fleet(2, trace);
            engine.set_chaos(
                ChaosSchedule::seeded(seed, rate, 5 * MS, 40 * MS, 2)
                    .retry(RetryPolicy::default()),
            );
            let report = engine.run();
            (report.summary_json(), report.to_tsv())
        };
        let (json_a, tsv_a) = run();
        let (json_b, tsv_b) = run();
        prop_assert_eq!(json_a, json_b, "summary JSON diverged on replay");
        prop_assert_eq!(tsv_a, tsv_b, "TSV diverged on replay");
    }
}
