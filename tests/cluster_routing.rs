//! Cluster-scale acceptance tests: multi-replica serving with online
//! request injection behind every routing policy.

use llmservingsim::prelude::*;

fn sharegpt(n: usize) -> WorkloadSpec {
    WorkloadSpec::Synthetic {
        dataset: Dataset::ShareGpt,
        requests: n,
        rate_per_s: 60.0,
        seed: 42,
    }
}

/// `replicas` gpt2 replicas behind `kind` routing (seeded by `seed`).
fn scenario(
    replicas: usize,
    kind: RoutingPolicyKind,
    seed: u64,
    work: WorkloadSpec,
) -> Scenario {
    Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .replicas(replicas)
        .routing(kind)
        .seed(seed)
        .workload(work)
}

fn cluster(
    replicas: usize,
    kind: RoutingPolicyKind,
    seed: u64,
    work: WorkloadSpec,
) -> ClusterReport {
    match scenario(replicas, kind, seed, work).run().unwrap() {
        AnyReport::Cluster(report) => report,
        other => panic!("expected a cluster report, got {}", other.shape()),
    }
}

/// `(makespan, assignments, sorted (id, first_token, finish) triples)`.
type ReportSignature = (u64, Vec<(u64, usize)>, Vec<(u64, u64, u64)>);

/// A deterministic signature of everything simulation-dependent in a
/// cluster report (wall-clock timings excluded, as they never reproduce).
fn signature(report: &ClusterReport) -> ReportSignature {
    let mut completions: Vec<(u64, u64, u64)> =
        report.completions().map(|c| (c.id, c.first_token_ps, c.finish_ps)).collect();
    completions.sort_unstable();
    (report.makespan_ps(), report.assignments.clone(), completions)
}

#[test]
fn two_replicas_complete_200_sharegpt_requests_under_every_policy() {
    let trace = sharegpt(200).materialize().unwrap();
    for kind in RoutingPolicyKind::ALL {
        let report = cluster(2, kind, 42, sharegpt(200));
        assert_eq!(report.total_completions(), 200, "policy {kind}");
        let mut ids: Vec<u64> = report.completions().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200, "policy {kind}: duplicated or lost requests");
        assert!(report.makespan_ps() > 0);
        // TTFT must be causal for every request.
        for c in report.completions() {
            let arrival = trace.iter().find(|r| r.id == c.id).unwrap().arrival_ps;
            assert!(c.first_token_ps > arrival, "policy {kind}: acausal TTFT");
        }
    }
}

#[test]
fn same_seed_and_policy_reproduce_identical_reports() {
    for kind in RoutingPolicyKind::ALL {
        let run = || cluster(3, kind, 7, sharegpt(60));
        let a = run();
        let b = run();
        assert_eq!(signature(&a), signature(&b), "policy {kind} is nondeterministic");
    }
}

#[test]
fn different_policies_actually_route_differently() {
    // Sanity check that the policies are not all aliases of round-robin:
    // on a skewed trace at least one pair must disagree on assignments.
    let bursty = WorkloadSpec::from(BurstyTraceSpec::default());
    let assignments: Vec<Vec<(u64, usize)>> = RoutingPolicyKind::ALL
        .iter()
        .map(|&kind| cluster(4, kind, 11, bursty.clone()).assignments)
        .collect();
    let distinct: std::collections::HashSet<_> = assignments.iter().collect();
    assert!(distinct.len() >= 3, "policies collapsed to {} behaviors", distinct.len());
}

#[test]
fn power_of_two_beats_round_robin_p99_ttft_on_skewed_bursty_trace() {
    // Every 4th request is ~10x heavier; with 4 replicas, round-robin
    // funnels all heavy requests to replica 0 while power-of-two-choices
    // observes queue depths and spreads them.
    let trace = bursty_trace(&BurstyTraceSpec::default());
    let run = |kind: RoutingPolicyKind| cluster(4, kind, 42, BurstyTraceSpec::default().into());
    let rr = run(RoutingPolicyKind::RoundRobin);
    let p2c = run(RoutingPolicyKind::PowerOfTwoChoices);
    assert_eq!(rr.total_completions(), trace.len());
    assert_eq!(p2c.total_completions(), trace.len());

    let rr_p99 = rr.ttft_percentiles().unwrap().p99_s;
    let p2c_p99 = p2c.ttft_percentiles().unwrap().p99_s;
    assert!(
        p2c_p99 < rr_p99,
        "power-of-two p99 TTFT ({p2c_p99:.4}s) should beat round-robin \
         ({rr_p99:.4}s) on a skewed trace"
    );
    // The load-aware router should also spread the load more evenly.
    assert!(
        p2c.utilization_imbalance() < rr.utilization_imbalance(),
        "p2c util CV {:.3} vs rr {:.3}",
        p2c.utilization_imbalance(),
        rr.utilization_imbalance()
    );
}

#[test]
fn more_replicas_cut_tail_latency_on_the_same_trace() {
    // One replica is the single shape: the same serving loop, unrouted.
    let run = |n: usize| {
        scenario(n, RoutingPolicyKind::LeastOutstanding, 0, sharegpt(80)).run().unwrap().slo()
    };
    let one = run(1).latency.unwrap();
    let four = run(4).latency.unwrap();
    assert!(
        four.p99_s < one.p99_s,
        "scaling out should relieve queueing: 4-replica p99 {:.3}s vs {:.3}s",
        four.p99_s,
        one.p99_s
    );
}
