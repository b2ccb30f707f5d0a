//! Acceptance tests for disaggregated prefill/decode serving: the
//! TPOT win over unified serving on prefill-heavy traffic, the transfer
//! cost of a bandwidth-starved KV link, and deterministic replay.

use llmservingsim::prelude::*;

fn prefill_heavy() -> WorkloadSpec {
    BurstyTraceSpec { bursts: 4, ..BurstyTraceSpec::prefill_heavy_mix(0.4, 42) }.into()
}

/// gpt2 replicas behind least-outstanding routing on the prefill-heavy
/// trace.
fn scenario(seed: u64) -> Scenario {
    Scenario::model("gpt2")
        .npus(1)
        .tensor_parallel()
        .routing(RoutingPolicyKind::LeastOutstanding)
        .seed(seed)
        .workload(prefill_heavy())
}

fn run_disagg(scenario: Scenario) -> DisaggReport {
    match scenario.run().expect("gpt2 fits a single Table-I NPU") {
        AnyReport::Disagg(report) => report,
        other => panic!("expected a disaggregated report, got {}", other.shape()),
    }
}

#[test]
fn disagg_beats_unified_p99_tpot_on_prefill_heavy_bursty_trace() {
    let trace = prefill_heavy().materialize().unwrap();

    // Same engine count both ways: 2 unified replicas vs 1 prefill + 1
    // decode. An adequate decode pool never co-batches a 1024-token
    // prefill with running decoders, so its token cadence stays tight.
    let unified = scenario(7).replicas(2).run().unwrap();
    let disagg = run_disagg(scenario(7).disagg(1, 1).kv_link_gbps(128.0));

    assert_eq!(unified.total_completions(), trace.len());
    assert_eq!(disagg.total_completions(), trace.len());

    let unified_tpot = unified.slo().tpot.unwrap();
    let disagg_tpot = disagg.tpot_percentiles().unwrap();
    assert!(
        disagg_tpot.p99_s < unified_tpot.p99_s,
        "disaggregated p99 TPOT ({:.4}s) should beat unified ({:.4}s) when prompt \
         bursts stall unified decode iterations",
        disagg_tpot.p99_s,
        unified_tpot.p99_s
    );
    // The decode pool runs pure decode batches: no disagg decode
    // iteration processes prompt tokens.
    for it in disagg.decode_reports.iter().flat_map(|r| &r.iterations) {
        assert_eq!(it.prompt_tokens, 0, "a prefill leaked into the decode pool");
    }
    // And the prefill pool never decodes: every completion leaves with
    // only its prefill token accounted for.
    for r in &disagg.prefill_reports {
        assert!(!r.iterations.is_empty());
        assert!(r.completions.iter().all(|c| c.output_len == 1));
    }
}

#[test]
fn starved_kv_link_visibly_inflates_transfer_component_of_ttft() {
    let fast = run_disagg(scenario(7).disagg(1, 1).kv_link_gbps(128.0));
    let starved = run_disagg(scenario(7).disagg(1, 1).kv_link_gbps(1.0));

    let fast_split = fast.ttft_split().unwrap();
    let starved_split = starved.ttft_split().unwrap();
    assert!(
        starved_split.transfer_s > 10.0 * fast_split.transfer_s,
        "transfer component should balloon on a 128x slower link: \
         {:.6}s vs {:.6}s",
        starved_split.transfer_s,
        fast_split.transfer_s
    );
    let fast_p99 = fast.transfer_percentiles().unwrap().p99_s;
    let starved_p99 = starved.transfer_percentiles().unwrap().p99_s;
    assert!(starved_p99 > 10.0 * fast_p99, "{starved_p99:.6}s vs {fast_p99:.6}s");
    // The inflation must show up in end-to-end TTFT, not just the split.
    assert!(starved.ttft_percentiles().unwrap().p99_s > fast.ttft_percentiles().unwrap().p99_s);
}

#[test]
fn disagg_runs_are_deterministic_under_a_fixed_seed() {
    let signature = |r: &DisaggReport| {
        r.completions
            .iter()
            .map(|c| {
                (
                    c.id,
                    c.prefill_replica,
                    c.decode_replica,
                    c.prefill_done_ps,
                    c.transfer_done_ps,
                    c.first_token_ps,
                    c.finish_ps,
                )
            })
            .collect::<Vec<_>>()
    };
    for pairing in RoutingPolicyKind::ALL {
        let run = || run_disagg(scenario(11).disagg(2, 2).pairing(pairing));
        let a = run();
        let b = run();
        assert_eq!(signature(&a), signature(&b), "pairing {pairing} is nondeterministic");
        assert_eq!(a.total_completions(), prefill_heavy().materialize().unwrap().len());
    }
}

/// Pairing speaks the routing vocabulary: each of the five policies,
/// set by its spelling, pairs every handoff, and the report names it as
/// spelled.
#[test]
fn every_routing_policy_pairs_kv_handoffs() {
    let requests = prefill_heavy().materialize().unwrap().len();
    for kind in RoutingPolicyKind::ALL {
        let mut scenario = scenario(5).disagg(2, 2);
        scenario.set("pairing", kind.as_str()).unwrap();
        let report = run_disagg(scenario);
        assert_eq!(report.total_completions(), requests, "pairing {kind}");
        assert_eq!(report.pairing, kind.as_str());
        let paired: usize = report.decode_stats().iter().map(|s| s.routed_requests).sum();
        assert_eq!(paired, requests, "pairing {kind}: every handoff lands on a decode replica");
    }
}

#[test]
fn ttft_components_partition_ttft_for_every_request() {
    let report = run_disagg(scenario(3).disagg(2, 2));
    for c in &report.completions {
        assert_eq!(
            c.prefill_component_ps() + c.transfer_component_ps() + c.decode_component_ps(),
            c.ttft_ps(),
            "request {}: TTFT components do not partition TTFT",
            c.id
        );
    }
}
