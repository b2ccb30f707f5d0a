//! Fabric-contention A/B: an oversubscribed star vs. a clique, same
//! deployment, same trace.
//!
//! A 2+2 disaggregated deployment with *sticky* routing and pairing
//! splits its traffic into two fixed prefill→decode pairs: even request
//! ids take the (p0, d0) pair, odd ids take (p1, d1). The trace makes
//! the even pair **hot** — long prompts, so each transfer ships a large
//! KV cache — while the odd pair stays **light**.
//!
//! The same experiment then runs over two fabrics:
//!
//! * `star4` with an oversubscribed trunk: every pair's transfers cross
//!   the one shared trunk, so the hot pair's bulk steals bandwidth from
//!   the light pair's small transfers.
//! * `clique4`: every pair owns a dedicated link, so the hot pair's
//!   traffic cannot touch the light pair at all.
//!
//! The punchline — asserted, not just printed — is that the *light*
//! pair's p99 transfer component inflates on the star but not on the
//! clique: contention is real, and topology is the only thing that
//! changed.
//!
//! Run with `cargo run --release --example congestion_ab`.

use llmservingsim::core::{
    DisaggCompletion, DisaggReport, Fabric, FabricGraph, FabricTopology, FleetEngine,
    RoutingPolicyKind, SimConfig, StaticControl,
};
use llmservingsim::model::ModelSpec;
use llmservingsim::net::LinkSpec;
use llmservingsim::sched::Request;

const HEAVY_PROMPT: usize = 1024;
const LIGHT_PROMPT: usize = 64;

/// Eight bursts of four requests: each burst holds two heavy (even id)
/// and two light (odd id) arrivals, so hot and light transfers overlap
/// on the fabric.
fn trace() -> Vec<Request> {
    let mut out = Vec::new();
    for burst in 0..8u64 {
        let arrival = burst * 2_000_000_000; // 2 ms apart
        for slot in 0..4u64 {
            let id = burst * 4 + slot + 1;
            let input = if id % 2 == 0 { HEAVY_PROMPT } else { LIGHT_PROMPT };
            out.push(Request::new(id, input, 4, arrival));
        }
    }
    out
}

/// Runs the 2+2 deployment over `fabric`: prefill replicas at fleet
/// indices 0-1, decode replicas at 2-3.
fn run(label: &str, fabric: Fabric) -> DisaggReport {
    let config = SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel();
    let mut configs = vec![config.clone().prefill_only(); 2];
    configs.resize(4, config.decode_only());
    let control = StaticControl::new(
        RoutingPolicyKind::Sticky.build(0),
        RoutingPolicyKind::Sticky.build(0),
    );
    let fleet = FleetEngine::with_fabric(configs, fabric, Box::new(control), trace())
        .expect("gpt2 fits a single Table-I NPU")
        .run();
    let report = DisaggReport::from_fleet(fleet, 2, RoutingPolicyKind::Sticky);
    assert_eq!(report.total_completions(), 32, "{label}: every request completes");
    report
}

/// p99 of the transfer component (prefill done → KV landed) over one
/// class of requests, in microseconds.
fn transfer_p99_us(report: &DisaggReport, keep: impl Fn(&DisaggCompletion) -> bool) -> f64 {
    let mut samples: Vec<f64> = report
        .completions
        .iter()
        .filter(|c| keep(c))
        .map(|c| c.transfer_component_ps() as f64 / 1e6)
        .collect();
    assert!(!samples.is_empty(), "the trace always holds both classes");
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() as f64) * 0.99).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

fn main() {
    // Generous access links; the star's trunk is the bottleneck —
    // 4 endpoints share 2 GB/s, an 8:1 oversubscription.
    let access = LinkSpec::new(4.0, 150.0);
    let trunk = LinkSpec::new(2.0, 150.0);

    let star = run(
        "star4",
        Fabric::fair(
            "star4",
            FabricGraph::build(&FabricTopology::Star { endpoints: Some(4) }, 4, access, trunk)
                .expect("a 4-endpoint star matches the 2+2 fleet"),
        ),
    );
    let clique = run(
        "clique4",
        Fabric::fair(
            "clique4",
            FabricGraph::build(
                &FabricTopology::Clique { endpoints: Some(4) },
                4,
                access,
                access,
            )
            .expect("a 4-endpoint clique matches the 2+2 fleet"),
        ),
    );

    let light = |c: &DisaggCompletion| c.input_len == LIGHT_PROMPT;
    let heavy = |c: &DisaggCompletion| c.input_len == HEAVY_PROMPT;
    println!("fabric    light p99 transfer   heavy p99 transfer");
    for (name, report) in [("star4", &star), ("clique4", &clique)] {
        println!(
            "{name:<9} {:>15.1} us {:>17.1} us",
            transfer_p99_us(report, light),
            transfer_p99_us(report, heavy),
        );
    }
    for (name, report) in [("star4", &star), ("clique4", &clique)] {
        if let Some((p50, _, p99)) = report.contention() {
            println!("{name}: contention p50={p50:.2}x p99={p99:.2}x");
        }
    }

    // The assertion that makes contention *real*: on the star the hot
    // pair's bulk must inflate the light pair's tail, while the clique's
    // dedicated links keep it flat.
    let star_light = transfer_p99_us(&star, light);
    let clique_light = transfer_p99_us(&clique, light);
    assert!(
        star_light > clique_light * 1.5,
        "the oversubscribed trunk must inflate the neighbor pair's p99 transfer \
         (star {star_light:.1} us vs clique {clique_light:.1} us)"
    );
    println!(
        "\nlight-pair p99 transfer: star {:.1} us vs clique {:.1} us ({:.1}x neighbor \
         slowdown from trunk contention)",
        star_light,
        clique_light,
        star_light / clique_light,
    );
}
