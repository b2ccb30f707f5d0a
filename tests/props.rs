//! Property-based tests on core invariants, spanning crates.

use proptest::prelude::*;

use llmservingsim::core::{
    DeviceKind, DisaggReport, EngineStack, FleetEngine, RoutingPolicyKind, SimConfig,
    StaticControl,
};
use llmservingsim::model::{
    BatchSignature, IterationWorkload, ModelSpec, Op, OpDims, OpKind, Roofline, SeqSlot,
    SigLayout,
};
use llmservingsim::net::{simulate_graph, ExecGraph, ExecPayload, LinkSpec, Topology};
use llmservingsim::npu::{enumerate_candidates, NpuConfig};
use llmservingsim::sched::{
    partition_sub_batches, KvCache, KvCacheConfig, PartitionCriteria, Request, Scheduler,
    SchedulerConfig,
};

fn arb_matmul_dims() -> impl Strategy<Value = OpDims> {
    (1usize..=8, 1usize..=512, 1usize..=512, 1usize..=512)
        .prop_map(|(b, m, k, n)| OpDims::batched(b, m, k, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FLOPs, bytes and intensity are consistent for any matmul shape.
    #[test]
    fn op_cost_model_invariants(dims in arb_matmul_dims()) {
        let op = Op::new(OpKind::QkvGen, dims, 2);
        let flops = op.flops();
        let bytes = op.bytes_total();
        prop_assert_eq!(
            flops,
            2 * dims.batch as u64 * dims.m as u64 * dims.k as u64 * dims.n as u64
        );
        prop_assert!(bytes > 0);
        let ai = op.arithmetic_intensity();
        prop_assert!(ai > 0.0);
        prop_assert!((ai - flops as f64 / bytes as f64).abs() < 1e-9);
    }

    /// Every enumerated tile candidate fits the scratchpad.
    #[test]
    fn tile_candidates_respect_sram(
        m in 1usize..4096,
        k in 1usize..4096,
        n in 1usize..4096,
    ) {
        let cfg = NpuConfig::table1();
        let candidates = enumerate_candidates(&cfg, m, k, n, 2);
        prop_assert!(!candidates.is_empty());
        for c in candidates {
            prop_assert!(c.sram_bytes(2) <= cfg.sram_bytes());
        }
    }

    /// Engine latencies are positive and monotone in problem size.
    #[test]
    fn engine_latency_monotone_in_tokens(m in 16usize..256, scale in 2usize..4) {
        let mut stack = EngineStack::homogeneous(NpuConfig::table1(), false);
        let small = Op::new(OpKind::FfnUp, OpDims::matmul(m, 768, 3072), 2);
        let large = Op::new(OpKind::FfnUp, OpDims::matmul(m * scale, 768, 3072), 2);
        let a = stack.price(&small, DeviceKind::Npu);
        let b = stack.price(&large, DeviceKind::Npu);
        prop_assert!(a > 0);
        prop_assert!(b > a, "{}x tokens gave {} -> {}", scale, a, b);
    }

    /// The roofline never exceeds its own peak and achieves it for
    /// sufficiently dense ops.
    #[test]
    fn roofline_bounded_by_peak(intensity in 0.01f64..10_000.0) {
        let r = Roofline::rtx3090();
        let f = r.attainable_flops(intensity);
        prop_assert!(f <= r.peak_flops * (1.0 + 1e-12));
        prop_assert!(f > 0.0);
    }

    /// Sub-batch partitioning is a permutation of the input slots.
    #[test]
    fn partition_is_permutation(
        n in 1usize..40,
        k in 1usize..6,
        mem in proptest::bool::ANY,
    ) {
        let slots: Vec<SeqSlot> =
            (0..n as u64).map(|i| SeqSlot::decode(i, 10 + (i as usize * 37) % 500)).collect();
        let criteria =
            if mem { PartitionCriteria::MemoryAccess } else { PartitionCriteria::ComputeLoad };
        let parts = partition_sub_batches(&slots, k, criteria);
        let mut ids: Vec<u64> = parts.iter().flatten().map(|s| s.request).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
        prop_assert!(parts.len() <= k);
    }

    /// The scheduler always drains every request, the clock is monotone,
    /// and KV pages never leak.
    #[test]
    fn scheduler_always_drains(
        seed in 0u64..1000,
        n in 1usize..24,
        pages in 8usize..64,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let reqs: Vec<Request> = (0..n as u64)
            .map(|i| {
                Request::new(
                    i,
                    rng.gen_range(1..100),
                    rng.gen_range(1..40),
                    rng.gen_range(0..1_000_000u64),
                )
            })
            .collect();
        let kv = KvCache::new(KvCacheConfig::paged(pages as u64 * 16 * 64, 64));
        // Guarantee the largest request fits alone, else admission stalls.
        prop_assume!(reqs.iter().all(|r| r.max_kv_tokens() <= pages * 16));
        let mut s = Scheduler::new(SchedulerConfig::default(), kv, reqs);
        let mut last_clock = 0;
        let mut guard = 0;
        while let Some(batch) = s.next_batch() {
            prop_assert!(!batch.slots.is_empty());
            s.complete_iteration(1_000);
            prop_assert!(s.clock_ps() > last_clock);
            last_clock = s.clock_ps();
            guard += 1;
            prop_assert!(guard < 20_000, "scheduler failed to converge");
        }
        prop_assert_eq!(s.completions().len(), n);
        prop_assert_eq!(s.kv().used_pages(), 0, "KV pages leaked");
    }

    /// Random DAGs execute with a makespan bounded below by the busiest
    /// node and above by total serialization.
    #[test]
    fn graph_simulation_bounds(
        seed in 0u64..500,
        n_ops in 1usize..60,
        n_nodes in 1usize..6,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = Topology::flat_npus(n_nodes, LinkSpec::pcie4_x16());
        let mut g = ExecGraph::new();
        for i in 0..n_ops {
            let node = rng.gen_range(0..n_nodes);
            let deps: Vec<usize> = if i > 0 && rng.gen_bool(0.7) {
                vec![rng.gen_range(0..i)]
            } else {
                vec![]
            };
            g.add(node, ExecPayload::Compute { ps: rng.gen_range(1..10_000) }, &deps, "op");
        }
        let out = simulate_graph(&g, &topo).unwrap();
        let busiest = out.node_busy_ps.iter().max().copied().unwrap_or(0);
        prop_assert!(out.makespan_ps >= busiest);
        prop_assert!(out.makespan_ps <= g.total_compute_ps());
        prop_assert!(out.utilization() <= 1.0 + 1e-9);
    }

    /// Iteration workloads conserve token counts for arbitrary batches.
    #[test]
    fn workload_token_conservation(
        prefills in proptest::collection::vec(1usize..200, 0..5),
        decodes in proptest::collection::vec(1usize..500, 0..5),
    ) {
        prop_assume!(!prefills.is_empty() || !decodes.is_empty());
        let mut slots = Vec::new();
        let mut id = 0u64;
        for &p in &prefills {
            slots.push(SeqSlot::prefill(id, p));
            id += 1;
        }
        for &d in &decodes {
            slots.push(SeqSlot::decode(id, d));
            id += 1;
        }
        let w = IterationWorkload::build(&ModelSpec::gpt2(), &slots);
        prop_assert_eq!(w.prompt_tokens(), prefills.iter().sum::<usize>());
        // Every sequence emits one token per iteration.
        prop_assert_eq!(w.generated_tokens(), prefills.len() + decodes.len());
        prop_assert_eq!(
            w.new_tokens_total(),
            prefills.iter().sum::<usize>() + decodes.len()
        );
        prop_assert!(w.total_flops() > 0);
    }

    /// Two batches whose KV lengths fall in the same bucket (everything
    /// else equal) must share one signature — the cache never keys
    /// distinct entries within a bucket.
    #[test]
    fn same_bucket_kv_lengths_share_one_signature(
        kvs in proptest::collection::vec(1usize..4096, 1..24),
        bucket in 1u32..128,
        jitters in proptest::collection::vec(0usize..128, 1..24),
    ) {
        let layout = SigLayout::exact().kv_bucket(bucket);
        let slots: Vec<SeqSlot> = kvs
            .iter()
            .enumerate()
            .map(|(i, &kv)| SeqSlot::decode(i as u64, kv))
            .collect();
        // Jitter every KV length anywhere within its own bucket.
        let jittered: Vec<SeqSlot> = slots
            .iter()
            .zip(jitters.iter().cycle())
            .map(|(s, &j)| {
                let lo = (s.kv_past as u32 / bucket) * bucket;
                let hi = lo + bucket - 1;
                SeqSlot::decode(s.request, (lo + j as u32 % bucket).clamp(lo, hi) as usize)
            })
            .collect();
        prop_assert_eq!(
            BatchSignature::of(&slots, &layout),
            BatchSignature::of(&jittered, &layout)
        );
    }

    /// In exact mode (bucket 1) the signature separates every distinct
    /// KV profile: no two different KV-length vectors may collide.
    #[test]
    fn exact_mode_signatures_are_injective_in_kv(
        kvs in proptest::collection::vec(1usize..4096, 1..24),
        which in 0usize..24,
        delta in 1usize..64,
    ) {
        let layout = SigLayout::exact();
        let slots: Vec<SeqSlot> = kvs
            .iter()
            .enumerate()
            .map(|(i, &kv)| SeqSlot::decode(i as u64, kv))
            .collect();
        let mut perturbed = slots.clone();
        let i = which % perturbed.len();
        perturbed[i] =
            SeqSlot::decode(perturbed[i].request, perturbed[i].kv_past + delta);
        prop_assert_ne!(
            BatchSignature::of(&slots, &layout),
            BatchSignature::of(&perturbed, &layout)
        );
    }

    /// Placement classes only distinguish requests modulo the layout
    /// modulus: shifting every request id by the modulus is invisible.
    #[test]
    fn placement_classes_wrap_at_the_modulus(
        kvs in proptest::collection::vec(1usize..2048, 1..16),
        placement_mod in 1u64..8,
    ) {
        let layout = SigLayout::exact().placement_mod(placement_mod);
        let slots: Vec<SeqSlot> = kvs
            .iter()
            .enumerate()
            .map(|(i, &kv)| SeqSlot::decode(i as u64, kv))
            .collect();
        let shifted: Vec<SeqSlot> = slots
            .iter()
            .map(|s| SeqSlot::decode(s.request + placement_mod, s.kv_past))
            .collect();
        prop_assert_eq!(
            BatchSignature::of(&slots, &layout),
            BatchSignature::of(&shifted, &layout)
        );
    }
}

/// Disaggregated serving: arbitrary prompt/output shapes at arbitrary
/// gaps.
fn arb_disagg_trace() -> impl Strategy<Value = Vec<Request>> {
    proptest::collection::vec((16usize..600, 1usize..12, 0u64..50), 1..24).prop_map(|shapes| {
        let mut clock = 0;
        shapes
            .into_iter()
            .enumerate()
            .map(|(id, (input_len, output_len, gap_us))| {
                clock += gap_us * 1_000_000;
                Request::new(id as u64, input_len, output_len, clock)
            })
            .collect()
    })
}

fn gpt2_replica() -> SimConfig {
    SimConfig::new(ModelSpec::gpt2()).npu_num(1).tensor_parallel()
}

/// A static disaggregated fleet: one prefill replica per `prefill`
/// config, then one decode replica per `decode` config, over one
/// CXL-class KV link.
fn disagg_fleet(
    prefill: Vec<SimConfig>,
    decode: Vec<SimConfig>,
    routing: RoutingPolicyKind,
    pairing: RoutingPolicyKind,
    trace: Vec<Request>,
) -> FleetEngine {
    let mut configs: Vec<SimConfig> =
        prefill.into_iter().map(SimConfig::prefill_only).collect();
    configs.extend(decode.into_iter().map(SimConfig::decode_only));
    let control = StaticControl::new(routing.build(0), pairing.build(0));
    FleetEngine::new(configs, vec![LinkSpec::cxl()], Box::new(control), trace)
        .expect("gpt2 fits a single Table-I NPU")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bytes shipped per request equal prompt_tokens × kv_bytes_per_token
    /// exactly, for every pairing policy — the transfer model never
    /// invents or loses cache bytes.
    #[test]
    fn kv_transfer_byte_accounting_conserves(
        trace in arb_disagg_trace(),
        pairing_idx in 0usize..RoutingPolicyKind::ALL.len(),
    ) {
        let per_token = ModelSpec::gpt2().kv_bytes_per_token();
        let expected_total: u64 =
            trace.iter().map(|r| r.input_len as u64 * per_token).sum();
        let pairing = RoutingPolicyKind::ALL[pairing_idx];
        let pools = vec![gpt2_replica(); 2];
        let rr = RoutingPolicyKind::RoundRobin;
        let fleet = disagg_fleet(pools.clone(), pools, rr, pairing, trace.clone());
        let report = DisaggReport::from_fleet(fleet.run(), 2, pairing);
        prop_assert_eq!(report.total_completions(), trace.len());
        prop_assert_eq!(report.total_kv_bytes(), expected_total);
        for c in &report.completions {
            let original = trace.iter().find(|r| r.id == c.id).unwrap();
            prop_assert_eq!(c.kv_bytes, original.input_len as u64 * per_token);
            prop_assert_eq!(c.input_len, original.input_len);
        }
    }

    /// A decode-pool KV cache never exceeds its capacity, even when the
    /// pool is memory-starved and handoff admissions contend with cache
    /// growth — checked after every virtual-time event.
    #[test]
    fn decode_pool_kv_never_exceeds_capacity(trace in arb_disagg_trace()) {
        // Starve the decode pool: barely more memory than weights +
        // reserve, so admissions and decode growth fight over pages.
        let mut starved = gpt2_replica();
        starved.npu_mem_gib = Some(1.45);
        // Decode replicas sit at fleet indices 1 and 2.
        let mut sim = disagg_fleet(
            vec![gpt2_replica()],
            vec![starved; 2],
            RoutingPolicyKind::LeastOutstanding,
            RoutingPolicyKind::LeastKvLoad,
            trace.clone(),
        );
        while sim.step() {
            for replica in &sim.sims()[1..] {
                let kv = replica.scheduler().kv();
                prop_assert!(
                    kv.used_pages() <= kv.config().total_pages(),
                    "decode KV overcommitted: {} of {} pages",
                    kv.used_pages(),
                    kv.config().total_pages(),
                );
            }
        }
        let completed: usize =
            sim.sims()[1..].iter().map(|r| r.scheduler().completions().len()).sum();
        prop_assert_eq!(completed, trace.len(), "starved decode pool lost requests");
    }
}
