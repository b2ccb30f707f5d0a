//! Block folding: on a miss the converter emits two decoder blocks per
//! pipeline stage, and the network DES proves that the left-out blocks
//! repeat and extrapolates them. These tests hold the folded path to the
//! unfolded one, field by field.

use proptest::prelude::*;

use llmservingsim::core::{
    EngineStack, GraphConverter, IterationOutcome, ReuseStats, ServingSimulator, SimConfig,
    SimReport,
};
use llmservingsim::model::{ModelSpec, SeqSlot};
use llmservingsim::net::{BlockRun, ExecGraph, GraphSimulator, Topology};
use llmservingsim::npu::NpuConfig;
use llmservingsim::pim::PimConfig;
use llmservingsim::sched::{Dataset, IterationBatch, KvTransfer, Request, TraceGenerator};

/// One side of the differential: a fresh converter and engine stack for
/// `config`, plus the graph arena and DES it fills.
struct Side {
    converter: GraphConverter,
    stack: EngineStack,
    topology: Topology,
    graph: ExecGraph,
    des: GraphSimulator,
}

impl Side {
    fn new(config: &SimConfig) -> Self {
        let topology = config.topology().unwrap();
        let converter = GraphConverter::new(
            config.model.clone(),
            config.parallelism().unwrap(),
            &topology,
            config.pim_mode,
            config.selective_batching,
            config.sub_batch,
        );
        let stack = EngineStack::for_pim_mode(
            config.pim_mode,
            NpuConfig::table1(),
            PimConfig::table1(),
            true,
        );
        Self { converter, stack, topology, graph: ExecGraph::new(), des: GraphSimulator::new() }
    }

    /// The unfolded conversion and DES run.
    fn full(&mut self, batch: &IterationBatch) -> (IterationOutcome, ReuseStats) {
        self.converter.convert_into(batch, &mut self.stack, &mut self.graph);
        let out = self.des.simulate(&self.graph, &self.topology).unwrap();
        (IterationOutcome::capture(out, self.graph.len()), self.stack.reuse_stats())
    }

    /// The folded conversion and DES run: the outcome when the DES
    /// proved the fold, and the op statistics either way.
    fn folded(&mut self, batch: &IterationBatch) -> (Option<IterationOutcome>, ReuseStats) {
        let folds = self.converter.convert_folded_into(batch, &mut self.stack, &mut self.graph);
        let skipped: usize = folds.iter().map(BlockRun::skipped_ops).sum();
        let out = self.des.simulate_folded(&self.graph, &self.topology, folds).unwrap();
        let outcome = out.map(|o| IterationOutcome::capture(o, self.graph.len() + skipped));
        (outcome, self.stack.reuse_stats())
    }
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    // (npus, pipeline groups): TP 1/2/4, PP 2/4, hybrid 2x2 and 4x2.
    const LAYOUTS: [(usize, usize); 7] =
        [(1, 1), (2, 1), (4, 1), (2, 2), (4, 4), (4, 2), (8, 2)];
    let flags = (proptest::bool::ANY, proptest::bool::ANY);
    (0usize..3, 0..LAYOUTS.len(), 0u8..3, flags).prop_map(
        |(model, layout, pim, (selective, sub_batch))| {
            let model =
                [ModelSpec::gpt2(), ModelSpec::gpt3_7b(), ModelSpec::llama_7b()][model].clone();
            let (npus, groups) = LAYOUTS[layout];
            let config = SimConfig::new(model).npu_num(npus).hybrid_parallel(groups);
            let config = match pim {
                0 => config,
                1 => config.pim_local(),
                _ => config.pim_pool(2),
            };
            config.selective_batching(selective).sub_batch(sub_batch)
        },
    )
}

/// Prefill, decode and mixed batches of up to 9 slots, with up to two
/// KV evictions and two reloads of up to 64 MiB each.
fn arb_batch() -> impl Strategy<Value = IterationBatch> {
    let slot = (proptest::bool::ANY, 1usize..512, 1usize..2048);
    let transfer = (0u64..16, 1u64..(64 << 20)).prop_map(|(request, bytes)| KvTransfer {
        request,
        bytes,
        pages: bytes.div_ceil(1 << 16) as usize,
    });
    (
        proptest::collection::vec(slot, 1..10),
        0u64..64,
        proptest::collection::vec(transfer.clone(), 0..3),
        proptest::collection::vec(transfer, 0..3),
    )
        .prop_map(|(slots, first_id, evictions, reloads)| IterationBatch {
            slots: slots
                .into_iter()
                .enumerate()
                .map(|(i, (prefill, prompt, kv))| {
                    let id = first_id + i as u64;
                    if prefill {
                        SeqSlot::prefill(id, prompt)
                    } else {
                        SeqSlot::decode(id, kv)
                    }
                })
                .collect(),
            evictions,
            reloads,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A folded conversion counts the same op lookups as a full one, and
    /// a folded DES run that proves its fold reports the full run's
    /// makespan, events, op count and compute/comm/host time exactly.
    #[test]
    fn folded_matches_full(config in arb_config(), batch in arb_batch()) {
        let (full, full_stats) = Side::new(&config).full(&batch);
        let (folded, folded_stats) = Side::new(&config).folded(&batch);
        prop_assert_eq!(folded_stats, full_stats);
        if let Some(folded) = folded {
            prop_assert_eq!(folded, full);
        }
    }
}

fn trace(n: usize, rate: f64) -> Vec<Request> {
    TraceGenerator::new(Dataset::ShareGpt, 5).rate_per_s(rate).generate(n)
}

/// Runs `config` with the op cache on (folding every miss) and off (the
/// paper's "w/o reuse" ablation, which never folds) and requires the same
/// iterations and completions from both. Returns the folded run.
fn assert_runs_match(config: SimConfig, trace: Vec<Request>) -> (SimReport, u64) {
    let mut folded = ServingSimulator::new(config.clone().reuse(true), trace.clone()).unwrap();
    while folded.step() {}
    let fallbacks = folded.fold_fallbacks();
    let folded = folded.into_report();
    let full = ServingSimulator::new(config.reuse(false), trace).unwrap().run();
    assert_eq!(folded.iterations, full.iterations);
    assert_eq!(folded.completions, full.completions);
    assert_eq!(folded.sim_duration_ps, full.sim_duration_ps);
    (folded, fallbacks)
}

#[test]
fn folded_runs_match_unfolded_runs_on_every_layout() {
    let gpt2 = || SimConfig::new(ModelSpec::gpt2());
    let layouts = [
        ("tp4", gpt2().npu_num(4).tensor_parallel()),
        ("pp4", gpt2().npu_num(4).pipeline_parallel()),
        ("hybrid 2x2", gpt2().npu_num(4).hybrid_parallel(2)),
        ("pim pool", gpt2().npu_num(2).tensor_parallel().pim_pool(2)),
    ];
    for (name, config) in layouts {
        let (report, fallbacks) = assert_runs_match(config, trace(12, 20.0));
        assert_eq!(report.completions.len(), 12, "{name}");
        assert_eq!(fallbacks, 0, "{name}: every miss should prove its fold");
    }
}

#[test]
fn folded_runs_match_unfolded_runs_under_kv_pressure() {
    // Tight memory on two NPUs: the scheduler evicts and reloads KV, so
    // many misses carry host transfers on one of the two nodes.
    let mut config = SimConfig::new(ModelSpec::gpt2()).npu_num(2).tensor_parallel();
    config.npu_mem_gib = Some(1.13);
    let requests: Vec<Request> = (0..12).map(|i| Request::new(i, 128, 256, 0)).collect();
    let (report, fallbacks) = assert_runs_match(config, requests);
    let evictions: usize = report.iterations.iter().map(|it| it.evictions).sum();
    let reloads: usize = report.iterations.iter().map(|it| it.reloads).sum();
    assert!(evictions > 0 && reloads > 0, "{evictions} evictions, {reloads} reloads");
    assert_eq!(fallbacks, 0, "an eviction ends before the second block starts");
}

#[test]
fn folding_counts_every_op_lookup_a_full_conversion_makes() {
    // Without the iteration memo every iteration converts: the folded
    // run's hits plus misses equal the lookups of the unfolded no-reuse
    // run, and its misses are the engine executions of a reuse run.
    let config = SimConfig::new(ModelSpec::gpt2()).npu_num(4).hybrid_parallel(2);
    let with = ServingSimulator::new(config.clone().iteration_memo(false), trace(8, 20.0))
        .unwrap()
        .run();
    let without = ServingSimulator::new(config.reuse(false), trace(8, 20.0)).unwrap().run();
    assert_eq!(with.reuse.hits() + with.reuse.misses(), without.reuse.misses());
    assert!(with.reuse.hit_rate() > 0.9, "{}", with.reuse.hit_rate());
}
