//! GeneSys-like baseline: full recompilation and cycle-quantum simulation
//! of every layer of every block, with no result reuse.
//!
//! This is what running the raw GeneSys stack on a full LLM iteration
//! costs: the PolyMath-style compiler runs its tile search for *each* of
//! the `n_layers` block replicas (LLMServingSim compiles one block and
//! replicates it), and the timing simulator steps through every array pass
//! in 64-cycle quanta rather than pricing whole tiles analytically.

use std::time::Instant;

use llmss_model::{IterationWorkload, Op};
use llmss_npu::{simulate_codelet, NpuCompiler, NpuConfig};

use crate::BaselineReport;

/// Cycle-quantum the stepping loop advances per event.
pub const GENESYS_QUANTUM: u64 = 64;

/// Runs the GeneSys-like baseline over one iteration's full op list.
pub fn simulate_iteration(config: &NpuConfig, workload: &IterationWorkload) -> BaselineReport {
    #[expect(
        clippy::disallowed_methods,
        reason = "baseline harness reports its own host wall cost alongside simulated cycles"
    )]
    let t0 = Instant::now();
    let compiler = NpuCompiler::new(config.clone());
    let mut cycles = 0u64;
    let mut steps = 0u64;
    let mut checksum = 0u64;

    for op in workload.flatten() {
        let (c, s, k) = simulate_op(&compiler, config, &op);
        cycles += c;
        steps += s;
        checksum = checksum.wrapping_add(k);
    }

    BaselineReport { wall: t0.elapsed(), simulated_cycles: cycles, steps, checksum }
}

/// Compiles and quantum-steps a single operator.
pub fn simulate_op(compiler: &NpuCompiler, config: &NpuConfig, op: &Op) -> (u64, u64, u64) {
    // Full compile: the tile search runs for every op instance.
    let codelet = compiler.compile(op);
    let result = simulate_codelet(config, &codelet);
    // Cycle-quantum stepping: walk the op's duration in 64-cycle events,
    // the granularity an RTL-ish simulator pays per pipeline snapshot.
    let quanta = result.cycles.div_ceil(GENESYS_QUANTUM);
    let mut checksum = 0x9E37_79B9_7F4A_7C15u64;
    let mut steps = 0u64;
    let mut q = quanta;
    while q > 0 {
        // A tiny amount of per-quantum state evolution (PE-utilization
        // bookkeeping stand-in); wrapping arithmetic keeps it honest and
        // un-elidable.
        checksum = checksum.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(7) ^ q;
        steps += 1;
        q -= 1;
    }
    (result.cycles, steps, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_prefill_workload;
    use llmss_model::ModelSpec;

    #[test]
    fn steps_track_simulated_cycles() {
        let w = uniform_prefill_workload(&ModelSpec::gpt2(), 1, 64);
        let r = simulate_iteration(&NpuConfig::table1(), &w);
        assert!(r.simulated_cycles > 0);
        assert!(r.steps >= r.simulated_cycles / GENESYS_QUANTUM / 2);
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn bigger_batch_means_more_steps() {
        let cfg = NpuConfig::table1();
        let small =
            simulate_iteration(&cfg, &uniform_prefill_workload(&ModelSpec::gpt2(), 1, 32));
        let large =
            simulate_iteration(&cfg, &uniform_prefill_workload(&ModelSpec::gpt2(), 4, 32));
        assert!(large.steps > 2 * small.steps);
    }
}
