//! NeuPIMs-like baseline: joint NPU+PIM simulation without result reuse.
//!
//! NeuPIMs co-simulates a compute NPU with an HBM-PIM at high fidelity:
//! non-attention operators step through the NPU pipeline (like the
//! GeneSys-class simulator) while attention operators replay PIM command
//! streams — row activations and burst groups across every bank — with a
//! synchronization barrier between the two devices per operator. The paper
//! measures ~2 hours per iteration for the real tool, between mNPUsim and
//! GeneSys.

use std::time::Instant;

use llmss_model::IterationWorkload;
use llmss_npu::{NpuCompiler, NpuConfig};
use llmss_pim::{simulate_gemv, PimConfig};

use crate::{genesys_like, BaselineReport};

/// Bursts replayed per PIM stepping event.
pub const BURST_GROUP: u64 = 8;

const BURST_BYTES: u64 = 32;

/// Runs the NeuPIMs-like baseline over one iteration's full op list.
pub fn simulate_iteration(
    npu_config: &NpuConfig,
    pim_config: &PimConfig,
    workload: &IterationWorkload,
) -> BaselineReport {
    #[expect(
        clippy::disallowed_methods,
        reason = "baseline harness reports its own host wall cost alongside simulated cycles"
    )]
    let t0 = Instant::now();
    let compiler = NpuCompiler::new(npu_config.clone());
    let mut cycles = 0u64;
    let mut steps = 0u64;
    let mut checksum = 0u64;

    for op in workload.flatten() {
        if op.kind.is_attention() && op.kind.is_matmul() {
            // PIM side: replay the command stream bank by bank.
            let sig = op.signature();
            let r = simulate_gemv(pim_config, &sig);
            cycles += r.cycles;
            let bytes = r.matrix_bytes;
            let rows = bytes.div_ceil(pim_config.timing.row_buffer_bytes as u64);
            let burst_groups = bytes.div_ceil(BURST_BYTES * BURST_GROUP);
            let mut events = rows + burst_groups;
            let mut h = 0xDEAD_BEEF_CAFE_F00Du64;
            while events > 0 {
                h = h.wrapping_mul(0x5851_F42D_4C95_7F2D).rotate_left(13) ^ events;
                steps += 1;
                events -= 1;
            }
            checksum = checksum.wrapping_add(h);
        } else {
            // NPU side: GeneSys-class quantum stepping.
            let (c, s, k) = genesys_like::simulate_op(&compiler, npu_config, &op);
            cycles += c;
            steps += s;
            checksum = checksum.wrapping_add(k);
        }
        // Device synchronization barrier per operator handoff.
        checksum = checksum.rotate_left(3).wrapping_add(0x9E37);
        steps += 1;
    }

    BaselineReport { wall: t0.elapsed(), simulated_cycles: cycles, steps, checksum }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_prefill_workload;
    use llmss_model::ModelSpec;

    #[test]
    fn does_more_work_than_genesys_like() {
        // Figure 2(a) ordering: NeuPIMs (2 h) sits above GeneSys (1.5 h).
        let w = uniform_prefill_workload(&ModelSpec::gpt2(), 2, 128);
        let n = simulate_iteration(&NpuConfig::table1(), &PimConfig::table1(), &w);
        let g = genesys_like::simulate_iteration(&NpuConfig::table1(), &w);
        assert!(n.steps > g.steps, "neupims {} vs genesys {}", n.steps, g.steps);
    }

    #[test]
    fn produces_cycles_for_mixed_batches() {
        let w = uniform_prefill_workload(&ModelSpec::gpt2(), 1, 64);
        let r = simulate_iteration(&NpuConfig::table1(), &PimConfig::table1(), &w);
        assert!(r.simulated_cycles > 0);
        assert_ne!(r.checksum, 0);
    }
}
