//! mNPUsim-like baseline: multi-core NPU simulation at cache-line
//! granularity.
//!
//! mNPUsim models shared-resource contention between NPU cores, which
//! requires tracking individual memory accesses. This baseline reproduces
//! that cost profile: every operator's DRAM traffic is replayed line by
//! line (64 B) through a direct-mapped cache model and a banked DRAM row
//! model, with round-robin arbitration across the simulated cores. It is
//! by far the slowest baseline — the paper measures ~10 hours per
//! iteration for the real tool, ~491x slower than LLMServingSim.

use std::time::Instant;

use llmss_model::IterationWorkload;
use llmss_npu::{NpuCompiler, NpuConfig};

use crate::BaselineReport;

/// Bytes per simulated memory access.
pub const CACHE_LINE_BYTES: u64 = 64;

/// Simulated NPU cores contending for memory.
pub const CORES: usize = 4;

const CACHE_SETS: usize = 4096;
const DRAM_BANKS: usize = 16;
const ROW_BYTES: u64 = 2048;

/// Per-core cache + DRAM bank state.
#[derive(Debug)]
struct MemoryModel {
    tags: Vec<u64>,
    open_rows: [u64; DRAM_BANKS],
    hits: u64,
    row_misses: u64,
}

impl MemoryModel {
    fn new() -> Self {
        Self {
            tags: vec![u64::MAX; CACHE_SETS],
            open_rows: [u64::MAX; DRAM_BANKS],
            hits: 0,
            row_misses: 0,
        }
    }

    /// Simulates one line access; returns its cost in cycles.
    #[inline]
    fn access(&mut self, addr: u64) -> u64 {
        let line = addr / CACHE_LINE_BYTES;
        let set = (line as usize) & (CACHE_SETS - 1);
        if self.tags[set] == line {
            self.hits += 1;
            return 1;
        }
        self.tags[set] = line;
        let bank = (addr / ROW_BYTES) as usize % DRAM_BANKS;
        let row = addr / (ROW_BYTES * DRAM_BANKS as u64);
        if self.open_rows[bank] == row {
            4
        } else {
            self.open_rows[bank] = row;
            self.row_misses += 1;
            18
        }
    }
}

/// Runs the mNPUsim-like baseline over one iteration's full op list.
pub fn simulate_iteration(config: &NpuConfig, workload: &IterationWorkload) -> BaselineReport {
    #[expect(
        clippy::disallowed_methods,
        reason = "baseline harness reports its own host wall cost alongside simulated cycles"
    )]
    let t0 = Instant::now();
    let compiler = NpuCompiler::new(config.clone());
    let mut mems: Vec<MemoryModel> = (0..CORES).map(|_| MemoryModel::new()).collect();
    let mut cycles = 0u64;
    let mut steps = 0u64;
    let mut checksum = 0u64;
    let mut addr_base = 0u64;

    for op in workload.flatten() {
        // mNPUsim also compiles a mapping per op (no reuse across blocks).
        let codelet = compiler.compile(&op);
        let bytes = op.bytes_total();
        let lines = bytes / CACHE_LINE_BYTES;
        // Replay the op's traffic line by line, arbitrating across cores.
        let mut op_cycles = 0u64;
        let mut line = 0u64;
        while line < lines {
            let core = (line as usize) % CORES;
            // Strided address pattern: operands interleave, which exercises
            // both cache hits (sequential runs) and row misses (strides).
            let addr = addr_base
                .wrapping_add(line * CACHE_LINE_BYTES)
                .wrapping_add((line % 3) * 1_048_576);
            op_cycles += mems[core].access(addr);
            steps += 1;
            line += 1;
        }
        checksum =
            checksum.wrapping_add(op_cycles).wrapping_add(codelet.est_cycles).rotate_left(11);
        // Arbitration: cores share the DRAM channel; contention stretches
        // the op by the serialized access time across cores.
        cycles += codelet.est_cycles.max(op_cycles / CORES as u64);
        addr_base = addr_base.wrapping_add(bytes);
    }

    let hits: u64 = mems.iter().map(|m| m.hits).sum();
    BaselineReport {
        wall: t0.elapsed(),
        simulated_cycles: cycles,
        steps,
        checksum: checksum ^ hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{genesys_like, uniform_prefill_workload};
    use llmss_model::ModelSpec;

    #[test]
    fn replays_every_line() {
        let w = uniform_prefill_workload(&ModelSpec::gpt2(), 1, 32);
        let r = simulate_iteration(&NpuConfig::table1(), &w);
        let total_bytes: u64 = w.flatten().iter().map(|o| o.bytes_total()).sum();
        assert_eq!(r.steps, w.flatten().iter().map(|o| o.bytes_total() / 64).sum::<u64>());
        assert!(total_bytes / 64 >= r.steps);
    }

    #[test]
    fn slower_than_genesys_like() {
        // The ordering the paper's Figure 2(a)/8 shows: mNPUsim does the
        // most work per iteration.
        let cfg = NpuConfig::table1();
        let w = uniform_prefill_workload(&ModelSpec::gpt2(), 2, 128);
        let m = simulate_iteration(&cfg, &w);
        let g = genesys_like::simulate_iteration(&cfg, &w);
        assert!(
            m.steps > g.steps,
            "mNPUsim-like ({}) must out-step GeneSys-like ({})",
            m.steps,
            g.steps
        );
    }
}
