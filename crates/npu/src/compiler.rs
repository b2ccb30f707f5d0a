//! The NPU compiler: lowers model operators to executable codelets.
//!
//! Matmul ops trigger a tile-candidate search (shape x dataflow) costed with
//! the analytical timing model; element-wise and memory ops lower directly
//! to vector/DMA codelets. Compilation is deliberately the expensive step —
//! exactly the redundancy the paper's model-reuse optimization eliminates by
//! compiling one transformer block and replicating it.

use llmss_model::{Op, OpSignature};
use serde::{Deserialize, Serialize};

use crate::{
    enumerate_candidates, simulate_gemv_stream, simulate_matmul, simulate_memory,
    simulate_vector, NpuConfig, TileChoice, GEMV_M_THRESHOLD,
};

/// Which execution unit a codelet runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecUnit {
    /// Systolic GEMM array (tiled).
    Systolic,
    /// Systolic array in streaming-GEMV mode (skinny matmuls).
    GemvStream,
    /// SIMD vector unit.
    Vector,
    /// DMA engine (bulk memory transfers).
    Dma,
}

/// A compiled operator: the unit it runs on, the tiling decision (for
/// systolic codelets), and the compile-time latency estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Codelet {
    /// Signature of the operator this codelet implements.
    pub signature: OpSignature,
    /// Execution unit.
    pub unit: ExecUnit,
    /// Chosen tiling, for systolic codelets.
    pub tile: Option<TileChoice>,
    /// Compile-time cycle estimate (the search's winning cost).
    pub est_cycles: u64,
    /// Number of tile candidates the search evaluated.
    pub candidates_evaluated: usize,
}

/// Compiles operators for a particular [`NpuConfig`].
///
/// # Examples
///
/// ```
/// use llmss_model::{Op, OpKind, OpDims};
/// use llmss_npu::{NpuCompiler, NpuConfig, ExecUnit};
///
/// let compiler = NpuCompiler::new(NpuConfig::table1());
/// let op = Op::new(OpKind::QkvGen, OpDims::matmul(512, 4096, 12_288), 2);
/// let codelet = compiler.compile(&op);
/// assert_eq!(codelet.unit, ExecUnit::Systolic);
/// assert!(codelet.candidates_evaluated > 100); // a real search happened
/// ```
#[derive(Debug, Clone)]
pub struct NpuCompiler {
    config: NpuConfig,
}

impl NpuCompiler {
    /// Creates a compiler for the given hardware configuration.
    pub fn new(config: NpuConfig) -> Self {
        Self { config }
    }

    /// The hardware configuration this compiler targets.
    pub fn config(&self) -> &NpuConfig {
        &self.config
    }

    /// Compiles one operator to a codelet.
    ///
    /// Matmuls run the tile search; element-wise ops lower to the vector
    /// unit; memory ops lower to DMA transfers.
    pub fn compile(&self, op: &Op) -> Codelet {
        let sig = op.signature();
        if op.kind.is_matmul() {
            if sig.dims.m <= GEMV_M_THRESHOLD {
                // Skinny matmuls need no tile search: the streaming mode
                // has a single closed-form schedule.
                let r = simulate_gemv_stream(&self.config, &sig);
                return Codelet {
                    signature: sig,
                    unit: ExecUnit::GemvStream,
                    tile: None,
                    est_cycles: r.cycles,
                    candidates_evaluated: 0,
                };
            }
            self.compile_matmul(sig)
        } else if op.kind.is_memory() {
            let r = simulate_memory(&self.config, &sig);
            Codelet {
                signature: sig,
                unit: ExecUnit::Dma,
                tile: None,
                est_cycles: r.cycles,
                candidates_evaluated: 0,
            }
        } else {
            let r = simulate_vector(&self.config, &sig);
            Codelet {
                signature: sig,
                unit: ExecUnit::Vector,
                tile: None,
                est_cycles: r.cycles,
                candidates_evaluated: 0,
            }
        }
    }

    fn compile_matmul(&self, sig: OpSignature) -> Codelet {
        let d = sig.dims;
        let candidates = enumerate_candidates(&self.config, d.m, d.k, d.n, sig.elem_bytes);
        let evaluated = candidates.len();
        #[expect(
            clippy::expect_used,
            reason = "candidate enumeration always yields at least one tiling"
        )]
        let (tile, cycles) = candidates
            .into_iter()
            .map(|t| {
                let cost = estimate_tile_cost(&self.config, &sig, &t);
                (t, cost)
            })
            .min_by(|a, b| a.1.cmp(&b.1).then_with(|| cmp_tile(&a.0, &b.0)))
            .expect("candidate set is never empty");
        // Skinny GEMMs (all m rows fit in the array) may beat the tiled
        // schedule by streaming the weight matrix once; the compiler picks
        // whichever mode the cost model favors.
        if d.m <= self.config.systolic_rows {
            let stream = simulate_gemv_stream(&self.config, &sig);
            if stream.cycles < cycles {
                return Codelet {
                    signature: sig,
                    unit: ExecUnit::GemvStream,
                    tile: None,
                    est_cycles: stream.cycles,
                    candidates_evaluated: evaluated + 1,
                };
            }
        }
        Codelet {
            signature: sig,
            unit: ExecUnit::Systolic,
            tile: Some(tile),
            est_cycles: cycles,
            candidates_evaluated: evaluated,
        }
    }
}

/// Deterministic tie-break between equal-cost tiles (larger tiles first).
fn cmp_tile(a: &TileChoice, b: &TileChoice) -> std::cmp::Ordering {
    (b.tm * b.tk * b.tn).cmp(&(a.tm * a.tk * a.tn))
}

/// Analytic cost of a candidate: grid-level compute/memory balance without
/// the full tile walk (the walk happens once, at simulation time, for the
/// winner only).
fn estimate_tile_cost(config: &NpuConfig, sig: &OpSignature, tile: &TileChoice) -> u64 {
    let d = sig.dims;
    let (mo, ko, no) = tile.grid(d.m, d.k, d.n);
    let tiles = (mo * ko * no) as u64;
    let per_tile = crate::timing::tile_compute_cycles(config, tile.tm, tile.tk, tile.tn);
    let compute = tiles * per_tile;
    let traffic = tile.dram_traffic(d.m, d.k, d.n, sig.elem_bytes);
    let mem = (traffic as f64 / config.bytes_per_cycle()).ceil() as u64;
    let setup = tiles * crate::TILE_SETUP_CYCLES;
    d.batch as u64 * (compute.max(mem) + setup)
}

/// Simulates a compiled codelet, returning the detailed timing result.
///
/// Systolic codelets walk the full tile grid; vector and DMA codelets use
/// their closed-form models.
pub fn simulate_codelet(config: &NpuConfig, codelet: &Codelet) -> crate::SimResult {
    match codelet.unit {
        ExecUnit::Systolic => {
            #[expect(
                clippy::expect_used,
                reason = "the compiler attaches a tile to every systolic codelet"
            )]
            let tile = codelet.tile.as_ref().expect("systolic codelets carry a tile");
            simulate_matmul(config, &codelet.signature, tile)
        }
        ExecUnit::GemvStream => simulate_gemv_stream(config, &codelet.signature),
        ExecUnit::Vector => simulate_vector(config, &codelet.signature),
        ExecUnit::Dma => simulate_memory(config, &codelet.signature),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmss_model::{OpDims, OpKind};

    fn compiler() -> NpuCompiler {
        NpuCompiler::new(NpuConfig::table1())
    }

    #[test]
    fn matmul_lowered_to_systolic_with_tile() {
        let c = compiler();
        let op = Op::new(OpKind::FfnUp, OpDims::matmul(1024, 4096, 16_384), 2);
        let cl = c.compile(&op);
        assert_eq!(cl.unit, ExecUnit::Systolic);
        assert!(cl.tile.is_some());
        assert!(cl.est_cycles > 0);
    }

    #[test]
    fn layernorm_lowered_to_vector() {
        let c = compiler();
        let op = Op::new(OpKind::LayerNorm, OpDims::elementwise(128, 4096), 2);
        let cl = c.compile(&op);
        assert_eq!(cl.unit, ExecUnit::Vector);
        assert!(cl.tile.is_none());
    }

    #[test]
    fn kv_ops_lowered_to_dma() {
        let c = compiler();
        let op = Op::new(OpKind::KvStore, OpDims::elementwise(4096, 16), 2);
        assert_eq!(c.compile(&op).unit, ExecUnit::Dma);
    }

    #[test]
    fn compile_is_deterministic() {
        let c = compiler();
        let op = Op::new(OpKind::QkvGen, OpDims::matmul(512, 4096, 12_288), 2);
        assert_eq!(c.compile(&op), c.compile(&op));
    }

    #[test]
    fn chosen_tile_beats_naive_minimum_tile() {
        let c = compiler();
        let op = Op::new(OpKind::FfnDown, OpDims::matmul(2048, 16_384, 4096), 2);
        let cl = c.compile(&op);
        let naive = TileChoice {
            tm: 128,
            tk: 64,
            tn: 128,
            dataflow: crate::Dataflow::OutputStationary,
        };
        let best = simulate_codelet(c.config(), &cl).cycles;
        let worst = simulate_matmul(c.config(), &op.signature(), &naive).cycles;
        assert!(best < worst, "search should beat the naive tile: {best} vs {worst}");
    }

    #[test]
    fn estimate_is_within_2x_of_simulation() {
        // Compile-time estimate and tile-walk simulation should agree in
        // order of magnitude for clean power-of-two problems.
        let c = compiler();
        for (m, k, n) in [(1024, 4096, 4096), (256, 4096, 12_288), (64, 1024, 1024)] {
            let op = Op::new(OpKind::QkvGen, OpDims::matmul(m, k, n), 2);
            let cl = c.compile(&op);
            let sim = simulate_codelet(c.config(), &cl).cycles;
            let ratio = cl.est_cycles as f64 / sim as f64;
            assert!((0.5..2.0).contains(&ratio), "({m},{k},{n}): est/sim = {ratio:.2}");
        }
    }
}
