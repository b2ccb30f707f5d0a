//! Operator mapping across heterogeneous accelerators (Algorithm 1 line 6).
//!
//! Depending on the system's topology, mapping decisions happen in
//! different components (paper Section IV-B):
//!
//! * `PimMode::None` — homogeneous NPUs; everything maps to NPU.
//! * `PimMode::Local` — NPU+PIM devices; the *engine's internal scheduler*
//!   maps decode attention to the attached PIM
//!   ([`crate::NpuPimLocalPlugin`]), so the system-level mapper still says
//!   "NPU node".
//! * `PimMode::Pool` — separate NPU and PIM pools; the *scheduler-level*
//!   mapper routes memory-bound GEMVs to the PIM pool and the graph
//!   converter inserts the inter-pool transfers.

use llmss_model::{Op, OpKind, Phase};
use serde::{Deserialize, Serialize};

/// How PIM participates in the system (the artifact's `pim_type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PimMode {
    /// No PIM: homogeneous NPU system.
    None,
    /// PIM attached to every NPU device (one node at system level,
    /// paper Figure 5a).
    Local,
    /// A separate PIM pool joined by a high-bandwidth interconnect
    /// (paper Figure 5b).
    Pool,
}

impl PimMode {
    /// The scenario-file spelling (the artifact's `pim_type` values).
    pub fn as_str(&self) -> &'static str {
        match self {
            PimMode::None => "none",
            PimMode::Local => "local",
            PimMode::Pool => "pool",
        }
    }
}

impl std::str::FromStr for PimMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(PimMode::None),
            "local" => Ok(PimMode::Local),
            "pool" => Ok(PimMode::Pool),
            other => Err(format!("unknown PIM mode '{other}' (expected none | local | pool)")),
        }
    }
}

/// The device class an operator is mapped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Compute-centric accelerator.
    Npu,
    /// Processing-in-memory device.
    Pim,
}

/// Decides which device class executes `op` under the given PIM mode.
///
/// Memory-bound decode-phase attention GEMVs (Score/Attend with a single
/// query row) go to PIM when a pool exists; prefill attention is a GEMM and
/// stays on the NPU. In `Local` mode the split is internal to the combined
/// engine, so the system-level answer is always `Npu`.
///
/// # Examples
///
/// ```
/// use llmss_core::{map_op, DeviceKind, PimMode};
/// use llmss_model::{Op, OpDims, OpKind, Phase};
///
/// let decode_score = Op::new(OpKind::Score, OpDims::batched(32, 1, 128, 512), 2)
///     .in_phase(Phase::Generation);
/// assert_eq!(map_op(&decode_score, PimMode::Pool), DeviceKind::Pim);
/// assert_eq!(map_op(&decode_score, PimMode::None), DeviceKind::Npu);
/// ```
pub fn map_op(op: &Op, mode: PimMode) -> DeviceKind {
    match mode {
        PimMode::None | PimMode::Local => DeviceKind::Npu,
        PimMode::Pool => {
            let gemv_attention = matches!(op.kind, OpKind::Score | OpKind::Attend)
                && op.phase == Phase::Generation;
            if gemv_attention {
                DeviceKind::Pim
            } else {
                DeviceKind::Npu
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmss_model::OpDims;

    fn op(kind: OpKind, phase: Phase) -> Op {
        Op::new(kind, OpDims::batched(8, 1, 64, 256), 2).in_phase(phase)
    }

    #[test]
    fn pool_mode_offloads_decode_attention_only() {
        assert_eq!(
            map_op(&op(OpKind::Score, Phase::Generation), PimMode::Pool),
            DeviceKind::Pim
        );
        assert_eq!(
            map_op(&op(OpKind::Attend, Phase::Generation), PimMode::Pool),
            DeviceKind::Pim
        );
        assert_eq!(
            map_op(&op(OpKind::Softmax, Phase::Generation), PimMode::Pool),
            DeviceKind::Npu
        );
        assert_eq!(
            map_op(&op(OpKind::Score, Phase::Initiation), PimMode::Pool),
            DeviceKind::Npu
        );
        assert_eq!(
            map_op(&op(OpKind::FfnUp, Phase::Generation), PimMode::Pool),
            DeviceKind::Npu
        );
    }

    #[test]
    fn non_pool_modes_stay_on_npu() {
        for mode in [PimMode::None, PimMode::Local] {
            assert_eq!(map_op(&op(OpKind::Score, Phase::Generation), mode), DeviceKind::Npu);
        }
    }
}
