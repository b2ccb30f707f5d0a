//! Roofline performance model.
//!
//! Used for two purposes in the reproduction: regenerating the paper's
//! Figure 2(b) (arithmetic-intensity analysis of LLM inference operators on
//! an RTX-3090-class device) and as the kernel-latency model inside the
//! GPU reference serving system (`llmss-baselines::gpu_ref`).

use serde::{Deserialize, Serialize};

use crate::Op;

/// A device roofline: peak compute throughput and memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    /// Peak compute throughput in FLOP/s.
    pub peak_flops: f64,
    /// Peak DRAM bandwidth in bytes/s.
    pub mem_bw: f64,
}

impl Roofline {
    /// Creates a roofline from peak TFLOPS and GB/s.
    ///
    /// # Panics
    ///
    /// Panics if either value is not strictly positive.
    pub fn new(peak_tflops: f64, mem_gbps: f64) -> Self {
        assert!(peak_tflops > 0.0 && mem_gbps > 0.0, "roofline parameters must be positive");
        Self { peak_flops: peak_tflops * 1e12, mem_bw: mem_gbps * 1e9 }
    }

    /// NVIDIA RTX 3090-class roofline (fp16: 35.6 TFLOPS, 936 GB/s GDDR6X),
    /// the GPU the paper validates against.
    pub fn rtx3090() -> Self {
        Self::new(35.6, 936.0)
    }

    /// Arithmetic intensity (FLOPs/byte) at which the roofline bends:
    /// below the knee an op is memory bound, above it compute bound.
    pub fn knee(&self) -> f64 {
        self.peak_flops / self.mem_bw
    }

    /// Attainable throughput (FLOP/s) at the given arithmetic intensity.
    pub fn attainable_flops(&self, intensity: f64) -> f64 {
        (intensity * self.mem_bw).min(self.peak_flops)
    }

    /// Whether an op with the given intensity is memory bound on this device.
    pub fn is_memory_bound(&self, intensity: f64) -> bool {
        intensity < self.knee()
    }

    /// Ideal execution time of `op` in seconds: the maximum of its
    /// compute time at peak FLOPS and its memory time at peak bandwidth.
    ///
    /// Memory-only ops take their transfer time.
    pub fn op_time(&self, op: &Op) -> f64 {
        let compute = op.flops() as f64 / self.peak_flops;
        let memory = op.bytes_total() as f64 / self.mem_bw;
        compute.max(memory)
    }

    /// Achieved throughput (FLOP/s) for `op` under this roofline.
    pub fn achieved_flops(&self, op: &Op) -> f64 {
        let t = self.op_time(op);
        if t == 0.0 {
            return 0.0;
        }
        op.flops() as f64 / t
    }
}

/// One point of a roofline analysis: an operator placed on the chart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Operator label (e.g. "qkv_gen (init)").
    pub label: String,
    /// Arithmetic intensity in FLOPs/byte.
    pub intensity: f64,
    /// Achieved TFLOPS under the roofline.
    pub tflops: f64,
    /// Whether the op is memory bound on the device.
    pub memory_bound: bool,
}

/// Places each op on the device roofline, producing chart-ready points.
pub fn analyze<'a>(
    device: &Roofline,
    ops: impl IntoIterator<Item = (&'a str, &'a Op)>,
) -> Vec<RooflinePoint> {
    ops.into_iter()
        .map(|(label, op)| {
            let intensity = op.arithmetic_intensity();
            RooflinePoint {
                label: label.to_owned(),
                intensity,
                tflops: device.achieved_flops(op) / 1e12,
                memory_bound: device.is_memory_bound(intensity),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpDims, OpKind};

    #[test]
    fn knee_is_ratio_of_peaks() {
        let r = Roofline::new(35.6, 936.0);
        let expect = 35.6e12 / 936.0e9;
        assert!((r.knee() - expect).abs() < 1e-9);
    }

    #[test]
    fn attainable_saturates_at_peak() {
        let r = Roofline::rtx3090();
        assert!(r.attainable_flops(1e9) <= r.peak_flops + 1.0);
        assert!(r.attainable_flops(0.001) < r.peak_flops);
    }

    #[test]
    fn gemm_hits_peak_gemv_hits_bandwidth() {
        let r = Roofline::rtx3090();
        let gemm = Op::new(OpKind::FfnUp, OpDims::matmul(2048, 4096, 16_384), 2);
        let gemv = Op::new(OpKind::Score, OpDims::batched(32, 1, 128, 1024), 2);
        assert!(r.achieved_flops(&gemm) > 0.9 * r.peak_flops);
        // GEMV time should be its memory time.
        let mem_time = gemv.bytes_total() as f64 / r.mem_bw;
        assert!((r.op_time(&gemv) - mem_time).abs() / mem_time < 1e-9);
    }

    #[test]
    fn analyze_classifies_boundness() {
        let r = Roofline::rtx3090();
        let gemm = Op::new(OpKind::FfnUp, OpDims::matmul(2048, 4096, 16_384), 2);
        let ln = Op::new(OpKind::LayerNorm, OpDims::elementwise(2048, 4096), 2);
        let pts = analyze(&r, [("ffn", &gemm), ("ln", &ln)]);
        assert!(!pts[0].memory_bound);
        assert!(pts[1].memory_bound);
        assert!(pts[0].tflops > pts[1].tflops);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = Roofline::new(1.0, 0.0);
    }
}
