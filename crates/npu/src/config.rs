//! NPU hardware configuration (the paper's Table I, left column).

use serde::{Deserialize, Serialize};

/// Hardware parameters of one NPU device.
///
/// Defaults reproduce the paper's Table I: a 128x128 systolic array with a
/// 128-lane vector unit at 1 GHz, 24 GB of device memory at 936 GB/s —
/// chosen by the authors to approximate an RTX 3090.
///
/// # Examples
///
/// ```
/// use llmss_npu::NpuConfig;
///
/// let cfg = NpuConfig::table1();
/// assert_eq!(cfg.systolic_rows, 128);
/// assert!((cfg.peak_tflops() - 32.768).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NpuConfig {
    /// Configuration name.
    pub name: String,
    /// Systolic-array rows (PE grid height).
    pub systolic_rows: usize,
    /// Systolic-array columns (PE grid width).
    pub systolic_cols: usize,
    /// SIMD lanes of the vector unit.
    pub vector_lanes: usize,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Device memory capacity in GiB.
    pub mem_capacity_gib: f64,
    /// Device memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// On-chip scratchpad (SRAM) size in KiB, shared by operand tiles.
    pub sram_kib: usize,
    /// Sustained MACs/cycle in streaming-GEMV mode (decode attention).
    ///
    /// Models the array edge consuming the matrix operand directly from
    /// DRAM without per-tile weight refills; the default (512) lets GEMV
    /// keep up with the Table-I bandwidth, matching the paper's choice of
    /// an NPU configured to approximate GPU performance.
    pub gemv_mac_rate: usize,
    /// Fraction of peak DRAM bandwidth sustained by streaming GEMVs.
    pub gemv_bw_efficiency: f64,
}

impl NpuConfig {
    /// The paper's Table I NPU configuration.
    pub fn table1() -> Self {
        Self {
            name: "table1-npu".to_owned(),
            systolic_rows: 128,
            systolic_cols: 128,
            vector_lanes: 128,
            freq_ghz: 1.0,
            mem_capacity_gib: 24.0,
            mem_bw_gbps: 936.0,
            sram_kib: 8 * 1024,
            gemv_mac_rate: 512,
            gemv_bw_efficiency: 0.9,
        }
    }

    /// Peak MAC throughput in TFLOPS (2 FLOPs per MAC per cycle per PE).
    pub fn peak_tflops(&self) -> f64 {
        2.0 * (self.systolic_rows * self.systolic_cols) as f64 * self.freq_ghz * 1e9 / 1e12
    }

    /// Device memory bandwidth in bytes per core cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.mem_bw_gbps * 1e9 / (self.freq_ghz * 1e9)
    }

    /// Scratchpad capacity in bytes.
    pub fn sram_bytes(&self) -> usize {
        self.sram_kib * 1024
    }

    /// Picoseconds per core cycle.
    pub fn ps_per_cycle(&self) -> f64 {
        1e3 / self.freq_ghz
    }

    /// Converts a cycle count to picoseconds.
    pub fn cycles_to_ps(&self, cycles: u64) -> u64 {
        (cycles as f64 * self.ps_per_cycle()).round() as u64
    }

    /// Parses a configuration from the artifact-style JSON format.
    ///
    /// # Errors
    ///
    /// Returns an error string if the JSON is malformed or fields are
    /// missing/invalid.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let cfg: Self = serde_json::from_str(json).map_err(|e| e.to_string())?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Serializes the configuration to JSON.
    pub fn to_json(&self) -> String {
        #[expect(
            clippy::expect_used,
            reason = "serializing to an in-memory String cannot fail"
        )]
        serde_json::to_string_pretty(self).expect("config serialization is infallible")
    }

    /// Checks structural validity (non-zero dimensions, positive rates).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.systolic_rows == 0 || self.systolic_cols == 0 {
            return Err("systolic array dimensions must be non-zero".into());
        }
        if self.vector_lanes == 0 {
            return Err("vector unit must have at least one lane".into());
        }
        if self.freq_ghz <= 0.0 {
            return Err("clock frequency must be positive".into());
        }
        if self.mem_bw_gbps <= 0.0 {
            return Err("memory bandwidth must be positive".into());
        }
        if self.sram_kib == 0 {
            return Err("scratchpad must be non-empty".into());
        }
        if self.gemv_mac_rate == 0 {
            return Err("streaming-GEMV rate must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.gemv_bw_efficiency) || self.gemv_bw_efficiency == 0.0 {
            return Err("GEMV bandwidth efficiency must be in (0, 1]".into());
        }
        Ok(())
    }
}

impl Default for NpuConfig {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = NpuConfig::table1();
        assert_eq!(c.systolic_rows, 128);
        assert_eq!(c.systolic_cols, 128);
        assert_eq!(c.vector_lanes, 128);
        assert_eq!(c.freq_ghz, 1.0);
        assert_eq!(c.mem_capacity_gib, 24.0);
        assert_eq!(c.mem_bw_gbps, 936.0);
    }

    #[test]
    fn json_round_trip() {
        let c = NpuConfig::table1();
        let back = NpuConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut c = NpuConfig::table1();
        c.freq_ghz = 0.0;
        assert!(c.validate().is_err());
        assert!(NpuConfig::from_json("{}").is_err());
    }

    #[test]
    fn cycle_conversion_at_1ghz_is_1000ps() {
        let c = NpuConfig::table1();
        assert_eq!(c.cycles_to_ps(1), 1000);
        assert_eq!(c.cycles_to_ps(1_000_000), 1_000_000_000);
    }

    #[test]
    fn bytes_per_cycle_at_1ghz() {
        let c = NpuConfig::table1();
        assert!((c.bytes_per_cycle() - 936.0).abs() < 1e-9);
    }
}
