//! PIM hardware configuration (the paper's Table I, right column).

use serde::{Deserialize, Serialize};

use crate::DramTiming;

/// Hardware parameters of one PIM device.
///
/// Defaults reproduce the paper's Table I: 4 banks per bank group, 32 banks
/// per channel at 1 GHz, 32 GB capacity, 1 TB/s aggregate internal
/// bandwidth — the same PIM specification NeuPIMs uses.
///
/// # Examples
///
/// ```
/// use llmss_pim::PimConfig;
///
/// let cfg = PimConfig::table1();
/// assert_eq!(cfg.total_banks(), 512);
/// assert!((cfg.internal_bytes_per_cycle() - 1000.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PimConfig {
    /// Configuration name.
    pub name: String,
    /// Banks per bank group.
    pub banks_per_bankgroup: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Number of channels.
    pub channels: usize,
    /// Core/DRAM clock in GHz.
    pub freq_ghz: f64,
    /// Memory capacity in GiB.
    pub mem_capacity_gib: f64,
    /// Aggregate internal (in-memory) bandwidth in GB/s.
    pub internal_bw_gbps: f64,
    /// MAC lanes per bank (elements per cycle each bank can accumulate).
    pub macs_per_bank: usize,
    /// Broadcast bus width for distributing input vectors, bytes/cycle.
    pub broadcast_bytes_per_cycle: usize,
    /// DRAM timing parameters.
    pub timing: DramTiming,
}

impl PimConfig {
    /// The paper's Table I PIM configuration.
    pub fn table1() -> Self {
        Self {
            name: "table1-pim".to_owned(),
            banks_per_bankgroup: 4,
            banks_per_channel: 32,
            channels: 16,
            freq_ghz: 1.0,
            mem_capacity_gib: 32.0,
            internal_bw_gbps: 1000.0,
            macs_per_bank: 16,
            broadcast_bytes_per_cycle: 256,
            timing: DramTiming::ddr_1ghz(),
        }
    }

    /// Total banks across all channels.
    pub fn total_banks(&self) -> usize {
        self.banks_per_channel * self.channels
    }

    /// Bank groups per channel.
    pub fn bankgroups_per_channel(&self) -> usize {
        self.banks_per_channel / self.banks_per_bankgroup.max(1)
    }

    /// Aggregate internal bandwidth in bytes per core cycle.
    pub fn internal_bytes_per_cycle(&self) -> f64 {
        self.internal_bw_gbps * 1e9 / (self.freq_ghz * 1e9)
    }

    /// Aggregate MAC throughput in elements per cycle.
    pub fn macs_per_cycle(&self) -> u64 {
        (self.macs_per_bank * self.total_banks()) as u64
    }

    /// Picoseconds per core cycle.
    pub fn ps_per_cycle(&self) -> f64 {
        1e3 / self.freq_ghz
    }

    /// Converts a cycle count to picoseconds.
    pub fn cycles_to_ps(&self, cycles: u64) -> u64 {
        (cycles as f64 * self.ps_per_cycle()).round() as u64
    }

    /// Parses a configuration from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error string if the JSON is malformed or invalid.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let cfg: Self = serde_json::from_str(json).map_err(|e| e.to_string())?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Serializes the configuration to JSON.
    pub fn to_json(&self) -> String {
        // llmss-lint: allow(p001, reason = "serializing to an in-memory String cannot fail")
        serde_json::to_string_pretty(self).expect("config serialization is infallible")
    }

    /// Checks structural validity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.banks_per_bankgroup == 0 || self.banks_per_channel == 0 || self.channels == 0 {
            return Err("bank/channel organization must be non-zero".into());
        }
        if !self.banks_per_channel.is_multiple_of(self.banks_per_bankgroup) {
            return Err("banks per channel must be a multiple of banks per bank group".into());
        }
        if self.freq_ghz <= 0.0 || self.internal_bw_gbps <= 0.0 {
            return Err("clock and bandwidth must be positive".into());
        }
        if self.macs_per_bank == 0 || self.broadcast_bytes_per_cycle == 0 {
            return Err("compute and broadcast widths must be non-zero".into());
        }
        self.timing.validate()
    }
}

impl Default for PimConfig {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = PimConfig::table1();
        assert_eq!(c.banks_per_bankgroup, 4);
        assert_eq!(c.banks_per_channel, 32);
        assert_eq!(c.freq_ghz, 1.0);
        assert_eq!(c.mem_capacity_gib, 32.0);
        assert_eq!(c.internal_bw_gbps, 1000.0);
    }

    #[test]
    fn bank_organization_derives() {
        let c = PimConfig::table1();
        assert_eq!(c.total_banks(), 512);
        assert_eq!(c.bankgroups_per_channel(), 8);
    }

    #[test]
    fn json_round_trip() {
        let c = PimConfig::table1();
        assert_eq!(PimConfig::from_json(&c.to_json()).unwrap(), c);
    }

    #[test]
    fn invalid_organization_rejected() {
        let mut c = PimConfig::table1();
        c.banks_per_bankgroup = 3;
        assert!(c.validate().is_err());
        c = PimConfig::table1();
        c.channels = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn mac_throughput_exceeds_stream_rate() {
        // The design premise: in-bank compute keeps up with internal reads.
        let c = PimConfig::table1();
        let stream_elems_per_cycle = c.internal_bytes_per_cycle() / 2.0;
        assert!(c.macs_per_cycle() as f64 > stream_elems_per_cycle);
    }
}
