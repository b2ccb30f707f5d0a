//! The `[chaos]` scenario table: deterministic fault injection as
//! declarative values.
//!
//! A scenario with a `[chaos]` table arms the fleet engine's chaos
//! subsystem: explicit replica/link fault windows, seeded rate-based
//! crash injection, and the retry policy for requests a fault knocks
//! out:
//!
//! ```toml
//! [chaos]
//! seed = 7                  # stream for rate-based injection
//! crash_rate_per_s = 0.0    # Poisson crashes per replica per virtual second
//! mttr_ms = 10.0            # recovery time for rate-injected crashes
//! horizon_ms = 100.0        # injection horizon for rate-based crashes
//! max_retries = 3           # retry budget per knocked-out request
//! retry_backoff_ms = 1.0    # first retry backoff (virtual time)
//! retry_backoff_mult = 2.0  # geometric backoff growth
//!
//! [[chaos.replica_fault]]   # explicit fault windows
//! replica = 1
//! kind = "crash"            # crash | hang | drain
//! at_ms = 20.0
//! recover_ms = 60.0         # omit to stay down for the rest of the run
//!
//! [[chaos.link_fault]]
//! link = 0
//! at_ms = 10.0
//! recover_ms = 30.0
//! degrade_to_gbps = 8.0     # 0.0 = full partition (requires recover_ms)
//! ```
//!
//! Every scalar is reachable as a `chaos.*` key through
//! [`Scenario::set`](crate::Scenario::set), so fault intensity is a sweep
//! axis like any other knob. An absent table (or one that injects
//! nothing) leaves every report and trace byte-identical to a chaos-free
//! run; with faults, the same seed and table reproduce the same run
//! byte-for-byte.

use llmss_core::{ChaosSchedule, LinkFault, ReplicaFault, ReplicaFaultKind, RetryPolicy};
use llmss_sched::EVENT_HORIZON_PS;
use serde::{Serialize, Value};

use crate::codec::{parse, parse_opt, read_entries, Table};
use crate::{check_horizon, check_link_gbps, ms_to_ps, ScenarioError};

/// One `[[chaos.replica_fault]]` entry: an explicit replica fault
/// window in scenario (millisecond) units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaFaultSpec {
    /// The replica the fault hits.
    pub replica: usize,
    /// What the fault does while the replica is down.
    pub kind: ReplicaFaultKind,
    /// When the fault strikes, in virtual milliseconds.
    pub at_ms: f64,
    /// When the replica recovers; `None` leaves it down for the rest of
    /// the run (invalid for a hang).
    pub recover_ms: Option<f64>,
}

impl Default for ReplicaFaultSpec {
    fn default() -> Self {
        Self { replica: 0, kind: ReplicaFaultKind::Crash, at_ms: 0.0, recover_ms: None }
    }
}

impl ReplicaFaultSpec {
    fn to_value(self) -> Value {
        Value::Object(vec![
            ("replica".into(), Value::Int(self.replica as i128)),
            ("kind".into(), Value::Str(self.kind.to_string())),
            ("at_ms".into(), Value::Float(self.at_ms)),
            ("recover_ms".into(), self.recover_ms.to_value()),
        ])
    }
}

impl Table for ReplicaFaultSpec {
    const PATH: &'static str = "chaos.replica_fault";

    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let path = Self::PATH;
        match key {
            "replica" => self.replica = parse(path, key, value)?,
            "kind" => self.kind = parse(path, key, value)?,
            "at_ms" => self.at_ms = parse(path, key, value)?,
            "recover_ms" => self.recover_ms = parse_opt(path, key, value)?,
            other => return Err(ScenarioError::UnknownKey { key: format!("{path}.{other}") }),
        }
        Ok(())
    }
}

/// One `[[chaos.link_fault]]` entry: an explicit fabric-link
/// degradation window in scenario (millisecond) units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultSpec {
    /// The fabric link index the fault hits.
    pub link: usize,
    /// When the degradation starts, in virtual milliseconds.
    pub at_ms: f64,
    /// When the link's original bandwidth is restored; `None` leaves it
    /// degraded for the rest of the run (invalid for a full partition).
    pub recover_ms: Option<f64>,
    /// Bandwidth while degraded, in GB/s. Zero partitions the link
    /// outright, which requires `recover_ms`.
    pub degrade_to_gbps: f64,
}

impl Default for LinkFaultSpec {
    fn default() -> Self {
        Self { link: 0, at_ms: 0.0, recover_ms: None, degrade_to_gbps: 0.0 }
    }
}

impl LinkFaultSpec {
    fn to_value(self) -> Value {
        Value::Object(vec![
            ("link".into(), Value::Int(self.link as i128)),
            ("at_ms".into(), Value::Float(self.at_ms)),
            ("recover_ms".into(), self.recover_ms.to_value()),
            ("degrade_to_gbps".into(), Value::Float(self.degrade_to_gbps)),
        ])
    }
}

impl Table for LinkFaultSpec {
    const PATH: &'static str = "chaos.link_fault";

    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let path = Self::PATH;
        match key {
            "link" => self.link = parse(path, key, value)?,
            "at_ms" => self.at_ms = parse(path, key, value)?,
            "recover_ms" => self.recover_ms = parse_opt(path, key, value)?,
            "degrade_to_gbps" => self.degrade_to_gbps = parse(path, key, value)?,
            other => return Err(ScenarioError::UnknownKey { key: format!("{path}.{other}") }),
        }
        Ok(())
    }
}

/// The `[chaos]` table: explicit fault windows, seeded rate-based crash
/// injection, and the retry policy for knocked-out requests.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Stream seed for rate-based injection (same seed, same faults).
    pub seed: u64,
    /// Poisson crash rate per replica, in faults per virtual second.
    /// Zero disables rate-based injection.
    pub crash_rate_per_s: f64,
    /// Mean time to recovery for rate-injected crashes, in milliseconds.
    pub mttr_ms: f64,
    /// Injection horizon for rate-based crashes, in milliseconds.
    pub horizon_ms: f64,
    /// Retry budget per knocked-out request before it is abandoned.
    pub max_retries: u32,
    /// Backoff before the first retry, in virtual milliseconds.
    pub retry_backoff_ms: f64,
    /// Multiplier applied to the backoff on each further retry.
    pub retry_backoff_mult: f64,
    /// Explicit replica fault windows (`[[chaos.replica_fault]]`).
    pub replica_faults: Vec<ReplicaFaultSpec>,
    /// Explicit link fault windows (`[[chaos.link_fault]]`).
    pub link_faults: Vec<LinkFaultSpec>,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        let retry = RetryPolicy::default();
        Self {
            seed: 0,
            crash_rate_per_s: 0.0,
            mttr_ms: 10.0,
            horizon_ms: 100.0,
            max_retries: retry.max_retries,
            retry_backoff_ms: retry.backoff_ps as f64 / 1e9,
            retry_backoff_mult: retry.backoff_multiplier,
            replica_faults: Vec::new(),
            link_faults: Vec::new(),
        }
    }
}

impl ChaosSpec {
    /// Whether the table injects anything at all. A `[chaos]` table that
    /// injects nothing leaves the run byte-identical to a chaos-free
    /// one, so the engine is only armed when this is true.
    pub fn enabled(&self) -> bool {
        !self.replica_faults.is_empty()
            || !self.link_faults.is_empty()
            || self.crash_rate_per_s > 0.0
    }

    /// Checks the table's own constraints.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed
    /// [`ScenarioError`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let invalid = |field: String, message: String| {
            Err(ScenarioError::InvalidValue { field, message })
        };
        if !self.crash_rate_per_s.is_finite() || self.crash_rate_per_s < 0.0 {
            return invalid(
                "chaos.crash_rate_per_s".into(),
                format!("the crash rate must be non-negative, got {}", self.crash_rate_per_s),
            );
        }
        for (field, value) in [
            ("chaos.mttr_ms", self.mttr_ms),
            ("chaos.horizon_ms", self.horizon_ms),
            ("chaos.retry_backoff_ms", self.retry_backoff_ms),
        ] {
            if !value.is_finite() || ms_to_ps(value) == 0 {
                return invalid(field.into(), format!("must be at least 1 ps, got {value} ms"));
            }
            check_horizon(field, value * 1e9)?;
        }
        if !self.retry_backoff_mult.is_finite() || self.retry_backoff_mult < 1.0 {
            return invalid(
                "chaos.retry_backoff_mult".into(),
                format!(
                    "the backoff multiplier must be at least 1, got {}",
                    self.retry_backoff_mult
                ),
            );
        }
        // The last retry waits longest: backoff × mult^(max_retries − 1).
        let last_backoff_ps = self.retry().backoff_for(self.max_retries);
        if last_backoff_ps > EVENT_HORIZON_PS {
            return invalid(
                "chaos.retry_backoff_ms".into(),
                format!(
                    "retry {} of {} ms x {}^{} waits past the event horizon",
                    self.max_retries,
                    self.retry_backoff_ms,
                    self.retry_backoff_mult,
                    self.max_retries.saturating_sub(1)
                ),
            );
        }
        for (i, fault) in self.replica_faults.iter().enumerate() {
            let field = |name: &str| format!("chaos.replica_fault[{i}].{name}");
            if !fault.at_ms.is_finite() || fault.at_ms < 0.0 {
                return invalid(
                    field("at_ms"),
                    format!("a fault time must be non-negative, got {}", fault.at_ms),
                );
            }
            match fault.recover_ms {
                Some(recover)
                    if !recover.is_finite() || ms_to_ps(recover) <= ms_to_ps(fault.at_ms) =>
                {
                    return invalid(
                        field("recover_ms"),
                        format!(
                            "recovery at {recover} ms must land after the fault at {} ms",
                            fault.at_ms
                        ),
                    );
                }
                None if fault.kind == ReplicaFaultKind::Hang => {
                    return invalid(
                        field("recover_ms"),
                        "a hang without a recovery time stalls forever".into(),
                    );
                }
                _ => {}
            }
        }
        for (i, fault) in self.link_faults.iter().enumerate() {
            let field = |name: &str| format!("chaos.link_fault[{i}].{name}");
            if !fault.at_ms.is_finite() || fault.at_ms < 0.0 {
                return invalid(
                    field("at_ms"),
                    format!("a fault time must be non-negative, got {}", fault.at_ms),
                );
            }
            // Zero is a full partition; any other bandwidth is a link's.
            if fault.degrade_to_gbps != 0.0 {
                check_link_gbps(&field("degrade_to_gbps"), fault.degrade_to_gbps)?;
            }
            match fault.recover_ms {
                Some(recover)
                    if !recover.is_finite() || ms_to_ps(recover) <= ms_to_ps(fault.at_ms) =>
                {
                    return invalid(
                        field("recover_ms"),
                        format!(
                            "recovery at {recover} ms must land after the fault at {} ms",
                            fault.at_ms
                        ),
                    );
                }
                None if fault.degrade_to_gbps == 0.0 => {
                    return invalid(
                        field("recover_ms"),
                        "a full partition without a recovery time stalls forever".into(),
                    );
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Compiles the table into the engine's [`ChaosSchedule`]: seeded
    /// rate-based crashes over `replicas`, then the explicit fault
    /// windows, all converted to picoseconds.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidValue`] for an explicit fault
    /// that targets a replica or link the deployment does not have.
    pub fn build(&self, replicas: usize, links: usize) -> Result<ChaosSchedule, ScenarioError> {
        let mut schedule = if self.crash_rate_per_s > 0.0 {
            ChaosSchedule::seeded(
                self.seed,
                self.crash_rate_per_s,
                ms_to_ps(self.mttr_ms),
                ms_to_ps(self.horizon_ms),
                replicas,
            )
        } else {
            ChaosSchedule::new()
        };
        for (i, fault) in self.replica_faults.iter().enumerate() {
            if fault.replica >= replicas {
                return Err(ScenarioError::InvalidValue {
                    field: format!("chaos.replica_fault[{i}].replica"),
                    message: format!(
                        "replica {} is out of range for a fleet that can reach {replicas} replicas",
                        fault.replica
                    ),
                });
            }
            schedule = schedule.replica_fault(ReplicaFault {
                replica: fault.replica,
                kind: fault.kind,
                at_ps: ms_to_ps(fault.at_ms),
                recover_ps: fault.recover_ms.map(ms_to_ps),
            });
        }
        for (i, fault) in self.link_faults.iter().enumerate() {
            if fault.link >= links {
                return Err(ScenarioError::InvalidValue {
                    field: format!("chaos.link_fault[{i}].link"),
                    message: format!(
                        "link {} is out of range for a fabric with {links} link(s)",
                        fault.link
                    ),
                });
            }
            schedule = schedule.link_fault(LinkFault {
                link: fault.link,
                at_ps: ms_to_ps(fault.at_ms),
                recover_ps: fault.recover_ms.map(ms_to_ps),
                degrade_to_gbps: fault.degrade_to_gbps,
            });
        }
        Ok(schedule.retry(self.retry()))
    }

    /// The retry policy in engine (picosecond) units.
    fn retry(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: self.max_retries,
            backoff_ps: ms_to_ps(self.retry_backoff_ms),
            backoff_multiplier: self.retry_backoff_mult,
        }
    }

    /// Renders the table as a value tree in canonical key order.
    pub(crate) fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seed".into(), Value::Int(i128::from(self.seed))),
            ("crash_rate_per_s".into(), Value::Float(self.crash_rate_per_s)),
            ("mttr_ms".into(), Value::Float(self.mttr_ms)),
            ("horizon_ms".into(), Value::Float(self.horizon_ms)),
            ("max_retries".into(), Value::Int(i128::from(self.max_retries))),
            ("retry_backoff_ms".into(), Value::Float(self.retry_backoff_ms)),
            ("retry_backoff_mult".into(), Value::Float(self.retry_backoff_mult)),
            (
                "replica_fault".into(),
                Value::Array(self.replica_faults.iter().map(|f| f.to_value()).collect()),
            ),
            (
                "link_fault".into(),
                Value::Array(self.link_faults.iter().map(|f| f.to_value()).collect()),
            ),
        ])
    }
}

/// The `chaos.*` surface of [`Scenario::set`](crate::Scenario::set) —
/// sweep axes and `--set`. The fault lists are not string-addressable; a
/// file spells them as `[[chaos.replica_fault]]`/`[[chaos.link_fault]]`
/// entries.
impl Table for ChaosSpec {
    const PATH: &'static str = "chaos";

    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let path = Self::PATH;
        match key {
            "seed" => self.seed = parse(path, key, value)?,
            "crash_rate_per_s" => self.crash_rate_per_s = parse(path, key, value)?,
            "mttr_ms" => self.mttr_ms = parse(path, key, value)?,
            "horizon_ms" => self.horizon_ms = parse(path, key, value)?,
            "max_retries" => self.max_retries = parse(path, key, value)?,
            "retry_backoff_ms" => self.retry_backoff_ms = parse(path, key, value)?,
            "retry_backoff_mult" => self.retry_backoff_mult = parse(path, key, value)?,
            other => return Err(ScenarioError::UnknownKey { key: format!("{path}.{other}") }),
        }
        Ok(())
    }

    fn read(&mut self, key: &str, value: &Value) -> Option<Result<(), ScenarioError>> {
        match key {
            "replica_fault" => Some(read_entries(value).map(|f| self.replica_faults = f)),
            "link_fault" => Some(read_entries(value).map(|f| self.link_faults = f)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(replica: usize, at_ms: f64, recover_ms: Option<f64>) -> ReplicaFaultSpec {
        ReplicaFaultSpec { replica, kind: ReplicaFaultKind::Crash, at_ms, recover_ms }
    }

    #[test]
    fn value_round_trip_is_lossless() {
        let spec = ChaosSpec {
            seed: 42,
            crash_rate_per_s: 1.5,
            mttr_ms: 8.0,
            horizon_ms: 60.0,
            max_retries: 5,
            retry_backoff_ms: 0.5,
            retry_backoff_mult: 1.5,
            replica_faults: vec![
                crash(1, 20.0, Some(60.0)),
                ReplicaFaultSpec {
                    replica: 0,
                    kind: ReplicaFaultKind::Hang,
                    at_ms: 5.0,
                    recover_ms: Some(9.0),
                },
            ],
            link_faults: vec![LinkFaultSpec {
                link: 0,
                at_ms: 10.0,
                recover_ms: Some(30.0),
                degrade_to_gbps: 8.0,
            }],
        };
        let back = ChaosSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back, spec);
        let off = ChaosSpec::default();
        assert_eq!(ChaosSpec::from_value(&off.to_value()).unwrap(), off);
        assert!(!off.enabled());
        assert!(spec.enabled());
    }

    #[test]
    fn scalars_route_through_set() {
        let mut spec = ChaosSpec::default();
        spec.set("crash_rate_per_s", "2.0").unwrap();
        spec.set("seed", "9").unwrap();
        assert_eq!(spec.crash_rate_per_s, 2.0);
        assert_eq!(spec.seed, 9);
        assert!(spec.enabled(), "a positive crash rate arms injection");
        assert!(matches!(spec.set("crash_rate", "1"), Err(ScenarioError::UnknownKey { .. })));
        assert!(spec.set("seed", "banana").is_err());
    }

    #[test]
    fn validate_rejects_degenerate_windows() {
        let ok = ChaosSpec {
            replica_faults: vec![crash(0, 10.0, Some(20.0))],
            ..ChaosSpec::default()
        };
        assert!(ok.validate().is_ok());

        let backwards = ChaosSpec {
            replica_faults: vec![crash(0, 10.0, Some(10.0))],
            ..ChaosSpec::default()
        };
        assert!(backwards.validate().is_err(), "recovery must land after the fault");

        let eternal_hang = ChaosSpec {
            replica_faults: vec![ReplicaFaultSpec {
                kind: ReplicaFaultKind::Hang,
                at_ms: 1.0,
                ..ReplicaFaultSpec::default()
            }],
            ..ChaosSpec::default()
        };
        assert!(eternal_hang.validate().is_err(), "a hang needs a recovery time");

        let eternal_partition = ChaosSpec {
            link_faults: vec![LinkFaultSpec { at_ms: 1.0, ..LinkFaultSpec::default() }],
            ..ChaosSpec::default()
        };
        assert!(eternal_partition.validate().is_err(), "a partition needs a recovery time");

        let negative_rate = ChaosSpec { crash_rate_per_s: -1.0, ..ChaosSpec::default() };
        assert!(negative_rate.validate().is_err());

        // Positive, but below the engine's 1 ps resolution: the seeded
        // schedule would recover each crash the instant it strikes.
        let sub_ps_mttr =
            ChaosSpec { crash_rate_per_s: 5.0, mttr_ms: 1e-10, ..ChaosSpec::default() };
        assert!(matches!(
            sub_ps_mttr.validate(),
            Err(ScenarioError::InvalidValue { field, .. }) if field == "chaos.mttr_ms"
        ));
    }

    #[test]
    fn build_bounds_checks_targets_and_composes_injection() {
        let spec = ChaosSpec {
            crash_rate_per_s: 5.0,
            horizon_ms: 1000.0,
            replica_faults: vec![crash(1, 20.0, Some(60.0))],
            ..ChaosSpec::default()
        };
        let schedule = spec.build(2, 0).unwrap();
        assert!(
            schedule.replica_faults.len() > 1,
            "seeded crashes and the explicit window should both land"
        );
        assert_eq!(schedule.retry, RetryPolicy::default());
        assert!(spec.build(1, 0).is_err(), "replica 1 does not exist in a 1-replica fleet");

        let link = ChaosSpec {
            link_faults: vec![LinkFaultSpec {
                link: 2,
                at_ms: 1.0,
                recover_ms: Some(2.0),
                degrade_to_gbps: 1.0,
            }],
            ..ChaosSpec::default()
        };
        assert!(link.build(4, 1).is_err(), "link 2 does not exist in a 1-link fabric");
        assert!(link.build(4, 3).is_ok());
    }
}
