//! The `[telemetry]` scenario table: request-lifecycle tracing and
//! windowed time-series metrics as declarative values.
//!
//! A scenario with a `[telemetry]` table records [`SimEvent`]s during the
//! run and exports them after it finishes:
//!
//! ```toml
//! [telemetry]
//! trace = "auto"        # Chrome-trace JSON ("auto" = {output}-trace.json)
//! timeline = "auto"     # windowed TSV ("auto" = {output}-timeline.tsv)
//! window_ps = 100000000000   # timeline window (100 ms of virtual time)
//! slo_ttft_ms = 500.0   # TTFT attainment threshold
//! slo_tpot_ms = 50.0    # TPOT attainment threshold
//! requests = [0, 1]     # optional request-id filter (empty = all)
//! replicas = [0]        # optional replica filter (empty = all)
//! ```
//!
//! Every scalar is reachable as a `telemetry.*` key through
//! [`Scenario::set`](crate::Scenario::set), so recording is a sweep axis
//! like any other knob. Recording costs nothing when the table is absent:
//! the simulators compile the no-op sink path to nothing.
//!
//! [`SimEvent`]: llmss_core::SimEvent

use llmss_core::TimelineConfig;
use llmss_sched::TimePs;
use serde::{Serialize, Value};

use crate::codec::{parse, parse_opt, scalar_text, Table};
use crate::ScenarioError;

/// The `[telemetry]` table: which exports to produce, the timeline
/// window, SLO thresholds, and optional event filters.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySpec {
    /// Chrome-trace JSON output path; `"auto"` derives
    /// `{output}-trace.json`. `None` disables the trace export.
    pub trace: Option<String>,
    /// Timeline TSV output path; `"auto"` derives
    /// `{output}-timeline.tsv`. `None` disables the timeline export.
    pub timeline: Option<String>,
    /// Timeline window in picoseconds of virtual time.
    pub window_ps: TimePs,
    /// TTFT threshold for the timeline's windowed SLO-attainment column,
    /// in milliseconds.
    pub slo_ttft_ms: f64,
    /// TPOT threshold for the timeline's windowed SLO-attainment column,
    /// in milliseconds.
    pub slo_tpot_ms: f64,
    /// Request-id filter for request-scoped events (empty = keep all).
    pub requests: Vec<u64>,
    /// Replica filter for replica-scoped events (empty = keep all).
    pub replicas: Vec<usize>,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        let defaults = TimelineConfig::default();
        Self {
            trace: None,
            timeline: None,
            window_ps: defaults.window_ps,
            slo_ttft_ms: defaults.slo_ttft_ms,
            slo_tpot_ms: defaults.slo_tpot_ms,
            requests: Vec::new(),
            replicas: Vec::new(),
        }
    }
}

impl TelemetrySpec {
    /// A spec exporting both artifacts at the derived (`auto`) paths.
    pub fn auto() -> Self {
        Self { trace: Some("auto".into()), timeline: Some("auto".into()), ..Self::default() }
    }

    /// Whether the run should record events at all.
    pub fn enabled(&self) -> bool {
        self.trace.is_some() || self.timeline.is_some()
    }

    /// The trace output path under the run's output prefix (`None` when
    /// the trace export is off).
    pub fn trace_path(&self, output: &str) -> Option<String> {
        self.trace.as_ref().map(|p| resolve(p, output, "-trace.json"))
    }

    /// The timeline output path under the run's output prefix (`None`
    /// when the timeline export is off).
    pub fn timeline_path(&self, output: &str) -> Option<String> {
        self.timeline.as_ref().map(|p| resolve(p, output, "-timeline.tsv"))
    }

    /// The timeline exporter's configuration.
    pub fn timeline_config(&self) -> TimelineConfig {
        TimelineConfig {
            window_ps: self.window_ps,
            slo_ttft_ms: self.slo_ttft_ms,
            slo_tpot_ms: self.slo_tpot_ms,
        }
    }

    /// The request filter as the exporters expect it (`None` = keep all).
    pub fn request_filter(&self) -> Option<&[u64]> {
        if self.requests.is_empty() {
            None
        } else {
            Some(&self.requests)
        }
    }

    /// The replica filter as the exporters expect it (`None` = keep all).
    pub fn replica_filter(&self) -> Option<&[usize]> {
        if self.replicas.is_empty() {
            None
        } else {
            Some(&self.replicas)
        }
    }

    /// Checks the table's own constraints.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed
    /// [`ScenarioError`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let invalid = |field: &str, message: String| {
            Err(ScenarioError::InvalidValue { field: field.into(), message })
        };
        if self.window_ps == 0 {
            return invalid(
                "telemetry.window_ps",
                "the timeline window must be positive".into(),
            );
        }
        for (field, value) in [
            ("telemetry.slo_ttft_ms", self.slo_ttft_ms),
            ("telemetry.slo_tpot_ms", self.slo_tpot_ms),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return invalid(
                    field,
                    format!("an SLO threshold must be positive, got {value}"),
                );
            }
        }
        Ok(())
    }

    /// Renders the table as a value tree in canonical key order.
    pub(crate) fn to_value(&self) -> Value {
        Value::Object(vec![
            ("trace".into(), self.trace.to_value()),
            ("timeline".into(), self.timeline.to_value()),
            ("window_ps".into(), Value::Int(i128::from(self.window_ps))),
            ("slo_ttft_ms".into(), Value::Float(self.slo_ttft_ms)),
            ("slo_tpot_ms".into(), Value::Float(self.slo_tpot_ms)),
            ("requests".into(), self.requests.to_value()),
            ("replicas".into(), self.replicas.to_value()),
        ])
    }
}

/// The `telemetry.*` surface of [`Scenario::set`](crate::Scenario::set)
/// — sweep axes and `--set`. The filter lists parse from comma-separated
/// ids; a file may spell them as arrays.
impl Table for TelemetrySpec {
    const PATH: &'static str = "telemetry";

    fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        fn parse_list<T: std::str::FromStr>(
            key: &str,
            value: &str,
        ) -> Result<Vec<T>, ScenarioError>
        where
            T::Err: std::fmt::Display,
        {
            if value == "none" || value.is_empty() {
                return Ok(Vec::new());
            }
            value.split(',').map(|item| parse("telemetry", key, item.trim())).collect()
        }
        let path = Self::PATH;
        match key {
            "trace" => self.trace = parse_opt(path, key, value)?,
            "timeline" => self.timeline = parse_opt(path, key, value)?,
            "window_ps" => self.window_ps = parse(path, key, value)?,
            "slo_ttft_ms" => self.slo_ttft_ms = parse(path, key, value)?,
            "slo_tpot_ms" => self.slo_tpot_ms = parse(path, key, value)?,
            "requests" => self.requests = parse_list(key, value)?,
            "replicas" => self.replicas = parse_list(key, value)?,
            other => return Err(ScenarioError::UnknownKey { key: format!("{path}.{other}") }),
        }
        Ok(())
    }

    /// A filter array reads as the comma-separated ids `--set` takes.
    fn read(&mut self, key: &str, value: &Value) -> Option<Result<(), ScenarioError>> {
        let ("requests" | "replicas", Value::Array(items)) = (key, value) else { return None };
        let ids = items.iter().map(scalar_text).collect::<Option<Vec<_>>>();
        Some(match ids {
            Some(ids) => self.set(key, &ids.join(",")),
            None => Err(ScenarioError::UnknownValue {
                field: format!("telemetry.{key}"),
                value: format!("{items:?}"),
                expected: "an array of non-negative integers".into(),
            }),
        })
    }
}

fn resolve(path: &str, output: &str, suffix: &str) -> String {
    if path == "auto" {
        format!("{output}{suffix}")
    } else {
        path.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip_is_lossless() {
        let spec = TelemetrySpec {
            trace: Some("auto".into()),
            timeline: Some("out/tl.tsv".into()),
            window_ps: 50_000_000_000,
            slo_ttft_ms: 250.0,
            slo_tpot_ms: 40.0,
            requests: vec![1, 2, 3],
            replicas: vec![0],
        };
        let back = TelemetrySpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back, spec);
        let off = TelemetrySpec::default();
        assert_eq!(TelemetrySpec::from_value(&off.to_value()).unwrap(), off);
        assert!(!off.enabled());
    }

    #[test]
    fn auto_paths_derive_from_the_output_prefix() {
        let spec = TelemetrySpec::auto();
        assert_eq!(spec.trace_path("out/run"), Some("out/run-trace.json".into()));
        assert_eq!(spec.timeline_path("out/run"), Some("out/run-timeline.tsv".into()));
        let pinned = TelemetrySpec { trace: Some("t.json".into()), ..TelemetrySpec::default() };
        assert_eq!(pinned.trace_path("out/run"), Some("t.json".into()));
        assert_eq!(pinned.timeline_path("out/run"), None);
    }

    #[test]
    fn filters_parse_from_comma_lists() {
        let mut spec = TelemetrySpec::default();
        spec.set("requests", "3, 1,2").unwrap();
        assert_eq!(spec.requests, vec![3, 1, 2]);
        spec.set("requests", "none").unwrap();
        assert!(spec.request_filter().is_none());
        assert!(spec.set("requests", "1,x").is_err());
        assert!(matches!(spec.set("windw_ps", "1"), Err(ScenarioError::UnknownKey { .. })));
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        let mut spec = TelemetrySpec::auto();
        assert!(spec.validate().is_ok());
        spec.window_ps = 0;
        assert!(spec.validate().is_err());
        spec.window_ps = 1;
        spec.slo_ttft_ms = -1.0;
        assert!(spec.validate().is_err());
    }
}
