//! Cartesian parameter sweeps over scenarios: one base [`Scenario`], a
//! grid of string-keyed axes, one consolidated TSV row per point.
//!
//! A sweep file is a TOML document with two tables:
//!
//! ```toml
//! [scenario]          # the base scenario (same schema as a scenario file)
//! model = "gpt2"
//! npus = 1
//! parallel = "tensor"
//!
//! [sweep]             # each key is a scenario key, each value a list
//! replicas = [1, 2, 4]
//! routing = ["round-robin", "power-of-two"]
//! ```
//!
//! Axes apply through [`Scenario::set`], so a sweep can touch anything a
//! `--set` override can — including `workload.*` and `fleet.*` sub-keys
//! — and a typo fails with [`ScenarioError::UnknownKey`] before anything
//! runs. Rows follow the `simspeed` harness conventions: label columns
//! first, then the metric columns, dashes (never NaN) for undefined
//! percentiles.
//!
//! Two more `[sweep]` amenities:
//!
//! * `metrics = ["ttft_p99", "tpot_p50", ...]` (or the CLI `--metrics`
//!   override) selects which metric columns the TSV emits instead of
//!   always carrying every column — see [`SweepRow::METRICS`].
//! * Grid points run across threads with
//!   [`run_jobs`](Sweep::run_jobs) (`--jobs N`, default = available
//!   cores); each point is an independent deterministic simulation, and
//!   rows keep grid order by point index, so the parallel TSV is
//!   byte-identical to the serial one.

use std::sync::atomic::{AtomicUsize, Ordering};

use llmss_core::PercentileSummary;
use serde::Value;

use crate::codec::{scalar_text, Table};
use crate::{toml, AnyReport, Scenario, ScenarioError};

/// One sweep dimension: a scenario key and the values it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepAxis {
    /// A [`Scenario::set`] key (top-level or `workload.*`).
    pub key: String,
    /// The override values, in grid order.
    pub values: Vec<String>,
}

/// A cartesian sweep: every combination of axis values applied to the
/// base scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The scenario every point starts from.
    pub base: Scenario,
    /// The grid dimensions, outermost first.
    pub axes: Vec<SweepAxis>,
    /// Metric columns the TSV emits (`None` = every column). Names are
    /// validated against [`SweepRow::METRICS`] before anything runs.
    pub metrics: Option<Vec<String>>,
}

/// One grid point: the settings that produced it and the scenario to
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// `(key, value)` pairs, one per axis, in axis order.
    pub settings: Vec<(String, String)>,
    /// The fully overridden scenario.
    pub scenario: Scenario,
}

impl Sweep {
    /// A sweep over `base` with no axes yet (a single point).
    pub fn new(base: Scenario) -> Self {
        Self { base, axes: Vec::new(), metrics: None }
    }

    /// Adds a grid axis.
    pub fn axis(
        mut self,
        key: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        self.axes.push(SweepAxis {
            key: key.into(),
            values: values.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Restricts the TSV to the named metric columns (in the given
    /// order). Validated by [`points`](Self::points)/[`run`](Self::run)
    /// against [`SweepRow::METRICS`].
    pub fn metrics(mut self, names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.metrics = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Parses a sweep document (`[scenario]` base + `[sweep]` grid).
    ///
    /// # Errors
    ///
    /// Returns parse errors, schema violations in the base scenario, or
    /// empty/invalid axes.
    pub fn from_toml(text: &str) -> Result<Self, ScenarioError> {
        let value = toml::parse(text).map_err(|message| ScenarioError::Parse { message })?;
        let Value::Object(fields) = &value else { unreachable!("parse returns objects") };
        let mut base = Scenario::default();
        let mut axes = Vec::new();
        let mut metrics = None;
        for (key, v) in fields {
            match key.as_str() {
                "scenario" => base = Scenario::from_value(v)?,
                "sweep" => (axes, metrics) = parse_sweep_table(v)?,
                other => {
                    return Err(ScenarioError::UnknownKey { key: other.into() });
                }
            }
        }
        Ok(Self { base, axes, metrics })
    }

    /// Loads a sweep file from disk.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] when the file cannot be read, plus
    /// everything [`from_toml`](Self::from_toml) returns.
    pub fn from_path(path: &str) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Io { path: path.into(), message: e.to_string() })?;
        Self::from_toml(&text)
    }

    /// Number of grid points (product of axis lengths; 1 with no axes).
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Whether the grid is degenerate (an axis with no values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes every grid point, applying the axis overrides in
    /// order. Fails fast on the first unknown key or bad value — before
    /// anything runs.
    ///
    /// # Errors
    ///
    /// Rejects an empty grid (an axis with no values) and propagates
    /// [`Scenario::set`] errors with the offending point's settings.
    pub fn points(&self) -> Result<Vec<SweepPoint>, ScenarioError> {
        if self.is_empty() {
            return Err(ScenarioError::InvalidValue {
                field: "sweep".into(),
                message: "an axis has no values — the grid is empty".into(),
            });
        }
        if let Some(metrics) = &self.metrics {
            if metrics.is_empty() {
                return Err(ScenarioError::InvalidValue {
                    field: "sweep.metrics".into(),
                    message: "the metric selection is empty — omit it to emit every column"
                        .into(),
                });
            }
            for name in metrics {
                if !SweepRow::METRICS.contains(&name.as_str()) {
                    return Err(ScenarioError::UnknownValue {
                        field: "sweep.metrics".into(),
                        value: name.clone(),
                        expected: format!("one of {}", SweepRow::METRICS.join(" | ")),
                    });
                }
            }
        }
        let mut points = Vec::with_capacity(self.len());
        let mut odometer = vec![0usize; self.axes.len()];
        loop {
            let mut scenario = self.base.clone();
            let mut settings = Vec::with_capacity(self.axes.len());
            for (axis, &idx) in self.axes.iter().zip(&odometer) {
                let value = &axis.values[idx];
                scenario.set(&axis.key, value)?;
                settings.push((axis.key.clone(), value.clone()));
            }
            points.push(SweepPoint { settings, scenario });
            // Advance the odometer, innermost axis fastest.
            let mut i = self.axes.len();
            loop {
                if i == 0 {
                    return Ok(points);
                }
                i -= 1;
                odometer[i] += 1;
                if odometer[i] < self.axes[i].values.len() {
                    break;
                }
                odometer[i] = 0;
            }
        }
    }

    /// Builds and runs every point serially, collecting one row per
    /// point (equivalent to [`run_jobs(1)`](Self::run_jobs)).
    ///
    /// # Errors
    ///
    /// Fails on the first point that does not validate or build; points
    /// already run are discarded (sweeps are cheap to re-run and a
    /// partial grid is a trap in downstream analysis).
    pub fn run(&self) -> Result<SweepReport, ScenarioError> {
        self.run_jobs(1)
    }

    /// Builds and runs every point across `jobs` worker threads.
    ///
    /// Each grid point is an independent, deterministic simulation, so
    /// the only coordination is an atomic cursor over the point list;
    /// rows are collected by point index, making the report — and its
    /// TSV — byte-identical to a serial [`run`](Self::run) regardless of
    /// scheduling. `jobs` is clamped to the number of points; `0` means
    /// the number of available cores.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run); when several points fail, the error
    /// of the lowest-indexed failing point is reported (deterministic).
    pub fn run_jobs(&self, jobs: usize) -> Result<SweepReport, ScenarioError> {
        let points = self.points()?;
        let axes: Vec<String> = self.axes.iter().map(|a| a.key.clone()).collect();
        let jobs = if jobs == 0 { available_jobs() } else { jobs }.min(points.len()).max(1);
        let run = |point: &SweepPoint| {
            point.scenario.run().map(|r| SweepRow::collect(point.settings.clone(), &r))
        };
        let mut results: Vec<(usize, Result<SweepRow, ScenarioError>)> = if jobs == 1 {
            points.iter().map(run).enumerate().collect()
        } else {
            // Each worker returns the `(index, row)` pairs it ran.
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..jobs)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut ran = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(point) = points.get(i) else { return ran };
                                ran.push((i, run(point)));
                            }
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        results.sort_unstable_by_key(|&(i, _)| i);
        let rows = results.into_iter().map(|(_, row)| row).collect::<Result<_, _>>()?;
        Ok(SweepReport { axes, rows, metrics: self.metrics.clone() })
    }
}

/// The number of worker threads `--jobs 0`/default resolves to.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn parse_sweep_table(
    v: &Value,
) -> Result<(Vec<SweepAxis>, Option<Vec<String>>), ScenarioError> {
    let Value::Object(fields) = v else {
        return Err(ScenarioError::Parse {
            message: format!("[sweep] must be a table of value lists, got {v:?}"),
        });
    };
    let mut axes = Vec::with_capacity(fields.len());
    let mut metrics = None;
    for (key, values) in fields {
        let items = match values {
            Value::Array(items) => items.clone(),
            // A bare scalar is a 1-point axis — handy for pinning.
            other => vec![other.clone()],
        };
        let mut texts = Vec::with_capacity(items.len());
        for item in &items {
            texts.push(scalar_text(item).ok_or_else(|| ScenarioError::Parse {
                message: format!("sweep axis `{key}`: unsupported value {item:?}"),
            })?);
        }
        // `metrics` is the one reserved [sweep] key: a column selection,
        // not a grid axis (it is not a scenario key either, so nothing
        // sweepable is shadowed).
        if key == "metrics" {
            metrics = Some(texts);
        } else {
            axes.push(SweepAxis { key: key.clone(), values: texts });
        }
    }
    Ok((axes, metrics))
}

/// One finished grid point's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// `(key, value)` settings that produced the point.
    pub settings: Vec<(String, String)>,
    /// The serving shape the point ran as.
    pub shape: &'static str,
    /// Requests fully served.
    pub completions: usize,
    /// Simulated makespan in seconds.
    pub makespan_s: f64,
    /// Generation throughput in tokens per simulated second.
    pub gen_tput: f64,
    /// TTFT percentiles (`None` with zero completions).
    pub ttft: Option<PercentileSummary>,
    /// TPOT percentiles.
    pub tpot: Option<PercentileSummary>,
    /// End-to-end latency percentiles.
    pub latency: Option<PercentileSummary>,
    /// Operator-level reuse hit rate in `[0, 1]`.
    pub op_reuse: f64,
    /// Iteration-level reuse hit rate in `[0, 1]`.
    pub iter_reuse: f64,
}

impl SweepRow {
    /// Every selectable metric column, in the canonical TSV order a
    /// selection-free sweep emits. A `metrics` selection picks any
    /// subset in any order (`shape` is selectable like the rest; omit
    /// it to drop the column).
    pub const METRICS: [&'static str; 15] = [
        "shape",
        "completed",
        "makespan_s",
        "gen_tput",
        "ttft_p50",
        "ttft_p95",
        "ttft_p99",
        "tpot_p50",
        "tpot_p95",
        "tpot_p99",
        "lat_p50",
        "lat_p95",
        "lat_p99",
        "op_reuse",
        "iter_reuse",
    ];

    /// One metric's TSV field (dash, never NaN, for undefined
    /// percentiles).
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`METRICS`](Self::METRICS) — selections
    /// are validated before any point runs.
    pub fn metric_value(&self, name: &str) -> String {
        let pct = |summary: Option<PercentileSummary>, pick: fn(&PercentileSummary) -> f64| {
            summary.map_or_else(|| "-".into(), |s| format!("{:.4}", pick(&s)))
        };
        match name {
            "shape" => self.shape.to_owned(),
            "completed" => self.completions.to_string(),
            "makespan_s" => format!("{:.4}", self.makespan_s),
            "gen_tput" => format!("{:.2}", self.gen_tput),
            "ttft_p50" => pct(self.ttft, |s| s.p50_s),
            "ttft_p95" => pct(self.ttft, |s| s.p95_s),
            "ttft_p99" => pct(self.ttft, |s| s.p99_s),
            "tpot_p50" => pct(self.tpot, |s| s.p50_s),
            "tpot_p95" => pct(self.tpot, |s| s.p95_s),
            "tpot_p99" => pct(self.tpot, |s| s.p99_s),
            "lat_p50" => pct(self.latency, |s| s.p50_s),
            "lat_p95" => pct(self.latency, |s| s.p95_s),
            "lat_p99" => pct(self.latency, |s| s.p99_s),
            "op_reuse" => format!("{:.4}", self.op_reuse),
            "iter_reuse" => format!("{:.4}", self.iter_reuse),
            other => unreachable!("unvalidated metric name `{other}`"),
        }
    }

    fn collect(settings: Vec<(String, String)>, report: &AnyReport) -> Self {
        let slo = report.slo();
        let reuse = report.reuse();
        Self {
            settings,
            shape: report.shape(),
            completions: report.total_completions(),
            makespan_s: report.makespan_s(),
            gen_tput: report.generation_throughput(),
            ttft: slo.ttft,
            tpot: slo.tpot,
            latency: slo.latency,
            op_reuse: reuse.hit_rate(),
            iter_reuse: reuse.iteration_hit_rate(),
        }
    }
}

/// The consolidated result of a sweep: one row per grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Axis keys, in column order.
    pub axes: Vec<String>,
    /// One row per point, grid order (innermost axis fastest).
    pub rows: Vec<SweepRow>,
    /// The metric selection the TSV honors (`None` = every column).
    pub metrics: Option<Vec<String>>,
}

impl SweepReport {
    /// The metric columns the TSV emits: the selection, or every column
    /// (`shape` first) without one.
    fn columns(&self) -> Vec<&str> {
        match &self.metrics {
            Some(names) => names.iter().map(String::as_str).collect(),
            None => SweepRow::METRICS.to_vec(),
        }
    }

    /// The consolidated TSV: `point`, one column per axis, then the
    /// selected metric columns (dashes for undefined percentiles, never
    /// NaN).
    pub fn to_tsv(&self) -> String {
        let columns = self.columns();
        let mut out = String::from("point");
        for axis in &self.axes {
            out.push('\t');
            out.push_str(axis);
        }
        for column in &columns {
            out.push('\t');
            out.push_str(column);
        }
        out.push('\n');
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&i.to_string());
            for (_, value) in &row.settings {
                out.push('\t');
                out.push_str(value);
            }
            for column in &columns {
                out.push('\t');
                out.push_str(&row.metric_value(column));
            }
            out.push('\n');
        }
        out
    }

    /// A short human summary of the grid.
    pub fn summary(&self) -> String {
        format!("sweep: {} points over [{}]", self.rows.len(), self.axes.join(", "),)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmss_sched::{Dataset, WorkloadSpec};

    fn base() -> Scenario {
        Scenario::model("gpt2").npus(1).tensor_parallel().workload(WorkloadSpec::Synthetic {
            dataset: Dataset::Alpaca,
            requests: 4,
            rate_per_s: 50.0,
            seed: 11,
        })
    }

    #[test]
    fn cartesian_points_enumerate_in_odometer_order() {
        let sweep = Sweep::new(base())
            .axis("replicas", ["1", "2"])
            .axis("routing", ["round-robin", "sticky"]);
        assert_eq!(sweep.len(), 4);
        let points = sweep.points().unwrap();
        let labels: Vec<String> = points
            .iter()
            .map(|p| p.settings.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>().join("/"))
            .collect();
        assert_eq!(labels, ["1/round-robin", "1/sticky", "2/round-robin", "2/sticky"]);
        assert_eq!(points[2].scenario.replicas, 2);
    }

    #[test]
    fn no_axes_is_one_point() {
        let sweep = Sweep::new(base());
        assert_eq!(sweep.len(), 1);
        let report = sweep.run().unwrap();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].completions, 4);
    }

    #[test]
    fn bad_axis_key_fails_before_running() {
        let sweep = Sweep::new(base()).axis("replcas", ["1"]);
        assert!(matches!(sweep.points(), Err(ScenarioError::UnknownKey { .. })));
    }

    #[test]
    fn empty_axis_is_rejected() {
        let sweep = Sweep::new(base()).axis("replicas", Vec::<String>::new());
        assert!(sweep.is_empty());
        // Both entry points return the typed error — points() must not
        // panic on the empty axis.
        assert!(matches!(sweep.points(), Err(ScenarioError::InvalidValue { .. })));
        assert!(matches!(sweep.run(), Err(ScenarioError::InvalidValue { .. })));
    }

    #[test]
    fn sweep_runs_grid_and_emits_tsv() {
        let report = Sweep::new(base())
            .axis("replicas", ["1", "2"])
            .axis("kv_bucket", ["1", "64"])
            .run()
            .unwrap();
        assert_eq!(report.rows.len(), 4);
        let tsv = report.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 5, "{tsv}");
        assert!(lines[0].starts_with("point\treplicas\tkv_bucket\tshape"));
        assert!(!tsv.contains("NaN"));
        // Every point served the full trace.
        for row in &report.rows {
            assert_eq!(row.completions, 4);
        }
        assert!(report.summary().contains("4 points"));
    }

    #[test]
    fn sweep_file_round_trip() {
        let text = r#"
[scenario]
model = "gpt2"
npus = 1
parallel = "tensor"

[scenario.workload]
kind = "synthetic"
requests = 4
rate = 50.0
seed = 11

[sweep]
replicas = [1, 2]
routing = ["round-robin", "sticky"]
"#;
        let sweep = Sweep::from_toml(text).unwrap();
        assert_eq!(sweep.base.model, "gpt2");
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep.axes[0].key, "replicas");
        assert_eq!(sweep.axes[1].values, ["round-robin", "sticky"]);
        // An unknown top-level table is schema drift.
        assert!(matches!(
            Sweep::from_toml("[scnario]\nmodel = \"gpt2\"\n"),
            Err(ScenarioError::UnknownKey { .. })
        ));
    }
}
