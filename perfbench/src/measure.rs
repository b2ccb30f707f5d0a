//! One measured repetition: scenario text → built simulator → drained →
//! finalized → artifacts (and telemetry exports) written.
//!
//! Every repetition times the same phases with coarse spans. A traced
//! repetition also times each `Simulate::step` into a histogram and joins
//! the spans with the counters the report exposes; end-to-end metrics
//! come from untraced repetitions only.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use llmss_core::{
    chrome_trace, filter_events, timeline_tsv, MemorySink, ReportOutput, Simulate, Telemetry,
};
use llmss_scenario::Scenario;
use llmss_sched::Request;

use crate::check::{gate, summary_json, Outcome};
use crate::layers::{self, LayerValues};
use crate::sys::status_mb;
use crate::trace::{Histogram, Spans};
use crate::workload::Workload;

/// A workload's inputs for one seed, made before anything is timed.
#[derive(Debug)]
pub struct Prepared {
    pub workload: Workload,
    pub text: String,
    /// The requests the scenario offers, indexed by id.
    pub offered: Vec<Request>,
    /// Prefix of the artifacts each repetition writes.
    pub out_prefix: String,
}

impl Prepared {
    /// Writes the workload's inputs under `dir` and materializes its
    /// trace once, for the correctness gate.
    ///
    /// # Errors
    ///
    /// Fails when inputs cannot be written or the scenario is invalid.
    pub fn new(workload: Workload, seed: u64, dir: &Path) -> Result<Self, String> {
        let trace_path = dir.join(format!("{}-{seed}-trace.tsv", workload.name()));
        let trace_path = trace_path.to_str().ok_or("the data directory is not UTF-8")?;
        workload.write_inputs(seed, trace_path)?;
        let text = workload.scenario_text(seed, trace_path);
        let offered = Scenario::from_toml(&text)
            .and_then(|s| s.trace())
            .map_err(|e| format!("{}: {e}", workload.name()))?;
        if offered.iter().enumerate().any(|(i, r)| r.id != i as u64) {
            return Err(format!("{}: request ids are not 0..n", workload.name()));
        }
        let out_prefix = dir.join(workload.name()).to_str().map(str::to_owned);
        Ok(Self {
            workload,
            text,
            offered,
            out_prefix: out_prefix.ok_or("the data directory is not UTF-8")?,
        })
    }
}

/// The host-time phases of one repetition, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub parse: f64,
    pub build: f64,
    pub step: f64,
    pub finalize: f64,
    pub render: f64,
    pub export: f64,
}

impl Phases {
    /// Scenario text to a built simulator.
    pub fn setup(&self) -> f64 {
        self.parse + self.build
    }

    /// Scenario text to the written artifacts.
    pub fn wall(&self) -> f64 {
        self.setup() + self.step + self.finalize + self.render + self.export
    }
}

/// The result of one repetition.
#[derive(Debug)]
pub struct Rep {
    pub phases: Phases,
    /// Replica iterations simulated.
    pub iterations: u64,
    /// The gate's verdict on this repetition.
    pub outcome: Result<Outcome, String>,
    /// Per-layer values, for traced repetitions.
    pub layers: Option<LayerValues>,
    /// The repetition's spans, for traced repetitions.
    pub spans: Option<Spans>,
}

impl Rep {
    pub fn iters_per_s(&self) -> f64 {
        self.iterations as f64 / self.phases.step
    }
}

fn write(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("write {path}: {e}"))
}

/// Runs one repetition; `traced` adds the per-step histogram and the
/// per-layer joins.
///
/// # Errors
///
/// Fails on scenario or I/O errors; a run that completes but breaks the
/// correctness gate reports that in [`Rep::outcome`] instead.
pub fn run_once(prep: &Prepared, traced: bool) -> Result<Rep, String> {
    let mut spans = Spans::new();
    let mut phases = Phases::default();
    let root = spans.open("run", None);

    let span = spans.open("scenario.parse", Some(root));
    let scenario = Scenario::from_toml(&prep.text).map_err(|e| e.to_string())?;
    spans.close(span);
    let span = spans.open("scenario.build", Some(root));
    let mut sim = scenario.build().map_err(|e| e.to_string())?;
    let sink = prep.workload.telemetry().then(|| {
        let sink = Arc::new(Mutex::new(MemorySink::new()));
        sim.set_telemetry(Telemetry::new(sink.clone()));
        sink
    });
    spans.close(span);
    phases.parse = spans.seconds("scenario.parse");
    phases.build = spans.seconds("scenario.build");
    let rss_setup_mb = status_mb("VmRSS")?;

    let mut hist = Histogram::new();
    let step_span = spans.open("fleet.step_loop", Some(root));
    if traced {
        loop {
            let t = Instant::now();
            let more = sim.step();
            hist.record(t.elapsed().as_nanos() as u64);
            if !more {
                break;
            }
        }
    } else {
        while sim.step() {}
    }
    spans.close(step_span);
    phases.step = spans.spans[step_span].seconds();
    let rss_run_mb = status_mb("VmRSS")?;

    let span = spans.open("report.finalize", Some(root));
    let report = sim.finalize();
    spans.close(span);
    phases.finalize = spans.spans[span].seconds();

    let span = spans.open("report.render", Some(root));
    let artifacts = report.artifacts();
    for (suffix, content) in &artifacts {
        write(&format!("{}{suffix}", prep.out_prefix), content)?;
    }
    spans.close(span);
    phases.render = spans.spans[span].seconds();

    let mut events = 0usize;
    let mut export_bytes = 0usize;
    if let Some(sink) = sink {
        let spec = scenario.telemetry.clone().ok_or("telemetry workload without a table")?;
        let export = spans.open("telemetry.export", Some(root));
        let captured = sink.lock().map_err(|_| "telemetry sink poisoned")?.take();
        events = captured.len();
        let captured = filter_events(captured, spec.request_filter(), spec.replica_filter());
        let span = spans.open("telemetry.chrome_trace", Some(export));
        let trace = chrome_trace(&captured);
        if let Some(path) = spec.trace_path(&prep.out_prefix) {
            write(&path, &trace)?;
        }
        spans.close(span);
        let span = spans.open("telemetry.timeline_tsv", Some(export));
        let timeline = timeline_tsv(&captured, &spec.timeline_config());
        if let Some(path) = spec.timeline_path(&prep.out_prefix) {
            write(&path, &timeline)?;
        }
        spans.close(span);
        spans.close(export);
        export_bytes = trace.len() + timeline.len();
        phases.export = spans.spans[export].seconds();
    }
    spans.close(root);

    let iterations =
        layers::replica_reports(&report).iter().map(|r| r.iterations.len() as u64).sum();
    let outcome = summary_json(&artifacts).and_then(|s| gate(&report, &s, &prep.offered));
    let layers = traced.then(|| {
        layers::collect(&layers::Inputs {
            report: &report,
            spans: &spans,
            step_span,
            hist: &hist,
            events,
            export_bytes,
            rss_setup_mb,
            rss_run_mb,
        })
    });
    Ok(Rep { phases, iterations, outcome, layers, spans: traced.then_some(spans) })
}

/// Where a run keeps its inputs, artifacts, reference cache and results:
/// next to the benchmark executable, inside the checkout's build tree.
///
/// # Errors
///
/// Fails when the directories cannot be created.
pub fn data_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let dir = exe.parent().ok_or("the executable has no directory")?.join("perfbench-data");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
