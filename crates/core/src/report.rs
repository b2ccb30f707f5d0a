//! Results collection: throughput series, latency statistics, and the
//! per-component simulation-time breakdown.
//!
//! Mirrors the artifact's three outputs: standard-output summary,
//! `*-throughput.tsv` (prompt and generation token rates over time), and
//! `*-simulation-time.tsv` (wall-clock per simulator component — the
//! paper's Figure 9 breakdown).

use std::time::Duration;

use llmss_net::TimePs;
use llmss_sched::Completion;
use serde::{Deserialize, Serialize, Value};

use crate::json::obj;
use crate::ReuseStats;

/// Per-iteration record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration index.
    pub index: u64,
    /// Simulated start time.
    pub start_ps: TimePs,
    /// Simulated iteration latency (graph makespan).
    pub latency_ps: TimePs,
    /// Sequences in the batch.
    pub batch_size: usize,
    /// Prompt tokens processed.
    pub prompt_tokens: usize,
    /// Tokens generated.
    pub generated_tokens: usize,
    /// KV evictions this iteration.
    pub evictions: usize,
    /// KV reloads this iteration.
    pub reloads: usize,
    /// Execution-graph operations simulated.
    pub graph_ops: usize,
    /// Network-simulator events processed.
    pub net_events: u64,
    /// Aggregate simulated time in compute operators.
    pub compute_ps: TimePs,
    /// Aggregate simulated time in communication operators.
    pub comm_ps: TimePs,
    /// Aggregate simulated time in host memory transfers.
    pub host_ps: TimePs,
}

/// Wall-clock time spent in each simulator component (Figure 9's stack).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WallBreakdown {
    /// Scheduler (batching, KV management).
    pub scheduler: Duration,
    /// Execution engine stack (compiles + hardware simulation).
    pub engine: Duration,
    /// Graph converter.
    pub converter: Duration,
    /// System/network simulation (ASTRA-sim analog).
    pub network: Duration,
}

impl WallBreakdown {
    /// Total wall-clock across components.
    pub fn total(&self) -> Duration {
        self.scheduler + self.engine + self.converter + self.network
    }

    /// TSV rows matching the artifact's `*-simulation-time.tsv`.
    pub fn to_tsv(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        format!(
            "component\tms\nscheduler\t{:.3}\nexecution_engine\t{:.3}\ngraph_converter\t{:.3}\nastra_sim\t{:.3}\ntotal\t{:.3}\n",
            ms(self.scheduler),
            ms(self.engine),
            ms(self.converter),
            ms(self.network),
            ms(self.total()),
        )
    }
}

/// One bin of the throughput-over-time series (Figure 6's y values).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputBin {
    /// Bin start, seconds of simulated time.
    pub t_s: f64,
    /// Prompt tokens per second in this bin.
    pub prompt_tps: f64,
    /// Generated tokens per second in this bin.
    pub gen_tps: f64,
}

/// p50/p95/p99 summary of one latency metric, in seconds of simulated
/// time — the serving-SLO shape (median, tail, extreme tail).
///
/// Built by [`percentiles_from_ps`], which yields `None` for an empty
/// sample set (a run with zero completions has no percentiles — callers
/// skip the row or print placeholders instead of NaN); used for
/// single-replica metrics via [`SimReport::ttft_percentiles`] and
/// friends, and for fleet-level SLOs by the fleet reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PercentileSummary {
    /// Median (50th percentile).
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
}

impl PercentileSummary {
    /// TSV fragment `p50\tp95\tp99` with values in seconds.
    pub fn to_tsv_fields(&self) -> String {
        format!("{:.4}\t{:.4}\t{:.4}", self.p50_s, self.p95_s, self.p99_s)
    }

    /// TSV fragment for an optional summary: `-` placeholders keep the
    /// columns aligned when the sample set was empty, instead of emitting
    /// NaN into the output.
    pub fn tsv_fields_or_dashes(summary: Option<PercentileSummary>) -> String {
        match summary {
            Some(s) => s.to_tsv_fields(),
            None => "-\t-\t-".to_owned(),
        }
    }

    /// Human-readable rendering of an optional summary (`n/a` when the
    /// sample set was empty).
    pub fn display_or_na(summary: Option<PercentileSummary>) -> String {
        match summary {
            Some(s) => s.to_string(),
            None => "n/a".to_owned(),
        }
    }

    /// JSON object `{p50_s, p95_s, p99_s}` for machine-readable
    /// summaries.
    pub fn json_value(&self) -> Value {
        obj(vec![
            ("p50_s", Value::Float(self.p50_s)),
            ("p95_s", Value::Float(self.p95_s)),
            ("p99_s", Value::Float(self.p99_s)),
        ])
    }

    /// JSON for an optional summary: `null` when the sample set was
    /// empty, mirroring [`Self::tsv_fields_or_dashes`].
    pub fn json_or_null(summary: Option<PercentileSummary>) -> Value {
        summary.map_or(Value::Null, |s| s.json_value())
    }
}

impl std::fmt::Display for PercentileSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50={:.3}s p95={:.3}s p99={:.3}s", self.p50_s, self.p95_s, self.p99_s)
    }
}

/// A completion record that carries the standard serving-SLO signals.
///
/// Implemented by single-replica [`Completion`]s here and by the
/// disaggregated lifecycle records, so [`SloSummary::collect`] can
/// derive one set of percentile metrics for every serving shape instead
/// of each report crate re-plumbing `percentiles_from_ps` by hand.
pub trait SloCompletion {
    /// Time to first token, in picoseconds.
    fn ttft_ps(&self) -> TimePs;
    /// End-to-end request latency, in picoseconds.
    fn latency_ps(&self) -> TimePs;
    /// Mean time per output token after the first, in picoseconds.
    fn tpot_ps(&self) -> f64;
    /// Tokens the request generated (TPOT is undefined at 1).
    fn output_len(&self) -> usize;
}

impl SloCompletion for Completion {
    fn ttft_ps(&self) -> TimePs {
        Completion::ttft_ps(self)
    }

    fn latency_ps(&self) -> TimePs {
        Completion::latency_ps(self)
    }

    fn tpot_ps(&self) -> f64 {
        Completion::tpot_ps(self)
    }

    fn output_len(&self) -> usize {
        self.output_len
    }
}

/// The three serving-SLO percentile summaries every report exposes:
/// TTFT, TPOT, and end-to-end latency (each `None` when its sample set
/// is empty — see [`percentiles_from_ps`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    /// Time to first token.
    pub ttft: Option<PercentileSummary>,
    /// Time per output token (single-token requests excluded).
    pub tpot: Option<PercentileSummary>,
    /// End-to-end request latency.
    pub latency: Option<PercentileSummary>,
}

impl SloSummary {
    /// Derives the summary from any completion stream. This is the one
    /// percentile pipeline shared by single-replica, cluster, and
    /// disaggregated reports.
    pub fn collect<'a, C, I>(completions: I) -> Self
    where
        C: SloCompletion + 'a,
        I: Iterator<Item = &'a C> + Clone,
    {
        Self {
            ttft: Self::ttft_of(completions.clone()),
            tpot: Self::tpot_of(completions.clone()),
            latency: Self::latency_of(completions),
        }
    }

    /// TTFT percentiles alone (for accessors that need one metric
    /// without paying for the other two sorts).
    pub fn ttft_of<'a, C: SloCompletion + 'a>(
        completions: impl Iterator<Item = &'a C>,
    ) -> Option<PercentileSummary> {
        percentiles_from_ps(completions.map(|c| c.ttft_ps() as f64))
    }

    /// TPOT percentiles alone (single-token requests excluded).
    pub fn tpot_of<'a, C: SloCompletion + 'a>(
        completions: impl Iterator<Item = &'a C>,
    ) -> Option<PercentileSummary> {
        percentiles_from_ps(
            completions.filter(|c| c.output_len() > 1).map(SloCompletion::tpot_ps),
        )
    }

    /// End-to-end latency percentiles alone.
    pub fn latency_of<'a, C: SloCompletion + 'a>(
        completions: impl Iterator<Item = &'a C>,
    ) -> Option<PercentileSummary> {
        percentiles_from_ps(completions.map(|c| c.latency_ps() as f64))
    }

    /// JSON object `{ttft, tpot, latency}` with `null` for metrics whose
    /// sample set was empty.
    pub fn json_value(&self) -> Value {
        obj(vec![
            ("ttft", PercentileSummary::json_or_null(self.ttft)),
            ("tpot", PercentileSummary::json_or_null(self.tpot)),
            ("latency", PercentileSummary::json_or_null(self.latency)),
        ])
    }
}

/// A finished simulation's output surface: the one-paragraph summary and
/// the named TSV artifacts the CLI writes.
///
/// Implemented by `SimReport`, `ClusterReport`, and `DisaggReport`, and
/// delegated through the scenario layer's `AnyReport`, so the binary (and
/// any other driver) writes results identically for every serving shape.
pub trait ReportOutput {
    /// One-paragraph human summary (what the CLI prints).
    fn summary(&self) -> String;

    /// `(file-name suffix, TSV content)` pairs, e.g.
    /// `("-throughput.tsv", ...)`. Suffixes are appended to the run's
    /// output prefix.
    fn artifacts(&self) -> Vec<(&'static str, String)>;

    /// Writes every artifact under `prefix` (creating parent directories)
    /// and returns the paths written.
    ///
    /// # Errors
    ///
    /// Propagates the first filesystem error.
    fn write_artifacts(&self, prefix: &str) -> std::io::Result<Vec<String>> {
        if let Some(dir) = std::path::Path::new(prefix).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut paths = Vec::new();
        for (suffix, content) in self.artifacts() {
            let path = format!("{prefix}{suffix}");
            std::fs::write(&path, content)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

impl ReportOutput for SimReport {
    fn summary(&self) -> String {
        SimReport::summary(self)
    }

    fn artifacts(&self) -> Vec<(&'static str, String)> {
        vec![
            ("-throughput.tsv", self.throughput_tsv(1.0)),
            ("-simulation-time.tsv", self.wall.to_tsv()),
            ("-summary.json", self.summary_json()),
        ]
    }
}

/// Nearest-rank percentile over an unsorted sample (`p` in `[0, 1]`);
/// zero for an empty sample. The index rule matches
/// [`SimReport::latency_percentile_s`] so single-run and cluster metrics
/// agree.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let idx = ((values.len() - 1) as f64 * p).round() as usize;
    values[idx]
}

/// Summarizes picosecond samples into p50/p95/p99 seconds, or `None` for
/// an empty sample set (no completions means the metric is undefined —
/// never a zero or NaN masquerading as a measurement).
pub fn percentiles_from_ps(
    values_ps: impl IntoIterator<Item = f64>,
) -> Option<PercentileSummary> {
    let mut v: Vec<f64> = values_ps.into_iter().collect();
    if v.is_empty() {
        return None;
    }
    // One sort would do, but `percentile` re-sorting keeps it
    // self-contained and the samples here are per-request, not per-token.
    Some(PercentileSummary {
        p50_s: percentile(&mut v, 0.50) / 1e12,
        p95_s: percentile(&mut v, 0.95) / 1e12,
        p99_s: percentile(&mut v, 0.99) / 1e12,
    })
}

/// The full result of one serving simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationRecord>,
    /// Per-request completion records.
    pub completions: Vec<Completion>,
    /// Wall-clock breakdown by component.
    pub wall: WallBreakdown,
    /// Reuse-cache statistics.
    pub reuse: ReuseStats,
    /// Total simulated time (scheduler clock at the end).
    pub sim_duration_ps: TimePs,
}

impl SimReport {
    /// Total prompt tokens processed.
    pub fn total_prompt_tokens(&self) -> u64 {
        self.iterations.iter().map(|i| i.prompt_tokens as u64).sum()
    }

    /// Total tokens generated.
    pub fn total_generated_tokens(&self) -> u64 {
        self.iterations.iter().map(|i| i.generated_tokens as u64).sum()
    }

    /// Simulated duration in seconds.
    pub fn sim_duration_s(&self) -> f64 {
        self.sim_duration_ps as f64 / 1e12
    }

    /// Overall generation throughput (tokens/s of simulated time).
    pub fn generation_throughput(&self) -> f64 {
        let s = self.sim_duration_s();
        if s == 0.0 {
            return 0.0;
        }
        self.total_generated_tokens() as f64 / s
    }

    /// Overall prompt throughput (tokens/s of simulated time).
    pub fn prompt_throughput(&self) -> f64 {
        let s = self.sim_duration_s();
        if s == 0.0 {
            return 0.0;
        }
        self.total_prompt_tokens() as f64 / s
    }

    /// Mean end-to-end request latency in seconds.
    pub fn mean_latency_s(&self) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.completions.iter().map(|c| c.latency_ps() as f64).sum();
        sum / self.completions.len() as f64 / 1e12
    }

    /// Latency percentile (e.g. `0.5`, `0.99`) in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn latency_percentile_s(&self, p: f64) -> f64 {
        let mut lat: Vec<f64> =
            self.completions.iter().map(|c| c.latency_ps() as f64).collect();
        percentile(&mut lat, p) / 1e12
    }

    /// The standard SLO percentile summaries (TTFT / TPOT / latency) in
    /// one value, via the shared [`SloSummary`] pipeline.
    pub fn slo(&self) -> SloSummary {
        SloSummary::collect(self.completions.iter())
    }

    /// p50/p95/p99 end-to-end request latency (`None` with zero
    /// completions).
    pub fn latency_percentiles(&self) -> Option<PercentileSummary> {
        SloSummary::latency_of(self.completions.iter())
    }

    /// p50/p95/p99 time to first token (`None` with zero completions).
    pub fn ttft_percentiles(&self) -> Option<PercentileSummary> {
        SloSummary::ttft_of(self.completions.iter())
    }

    /// p50/p95/p99 mean time per output token (requests generating a
    /// single token, whose TPOT is undefined, are excluded; `None` when
    /// no request generated more than one token).
    pub fn tpot_percentiles(&self) -> Option<PercentileSummary> {
        SloSummary::tpot_of(self.completions.iter())
    }

    /// Bins token production over simulated time (Figure 6's series).
    ///
    /// Tokens are attributed to the bin containing their iteration's end.
    ///
    /// # Panics
    ///
    /// Panics if `bin_s` is not strictly positive.
    pub fn throughput_series(&self, bin_s: f64) -> Vec<ThroughputBin> {
        assert!(bin_s > 0.0, "bin width must be positive");
        let end_s = self.sim_duration_s();
        let n_bins = (end_s / bin_s).ceil().max(1.0) as usize;
        let mut prompt = vec![0u64; n_bins];
        let mut gen = vec![0u64; n_bins];
        for it in &self.iterations {
            let t = (it.start_ps + it.latency_ps) as f64 / 1e12;
            let b = ((t / bin_s) as usize).min(n_bins - 1);
            prompt[b] += it.prompt_tokens as u64;
            gen[b] += it.generated_tokens as u64;
        }
        (0..n_bins)
            .map(|b| ThroughputBin {
                t_s: b as f64 * bin_s,
                prompt_tps: prompt[b] as f64 / bin_s,
                gen_tps: gen[b] as f64 / bin_s,
            })
            .collect()
    }

    /// TSV matching the artifact's `*-throughput.tsv`.
    pub fn throughput_tsv(&self, bin_s: f64) -> String {
        let mut out = String::from("time_s\tprompt_tps\tgeneration_tps\n");
        for b in self.throughput_series(bin_s) {
            out.push_str(&format!("{:.1}\t{:.2}\t{:.2}\n", b.t_s, b.prompt_tps, b.gen_tps));
        }
        out
    }

    /// Machine-readable run summary as pretty-printed JSON.
    ///
    /// Virtual-time results only — wall-clock components stay in
    /// `-simulation-time.tsv` so this artifact is byte-identical across
    /// runs of the same seed.
    pub fn summary_json(&self) -> String {
        let v = obj(vec![
            ("shape", Value::Str("single".into())),
            ("iterations", Value::Int(self.iterations.len() as i128)),
            ("completions", Value::Int(self.completions.len() as i128)),
            ("sim_duration_ps", Value::Int(self.sim_duration_ps as i128)),
            ("sim_duration_s", Value::Float(self.sim_duration_s())),
            ("prompt_tokens", Value::Int(self.total_prompt_tokens() as i128)),
            ("generated_tokens", Value::Int(self.total_generated_tokens() as i128)),
            ("generation_tput_tok_s", Value::Float(self.generation_throughput())),
            ("prompt_tput_tok_s", Value::Float(self.prompt_throughput())),
            ("mean_latency_s", Value::Float(self.mean_latency_s())),
            ("slo", self.slo().json_value()),
            ("reuse", self.reuse.json_value()),
        ]);
        serde_json::value_to_string_pretty(&v) + "\n"
    }

    /// One-paragraph human summary (the artifact's standard output).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "iterations={} requests={} sim_time={:.2}s prompt_tok={} gen_tok={} \
             gen_tput={:.1} tok/s mean_lat={:.2}s reuse_hit_rate={:.1}% \
             iter_reuse={:.1}% wall={:.2}s \
             (sched {:.2}s, engine {:.2}s, convert {:.2}s, net {:.2}s)",
            self.iterations.len(),
            self.completions.len(),
            self.sim_duration_s(),
            self.total_prompt_tokens(),
            self.total_generated_tokens(),
            self.generation_throughput(),
            self.mean_latency_s(),
            self.reuse.hit_rate() * 100.0,
            self.reuse.iteration_hit_rate() * 100.0,
            self.wall.total().as_secs_f64(),
            self.wall.scheduler.as_secs_f64(),
            self.wall.engine.as_secs_f64(),
            self.wall.converter.as_secs_f64(),
            self.wall.network.as_secs_f64(),
        );
        // The per-replica vs fleet-wide split only means something (and
        // only stays byte-stable) when a shared cache ran.
        if self.reuse.shared_armed {
            out.push_str(&format!(
                " shared_hits={} local_iter_reuse={:.1}%",
                self.reuse.shared_hits,
                self.reuse.local_iteration_hit_rate() * 100.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        index: u64,
        start: TimePs,
        lat: TimePs,
        prompt: usize,
        gen: usize,
    ) -> IterationRecord {
        IterationRecord {
            index,
            start_ps: start,
            latency_ps: lat,
            batch_size: 1,
            prompt_tokens: prompt,
            generated_tokens: gen,
            evictions: 0,
            reloads: 0,
            graph_ops: 10,
            net_events: 20,
            compute_ps: lat,
            comm_ps: 0,
            host_ps: 0,
        }
    }

    fn report() -> SimReport {
        SimReport {
            iterations: vec![
                record(0, 0, 500_000_000_000, 100, 0),
                record(1, 500_000_000_000, 500_000_000_000, 0, 5),
                record(2, 1_000_000_000_000, 1_000_000_000_000, 0, 5),
            ],
            completions: vec![Completion {
                id: 0,
                arrival_ps: 0,
                first_token_ps: 500_000_000_000,
                finish_ps: 2_000_000_000_000,
                input_len: 100,
                output_len: 11,
            }],
            wall: WallBreakdown {
                scheduler: Duration::from_millis(1),
                engine: Duration::from_millis(20),
                converter: Duration::from_millis(4),
                network: Duration::from_millis(10),
            },
            reuse: ReuseStats::default(),
            sim_duration_ps: 2_000_000_000_000,
        }
    }

    #[test]
    fn token_totals() {
        let r = report();
        assert_eq!(r.total_prompt_tokens(), 100);
        assert_eq!(r.total_generated_tokens(), 10);
        assert_eq!(r.generation_throughput(), 5.0);
        assert_eq!(r.prompt_throughput(), 50.0);
    }

    #[test]
    fn throughput_series_bins_by_completion_time() {
        let r = report();
        let bins = r.throughput_series(1.0);
        assert_eq!(bins.len(), 2);
        // Iteration 0 ends at 0.5 s (bin 0); iterations 1 and 2 end at
        // 1.0 s and 2.0 s, both landing in the final bin.
        assert_eq!(bins[0].prompt_tps, 100.0);
        assert_eq!(bins[0].gen_tps, 0.0);
        assert_eq!(bins[1].gen_tps, 10.0);
    }

    #[test]
    fn latency_stats() {
        let r = report();
        assert!((r.mean_latency_s() - 2.0).abs() < 1e-9);
        assert!((r.latency_percentile_s(0.5) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.5), 51.0); // round(99 * 0.5) = 50
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_rejected() {
        percentile(&mut [1.0], 1.5);
    }

    #[test]
    fn percentile_summaries_convert_ps_to_seconds() {
        let s = percentiles_from_ps((1..=100).map(|i| i as f64 * 1e12)).unwrap();
        assert_eq!(s.p50_s, 51.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.to_tsv_fields().split('\t').count(), 3);
    }

    #[test]
    fn empty_sample_sets_have_no_percentiles() {
        assert_eq!(percentiles_from_ps(std::iter::empty()), None);
        let empty = SimReport {
            iterations: Vec::new(),
            completions: Vec::new(),
            wall: WallBreakdown::default(),
            reuse: ReuseStats::default(),
            sim_duration_ps: 0,
        };
        assert_eq!(empty.latency_percentiles(), None);
        assert_eq!(empty.ttft_percentiles(), None);
        assert_eq!(empty.tpot_percentiles(), None);
        // The placeholder renderings never contain NaN.
        assert_eq!(PercentileSummary::tsv_fields_or_dashes(None), "-\t-\t-");
        assert_eq!(PercentileSummary::display_or_na(None), "n/a");
    }

    #[test]
    fn report_percentiles_cover_all_metrics() {
        let r = report();
        // Single completion: every percentile equals its one sample.
        assert!((r.latency_percentiles().unwrap().p99_s - 2.0).abs() < 1e-9);
        assert!((r.ttft_percentiles().unwrap().p50_s - 0.5).abs() < 1e-9);
        // TPOT: (finish - first token) / (output_len - 1) = 1.5s / 10.
        assert!((r.tpot_percentiles().unwrap().p50_s - 0.15).abs() < 1e-9);
    }

    #[test]
    fn tpot_percentiles_skip_single_token_requests() {
        let mut r = report();
        r.completions.push(Completion {
            id: 1,
            arrival_ps: 0,
            first_token_ps: 1,
            finish_ps: 1,
            input_len: 4,
            output_len: 1,
        });
        // The single-token request would contribute a bogus 0.0 sample.
        assert!(r.tpot_percentiles().unwrap().p50_s > 0.0);
    }

    #[test]
    fn breakdown_tsv_has_all_components() {
        let tsv = report().wall.to_tsv();
        for c in ["scheduler", "execution_engine", "graph_converter", "astra_sim", "total"] {
            assert!(tsv.contains(c), "missing {c} in {tsv}");
        }
    }

    #[test]
    fn summary_mentions_throughput() {
        let s = report().summary();
        assert!(s.contains("gen_tput"), "{s}");
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_rejected() {
        report().throughput_series(0.0);
    }

    // The cluster and disaggregated views of a fleet report.

    use std::collections::BTreeMap;

    use llmss_sched::Request;

    use crate::{
        ClusterReport, DisaggCompletion, DisaggReport, FleetParts, FleetReplica, FleetReport,
        FleetTransfer, ReplicaRole, RoutingPolicyKind,
    };

    fn completion(id: u64, arrival_ps: u64, first_token_ps: u64, finish_ps: u64) -> Completion {
        Completion { id, arrival_ps, first_token_ps, finish_ps, input_len: 100, output_len: 4 }
    }

    /// A fleet replica that ran no iterations, finishing `completions`.
    fn replica(
        role: ReplicaRole,
        completions: Vec<Completion>,
        clock: TimePs,
        routed: usize,
    ) -> FleetReplica {
        let report = SimReport {
            iterations: Vec::new(),
            completions,
            wall: WallBreakdown::default(),
            reuse: ReuseStats::default(),
            sim_duration_ps: clock,
        };
        FleetReplica { report, role, home_role: role, routed, paired: routed, retired: false }
    }

    fn fleet(
        control: &str,
        replicas: Vec<FleetReplica>,
        assignments: Vec<(u64, usize)>,
        transfers: BTreeMap<u64, FleetTransfer>,
    ) -> FleetReport {
        let requests = transfers.keys().map(|&id| (id, Request::new(id, 100, 4, 0))).collect();
        let (control, fabric, resilience) = (control.to_owned(), None, None);
        FleetReport::from_parts(FleetParts {
            control,
            replicas,
            assignments,
            transfers,
            requests,
            fabric,
            resilience,
        })
    }

    fn two_replica_report() -> ClusterReport {
        let r0 = vec![completion(0, 0, 1_000, 5_000), completion(2, 0, 2_000, 9_000)];
        let replicas = vec![
            replica(ReplicaRole::Unified, r0, 9_000, 2),
            replica(ReplicaRole::Unified, vec![completion(1, 0, 4_000, 6_000)], 6_000, 1),
        ];
        fleet("round-robin", replicas, vec![(0, 0), (1, 1), (2, 0)], BTreeMap::new()).into()
    }

    #[test]
    fn makespan_is_latest_replica_clock() {
        let r = two_replica_report();
        assert_eq!(r.makespan_ps(), 9_000);
        assert_eq!(r.total_completions(), 3);
    }

    #[test]
    fn ttft_percentiles_merge_replicas() {
        let r = two_replica_report();
        // TTFTs: 1000, 2000, 4000 ps → p50 = 2000 ps.
        assert!((r.ttft_percentiles().unwrap().p50_s - 2e-9).abs() < 1e-15);
    }

    #[test]
    fn empty_completion_sets_render_dashes_not_nan() {
        let idle = || replica(ReplicaRole::Unified, Vec::new(), 0, 0);
        let r: ClusterReport =
            fleet("round-robin", vec![idle(), idle()], Vec::new(), BTreeMap::new()).into();
        assert_eq!(r.ttft_percentiles(), None);
        assert_eq!(r.latency_percentiles(), None);
        let tsv = r.to_tsv();
        assert!(!tsv.contains("NaN"), "TSV leaked NaN: {tsv}");
        assert!(tsv.lines().nth(1).unwrap().contains("-\t-\t-"), "{tsv}");
        assert!(r.summary().contains("n/a"), "{}", r.summary());
    }

    #[test]
    fn load_imbalance_of_uneven_split() {
        let r = two_replica_report();
        // routed = [2, 1]: max 2 / mean 1.5.
        assert!((r.load_imbalance() - 2.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn tsv_has_per_replica_and_cluster_rows() {
        let tsv = two_replica_report().to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 4, "{tsv}"); // header + 2 replicas + cluster
        assert!(lines[0].starts_with("replica\t"));
        assert!(lines[3].starts_with("cluster\t"));
    }

    #[test]
    fn summary_names_the_policy() {
        assert!(two_replica_report().summary().contains("round-robin"));
    }

    /// Prefill done at 1.0 ns, KV on the wire 1.2–2.0 ns, first token at
    /// 2.5 ns, finished at 5.5 ns.
    fn lifecycle(id: u64) -> DisaggCompletion {
        DisaggCompletion {
            id,
            arrival_ps: 0,
            input_len: 100,
            output_len: 4,
            prefill_replica: 0,
            decode_replica: 0,
            prefill_done_ps: 1_000,
            transfer_start_ps: 1_200,
            transfer_done_ps: 2_000,
            first_token_ps: 2_500,
            finish_ps: 5_500,
            kv_bytes: 100 * 64,
        }
    }

    /// A 1P x 1D run of two requests, each following [`lifecycle`].
    fn disagg_report() -> DisaggReport {
        let handoff = FleetTransfer {
            from: 0,
            to: 1,
            link: 0,
            ready_ps: 1_000,
            start_ps: 1_200,
            done_ps: 2_000,
            nominal_ps: 800,
            bytes: 100 * 64,
        };
        let decoded = (0..2).map(|id| completion(id, 2_000, 2_500, 5_500)).collect();
        let replicas = vec![
            replica(ReplicaRole::Prefill, Vec::new(), 3_000, 2),
            replica(ReplicaRole::Decode, decoded, 5_500, 2),
        ];
        let transfers = (0..2).map(|id| (id, handoff)).collect();
        let report = fleet("least-outstanding", replicas, vec![(0, 0), (1, 0)], transfers);
        DisaggReport::from_fleet(report, 1, RoutingPolicyKind::LeastKvLoad)
    }

    #[test]
    fn components_partition_ttft() {
        let c = lifecycle(0);
        assert_eq!(disagg_report().completions, [c, lifecycle(1)]);
        assert_eq!(
            c.prefill_component_ps() + c.transfer_component_ps() + c.decode_component_ps(),
            c.ttft_ps()
        );
        assert_eq!(c.ttft_ps(), 2_500);
        assert_eq!(c.transfer_component_ps(), 1_000);
        // TPOT: 3 gaps over 3_000 ps.
        assert!((c.tpot_ps() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn split_means_sum_to_mean_ttft() {
        let split = disagg_report().ttft_split().unwrap();
        assert!((split.total_s() - 2_500e-12).abs() < 1e-18);
        assert!((split.transfer_s - 1_000e-12).abs() < 1e-18);
    }

    #[test]
    fn makespan_spans_both_pools() {
        let r = disagg_report();
        assert_eq!(r.makespan_ps(), 5_500);
        assert_eq!(r.total_kv_bytes(), 2 * 100 * 64);
    }

    #[test]
    fn tsvs_have_expected_shape_and_no_nan() {
        let r = disagg_report();
        let tsv = r.to_tsv();
        // Header + (1P + totals) + (1D + totals).
        assert_eq!(tsv.lines().count(), 5, "{tsv}");
        assert!(tsv.lines().nth(1).unwrap().starts_with("prefill\t0"));
        assert!(tsv.lines().nth(2).unwrap().starts_with("prefill\ttotal"));
        assert!(tsv.lines().nth(3).unwrap().starts_with("decode\t0"));
        assert!(tsv.lines().nth(4).unwrap().starts_with("decode\ttotal"));
        let metrics = r.metrics_tsv();
        assert_eq!(metrics.lines().count(), 7, "{metrics}");
        assert!(!metrics.contains("NaN"));
        for name in ["ttft_prefill", "ttft_transfer", "ttft_decode", "tpot"] {
            assert!(metrics.contains(name), "missing {name} in {metrics}");
        }
    }

    #[test]
    fn empty_report_is_all_dashes() {
        let replicas = vec![
            replica(ReplicaRole::Prefill, Vec::new(), 0, 0),
            replica(ReplicaRole::Decode, Vec::new(), 0, 0),
        ];
        let report = fleet("round-robin", replicas, Vec::new(), BTreeMap::new());
        let r = DisaggReport::from_fleet(report, 1, RoutingPolicyKind::Sticky);
        assert_eq!(r.ttft_percentiles(), None);
        assert_eq!(r.ttft_split(), None);
        assert!(!r.metrics_tsv().contains("NaN"));
        assert!(r.summary().contains("n/a"));
    }

    #[test]
    fn summary_names_both_policies() {
        let s = disagg_report().summary();
        assert!(s.contains("least-outstanding") && s.contains("least-kv"), "{s}");
    }
}
