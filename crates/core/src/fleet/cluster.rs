//! The cluster view of a fleet run: SLO percentiles, per-replica
//! utilization, and load-imbalance statistics for N unified replicas
//! behind a router.

use serde::Value;

use llmss_sched::{Completion, TimePs};

use crate::json::obj;
use crate::{PercentileSummary, ReportOutput, ReuseStats, SimReport, SloSummary};

use super::report::{merged_reuse, shared_cache_suffix, FleetReport, ReplicaStats};

/// The aggregated result of one cluster simulation.
///
/// Wraps the per-replica [`SimReport`]s of a linkless [`FleetReport`] and
/// derives the cluster-level view: merged completions, SLO percentiles
/// (via the shared [`SloSummary`] pipeline), utilization, and imbalance.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Name of the routing policy that produced this run.
    pub policy: String,
    /// One full serving report per replica, by replica index.
    pub replica_reports: Vec<SimReport>,
    /// `(request id, replica index)` in routing order.
    pub assignments: Vec<(u64, usize)>,
    routed: Vec<usize>,
    makespan_ps: TimePs,
}

impl From<FleetReport> for ClusterReport {
    fn from(report: FleetReport) -> Self {
        let makespan_ps = report.makespan_ps();
        let routed = report.replicas.iter().map(|r| r.routed).collect();
        Self {
            policy: report.control,
            replica_reports: report.replicas.into_iter().map(|r| r.report).collect(),
            assignments: report.assignments,
            routed,
            makespan_ps,
        }
    }
}

impl ClusterReport {
    /// Cluster makespan: the latest replica clock (simulated time until
    /// the last request finished anywhere).
    pub fn makespan_ps(&self) -> TimePs {
        self.makespan_ps
    }

    /// Cluster makespan in seconds.
    pub fn makespan_s(&self) -> f64 {
        self.makespan_ps as f64 / 1e12
    }

    /// All completions across replicas.
    pub fn completions(&self) -> impl Iterator<Item = &Completion> + Clone {
        self.replica_reports.iter().flat_map(|r| r.completions.iter())
    }

    /// Total requests finished cluster-wide.
    pub fn total_completions(&self) -> usize {
        self.replica_reports.iter().map(|r| r.completions.len()).sum()
    }

    /// Cluster-wide generation throughput (tokens per simulated second).
    pub fn generation_throughput(&self) -> f64 {
        let s = self.makespan_s();
        if s == 0.0 {
            return 0.0;
        }
        let tokens: u64 =
            self.replica_reports.iter().map(SimReport::total_generated_tokens).sum();
        tokens as f64 / s
    }

    /// The standard SLO percentile summaries (TTFT / TPOT / latency),
    /// cluster-wide, via the shared [`SloSummary`] pipeline.
    pub fn slo(&self) -> SloSummary {
        SloSummary::collect(self.completions())
    }

    /// p50/p95/p99 time to first token, cluster-wide (`None` with zero
    /// completions).
    pub fn ttft_percentiles(&self) -> Option<PercentileSummary> {
        SloSummary::ttft_of(self.completions())
    }

    /// p50/p95/p99 time per output token, cluster-wide (single-token
    /// requests excluded, matching [`SimReport::tpot_percentiles`];
    /// `None` when no request generated more than one token).
    pub fn tpot_percentiles(&self) -> Option<PercentileSummary> {
        SloSummary::tpot_of(self.completions())
    }

    /// p50/p95/p99 end-to-end request latency, cluster-wide (`None` with
    /// zero completions).
    pub fn latency_percentiles(&self) -> Option<PercentileSummary> {
        SloSummary::latency_of(self.completions())
    }

    /// Per-replica statistics, by replica index.
    pub fn per_replica(&self) -> Vec<ReplicaStats> {
        ReplicaStats::collect(&self.replica_reports, &self.routed)
    }

    /// Load imbalance as max/mean routed requests per replica (`1.0` is
    /// perfectly balanced; only meaningful once requests were routed).
    pub fn load_imbalance(&self) -> f64 {
        let max = self.routed.iter().copied().max().unwrap_or(0);
        let total: usize = self.routed.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.routed.len() as f64;
        max as f64 / mean
    }

    /// Coefficient of variation (stddev/mean) of per-replica busy time —
    /// `0.0` when every replica worked equally long.
    pub fn utilization_imbalance(&self) -> f64 {
        let busy: Vec<f64> = self.per_replica().iter().map(|s| s.busy_ps as f64).collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = busy.iter().map(|b| (b - mean) * (b - mean)).sum::<f64>() / busy.len() as f64;
        var.sqrt() / mean
    }

    /// Fleet-wide reuse statistics: every replica's operator- and
    /// iteration-level counters merged, so a cluster run reports one
    /// combined hit rate for each cache tier.
    pub fn aggregate_reuse(&self) -> ReuseStats {
        merged_reuse(&self.replica_reports)
    }

    /// One-paragraph human summary (the cluster analog of
    /// [`SimReport::summary`]).
    pub fn summary(&self) -> String {
        let ttft = PercentileSummary::display_or_na(self.ttft_percentiles());
        let tpot = PercentileSummary::display_or_na(self.tpot_percentiles());
        let latency = PercentileSummary::display_or_na(self.latency_percentiles());
        let reuse = self.aggregate_reuse();
        format!(
            "cluster policy={} replicas={} requests={} makespan={:.2}s \
             gen_tput={:.1} tok/s ttft[{ttft}] tpot[{tpot}] latency[{latency}] \
             imbalance={:.2} util_cv={:.3} op_reuse={:.1}% iter_reuse={:.1}%{}",
            self.policy,
            self.replica_reports.len(),
            self.total_completions(),
            self.makespan_s(),
            self.generation_throughput(),
            self.load_imbalance(),
            self.utilization_imbalance(),
            reuse.hit_rate() * 100.0,
            reuse.iteration_hit_rate() * 100.0,
            shared_cache_suffix(&reuse),
        )
    }

    /// Machine-readable cluster summary as pretty-printed JSON: cluster
    /// totals, SLO percentiles, imbalance metrics, merged reuse
    /// statistics, and one entry per replica.
    ///
    /// Virtual-time results only, so the artifact is byte-identical
    /// across runs of the same seed.
    pub fn summary_json(&self) -> String {
        let makespan = self.makespan_ps();
        let replicas: Vec<Value> = self
            .per_replica()
            .iter()
            .map(|s| {
                obj(vec![
                    ("index", Value::Int(s.replica as i128)),
                    ("routed", Value::Int(s.routed_requests as i128)),
                    ("completed", Value::Int(s.completions as i128)),
                    ("iterations", Value::Int(s.iterations as i128)),
                    ("busy_s", Value::Float(s.busy_ps as f64 / 1e12)),
                    ("utilization", Value::Float(s.utilization(makespan))),
                    ("prompt_tokens", Value::Int(i128::from(s.prompt_tokens))),
                    ("generated_tokens", Value::Int(i128::from(s.generated_tokens))),
                ])
            })
            .collect();
        let v = obj(vec![
            ("shape", Value::Str("cluster".into())),
            ("policy", Value::Str(self.policy.clone())),
            ("replica_count", Value::Int(self.replica_reports.len() as i128)),
            ("completions", Value::Int(self.total_completions() as i128)),
            ("assignments", Value::Int(self.assignments.len() as i128)),
            ("makespan_ps", Value::Int(self.makespan_ps() as i128)),
            ("makespan_s", Value::Float(self.makespan_s())),
            ("generation_tput_tok_s", Value::Float(self.generation_throughput())),
            ("load_imbalance", Value::Float(self.load_imbalance())),
            ("utilization_cv", Value::Float(self.utilization_imbalance())),
            ("slo", self.slo().json_value()),
            ("reuse", self.aggregate_reuse().json_value()),
            ("replicas", Value::Array(replicas)),
        ]);
        serde_json::value_to_string_pretty(&v) + "\n"
    }

    /// Per-replica TSV (the CLI's `{output}-cluster.tsv`): one row per
    /// replica plus a `cluster` totals row carrying the SLO percentiles.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "replica\trouted\tcompleted\titerations\tbusy_s\tutilization\
             \tprompt_tok\tgen_tok\tttft_p50\tttft_p95\tttft_p99\
             \tlat_p50\tlat_p95\tlat_p99\n",
        );
        let makespan = self.makespan_ps();
        let per_replica = self.per_replica();
        for (stats, report) in per_replica.iter().zip(&self.replica_reports) {
            // A replica that finished nothing has no percentiles: dashes,
            // never NaN, so the TSV stays machine-parseable.
            let ttft = PercentileSummary::tsv_fields_or_dashes(report.ttft_percentiles());
            let lat = PercentileSummary::tsv_fields_or_dashes(report.latency_percentiles());
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{:.4}\t{:.4}\t{}\t{}\t{ttft}\t{lat}\n",
                stats.replica,
                stats.routed_requests,
                stats.completions,
                stats.iterations,
                stats.busy_ps as f64 / 1e12,
                stats.utilization(makespan),
                stats.prompt_tokens,
                stats.generated_tokens,
            ));
        }
        let ttft = PercentileSummary::tsv_fields_or_dashes(self.ttft_percentiles());
        let lat = PercentileSummary::tsv_fields_or_dashes(self.latency_percentiles());
        out.push_str(&format!(
            "cluster\t{}\t{}\t{}\t{:.4}\t{:.4}\t{}\t{}\t{ttft}\t{lat}\n",
            self.assignments.len(),
            self.total_completions(),
            per_replica.iter().map(|s| s.iterations).sum::<usize>(),
            per_replica.iter().map(|s| s.busy_ps).sum::<TimePs>() as f64 / 1e12,
            ReplicaStats::mean_utilization(&per_replica, makespan),
            per_replica.iter().map(|s| s.prompt_tokens).sum::<u64>(),
            per_replica.iter().map(|s| s.generated_tokens).sum::<u64>(),
        ));
        out
    }
}

impl ReportOutput for ClusterReport {
    fn summary(&self) -> String {
        ClusterReport::summary(self)
    }

    fn artifacts(&self) -> Vec<(&'static str, String)> {
        vec![("-cluster.tsv", self.to_tsv()), ("-summary.json", self.summary_json())]
    }
}
