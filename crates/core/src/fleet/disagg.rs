//! The disaggregated view of a fleet run: per-request lifecycle records
//! with the TTFT split into prefill / transfer / decode components,
//! transfer-time percentiles, and per-pool utilization.
//!
//! A disaggregated deployment is a static fleet whose prefill replicas
//! sit at fleet indices `0..P` and decode replicas at `P..P+D`; this view
//! re-maps those global indices back to per-pool indices.

use serde::Value;

use llmss_sched::TimePs;

use crate::fabric::FabricStats;
use crate::json::obj;
use crate::{
    percentiles_from_ps, PercentileSummary, ReportOutput, ReuseStats, SimReport, SloCompletion,
    SloSummary,
};

use super::report::{
    contention_json, fabric_links_json, fabric_suffix, merged_reuse, push_fabric_tsv,
    shared_cache_suffix, FleetReport, ReplicaStats,
};
use super::route::RoutingPolicyKind;

/// One request's full disaggregated lifecycle: arrival → prefill-pool
/// completion → KV transfer → decode-pool streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisaggCompletion {
    /// The request id.
    pub id: u64,
    /// Arrival at the front end.
    pub arrival_ps: TimePs,
    /// Prompt length.
    pub input_len: usize,
    /// Tokens generated (all on the decode pool).
    pub output_len: usize,
    /// Prefill-pool replica that built the KV cache.
    pub prefill_replica: usize,
    /// Decode-pool replica that streamed the tokens.
    pub decode_replica: usize,
    /// When the prefill pass finished (KV ready to ship).
    pub prefill_done_ps: TimePs,
    /// When the KV transfer won the shared link.
    pub transfer_start_ps: TimePs,
    /// When the KV cache landed on the decode replica.
    pub transfer_done_ps: TimePs,
    /// When the first decode token was produced.
    pub first_token_ps: TimePs,
    /// When the final token was produced.
    pub finish_ps: TimePs,
    /// KV bytes shipped (prompt tokens × bytes per token).
    pub kv_bytes: u64,
}

impl DisaggCompletion {
    /// End-to-end latency.
    pub fn latency_ps(&self) -> TimePs {
        self.finish_ps.saturating_sub(self.arrival_ps)
    }

    /// Time to first token — in a disaggregated deployment the first
    /// user-visible token leaves the *decode* pool, so TTFT spans
    /// prefill, transfer, and decode-side queueing.
    pub fn ttft_ps(&self) -> TimePs {
        self.first_token_ps.saturating_sub(self.arrival_ps)
    }

    /// Mean time per output token after the first.
    pub fn tpot_ps(&self) -> f64 {
        if self.output_len <= 1 {
            return 0.0;
        }
        self.finish_ps.saturating_sub(self.first_token_ps) as f64 / (self.output_len - 1) as f64
    }

    /// TTFT's prefill component: front-end arrival to end-of-prefill
    /// (prefill-pool queueing + the prefill pass itself).
    pub fn prefill_component_ps(&self) -> TimePs {
        self.prefill_done_ps.saturating_sub(self.arrival_ps)
    }

    /// TTFT's transfer component: end-of-prefill to KV landed (link
    /// queueing + wire time).
    pub fn transfer_component_ps(&self) -> TimePs {
        self.transfer_done_ps.saturating_sub(self.prefill_done_ps)
    }

    /// TTFT's decode component: KV landed to first token (decode-pool
    /// queueing + the first decode step).
    pub fn decode_component_ps(&self) -> TimePs {
        self.first_token_ps.saturating_sub(self.transfer_done_ps)
    }
}

impl SloCompletion for DisaggCompletion {
    fn ttft_ps(&self) -> TimePs {
        DisaggCompletion::ttft_ps(self)
    }

    fn latency_ps(&self) -> TimePs {
        DisaggCompletion::latency_ps(self)
    }

    fn tpot_ps(&self) -> f64 {
        DisaggCompletion::tpot_ps(self)
    }

    fn output_len(&self) -> usize {
        self.output_len
    }
}

/// Mean TTFT decomposition across all completed requests, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TtftSplit {
    /// Mean prefill component (queueing + prefill pass).
    pub prefill_s: f64,
    /// Mean transfer component (link queueing + wire time).
    pub transfer_s: f64,
    /// Mean decode component (queueing + first decode step).
    pub decode_s: f64,
}

impl TtftSplit {
    /// Total mean TTFT.
    pub fn total_s(&self) -> f64 {
        self.prefill_s + self.transfer_s + self.decode_s
    }
}

impl std::fmt::Display for TtftSplit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "prefill={:.4}s transfer={:.4}s decode={:.4}s",
            self.prefill_s, self.transfer_s, self.decode_s
        )
    }
}

/// The aggregated result of one disaggregated serving simulation.
#[derive(Debug, Clone)]
pub struct DisaggReport {
    /// Front-end routing policy over the prefill pool.
    pub routing: String,
    /// Decode-pairing policy.
    pub pairing: String,
    /// One full serving report per prefill replica.
    pub prefill_reports: Vec<SimReport>,
    /// One full serving report per decode replica.
    pub decode_reports: Vec<SimReport>,
    /// Per-request lifecycle records, sorted by id.
    pub completions: Vec<DisaggCompletion>,
    /// Fabric usage when the deployment ran over a fair-sharing fabric
    /// (`None` on the legacy FIFO wire, keeping those reports
    /// byte-identical).
    pub fabric: Option<FabricStats>,
    routed_prefill: Vec<usize>,
    routed_decode: Vec<usize>,
    contention: Option<(f64, f64, f64)>,
    makespan_ps: TimePs,
}

impl DisaggReport {
    /// The disaggregated view of a static fleet run whose first `prefill`
    /// replicas form the prefill pool and the rest the decode pool,
    /// paired by `pairing`. Each lifecycle joins an end-to-end completion
    /// with its KV transfer; requests still short of their decode
    /// completion (a partially drained run) are left out.
    pub fn from_fleet(report: FleetReport, prefill: usize, pairing: RoutingPolicyKind) -> Self {
        let transfers = &report.transfers;
        let completions = report
            .completions
            .iter()
            .filter_map(|c| {
                let i = transfers.binary_search_by_key(&c.id, |&(id, _)| id).ok()?;
                let t = transfers[i].1;
                Some(DisaggCompletion {
                    id: c.id,
                    arrival_ps: c.arrival_ps,
                    input_len: c.input_len,
                    output_len: c.output_len,
                    prefill_replica: t.from,
                    decode_replica: t.to - prefill,
                    prefill_done_ps: t.ready_ps,
                    transfer_start_ps: t.start_ps,
                    transfer_done_ps: t.done_ps,
                    first_token_ps: c.first_token_ps,
                    finish_ps: c.finish_ps,
                    kv_bytes: t.bytes,
                })
            })
            .collect();
        let contention = report.contention();
        let makespan_ps = report.makespan_ps();
        let (prefill_pool, decode_pool) = report.replicas.split_at(prefill);
        let routed_prefill = prefill_pool.iter().map(|r| r.routed).collect();
        let routed_decode = decode_pool.iter().map(|r| r.paired).collect();
        let mut reports = report.replicas.into_iter().map(|r| r.report);
        Self {
            routing: report.control,
            pairing: pairing.as_str().to_owned(),
            prefill_reports: reports.by_ref().take(prefill).collect(),
            decode_reports: reports.collect(),
            completions,
            fabric: report.fabric,
            routed_prefill,
            routed_decode,
            contention,
            makespan_ps,
        }
    }

    /// Contention percentiles over delivered transfers: the p50/p95/p99
    /// of the achieved-over-nominal slowdown ratio (1.0 = uncontended).
    /// `None` without any delivered transfer.
    pub fn contention(&self) -> Option<(f64, f64, f64)> {
        self.contention
    }

    /// Deployment makespan: the latest replica clock in either pool.
    pub fn makespan_ps(&self) -> TimePs {
        self.makespan_ps
    }

    /// Deployment makespan in seconds.
    pub fn makespan_s(&self) -> f64 {
        self.makespan_ps as f64 / 1e12
    }

    /// Requests that completed their full lifecycle (decode finished).
    pub fn total_completions(&self) -> usize {
        self.completions.len()
    }

    /// Total KV bytes shipped across the inter-pool link.
    pub fn total_kv_bytes(&self) -> u64 {
        self.completions.iter().map(|c| c.kv_bytes).sum()
    }

    /// Generation throughput (decode-pool tokens per simulated second).
    pub fn generation_throughput(&self) -> f64 {
        let s = self.makespan_s();
        if s == 0.0 {
            return 0.0;
        }
        let tokens: u64 =
            self.decode_reports.iter().map(SimReport::total_generated_tokens).sum();
        tokens as f64 / s
    }

    /// The standard SLO percentile summaries (TTFT / TPOT / latency) via
    /// the shared [`SloSummary`] pipeline.
    pub fn slo(&self) -> SloSummary {
        SloSummary::collect(self.completions.iter())
    }

    /// p50/p95/p99 time to first token (arrival → first decode token).
    pub fn ttft_percentiles(&self) -> Option<PercentileSummary> {
        SloSummary::ttft_of(self.completions.iter())
    }

    /// p50/p95/p99 time per output token (single-token requests
    /// excluded).
    pub fn tpot_percentiles(&self) -> Option<PercentileSummary> {
        SloSummary::tpot_of(self.completions.iter())
    }

    /// p50/p95/p99 end-to-end request latency.
    pub fn latency_percentiles(&self) -> Option<PercentileSummary> {
        SloSummary::latency_of(self.completions.iter())
    }

    /// p50/p95/p99 of TTFT's prefill component.
    pub fn prefill_component_percentiles(&self) -> Option<PercentileSummary> {
        percentiles_from_ps(self.completions.iter().map(|c| c.prefill_component_ps() as f64))
    }

    /// p50/p95/p99 of TTFT's KV-transfer component (link queueing + wire
    /// time — the number a bandwidth-starved link inflates).
    pub fn transfer_percentiles(&self) -> Option<PercentileSummary> {
        percentiles_from_ps(self.completions.iter().map(|c| c.transfer_component_ps() as f64))
    }

    /// p50/p95/p99 of TTFT's decode component.
    pub fn decode_component_percentiles(&self) -> Option<PercentileSummary> {
        percentiles_from_ps(self.completions.iter().map(|c| c.decode_component_ps() as f64))
    }

    /// Mean TTFT decomposition (`None` with zero completions).
    pub fn ttft_split(&self) -> Option<TtftSplit> {
        if self.completions.is_empty() {
            return None;
        }
        let n = self.completions.len() as f64;
        let sum = |f: fn(&DisaggCompletion) -> TimePs| {
            self.completions.iter().map(|c| f(c) as f64).sum::<f64>() / n / 1e12
        };
        Some(TtftSplit {
            prefill_s: sum(DisaggCompletion::prefill_component_ps),
            transfer_s: sum(DisaggCompletion::transfer_component_ps),
            decode_s: sum(DisaggCompletion::decode_component_ps),
        })
    }

    /// Per-replica statistics for the prefill pool.
    pub fn prefill_stats(&self) -> Vec<ReplicaStats> {
        ReplicaStats::collect(&self.prefill_reports, &self.routed_prefill)
    }

    /// Per-replica statistics for the decode pool (credited with the KV
    /// handoffs paired to each replica).
    pub fn decode_stats(&self) -> Vec<ReplicaStats> {
        ReplicaStats::collect(&self.decode_reports, &self.routed_decode)
    }

    /// Mean utilization of the prefill pool over the makespan.
    pub fn prefill_utilization(&self) -> f64 {
        ReplicaStats::mean_utilization(&self.prefill_stats(), self.makespan_ps)
    }

    /// Mean utilization of the decode pool over the makespan.
    pub fn decode_utilization(&self) -> f64 {
        ReplicaStats::mean_utilization(&self.decode_stats(), self.makespan_ps)
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        let ttft = PercentileSummary::display_or_na(self.ttft_percentiles());
        let tpot = PercentileSummary::display_or_na(self.tpot_percentiles());
        let transfer = PercentileSummary::display_or_na(self.transfer_percentiles());
        let split = self.ttft_split().map_or_else(|| "n/a".to_owned(), |s| s.to_string());
        let reuse = self.aggregate_reuse();
        format!(
            "disagg {}P x {}D routing={} pairing={} requests={} makespan={:.2}s \
             gen_tput={:.1} tok/s kv_shipped={:.1} MiB ttft[{ttft}] ttft_split[{split}] \
             transfer[{transfer}] tpot[{tpot}] util[prefill={:.2} decode={:.2}] \
             op_reuse={:.1}% iter_reuse={:.1}%{}{}",
            self.prefill_reports.len(),
            self.decode_reports.len(),
            self.routing,
            self.pairing,
            self.total_completions(),
            self.makespan_s(),
            self.generation_throughput(),
            self.total_kv_bytes() as f64 / (1u64 << 20) as f64,
            self.prefill_utilization(),
            self.decode_utilization(),
            reuse.hit_rate() * 100.0,
            reuse.iteration_hit_rate() * 100.0,
            shared_cache_suffix(&reuse),
            fabric_suffix(self.fabric.as_ref(), self.contention),
        )
    }

    /// Deployment-wide reuse statistics: both pools' operator- and
    /// iteration-level counters merged.
    pub fn aggregate_reuse(&self) -> ReuseStats {
        merged_reuse(self.prefill_reports.iter().chain(&self.decode_reports))
    }

    /// Machine-readable deployment summary as pretty-printed JSON:
    /// totals, the SLO percentiles with the disaggregation-specific TTFT
    /// component split, per-pool replica statistics, merged reuse
    /// statistics, and the fabric section when the run used a
    /// fair-sharing fabric.
    ///
    /// Virtual-time results only, so the artifact is byte-identical
    /// across runs of the same seed.
    pub fn summary_json(&self) -> String {
        let makespan = self.makespan_ps;
        let pool = |stats: Vec<ReplicaStats>| -> Value {
            Value::Array(
                stats
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("index", Value::Int(s.replica as i128)),
                            ("routed", Value::Int(s.routed_requests as i128)),
                            ("completed", Value::Int(s.completions as i128)),
                            ("iterations", Value::Int(s.iterations as i128)),
                            ("busy_s", Value::Float(s.busy_ps as f64 / 1e12)),
                            ("utilization", Value::Float(s.utilization(makespan))),
                        ])
                    })
                    .collect(),
            )
        };
        let split = match self.ttft_split() {
            Some(s) => obj(vec![
                ("prefill_s", Value::Float(s.prefill_s)),
                ("transfer_s", Value::Float(s.transfer_s)),
                ("decode_s", Value::Float(s.decode_s)),
            ]),
            None => Value::Null,
        };
        let fabric = match &self.fabric {
            None => Value::Null,
            Some(f) => obj(vec![
                ("label", Value::Str(f.label.clone())),
                ("links", fabric_links_json(f, makespan)),
            ]),
        };
        let v = obj(vec![
            ("shape", Value::Str("disagg".into())),
            ("routing", Value::Str(self.routing.clone())),
            ("pairing", Value::Str(self.pairing.clone())),
            ("prefill_replicas", Value::Int(self.prefill_reports.len() as i128)),
            ("decode_replicas", Value::Int(self.decode_reports.len() as i128)),
            ("completions", Value::Int(self.total_completions() as i128)),
            ("kv_bytes", Value::Int(i128::from(self.total_kv_bytes()))),
            ("makespan_ps", Value::Int(self.makespan_ps as i128)),
            ("makespan_s", Value::Float(self.makespan_s())),
            ("generation_tput_tok_s", Value::Float(self.generation_throughput())),
            ("prefill_utilization", Value::Float(self.prefill_utilization())),
            ("decode_utilization", Value::Float(self.decode_utilization())),
            ("slo", self.slo().json_value()),
            (
                "ttft_prefill",
                PercentileSummary::json_or_null(self.prefill_component_percentiles()),
            ),
            ("ttft_transfer", PercentileSummary::json_or_null(self.transfer_percentiles())),
            (
                "ttft_decode",
                PercentileSummary::json_or_null(self.decode_component_percentiles()),
            ),
            ("ttft_split", split),
            ("contention", contention_json(self.contention)),
            ("reuse", self.aggregate_reuse().json_value()),
            ("prefill_pool", pool(self.prefill_stats())),
            ("decode_pool", pool(self.decode_stats())),
            ("fabric", fabric),
        ]);
        serde_json::value_to_string_pretty(&v) + "\n"
    }

    /// Per-replica TSV (the CLI's `{output}-disagg.tsv`): one row per
    /// pool member plus a `total` row per pool (utilization in the
    /// totals rows is the pool mean, so it stays in `[0, 1]`).
    pub fn to_tsv(&self) -> String {
        let mut out =
            String::from("pool\treplica\trouted\tcompleted\titerations\tbusy_s\tutilization\n");
        let makespan = self.makespan_ps;
        for (pool, stats) in
            [("prefill", self.prefill_stats()), ("decode", self.decode_stats())]
        {
            for s in &stats {
                out.push_str(&format!(
                    "{pool}\t{}\t{}\t{}\t{}\t{:.4}\t{:.4}\n",
                    s.replica,
                    s.routed_requests,
                    s.completions,
                    s.iterations,
                    s.busy_ps as f64 / 1e12,
                    s.utilization(makespan),
                ));
            }
            out.push_str(&format!(
                "{pool}\ttotal\t{}\t{}\t{}\t{:.4}\t{:.4}\n",
                stats.iter().map(|s| s.routed_requests).sum::<usize>(),
                stats.iter().map(|s| s.completions).sum::<usize>(),
                stats.iter().map(|s| s.iterations).sum::<usize>(),
                stats.iter().map(|s| s.busy_ps).sum::<TimePs>() as f64 / 1e12,
                ReplicaStats::mean_utilization(&stats, makespan),
            ));
        }
        // The fabric section exists only for fair-sharing runs; the
        // legacy FIFO wire emits exactly the pre-fabric TSV above.
        if let Some(fabric) = &self.fabric {
            push_fabric_tsv(&mut out, fabric, makespan, self.contention);
        }
        out
    }

    /// Metric TSV (the CLI's `{output}-disagg-metrics.tsv`): TTFT and its
    /// prefill/transfer/decode split, TPOT, and latency percentiles —
    /// dashes (never NaN) for undefined rows.
    pub fn metrics_tsv(&self) -> String {
        let mut out = String::from("metric\tp50_s\tp95_s\tp99_s\n");
        let rows: [(&str, Option<PercentileSummary>); 6] = [
            ("ttft", self.ttft_percentiles()),
            ("ttft_prefill", self.prefill_component_percentiles()),
            ("ttft_transfer", self.transfer_percentiles()),
            ("ttft_decode", self.decode_component_percentiles()),
            ("tpot", self.tpot_percentiles()),
            ("latency", self.latency_percentiles()),
        ];
        for (name, summary) in rows {
            out.push_str(&format!(
                "{name}\t{}\n",
                PercentileSummary::tsv_fields_or_dashes(summary)
            ));
        }
        out
    }
}

impl ReportOutput for DisaggReport {
    fn summary(&self) -> String {
        DisaggReport::summary(self)
    }

    fn artifacts(&self) -> Vec<(&'static str, String)> {
        vec![
            ("-disagg.tsv", self.to_tsv()),
            ("-disagg-metrics.tsv", self.metrics_tsv()),
            ("-summary.json", self.summary_json()),
        ]
    }
}
