//! The engine-level fleet report: per-replica outcomes, end-to-end
//! completions (KV handoffs joined back to their original arrivals), and
//! fleet-wide SLO metrics.
//!
//! Every multi-replica run finishes as a [`FleetReport`]. A `[fleet]`
//! scenario writes it as is; the cluster and disaggregated shapes render
//! it through their own views ([`ClusterReport`](super::ClusterReport),
//! [`DisaggReport`](super::DisaggReport)), which share the per-replica
//! statistics and report sections defined here.

use serde::Value;

use llmss_sched::{Completion, TimePs};

use crate::chaos::ResilienceStats;
use crate::fabric::{FabricStats, LinkUsage};
use crate::json::obj;
use crate::{percentile, PercentileSummary, ReportOutput, ReuseStats, SimReport, SloSummary};

use super::engine::{FleetParts, FleetTransfer};
use super::route::ReplicaRole;

/// One replica's outcome in a finished fleet run.
#[derive(Debug, Clone)]
pub struct FleetReplica {
    /// The replica's full serving report.
    pub report: SimReport,
    /// The role the replica held when the run finished.
    pub role: ReplicaRole,
    /// The role the replica was created with.
    pub home_role: ReplicaRole,
    /// Fresh arrivals routed here.
    pub routed: usize,
    /// KV handoffs paired to this replica.
    pub paired: usize,
    /// Whether the replica was retired (scaled down) at the end.
    pub retired: bool,
}

/// Per-replica aggregate statistics derived from one replica's
/// [`SimReport`]: the row behind every per-replica table the fleet,
/// cluster, and disaggregated reports write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Replica index (within its pool, for the disaggregated view).
    pub replica: usize,
    /// Requests routed (or, on a decode pool, paired) to this replica.
    pub routed_requests: usize,
    /// Requests it finished.
    pub completions: usize,
    /// Serving iterations it ran.
    pub iterations: usize,
    /// Simulated time spent executing iterations.
    pub busy_ps: TimePs,
    /// Prompt tokens processed.
    pub prompt_tokens: u64,
    /// Tokens generated.
    pub generated_tokens: u64,
}

impl ReplicaStats {
    /// The statistics of replica `replica`, credited with `routed_requests`.
    pub(crate) fn new(replica: usize, report: &SimReport, routed_requests: usize) -> Self {
        Self {
            replica,
            routed_requests,
            completions: report.completions.len(),
            iterations: report.iterations.len(),
            busy_ps: report.iterations.iter().map(|it| it.latency_ps).sum(),
            prompt_tokens: report.total_prompt_tokens(),
            generated_tokens: report.total_generated_tokens(),
        }
    }

    /// One row per report, by index; `routed[i]` credits report `i`.
    pub(crate) fn collect(reports: &[SimReport], routed: &[usize]) -> Vec<Self> {
        reports
            .iter()
            .enumerate()
            .map(|(i, r)| Self::new(i, r, routed.get(i).copied().unwrap_or(0)))
            .collect()
    }

    /// Fraction of the makespan this replica spent executing iterations
    /// (`0.0` for an empty makespan).
    pub fn utilization(&self, makespan_ps: TimePs) -> f64 {
        if makespan_ps == 0 {
            return 0.0;
        }
        self.busy_ps as f64 / makespan_ps as f64
    }

    /// Mean utilization over a set of replicas (`0.0` when empty) — the
    /// totals-row figure, which stays in `[0, 1]` where a sum would not.
    pub(crate) fn mean_utilization(stats: &[Self], makespan_ps: TimePs) -> f64 {
        if stats.is_empty() {
            return 0.0;
        }
        stats.iter().map(|s| s.utilization(makespan_ps)).sum::<f64>() / stats.len() as f64
    }
}

/// Every replica's operator- and iteration-level reuse counters merged,
/// in replica order.
pub(crate) fn merged_reuse<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> ReuseStats {
    let mut total = ReuseStats::default();
    for r in reports {
        total.merge(&r.reuse);
    }
    total
}

/// The summary-line tail of a shared-cache run (empty otherwise).
pub(crate) fn shared_cache_suffix(reuse: &ReuseStats) -> String {
    if !reuse.shared_armed {
        return String::new();
    }
    format!(
        " shared_hits={} local_iter_reuse={:.1}%",
        reuse.shared_hits,
        reuse.local_iteration_hit_rate() * 100.0,
    )
}

/// Contention percentiles over delivered transfers: the p50/p95/p99 of
/// the achieved-over-nominal slowdown ratio (1.0 = uncontended). `None`
/// without any delivered transfer carrying a nominal.
pub(crate) fn contention_of(transfers: &[(u64, FleetTransfer)]) -> Option<(f64, f64, f64)> {
    let mut ratios: Vec<f64> = transfers.iter().filter_map(|(_, t)| t.contention()).collect();
    if ratios.is_empty() {
        return None;
    }
    Some((
        percentile(&mut ratios, 0.50),
        percentile(&mut ratios, 0.95),
        percentile(&mut ratios, 0.99),
    ))
}

/// The summary-line tail of a fair-fabric run: its label and, once a
/// transfer was delivered, the contention p50/p99 (empty without a
/// fabric).
pub(crate) fn fabric_suffix(
    fabric: Option<&FabricStats>,
    contention: Option<(f64, f64, f64)>,
) -> String {
    let Some(fabric) = fabric else {
        return String::new();
    };
    let mut out = format!(" fabric={}", fabric.label);
    if let Some((p50, _, p99)) = contention {
        out.push_str(&format!(" contention[p50={p50:.2}x p99={p99:.2}x]"));
    }
    out
}

/// A link's carried bytes over its capacity integral across the run
/// (GB/s = 1e-3 B/ps).
fn link_utilization(link: &LinkUsage, makespan_ps: TimePs) -> f64 {
    let cap_bytes = link.bw_gbps / 1000.0 * makespan_ps.max(1) as f64;
    if cap_bytes > 0.0 {
        link.carried_bytes / cap_bytes
    } else {
        0.0
    }
}

/// The contention percentiles as a JSON object (`null` when undefined).
pub(crate) fn contention_json(contention: Option<(f64, f64, f64)>) -> Value {
    match contention {
        Some((p50, p95, p99)) => obj(vec![
            ("p50", Value::Float(p50)),
            ("p95", Value::Float(p95)),
            ("p99", Value::Float(p99)),
        ]),
        None => Value::Null,
    }
}

/// The fabric's per-link usage as a JSON array.
pub(crate) fn fabric_links_json(fabric: &FabricStats, makespan_ps: TimePs) -> Value {
    Value::Array(
        fabric
            .links
            .iter()
            .map(|l| {
                obj(vec![
                    ("name", Value::Str(l.name.clone())),
                    ("bw_gbps", Value::Float(l.bw_gbps)),
                    ("carried_bytes", Value::Float(l.carried_bytes)),
                    ("utilization", Value::Float(link_utilization(l, makespan_ps))),
                ])
            })
            .collect(),
    )
}

/// Appends the TSV fabric section of a fair-fabric run: per-link carried
/// megabytes and utilization, then the contention percentiles.
pub(crate) fn push_fabric_tsv(
    out: &mut String,
    fabric: &FabricStats,
    makespan_ps: TimePs,
    contention: Option<(f64, f64, f64)>,
) {
    out.push_str(&format!(
        "\nfabric\t{}\nlink\tbw_gbps\tcarried_mb\tutilization\n",
        fabric.label
    ));
    for l in &fabric.links {
        out.push_str(&format!(
            "{}\t{:.1}\t{:.3}\t{:.4}\n",
            l.name,
            l.bw_gbps,
            l.carried_bytes / 1e6,
            link_utilization(l, makespan_ps),
        ));
    }
    out.push_str("contention_p50\tcontention_p95\tcontention_p99\n");
    match contention {
        Some((p50, p95, p99)) => out.push_str(&format!("{p50:.3}\t{p95:.3}\t{p99:.3}\n")),
        None => out.push_str("-\t-\t-\n"),
    }
}

/// The aggregated result of one fleet-engine run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The control plane that drove the run.
    pub control: String,
    /// Per-replica outcomes, by fleet index (including replicas the
    /// autoscaler added or retired mid-run).
    pub replicas: Vec<FleetReplica>,
    /// End-to-end completions: one per served request, with KV-handoff
    /// requests joined back to their original front-end arrival (sorted
    /// by request id).
    pub completions: Vec<Completion>,
    /// Committed KV transfers, sorted by request id.
    pub transfers: Vec<(u64, FleetTransfer)>,
    /// `(request id, replica)` admissions in routing order.
    pub assignments: Vec<(u64, usize)>,
    /// Fabric usage when the fleet ran over a fair-sharing fabric
    /// (`None` for the legacy FIFO wire, keeping its reports
    /// byte-identical).
    pub fabric: Option<FabricStats>,
    /// Fault-injection outcome when the run armed a chaos schedule
    /// (`None` for chaos-free runs, keeping their reports
    /// byte-identical).
    pub resilience: Option<ResilienceStats>,
    makespan_ps: TimePs,
}

impl FleetReport {
    /// Assembles the report from a dismantled engine.
    pub fn from_parts(parts: FleetParts) -> Self {
        let makespan_ps =
            parts.replicas.iter().map(|r| r.report.sim_duration_ps).max().unwrap_or(0);
        // End-to-end completions: skip the prefill-side bookkeeping record
        // of each handoff (same id, `from` replica, finishing no later
        // than the KV-ready instant — exactly at it normally, earlier
        // when a partition parked the commit and stamped `ready_ps` at
        // recovery), and restore the original arrival on the decode-side
        // record (its scheduler-local arrival is the transfer-done
        // time). A flexed replica can be both sides of one handoff
        // (`from == to`), so the prefill-side record is keyed by its
        // finish time, not the replica index alone — the decode side
        // always finishes strictly after the transfer completed.
        let mut completions: Vec<Completion> = Vec::new();
        for (index, replica) in parts.replicas.iter().enumerate() {
            for c in &replica.report.completions {
                match parts.transfers.get(&c.id) {
                    Some(t) if t.from == index && c.finish_ps <= t.ready_ps => {}
                    Some(t) if t.to == index => {
                        let mut joined = *c;
                        joined.arrival_ps = parts.requests[&c.id].arrival_ps;
                        completions.push(joined);
                    }
                    Some(t) => {
                        debug_assert!(
                            false,
                            "request {} completed on replica {index}, which is neither \
                             side of its handoff {t:?}",
                            c.id
                        );
                    }
                    None => completions.push(*c),
                }
            }
        }
        // A retried request completed with its *retry* admission as the
        // scheduler-local arrival; latency must span the whole retry
        // chain, so restore the first front-end arrival.
        if let Some(res) = &parts.resilience {
            for c in &mut completions {
                if let Ok(i) = res.original_arrivals.binary_search_by_key(&c.id, |&(id, _)| id)
                {
                    c.arrival_ps = c.arrival_ps.min(res.original_arrivals[i].1);
                }
            }
        }
        completions.sort_by_key(|c| c.id);
        let mut transfers: Vec<(u64, FleetTransfer)> = parts.transfers.into_iter().collect();
        transfers.sort_by_key(|&(id, _)| id);
        Self {
            control: parts.control,
            replicas: parts.replicas,
            completions,
            transfers,
            assignments: parts.assignments,
            fabric: parts.fabric,
            resilience: parts.resilience,
            makespan_ps,
        }
    }

    /// Contention percentiles over delivered transfers: the p50/p95/p99
    /// of the achieved-over-nominal slowdown ratio (1.0 = uncontended).
    /// `None` without any delivered transfer carrying a nominal.
    pub fn contention(&self) -> Option<(f64, f64, f64)> {
        contention_of(&self.transfers)
    }

    /// Fleet makespan: the latest replica clock.
    pub fn makespan_ps(&self) -> TimePs {
        self.makespan_ps
    }

    /// Fleet makespan in seconds.
    pub fn makespan_s(&self) -> f64 {
        self.makespan_ps as f64 / 1e12
    }

    /// Requests served end to end.
    pub fn total_completions(&self) -> usize {
        self.completions.len()
    }

    /// Generation throughput in tokens per simulated second, over
    /// end-to-end completions.
    pub fn generation_throughput(&self) -> f64 {
        let s = self.makespan_s();
        if s == 0.0 {
            return 0.0;
        }
        let tokens: usize = self.completions.iter().map(|c| c.output_len).sum();
        tokens as f64 / s
    }

    /// The standard SLO percentile summaries (TTFT / TPOT / latency),
    /// fleet-wide over end-to-end completions.
    pub fn slo(&self) -> SloSummary {
        SloSummary::collect(self.completions.iter())
    }

    /// Fleet availability under fault injection: the fraction of
    /// replica-time outside crash/hang windows, over the whole run.
    /// `None` for chaos-free runs.
    pub fn availability(&self) -> Option<f64> {
        let res = self.resilience.as_ref()?;
        let replicas = self.replicas.len().max(1) as u128;
        let total = replicas * self.makespan_ps.max(1) as u128;
        let down: u128 = res.downtime.iter().map(|&d| d as u128).sum();
        Some(1.0 - down.min(total) as f64 / total as f64)
    }

    /// Re-prefill overhead: virtual time from each KV-destroying fault
    /// to the retried request's first token, summed over lost prefills
    /// that eventually completed. `None` for chaos-free runs.
    pub fn re_prefill_overhead_ps(&self) -> Option<TimePs> {
        let res = self.resilience.as_ref()?;
        let mut total: TimePs = 0;
        for &(id, fault_ps) in &res.lost_prefills {
            if let Ok(i) = self.completions.binary_search_by_key(&id, |c| c.id) {
                total += self.completions[i].first_token_ps.saturating_sub(fault_ps);
            }
        }
        Some(total)
    }

    /// SLO percentiles split by fault exposure: completions finishing
    /// inside any fault window versus in the clear. `None` for
    /// chaos-free runs.
    pub fn slo_by_fault_window(&self) -> Option<(SloSummary, SloSummary)> {
        let res = self.resilience.as_ref()?;
        let hit = |c: &Completion| {
            res.fault_windows.iter().any(|&(s, e)| s <= c.finish_ps && c.finish_ps < e)
        };
        let inside = SloSummary::collect(self.completions.iter().filter(|c| hit(c)));
        let clear = SloSummary::collect(self.completions.iter().filter(|c| !hit(c)));
        Some((inside, clear))
    }

    /// Fleet-wide reuse statistics (all replicas merged).
    pub fn aggregate_reuse(&self) -> ReuseStats {
        merged_reuse(self.replicas.iter().map(|r| &r.report))
    }

    /// Per-replica statistics, by fleet index (credited with fresh
    /// arrivals; KV handoffs are [`FleetReplica::paired`]).
    pub fn per_replica(&self) -> Vec<ReplicaStats> {
        self.replicas
            .iter()
            .enumerate()
            .map(|(i, r)| ReplicaStats::new(i, &r.report, r.routed))
            .collect()
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        let slo = self.slo();
        let ttft = PercentileSummary::display_or_na(slo.ttft);
        let tpot = PercentileSummary::display_or_na(slo.tpot);
        let latency = PercentileSummary::display_or_na(slo.latency);
        let reuse = self.aggregate_reuse();
        let retired = self.replicas.iter().filter(|r| r.retired).count();
        let mut out = format!(
            "fleet control={} replicas={} (retired {}) requests={} transfers={} \
             makespan={:.2}s gen_tput={:.1} tok/s ttft[{ttft}] tpot[{tpot}] \
             latency[{latency}] op_reuse={:.1}% iter_reuse={:.1}%",
            self.control,
            self.replicas.len(),
            retired,
            self.total_completions(),
            self.transfers.len(),
            self.makespan_s(),
            self.generation_throughput(),
            reuse.hit_rate() * 100.0,
            reuse.iteration_hit_rate() * 100.0,
        );
        out.push_str(&shared_cache_suffix(&reuse));
        out.push_str(&fabric_suffix(self.fabric.as_ref(), self.contention()));
        if let Some(res) = &self.resilience {
            out.push_str(&format!(
                " chaos faults={} retried={} abandoned={} kv_lost={}B availability={:.2}%",
                res.faults_injected,
                res.requests_retried,
                res.requests_abandoned,
                res.kv_bytes_lost,
                self.availability().unwrap_or(1.0) * 100.0,
            ));
        }
        out
    }

    /// Machine-readable fleet summary as pretty-printed JSON: fleet
    /// totals, SLO percentiles, merged reuse statistics, one entry per
    /// replica, and the fabric section (links + contention) when the run
    /// used a fair-sharing fabric.
    ///
    /// Virtual-time results only, so the artifact is byte-identical
    /// across runs of the same seed.
    pub fn summary_json(&self) -> String {
        let makespan = self.makespan_ps;
        let replicas: Vec<Value> = self
            .replicas
            .iter()
            .zip(self.per_replica())
            .map(|(r, s)| {
                obj(vec![
                    ("index", Value::Int(s.replica as i128)),
                    ("role", Value::Str(r.role.to_string())),
                    ("home_role", Value::Str(r.home_role.to_string())),
                    ("retired", Value::Bool(r.retired)),
                    ("routed", Value::Int(r.routed as i128)),
                    ("paired", Value::Int(r.paired as i128)),
                    ("completed", Value::Int(s.completions as i128)),
                    ("iterations", Value::Int(s.iterations as i128)),
                    ("busy_s", Value::Float(s.busy_ps as f64 / 1e12)),
                    ("utilization", Value::Float(s.utilization(makespan))),
                ])
            })
            .collect();
        let fabric = match &self.fabric {
            None => Value::Null,
            Some(f) => obj(vec![
                ("label", Value::Str(f.label.clone())),
                ("links", fabric_links_json(f, makespan)),
                ("contention", contention_json(self.contention())),
            ]),
        };
        let retired = self.replicas.iter().filter(|r| r.retired).count();
        let mut fields = vec![
            ("shape", Value::Str("fleet".into())),
            ("control", Value::Str(self.control.clone())),
            ("replica_count", Value::Int(self.replicas.len() as i128)),
            ("retired", Value::Int(retired as i128)),
            ("completions", Value::Int(self.total_completions() as i128)),
            ("transfers", Value::Int(self.transfers.len() as i128)),
            ("assignments", Value::Int(self.assignments.len() as i128)),
            ("makespan_ps", Value::Int(self.makespan_ps as i128)),
            ("makespan_s", Value::Float(self.makespan_s())),
            ("generation_tput_tok_s", Value::Float(self.generation_throughput())),
            ("slo", self.slo().json_value()),
            ("reuse", self.aggregate_reuse().json_value()),
            ("replicas", Value::Array(replicas)),
            ("fabric", fabric),
        ];
        // The resilience key exists only for chaos runs; chaos-free
        // summaries stay byte-identical to the pre-chaos engine.
        if let Some(res) = &self.resilience {
            let abandoned: Vec<Value> = res
                .abandoned
                .iter()
                .map(|(id, reason)| {
                    obj(vec![
                        ("id", Value::Int(*id as i128)),
                        ("reason", Value::Str(reason.clone())),
                    ])
                })
                .collect();
            let windows: Vec<Value> = res
                .fault_windows
                .iter()
                .map(|&(s, e)| {
                    obj(vec![
                        ("start_ps", Value::Int(s as i128)),
                        ("end_ps", Value::Int(e as i128)),
                    ])
                })
                .collect();
            let downtime: Vec<Value> =
                res.downtime.iter().map(|&d| Value::Float(d as f64 / 1e12)).collect();
            let (slo_in_fault, slo_clear) =
                self.slo_by_fault_window().expect("resilience is present"); // llmss-lint: allow(p001, reason = "only reached when the resilience section exists")
            fields.push((
                "resilience",
                obj(vec![
                    ("faults_injected", Value::Int(res.faults_injected as i128)),
                    ("requests_retried", Value::Int(res.requests_retried as i128)),
                    ("requests_abandoned", Value::Int(res.requests_abandoned as i128)),
                    ("abandoned", Value::Array(abandoned)),
                    ("kv_bytes_lost", Value::Int(res.kv_bytes_lost as i128)),
                    (
                        "re_prefill_overhead_s",
                        Value::Float(self.re_prefill_overhead_ps().unwrap_or(0) as f64 / 1e12),
                    ),
                    ("availability", Value::Float(self.availability().unwrap_or(1.0))),
                    ("downtime_s", Value::Array(downtime)),
                    ("fault_windows", Value::Array(windows)),
                    ("slo_in_fault", slo_in_fault.json_value()),
                    ("slo_clear", slo_clear.json_value()),
                ]),
            ));
        }
        serde_json::value_to_string_pretty(&obj(fields)) + "\n"
    }

    /// Per-replica TSV (the CLI's `{output}-fleet.tsv`): one row per
    /// replica plus a `fleet` totals row carrying the SLO percentiles.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "replica\trole\thome_role\tretired\trouted\tpaired\tcompleted\
             \titerations\tbusy_s\tutilization\tttft_p50\tttft_p95\tttft_p99\
             \tlat_p50\tlat_p95\tlat_p99\n",
        );
        let makespan = self.makespan_ps;
        let stats = self.per_replica();
        for (r, s) in self.replicas.iter().zip(&stats) {
            let ttft = PercentileSummary::tsv_fields_or_dashes(r.report.ttft_percentiles());
            let lat = PercentileSummary::tsv_fields_or_dashes(r.report.latency_percentiles());
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.4}\t{:.4}\t{ttft}\t{lat}\n",
                s.replica,
                r.role,
                r.home_role,
                r.retired,
                r.routed,
                r.paired,
                s.completions,
                s.iterations,
                s.busy_ps as f64 / 1e12,
                s.utilization(makespan),
            ));
        }
        let slo = self.slo();
        let ttft = PercentileSummary::tsv_fields_or_dashes(slo.ttft);
        let lat = PercentileSummary::tsv_fields_or_dashes(slo.latency);
        out.push_str(&format!(
            "fleet\t-\t-\t-\t{}\t{}\t{}\t{}\t{:.4}\t-\t{ttft}\t{lat}\n",
            self.assignments.len(),
            self.transfers.len(),
            self.total_completions(),
            stats.iter().map(|s| s.iterations).sum::<usize>(),
            stats.iter().map(|s| s.busy_ps).sum::<TimePs>() as f64 / 1e12,
        ));
        // The fabric section exists only for fair-sharing runs; the
        // legacy FIFO wire emits exactly the pre-fabric TSV above.
        if let Some(fabric) = &self.fabric {
            push_fabric_tsv(&mut out, fabric, makespan, self.contention());
        }
        // The resilience section exists only for chaos runs; chaos-free
        // TSVs stay byte-identical to the pre-chaos engine.
        if let Some(res) = &self.resilience {
            out.push_str(&format!(
                "\nresilience\nfaults\tretried\tabandoned\tkv_bytes_lost\
                 \tre_prefill_s\tavailability\n{}\t{}\t{}\t{}\t{:.4}\t{:.6}\n",
                res.faults_injected,
                res.requests_retried,
                res.requests_abandoned,
                res.kv_bytes_lost,
                self.re_prefill_overhead_ps().unwrap_or(0) as f64 / 1e12,
                self.availability().unwrap_or(1.0),
            ));
            out.push_str("replica\tdowntime_s\n");
            for (i, &d) in res.downtime.iter().enumerate() {
                out.push_str(&format!("{i}\t{:.4}\n", d as f64 / 1e12));
            }
            if let Some((slo_in, slo_clear)) = self.slo_by_fault_window() {
                out.push_str(
                    "window\tttft_p50\tttft_p95\tttft_p99\tlat_p50\tlat_p95\tlat_p99\n",
                );
                for (label, slo) in [("in_fault", slo_in), ("clear", slo_clear)] {
                    let ttft = PercentileSummary::tsv_fields_or_dashes(slo.ttft);
                    let lat = PercentileSummary::tsv_fields_or_dashes(slo.latency);
                    out.push_str(&format!("{label}\t{ttft}\t{lat}\n"));
                }
            }
        }
        out
    }
}

impl ReportOutput for FleetReport {
    fn summary(&self) -> String {
        FleetReport::summary(self)
    }

    fn artifacts(&self) -> Vec<(&'static str, String)> {
        vec![("-fleet.tsv", self.to_tsv()), ("-summary.json", self.summary_json())]
    }
}
