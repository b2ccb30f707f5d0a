//! The correctness gate, the simulated digest, and the exact-mode
//! reference the fidelity metrics compare against.

use std::path::{Path, PathBuf};
use std::process::Command;

use llmss_core::ReportOutput;
use llmss_scenario::{AnyReport, Scenario};
use llmss_sched::{Request, TimePs};
use serde::{Deserialize, Value};

use crate::sys::{fnv1a, FNV_BASIS};
use crate::workload::Workload;

/// What a checked run simulated: the SLO percentiles, the makespan and
/// a digest of the summary JSON plus every request's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub ttft_p50_s: f64,
    pub ttft_p99_s: f64,
    pub tpot_p50_s: f64,
    pub tpot_p99_s: f64,
    pub makespan_s: f64,
    pub digest: u64,
}

/// One end-to-end completion: `(id, arrival, first token, finish)`.
type Lifecycle = (u64, TimePs, TimePs, TimePs);

fn lifecycles(report: &AnyReport) -> Result<Vec<Lifecycle>, String> {
    let life =
        |c: &llmss_sched::Completion| (c.id, c.arrival_ps, c.first_token_ps, c.finish_ps);
    Ok(match report {
        AnyReport::Single(r) => r.completions.iter().map(life).collect(),
        AnyReport::Fleet(r) => r.completions.iter().map(life).collect(),
        AnyReport::Disagg(r) => r
            .completions
            .iter()
            .map(|c| (c.id, c.arrival_ps, c.first_token_ps, c.finish_ps))
            .collect(),
        AnyReport::Cluster(_) => {
            return Err("the cluster shape is not a benchmark shape".into())
        }
    })
}

/// The summary-JSON artifact of a rendered report.
pub fn summary_json(artifacts: &[(&'static str, String)]) -> Result<String, String> {
    artifacts
        .iter()
        .find(|(suffix, _)| *suffix == "-summary.json")
        .map(|(_, text)| text.clone())
        .ok_or_else(|| "the report renders no -summary.json".into())
}

/// Any JSON document, kept as the vendored value tree.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Raw(v.clone()))
    }
}

/// Checks one finished run against the requests it was offered:
///
/// * each offered request completes exactly once;
/// * every request's arrival is the offered one, and
///   arrival ≤ first token ≤ finish;
/// * the summary JSON parses and counts the offered requests.
///
/// # Errors
///
/// Returns the first violation.
pub fn gate(report: &AnyReport, summary: &str, offered: &[Request]) -> Result<Outcome, String> {
    let mut seen = vec![0u32; offered.len()];
    let mut lives = lifecycles(report)?;
    lives.sort_unstable();
    for &(id, arrival, first, finish) in &lives {
        let slot = usize::try_from(id)
            .ok()
            .filter(|&i| i < offered.len())
            .ok_or_else(|| format!("request {id} completed but was never offered"))?;
        seen[slot] += 1;
        if arrival != offered[slot].arrival_ps {
            return Err(format!(
                "request {id} arrived at {arrival} ps, offered at {} ps",
                offered[slot].arrival_ps
            ));
        }
        if !(arrival <= first && first <= finish) {
            return Err(format!(
                "request {id}: arrival {arrival} <= first token {first} <= finish {finish} fails"
            ));
        }
    }
    if let Some(slot) = seen.iter().position(|&n| n != 1) {
        return Err(format!("request {slot} completed {} times", seen[slot]));
    }
    let Raw(json) = serde_json::from_str(summary)
        .map_err(|e| format!("summary JSON does not parse: {e}"))?;
    match json.get("completions") {
        Some(Value::Int(n)) if *n == offered.len() as i128 => {}
        other => {
            return Err(format!(
                "summary JSON counts {other:?} completions, {} were offered",
                offered.len()
            ))
        }
    }
    let mut digest = fnv1a(summary.as_bytes(), FNV_BASIS);
    for &(id, arrival, first, finish) in &lives {
        for word in [id, arrival, first, finish] {
            digest = fnv1a(&word.to_le_bytes(), digest);
        }
    }
    let slo = report.slo();
    let (ttft, tpot) = slo.ttft.zip(slo.tpot).ok_or("the run has no TTFT/TPOT samples")?;
    Ok(Outcome {
        ttft_p50_s: ttft.p50_s,
        ttft_p99_s: ttft.p99_s,
        tpot_p50_s: tpot.p50_s,
        tpot_p99_s: tpot.p99_s,
        makespan_s: report.makespan_s(),
        digest,
    })
}

/// Builds `text` with `overrides` applied, runs it to completion, and
/// gates the result (the untimed path the reference takes).
fn run_checked(
    text: &str,
    overrides: &[(&str, &str)],
    offered: &[Request],
) -> Result<(Outcome, String), String> {
    let mut scenario = Scenario::from_toml(text).map_err(|e| e.to_string())?;
    for (key, value) in overrides {
        scenario.set(key, value).map_err(|e| e.to_string())?;
    }
    let report = scenario.run().map_err(|e| e.to_string())?;
    let summary = summary_json(&report.artifacts())?;
    let outcome = gate(&report, &summary, offered)?;
    Ok((outcome, summary))
}

/// Per build and seed: the exact-mode percentiles the fidelity metrics
/// compare against, and the digest every measured run must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub exact: Outcome,
    pub digest: u64,
}

impl Reference {
    /// Computes the reference in this process: the exact-mode run, the
    /// measured configuration once, and for `fleet-decode` the same
    /// configuration at `fleet.shards = 1`, which must match `shards = 2`.
    ///
    /// # Errors
    ///
    /// Fails when a run fails its gate or the shard counts disagree.
    pub fn compute(
        workload: Workload,
        text: &str,
        offered: &[Request],
    ) -> Result<Self, String> {
        let (measured, summary) = run_checked(text, &[], offered)?;
        let exact = match workload.exact_overrides() {
            [] => measured,
            overrides => run_checked(text, overrides, offered)?.0,
        };
        if workload == Workload::FleetDecode {
            let (serial, serial_summary) =
                run_checked(text, &[("fleet.shards", "1")], offered)?;
            if serial_summary != summary || serial.digest != measured.digest {
                return Err("fleet.shards = 1 and fleet.shards = 2 produce different \
                            summaries"
                    .into());
            }
        }
        Ok(Self { exact, digest: measured.digest })
    }

    fn encode(&self) -> String {
        let e = &self.exact;
        format!(
            "{:?} {:?} {:?} {:?} {:?} {} {}\n",
            e.ttft_p50_s,
            e.ttft_p99_s,
            e.tpot_p50_s,
            e.tpot_p99_s,
            e.makespan_s,
            e.digest,
            self.digest
        )
    }

    fn decode(text: &str) -> Option<Self> {
        let f: Vec<&str> = text.split_whitespace().collect();
        let [a, b, c, d, e, g, h] = f.as_slice() else { return None };
        Some(Self {
            exact: Outcome {
                ttft_p50_s: a.parse().ok()?,
                ttft_p99_s: b.parse().ok()?,
                tpot_p50_s: c.parse().ok()?,
                tpot_p99_s: d.parse().ok()?,
                makespan_s: e.parse().ok()?,
                digest: g.parse().ok()?,
            },
            digest: h.parse().ok()?,
        })
    }

    /// The cache file of this build, workload and seed.
    pub fn cache_path(dir: &Path, build_id: &str, workload: Workload, seed: u64) -> PathBuf {
        dir.join(format!("{build_id}-{}-{seed}.ref", workload.name()))
    }

    /// Writes the cache file atomically (temp file, then rename).
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error as a message.
    pub fn store(&self, path: &Path) -> Result<(), String> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
    }

    /// Loads the cached reference, computing it first in a child
    /// process when absent: the child's memory never shows in this
    /// process's peak RSS, and its time in no timed region.
    ///
    /// # Errors
    ///
    /// Fails when the child fails or leaves no readable cache.
    pub fn load_or_compute(path: &Path, workload: Workload, seed: u64) -> Result<Self, String> {
        if let Some(reference) =
            std::fs::read_to_string(path).ok().and_then(|t| Self::decode(&t))
        {
            return Ok(reference);
        }
        let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
        let status = Command::new(exe)
            .args(["--reference", "--workload", workload.name(), "--seed", &seed.to_string()])
            .status()
            .map_err(|e| format!("spawn the reference run: {e}"))?;
        if !status.success() {
            return Err(format!("the reference run failed ({status})"));
        }
        std::fs::read_to_string(path)
            .ok()
            .and_then(|t| Self::decode(&t))
            .ok_or_else(|| format!("the reference run left no cache at {}", path.display()))
    }
}

/// Fidelity as an error factor: the larger of `measured / exact` and
/// its inverse, so 1.0 is exact and the factor never reads 0.
pub fn error_factor(measured: f64, exact: f64) -> f64 {
    (measured / exact).max(exact / measured)
}
