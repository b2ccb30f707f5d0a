//! The three benchmark workloads: their scenario text and their traces.
//!
//! Every workload is a scenario file, built from the benchmark's seed, so
//! the timed region starts where a user's run starts: at scenario text.
//! Arrivals are open-loop in virtual time (bursty or Poisson schedules
//! fixed before the run), so a slow simulated replica never slows the
//! offered load.

use std::fmt::Write as _;

use llmss_sched::{
    bursty_trace, trace_to_tsv, BurstyTraceSpec, Dataset, Request, TimePs, TraceGenerator,
};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 256 homogeneous GPT-2 replicas, bucketed memo + shared cache,
    /// sharded stepping: the iteration-hit path.
    FleetDecode,
    /// One GPT-3 7B replica on 4 NPUs, exact memoization: the full
    /// convert → engine → net path on nearly every iteration.
    SingleExact,
    /// 4 prefill × 4 decode over a fair-shared star fabric, with
    /// telemetry recorded and exported: the serial fabric/telemetry path.
    DisaggObserved,
}

/// Replicas in the `fleet-decode` fleet.
const FLEET_REPLICAS: usize = 256;
/// Bursts in the `fleet-decode` trace: one request per replica each.
const FLEET_BURSTS: usize = 40;
/// Gap between `fleet-decode` bursts (one request per replica per
/// 12 ms keeps steady-state batches mid-depth, see `fleet_trace`).
const FLEET_BURST_GAP_MS: f64 = 12.0;
/// Distinct decode lengths in the `fleet-decode` mix (64..=384 tokens).
const FLEET_OUTPUT_CLASSES: u64 = 6;

/// Requests in the `single-exact` ShareGPT trace.
const SINGLE_REQUESTS: usize = 160;
/// Poisson arrival rate of the `single-exact` trace, requests/s (below
/// the replica's service rate, so no backlog builds up).
const SINGLE_RATE: f64 = 4.0;
/// Size of the ShareGPT length population the `single-exact` lengths
/// are stratified from.
const SHAREGPT_POPULATION: usize = 20_000;

/// Bursts and burst size of the `disagg-observed` mix.
const DISAGG_BURSTS: usize = 96;
const DISAGG_BURST_SIZE: usize = 32;
/// Idle gap between `disagg-observed` bursts, ms.
const DISAGG_BURST_GAP_MS: f64 = 60.0;
/// Oversubscribed trunk of the `disagg-observed` star, GB/s (access
/// links run at 32 GB/s): contended but not saturated.
const DISAGG_TRUNK_GBPS: f64 = 16.0;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::FleetDecode, Workload::SingleExact, Workload::DisaggObserved];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDecode => "fleet-decode",
            Workload::SingleExact => "single-exact",
            Workload::DisaggObserved => "disagg-observed",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the run attaches a memory sink and exports the Chrome
    /// trace and timeline (the `run --trace --timeline` path).
    pub fn telemetry(self) -> bool {
        self == Workload::DisaggObserved
    }

    /// The scenario overrides that turn this workload into the same
    /// build's exact mode: unit KV buckets, no shared cache, the serial
    /// fleet loop, and no telemetry (which never changes outcomes).
    pub fn exact_overrides(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::FleetDecode => {
                &[("kv_bucket", "1"), ("fleet.shared_cache", "false"), ("fleet.shards", "1")]
            }
            Workload::SingleExact => &[],
            Workload::DisaggObserved => &[("kv_bucket", "1"), ("telemetry", "none")],
        }
    }

    /// The scenario file for `seed`. `trace_path` names the request
    /// trace written by [`Workload::write_inputs`] (used by workloads
    /// whose trace no scenario generator expresses).
    pub fn scenario_text(self, seed: u64, trace_path: &str) -> String {
        let mut s = String::new();
        match self {
            Workload::FleetDecode => {
                let _ = write!(
                    s,
                    "model = \"gpt2\"\nnpus = 1\nparallel = \"tensor\"\nmax_batch = 32\n\
                     kv_bucket = 64\nreplicas = {FLEET_REPLICAS}\nrouting = \"round-robin\"\n\
                     seed = {seed}\n\n[fleet]\ncontrol = \"static\"\nshards = 2\n\
                     shared_cache = true\n\n[workload]\nkind = \"trace\"\npath = {}\n",
                    toml_string(trace_path)
                );
            }
            Workload::SingleExact => {
                let _ = write!(
                    s,
                    "model = \"gpt3-7b\"\nnpus = 4\nparallel = \"tensor\"\nkv_bucket = 1\n\
                     seed = {seed}\n\n[workload]\nkind = \"trace\"\npath = {}\n",
                    toml_string(trace_path)
                );
            }
            Workload::DisaggObserved => {
                let _ = write!(
                    s,
                    "model = \"gpt2\"\nnpus = 1\nparallel = \"tensor\"\ndisagg = \"4x4\"\n\
                     routing = \"least-outstanding\"\npairing = \"least-kv\"\nkv_bucket = 64\n\
                     seed = {seed}\n\n[fabric]\ntopology = \"star8\"\nsharing = \"fair\"\n\
                     bw_gbps = 32.0\ntrunk_gbps = {DISAGG_TRUNK_GBPS:?}\nlatency_ns = 150.0\n\n\
                     [telemetry]\ntrace = \"auto\"\ntimeline = \"auto\"\n\n\
                     [workload]\nkind = \"bursty\"\nbursts = {DISAGG_BURSTS}\n\
                     burst_size = {DISAGG_BURST_SIZE}\nburst_gap_ms = {DISAGG_BURST_GAP_MS:?}\n\
                     heavy_every = 0\nheavy_frac = 0.4\nheavy = [1024, 8]\nlight = [32, 48]\n\
                     poisson_rate = 5000.0\nseed = {seed}\n"
                );
            }
        }
        s
    }

    /// Writes the request trace the scenario file points at, outside
    /// every timed region (`disagg-observed` generates its own).
    ///
    /// # Errors
    ///
    /// Propagates the write failure as a message.
    pub fn write_inputs(self, seed: u64, trace_path: &str) -> Result<(), String> {
        let trace = match self {
            Workload::FleetDecode => fleet_trace(seed),
            Workload::SingleExact => sharegpt_trace(seed),
            Workload::DisaggObserved => return Ok(()),
        };
        std::fs::write(trace_path, trace_to_tsv(&trace))
            .map_err(|e| format!("write {trace_path}: {e}"))
    }
}

/// A uniform draw in `[0, 1)` from a splitmix64 stream.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(1);
    (splitmix64(*state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (uniform(state) * (i + 1) as f64) as usize;
        items.swap(i, j.min(i));
    }
}

/// The `single-exact` trace: ShareGPT-like prompt and output lengths at
/// Poisson arrivals, drawn so that every seed offers the same token mix.
///
/// * Lengths are stratified: request `i` of `n` takes the `(i + ½)/n`
///   quantile of a large ShareGPT length population (prompts and outputs
///   separately), and the seed shuffles which request gets which.
/// * Arrivals are `n` sorted uniform draws over `n / rate` seconds: a
///   Poisson process conditioned on its count, so the offered span is
///   the same for every seed.
///
/// Plain i.i.d. draws let a seed's total work swing by a fifth at this
/// trace size, which would show as host-time spread between seeds.
fn sharegpt_trace(seed: u64) -> Vec<Request> {
    let n = SINGLE_REQUESTS;
    let population =
        TraceGenerator::new(Dataset::ShareGpt, 0).generate_burst(SHAREGPT_POPULATION);
    let stratified = |mut lens: Vec<usize>, state: &mut u64| {
        lens.sort_unstable();
        let mut picked: Vec<usize> =
            (0..n).map(|i| lens[(2 * i + 1) * lens.len() / (2 * n)]).collect();
        shuffle(&mut picked, state);
        picked
    };
    let mut state = splitmix64(seed);
    let prompts = stratified(population.iter().map(|r| r.input_len).collect(), &mut state);
    let outputs = stratified(population.iter().map(|r| r.output_len).collect(), &mut state);
    let span_ps = n as f64 / SINGLE_RATE * 1e12;
    let mut arrivals: Vec<TimePs> =
        (0..n).map(|_| (uniform(&mut state) * span_ps) as TimePs).collect();
    arrivals.sort_unstable();
    (0..n).map(|i| Request::new(i as u64, prompts[i], outputs[i], arrivals[i])).collect()
}

/// splitmix64: a stateless seeded mixer, so each request's output class
/// depends only on the seed and its id.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The decode-heavy burst trace of the `fleetscale` binary: each burst
/// offers one request per replica (1 µs apart), bursts 12 ms apart, and
/// output lengths spread over six classes (64..=384 tokens). A uniform
/// bursty mix collapses to singleton batches; six classes keep batches
/// mid-depth and the signature space wide. The class draw is mixed with
/// the seed, so every random choice in the trace comes from it.
fn fleet_trace(seed: u64) -> Vec<Request> {
    let mut spec = BurstyTraceSpec::decode_heavy_mix(0.9, seed);
    spec.heavy = (32, 256);
    spec.light = (32, 64);
    spec.bursts = FLEET_BURSTS;
    spec.burst_size = FLEET_REPLICAS;
    spec.burst_gap_ms = FLEET_BURST_GAP_MS;
    spec.poisson_rate_per_s = 0.0;
    let salt = splitmix64(seed);
    let mut requests = bursty_trace(&spec);
    for r in &mut requests {
        r.output_len = (64 + (splitmix64(r.id ^ salt) % FLEET_OUTPUT_CLASSES) * 64) as usize;
    }
    requests
}

/// A TOML basic string.
fn toml_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
