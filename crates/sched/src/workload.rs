//! Pluggable traffic sources: the [`Workload`] trait and the declarative
//! [`WorkloadSpec`] value behind it.
//!
//! Every front-end used to dispatch on CLI strings to decide where its
//! requests came from; a workload is now a *value* that any driver can
//! materialize into a request trace:
//!
//! * [`WorkloadSpec::Synthetic`] — the paper's ShareGPT/Alpaca-like
//!   length models with seeded Poisson arrivals ([`TraceGenerator`]).
//! * [`WorkloadSpec::Bursty`] — skewed, bursty routing-experiment traffic
//!   ([`BurstyTraceSpec`], kept here so schedulers,
//!   clusters, and scenario files all share one generator), including the
//!   prefill-/decode-heavy mixture knobs.
//! * [`WorkloadSpec::TraceFile`] — the artifact's TSV trace format.
//!
//! `WorkloadSpec` serializes to a `kind`-tagged object (the `[workload]`
//! table of a scenario file) and rejects unknown keys, so scenario-file
//! schema drift fails loudly instead of silently ignoring a typo.
//!
//! # Examples
//!
//! ```
//! use llmss_sched::{Dataset, Workload, WorkloadSpec};
//!
//! let spec = WorkloadSpec::Synthetic {
//!     dataset: Dataset::Alpaca,
//!     requests: 8,
//!     rate_per_s: 100.0,
//!     seed: 7,
//! };
//! let trace = spec.materialize().unwrap();
//! assert_eq!(trace.len(), 8);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Error, Serialize, Value};

use crate::{trace_from_tsv, Dataset, Request, TimePs, TraceGenerator, EVENT_HORIZON_PS};

/// Shape of a bursty, size-skewed trace.
///
/// Requests arrive in `bursts` bursts of `burst_size`, separated by
/// `burst_gap_ms` of silence. Within a burst, arrivals are 1 µs apart
/// (ordered, effectively simultaneous at serving timescales) unless
/// `poisson_rate_per_s` is set, in which case intra-burst gaps are drawn
/// from a seeded exponential distribution (a Poisson arrival process).
///
/// Heavy requests carry the `heavy` input/output token counts; the rest
/// use `light`. Placement is either *periodic* (every `heavy_every`-th
/// request by global index — deliberately adversarial to round-robin:
/// when `heavy_every` is a multiple of the replica count, round-robin
/// funnels *all* heavy requests to the same replicas) or *stochastic*
/// (`heavy_frac > 0`: each request is heavy with that probability,
/// seeded). The heavy/light pairs double as the long-prompt/short-decode
/// mixture knob for disaggregation experiments — see
/// [`prefill_heavy_mix`](Self::prefill_heavy_mix) and
/// [`decode_heavy_mix`](Self::decode_heavy_mix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstyTraceSpec {
    /// Number of bursts.
    pub bursts: usize,
    /// Requests per burst.
    pub burst_size: usize,
    /// Idle gap between bursts, in milliseconds.
    pub burst_gap_ms: f64,
    /// Every `heavy_every`-th request is heavy (0 disables the periodic
    /// rule; ignored when `heavy_frac > 0`).
    pub heavy_every: usize,
    /// Probability that any given request is heavy (0.0 keeps the
    /// periodic `heavy_every` rule).
    pub heavy_frac: f64,
    /// `(input_len, output_len)` of light requests.
    pub light: (usize, usize),
    /// `(input_len, output_len)` of heavy requests.
    pub heavy: (usize, usize),
    /// Mean intra-burst arrival rate in requests/s; 0.0 keeps the fixed
    /// 1 µs spacing, > 0 draws exponential inter-arrival gaps.
    pub poisson_rate_per_s: f64,
    /// Seed for the stochastic knobs (`heavy_frac`,
    /// `poisson_rate_per_s`).
    pub seed: u64,
}

impl Default for BurstyTraceSpec {
    fn default() -> Self {
        Self {
            bursts: 8,
            burst_size: 25,
            burst_gap_ms: 40.0,
            heavy_every: 4,
            heavy_frac: 0.0,
            light: (32, 8),
            heavy: (512, 64),
            poisson_rate_per_s: 0.0,
            seed: 0,
        }
    }
}

impl BurstyTraceSpec {
    /// Total requests the spec generates.
    pub fn total_requests(&self) -> usize {
        self.bursts * self.burst_size
    }

    /// A prefill-heavy mixture: `frac` of requests carry long prompts
    /// with short decodes (the disaggregation sweet spot — big KV builds
    /// that stall co-batched decoders), the rest are light conversational
    /// requests. Arrivals within a burst follow a seeded Poisson process.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `[0, 1]`.
    pub fn prefill_heavy_mix(frac: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "mixture fraction must be in [0, 1]");
        Self {
            heavy: (1024, 8), // long prompt, short decode
            light: (32, 48),
            heavy_every: 0,
            heavy_frac: frac,
            poisson_rate_per_s: 5_000.0,
            seed,
            ..Self::default()
        }
    }

    /// A decode-heavy mixture: `frac` of requests stream long outputs
    /// from short prompts (disaggregation pays for the transfer without
    /// relieving much prefill pressure).
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `[0, 1]`.
    pub fn decode_heavy_mix(frac: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "mixture fraction must be in [0, 1]");
        Self {
            heavy: (32, 256), // short prompt, long decode
            light: (32, 48),
            heavy_every: 0,
            heavy_frac: frac,
            poisson_rate_per_s: 5_000.0,
            seed,
            ..Self::default()
        }
    }
}

/// Generates the bursty trace described by `spec` (see
/// [`BurstyTraceSpec`]). Fully deterministic: the stochastic knobs
/// (Poisson arrivals, Bernoulli heavy placement) are driven by
/// `spec.seed`, and arrivals are strictly increasing either way.
///
/// # Examples
///
/// ```
/// use llmss_sched::{bursty_trace, BurstyTraceSpec};
///
/// let trace = bursty_trace(&BurstyTraceSpec::default());
/// assert_eq!(trace.len(), 200);
/// assert!(trace.windows(2).all(|w| w[0].arrival_ps < w[1].arrival_ps));
///
/// // Seeded Poisson arrivals + 40% long-prompt/short-decode mix.
/// let mix = bursty_trace(&BurstyTraceSpec::prefill_heavy_mix(0.4, 7));
/// assert_eq!(mix, bursty_trace(&BurstyTraceSpec::prefill_heavy_mix(0.4, 7)));
/// assert!(mix.windows(2).all(|w| w[0].arrival_ps < w[1].arrival_ps));
/// ```
pub fn bursty_trace(spec: &BurstyTraceSpec) -> Vec<Request> {
    // Clock arithmetic saturates: a gap or rate that runs the arrivals
    // off the picosecond clock pins them at `TimePs::MAX`, which
    // `materialize` rejects as past the event horizon.
    let gap_ps = (spec.burst_gap_ms * 1e9) as TimePs;
    let intra_ps: TimePs = 1_000_000; // 1 µs between arrivals in a burst
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut out = Vec::with_capacity(spec.total_requests());
    let mut clock: TimePs = 0;
    for burst in 0..spec.bursts {
        let burst_start = (burst as TimePs).saturating_mul(gap_ps);
        // Poisson tails may spill past the nominal burst boundary; never
        // let a later burst start behind an earlier arrival.
        clock = clock.max(burst_start);
        for slot in 0..spec.burst_size {
            let id = (burst * spec.burst_size + slot) as u64;
            let heavy = if spec.heavy_frac > 0.0 {
                rng.gen_bool(spec.heavy_frac)
            } else {
                spec.heavy_every > 0 && (id as usize).is_multiple_of(spec.heavy_every)
            };
            let (input_len, output_len) = if heavy { spec.heavy } else { spec.light };
            let arrival = if spec.poisson_rate_per_s > 0.0 {
                if slot > 0 {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let gap_s = -u.ln() / spec.poisson_rate_per_s;
                    clock = clock.saturating_add(((gap_s * 1e12) as TimePs).max(1));
                }
                clock
            } else {
                burst_start.saturating_add(slot as TimePs * intra_ps)
            };
            clock = arrival;
            out.push(Request::new(id, input_len, output_len, arrival));
        }
        // Keep monotonicity across bursts even if a tail spilled over.
        clock = clock.saturating_add(1);
    }
    out
}

/// Why a workload could not be materialized into a request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// A trace file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// A trace file could not be parsed.
    Parse {
        /// The path that failed.
        path: String,
        /// The parser's description of the first malformed line.
        message: String,
    },
    /// A generator parameter is out of its valid range.
    Invalid {
        /// Human-readable description of the bad parameter.
        message: String,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Io { path, message } => {
                write!(f, "cannot read workload trace {path}: {message}")
            }
            WorkloadError::Parse { path, message } => {
                write!(f, "malformed workload trace {path}: {message}")
            }
            WorkloadError::Invalid { message } => write!(f, "invalid workload: {message}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A pluggable traffic source: anything that can be materialized into a
/// request trace, sorted by arrival time.
///
/// Implemented by the declarative [`WorkloadSpec`], by the concrete
/// generators ([`TraceGenerator`], [`BurstyTraceSpec`]), and by plain
/// request vectors — so drivers take *values*, not CLI-string dispatch.
pub trait Workload: std::fmt::Debug {
    /// Materializes the full request trace.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] when the source cannot produce a trace
    /// (unreadable/malformed file, out-of-range parameter).
    fn materialize(&self) -> Result<Vec<Request>, WorkloadError>;
}

impl Workload for BurstyTraceSpec {
    fn materialize(&self) -> Result<Vec<Request>, WorkloadError> {
        Ok(bursty_trace(self))
    }
}

impl Workload for Vec<Request> {
    fn materialize(&self) -> Result<Vec<Request>, WorkloadError> {
        Ok(self.clone())
    }
}

/// The declarative, serializable traffic source of a scenario: the
/// `[workload]` table of a scenario file.
///
/// Serialized as a `kind`-tagged object (`synthetic` | `bursty` |
/// `trace`); deserialization starts from the kind's defaults, applies
/// only the keys present, and rejects unknown keys.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Seeded Poisson arrivals over a named length distribution (the
    /// paper's ShareGPT/Alpaca-like models, or fixed lengths).
    Synthetic {
        /// Length distribution.
        dataset: Dataset,
        /// Number of requests to generate.
        requests: usize,
        /// Poisson arrival rate in requests per second.
        rate_per_s: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Bursty, size-skewed traffic for routing/disaggregation
    /// experiments.
    Bursty {
        /// The burst shape and mixture knobs.
        spec: BurstyTraceSpec,
    },
    /// A request trace in the artifact's TSV format
    /// (`input_toks  output_toks  arrival_ms`).
    TraceFile {
        /// Path to the TSV file.
        path: String,
    },
}

impl Default for WorkloadSpec {
    /// The legacy CLI's default traffic: 64 Alpaca-like requests at
    /// 4 req/s, seed 42.
    fn default() -> Self {
        WorkloadSpec::Synthetic {
            dataset: Dataset::Alpaca,
            requests: 64,
            rate_per_s: 4.0,
            seed: 42,
        }
    }
}

impl WorkloadSpec {
    /// The `kind` tag this spec serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Synthetic { .. } => "synthetic",
            WorkloadSpec::Bursty { .. } => "bursty",
            WorkloadSpec::TraceFile { .. } => "trace",
        }
    }

    /// A one-line human description (for run banners).
    pub fn describe(&self) -> String {
        match self {
            WorkloadSpec::Synthetic { dataset, requests, rate_per_s, seed } => {
                format!("synthetic {dataset} x{requests} @ {rate_per_s} req/s (seed {seed})")
            }
            WorkloadSpec::Bursty { spec } => format!(
                "bursty {}x{} ({}in/{}out heavy, {}in/{}out light)",
                spec.bursts,
                spec.burst_size,
                spec.heavy.0,
                spec.heavy.1,
                spec.light.0,
                spec.light.1
            ),
            WorkloadSpec::TraceFile { path } => format!("trace {path}"),
        }
    }

    /// Overrides the seed of a seeded generator (no-op for trace files) —
    /// how `--seed` reaches the workload without a second flag.
    pub fn reseed(&mut self, new_seed: u64) {
        match self {
            WorkloadSpec::Synthetic { seed, .. } => *seed = new_seed,
            WorkloadSpec::Bursty { spec } => spec.seed = new_seed,
            WorkloadSpec::TraceFile { .. } => {}
        }
    }

    /// Sets one field by its serialized key (`dataset`, `requests`,
    /// `rate`, `seed`, `path`, `bursts`, `burst_size`, `burst_gap_ms`,
    /// `heavy_every`, `heavy_frac`, `poisson_rate`, `light`, `heavy` as
    /// `INxOUT`) — or `kind`, which switches the variant to its
    /// defaults. This is the string-override surface shared by CLI flags
    /// and sweep grids.
    ///
    /// # Errors
    ///
    /// Returns a message when the key does not exist on the current
    /// kind or the value does not parse.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            value.parse().map_err(|e| format!("workload.{key}: {e}"))
        }
        fn parse_pair(key: &str, value: &str) -> Result<(usize, usize), String> {
            let (i, o) = value
                .split_once('x')
                .ok_or_else(|| format!("workload.{key} expects INxOUT, got '{value}'"))?;
            Ok((parse(key, i)?, parse(key, o)?))
        }
        if key == "kind" {
            *self = match value {
                "synthetic" => WorkloadSpec::default(),
                "bursty" => WorkloadSpec::Bursty { spec: BurstyTraceSpec::default() },
                "trace" => WorkloadSpec::TraceFile { path: String::new() },
                other => {
                    return Err(format!(
                        "unknown workload kind '{other}' (expected synthetic | bursty | trace)"
                    ))
                }
            };
            return Ok(());
        }
        match self {
            WorkloadSpec::Synthetic { dataset, requests, rate_per_s, seed } => match key {
                "dataset" => *dataset = parse(key, value)?,
                "requests" => *requests = parse(key, value)?,
                "rate" => *rate_per_s = parse(key, value)?,
                "seed" => *seed = parse(key, value)?,
                other => {
                    return Err(format!(
                        "unknown synthetic-workload key '{other}' \
                         (expected dataset | requests | rate | seed)"
                    ))
                }
            },
            WorkloadSpec::Bursty { spec } => match key {
                "bursts" => spec.bursts = parse(key, value)?,
                "burst_size" => spec.burst_size = parse(key, value)?,
                "burst_gap_ms" => spec.burst_gap_ms = parse(key, value)?,
                "heavy_every" => spec.heavy_every = parse(key, value)?,
                "heavy_frac" => spec.heavy_frac = parse(key, value)?,
                "poisson_rate" => spec.poisson_rate_per_s = parse(key, value)?,
                "light" => spec.light = parse_pair(key, value)?,
                "heavy" => spec.heavy = parse_pair(key, value)?,
                "seed" => spec.seed = parse(key, value)?,
                other => {
                    return Err(format!(
                        "unknown bursty-workload key '{other}' (expected bursts | \
                         burst_size | burst_gap_ms | heavy_every | heavy_frac | \
                         poisson_rate | light | heavy | seed)"
                    ))
                }
            },
            WorkloadSpec::TraceFile { path } => match key {
                "path" => *path = value.to_owned(),
                other => {
                    return Err(format!("unknown trace-workload key '{other}' (expected path)"))
                }
            },
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        let invalid = |message: String| Err(WorkloadError::Invalid { message });
        match self {
            WorkloadSpec::Synthetic { requests, rate_per_s, .. } => {
                if *requests == 0 {
                    return invalid("synthetic workload needs at least one request".into());
                }
                if !rate_per_s.is_finite() || *rate_per_s <= 0.0 {
                    return invalid(format!("arrival rate must be positive, got {rate_per_s}"));
                }
            }
            WorkloadSpec::Bursty { spec } => {
                if spec.total_requests() == 0 {
                    return invalid(
                        "bursty workload needs bursts >= 1 and burst_size >= 1".into(),
                    );
                }
                if !(0.0..=1.0).contains(&spec.heavy_frac) {
                    return invalid(format!(
                        "heavy_frac must be in [0, 1], got {}",
                        spec.heavy_frac
                    ));
                }
            }
            WorkloadSpec::TraceFile { path } => {
                if path.is_empty() {
                    return invalid("trace workload needs a path".into());
                }
            }
        }
        Ok(())
    }
}

impl Workload for WorkloadSpec {
    fn materialize(&self) -> Result<Vec<Request>, WorkloadError> {
        self.validate()?;
        match self {
            WorkloadSpec::Synthetic { dataset, requests, rate_per_s, seed } => within_horizon(
                "rate",
                TraceGenerator::new(*dataset, *seed)
                    .rate_per_s(*rate_per_s)
                    .generate(*requests),
            ),
            WorkloadSpec::Bursty { spec } => {
                let gaps_ps = spec.bursts.saturating_sub(1) as f64 * spec.burst_gap_ms * 1e9;
                let key = if spec.poisson_rate_per_s > 0.0 && gaps_ps <= EVENT_HORIZON_PS as f64
                {
                    "poisson_rate"
                } else {
                    "burst_gap_ms"
                };
                within_horizon(key, bursty_trace(spec))
            }
            WorkloadSpec::TraceFile { path } => {
                let tsv = std::fs::read_to_string(path).map_err(|e| WorkloadError::Io {
                    path: path.clone(),
                    message: e.to_string(),
                })?;
                trace_from_tsv(&tsv)
                    .map_err(|message| WorkloadError::Parse { path: path.clone(), message })
            }
        }
    }
}

/// Passes a generated (arrival-ordered) trace whose last arrival is
/// inside [`EVENT_HORIZON_PS`]; otherwise names the `workload.*` key
/// that stretched it.
fn within_horizon(key: &str, trace: Vec<Request>) -> Result<Vec<Request>, WorkloadError> {
    match trace.last() {
        Some(last) if last.arrival_ps > EVENT_HORIZON_PS => Err(WorkloadError::Invalid {
            message: format!(
                "workload.{key}: the arrivals run past the event horizon ({} s)",
                EVENT_HORIZON_PS / 1_000_000_000_000
            ),
        }),
        _ => Ok(trace),
    }
}

impl From<BurstyTraceSpec> for WorkloadSpec {
    fn from(spec: BurstyTraceSpec) -> Self {
        WorkloadSpec::Bursty { spec }
    }
}

fn pair_value(pair: (usize, usize)) -> Value {
    Value::Array(vec![Value::Int(pair.0 as i128), Value::Int(pair.1 as i128)])
}

impl Serialize for WorkloadSpec {
    fn to_value(&self) -> Value {
        let mut fields = vec![("kind".to_owned(), Value::Str(self.kind().to_owned()))];
        match self {
            WorkloadSpec::Synthetic { dataset, requests, rate_per_s, seed } => {
                fields.push(("dataset".into(), Value::Str(dataset.spelling())));
                fields.push(("requests".into(), Value::Int(*requests as i128)));
                fields.push(("rate".into(), Value::Float(*rate_per_s)));
                fields.push(("seed".into(), Value::Int(*seed as i128)));
            }
            WorkloadSpec::Bursty { spec } => {
                fields.push(("bursts".into(), Value::Int(spec.bursts as i128)));
                fields.push(("burst_size".into(), Value::Int(spec.burst_size as i128)));
                fields.push(("burst_gap_ms".into(), Value::Float(spec.burst_gap_ms)));
                fields.push(("heavy_every".into(), Value::Int(spec.heavy_every as i128)));
                fields.push(("heavy_frac".into(), Value::Float(spec.heavy_frac)));
                fields.push(("light".into(), pair_value(spec.light)));
                fields.push(("heavy".into(), pair_value(spec.heavy)));
                fields.push(("poisson_rate".into(), Value::Float(spec.poisson_rate_per_s)));
                fields.push(("seed".into(), Value::Int(spec.seed as i128)));
            }
            WorkloadSpec::TraceFile { path } => {
                fields.push(("path".into(), Value::Str(path.clone())));
            }
        }
        Value::Object(fields)
    }
}

impl Deserialize for WorkloadSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let Value::Object(fields) = v else {
            return Err(Error::custom(format!("workload: expected an object, got {v:?}")));
        };
        let kind = match v.get("kind") {
            Some(Value::Str(s)) => s.as_str(),
            Some(other) => {
                return Err(Error::custom(format!(
                    "workload.kind: expected a string, got {other:?}"
                )))
            }
            None => "synthetic",
        };
        let mut spec = WorkloadSpec::default();
        spec.set("kind", kind).map_err(Error::custom)?;
        for (key, value) in fields {
            if key == "kind" {
                continue;
            }
            // Funnel every field through the string-override surface so
            // the file schema and the sweep/CLI schema cannot drift.
            let text = match value {
                Value::Str(s) => s.clone(),
                Value::Int(i) => i.to_string(),
                Value::Float(f) => format!("{f:?}"),
                Value::Bool(b) => b.to_string(),
                Value::Array(items) => {
                    // `light = [32, 8]` spells the INxOUT pair.
                    let parts: Vec<String> = items
                        .iter()
                        .map(|it| match it {
                            Value::Int(i) => Ok(i.to_string()),
                            other => Err(Error::custom(format!(
                                "workload.{key}: expected integers, got {other:?}"
                            ))),
                        })
                        .collect::<Result<_, _>>()?;
                    parts.join("x")
                }
                other => {
                    return Err(Error::custom(format!(
                        "workload.{key}: unsupported value {other:?}"
                    )))
                }
            };
            spec.set(key, &text).map_err(Error::custom)?;
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_requests_land_periodically() {
        let spec = BurstyTraceSpec::default();
        let trace = bursty_trace(&spec);
        for (i, r) in trace.iter().enumerate() {
            let expect_heavy = i % spec.heavy_every == 0;
            assert_eq!(r.input_len == spec.heavy.0, expect_heavy, "request {i}");
        }
    }

    #[test]
    fn bursts_are_separated_by_gaps() {
        let spec = BurstyTraceSpec {
            bursts: 3,
            burst_size: 4,
            burst_gap_ms: 10.0,
            ..BurstyTraceSpec::default()
        };
        let trace = bursty_trace(&spec);
        // Last of burst 0 to first of burst 1 spans (almost) the gap.
        let intra = trace[3].arrival_ps - trace[0].arrival_ps;
        let inter = trace[4].arrival_ps - trace[3].arrival_ps;
        assert!(inter > 100 * intra);
    }

    #[test]
    fn zero_heavy_every_disables_heavies() {
        let spec = BurstyTraceSpec { heavy_every: 0, ..BurstyTraceSpec::default() };
        assert!(bursty_trace(&spec).iter().all(|r| r.input_len == spec.light.0));
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_monotone() {
        let spec =
            BurstyTraceSpec { poisson_rate_per_s: 10_000.0, seed: 3, ..Default::default() };
        let a = bursty_trace(&spec);
        let b = bursty_trace(&spec);
        assert_eq!(a, b, "same seed must reproduce the same arrivals");
        assert!(a.windows(2).all(|w| w[0].arrival_ps < w[1].arrival_ps));
        // Exponential gaps vary; the fixed 1 µs spacing does not.
        let gaps: Vec<TimePs> = a[..spec.burst_size]
            .windows(2)
            .map(|w| w[1].arrival_ps - w[0].arrival_ps)
            .collect();
        let distinct: std::collections::HashSet<_> = gaps.iter().collect();
        assert!(distinct.len() > 3, "gaps look deterministic: {gaps:?}");
        let other = bursty_trace(&BurstyTraceSpec { seed: 4, ..spec });
        assert_ne!(a, other, "different seeds must differ");
    }

    #[test]
    fn mixture_fraction_controls_heavy_share() {
        let all_heavy = bursty_trace(&BurstyTraceSpec::prefill_heavy_mix(1.0, 1));
        assert!(all_heavy.iter().all(|r| r.input_len == 1024 && r.output_len == 8));
        let none_heavy = bursty_trace(&BurstyTraceSpec::prefill_heavy_mix(0.0, 1));
        assert!(none_heavy.iter().all(|r| r.input_len == 32));
        let half = bursty_trace(&BurstyTraceSpec::prefill_heavy_mix(0.5, 1));
        let heavies = half.iter().filter(|r| r.input_len == 1024).count();
        assert!(
            (60..140).contains(&heavies),
            "50% mix over 200 requests gave {heavies} heavies"
        );
    }

    #[test]
    fn decode_heavy_mix_streams_long_outputs() {
        let trace = bursty_trace(&BurstyTraceSpec::decode_heavy_mix(1.0, 9));
        assert!(trace.iter().all(|r| r.output_len == 256 && r.input_len == 32));
    }

    #[test]
    fn legacy_fixed_spacing_is_unchanged() {
        // The stochastic knobs default off: the trace shape predates them.
        let trace = bursty_trace(&BurstyTraceSpec::default());
        assert_eq!(trace[1].arrival_ps - trace[0].arrival_ps, 1_000_000);
        assert_eq!(trace[0].arrival_ps, 0);
    }

    #[test]
    fn spec_kinds_materialize_and_match_their_generators() {
        let synthetic = WorkloadSpec::Synthetic {
            dataset: Dataset::ShareGpt,
            requests: 12,
            rate_per_s: 20.0,
            seed: 5,
        };
        assert_eq!(
            synthetic.materialize().unwrap(),
            TraceGenerator::new(Dataset::ShareGpt, 5).rate_per_s(20.0).generate(12)
        );
        let spec = BurstyTraceSpec { bursts: 2, burst_size: 3, ..Default::default() };
        let bursty: WorkloadSpec = spec.into();
        assert_eq!(bursty.materialize().unwrap(), bursty_trace(&spec));
    }

    #[test]
    fn trace_file_workload_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("llmss-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tsv");
        let trace = TraceGenerator::new(Dataset::Alpaca, 3).rate_per_s(8.0).generate(6);
        std::fs::write(&path, crate::trace_to_tsv(&trace)).unwrap();
        let spec = WorkloadSpec::TraceFile { path: path.to_string_lossy().into_owned() };
        let loaded = spec.materialize().unwrap();
        assert_eq!(loaded.len(), 6);
        let missing = WorkloadSpec::TraceFile { path: "/nonexistent/x.tsv".into() };
        assert!(matches!(missing.materialize(), Err(WorkloadError::Io { .. })));
    }

    #[test]
    fn invalid_parameters_are_rejected_with_messages() {
        let zero = WorkloadSpec::Synthetic {
            dataset: Dataset::Alpaca,
            requests: 0,
            rate_per_s: 4.0,
            seed: 0,
        };
        assert!(matches!(zero.materialize(), Err(WorkloadError::Invalid { .. })));
        let bad_rate = WorkloadSpec::Synthetic {
            dataset: Dataset::Alpaca,
            requests: 4,
            rate_per_s: 0.0,
            seed: 0,
        };
        assert!(bad_rate.materialize().is_err());
        let empty_path = WorkloadSpec::TraceFile { path: String::new() };
        assert!(empty_path.materialize().is_err());
    }

    #[test]
    fn serde_round_trips_every_kind() {
        let specs = [
            WorkloadSpec::default(),
            WorkloadSpec::Bursty { spec: BurstyTraceSpec::prefill_heavy_mix(0.4, 7) },
            WorkloadSpec::TraceFile { path: "traces/a.tsv".into() },
        ];
        for spec in specs {
            let back = WorkloadSpec::from_value(&spec.to_value()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let mut v = WorkloadSpec::default().to_value();
        if let Value::Object(fields) = &mut v {
            fields.push(("rate_typo".into(), Value::Float(1.0)));
        }
        assert!(WorkloadSpec::from_value(&v).is_err());
        let mut spec = WorkloadSpec::default();
        assert!(spec.set("nope", "1").is_err());
        assert!(spec.set("kind", "nope").is_err());
    }

    #[test]
    fn set_switches_kind_and_applies_fields() {
        let mut spec = WorkloadSpec::default();
        spec.set("kind", "bursty").unwrap();
        spec.set("bursts", "2").unwrap();
        spec.set("heavy", "1024x8").unwrap();
        match spec {
            WorkloadSpec::Bursty { spec } => {
                assert_eq!(spec.bursts, 2);
                assert_eq!(spec.heavy, (1024, 8));
            }
            other => panic!("expected bursty, got {other:?}"),
        }
    }

    #[test]
    fn reseed_reaches_seeded_generators_only() {
        let mut s = WorkloadSpec::default();
        s.reseed(99);
        assert!(matches!(s, WorkloadSpec::Synthetic { seed: 99, .. }));
        let mut t = WorkloadSpec::TraceFile { path: "x.tsv".into() };
        t.reseed(99); // no-op, must not panic
        assert_eq!(t, WorkloadSpec::TraceFile { path: "x.tsv".into() });
    }
}
