//! Request-trace generation: synthetic dataset length distributions and
//! Poisson arrival processes.
//!
//! The paper samples request shapes from ShareGPT (long conversational
//! prompts and outputs) and Alpaca (short instruction-following exchanges)
//! and synthesizes arrivals with a Poisson process. Neither dataset ships
//! with this reproduction, so [`LengthModel::sharegpt_like`] and
//! [`LengthModel::alpaca_like`] are log-normal fits to their published
//! summary statistics; the TSV trace format matches the artifact
//! (`input_toks  output_toks  arrival_ms`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{Request, TimePs, EVENT_HORIZON_PS};

/// A log-normal token-length model, clamped to a valid range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LengthModel {
    /// Mean of ln(length).
    pub mu: f64,
    /// Standard deviation of ln(length).
    pub sigma: f64,
    /// Minimum length (inclusive).
    pub min: usize,
    /// Maximum length (inclusive).
    pub max: usize,
}

impl LengthModel {
    /// Creates a model from log-space parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or `min > max` or `min == 0`.
    pub fn new(mu: f64, sigma: f64, min: usize, max: usize) -> Self {
        assert!(sigma >= 0.0, "sigma cannot be negative");
        assert!(min > 0 && min <= max, "invalid clamp range [{min}, {max}]");
        Self { mu, sigma, min, max }
    }

    /// ShareGPT-like *prompt* lengths: median ~160 tokens, heavy tail.
    pub fn sharegpt_prompt() -> Self {
        Self::new(5.1, 1.1, 4, 2_048)
    }

    /// ShareGPT-like *output* lengths: median ~200 tokens.
    pub fn sharegpt_output() -> Self {
        Self::new(5.3, 0.9, 4, 1_024)
    }

    /// Alpaca-like *prompt* lengths: median ~20 tokens.
    pub fn alpaca_prompt() -> Self {
        Self::new(3.0, 0.6, 4, 256)
    }

    /// Alpaca-like *output* lengths: median ~65 tokens.
    pub fn alpaca_output() -> Self {
        Self::new(4.2, 0.8, 4, 512)
    }

    /// Fixed-length model (degenerate distribution), for controlled
    /// experiments like the paper's batch-32/seq-512 simulation-time runs.
    pub fn fixed(len: usize) -> Self {
        assert!(len > 0, "fixed length must be positive");
        Self { mu: (len as f64).ln(), sigma: 0.0, min: len, max: len }
    }

    /// Samples one length.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let ln = self.mu + self.sigma * standard_normal(rng);
        (ln.exp().round() as usize).clamp(self.min, self.max)
    }
}

/// Standard normal via Box-Muller (rand 0.8 core has no Normal
/// distribution; rand_distr is outside the allowed dependency set).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The named workloads the evaluation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// ShareGPT-like conversational workload (Figure 6).
    ShareGpt,
    /// Alpaca-like instruction workload (Figure 7).
    Alpaca,
    /// Fixed input/output lengths (simulation-time experiments).
    Fixed {
        /// Prompt length for every request.
        input_len: usize,
        /// Output length for every request.
        output_len: usize,
    },
}

impl Dataset {
    /// The config-file/CLI spelling: `sharegpt`, `alpaca`, or
    /// `fixed:INxOUT` (e.g. `fixed:512x64`).
    pub fn spelling(&self) -> String {
        match *self {
            Dataset::ShareGpt => "sharegpt".to_owned(),
            Dataset::Alpaca => "alpaca".to_owned(),
            Dataset::Fixed { input_len, output_len } => {
                format!("fixed:{input_len}x{output_len}")
            }
        }
    }

    fn models(&self) -> (LengthModel, LengthModel) {
        match *self {
            Dataset::ShareGpt => {
                (LengthModel::sharegpt_prompt(), LengthModel::sharegpt_output())
            }
            Dataset::Alpaca => (LengthModel::alpaca_prompt(), LengthModel::alpaca_output()),
            Dataset::Fixed { input_len, output_len } => {
                (LengthModel::fixed(input_len), LengthModel::fixed(output_len))
            }
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spelling())
    }
}

impl std::str::FromStr for Dataset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sharegpt" => return Ok(Dataset::ShareGpt),
            "alpaca" => return Ok(Dataset::Alpaca),
            _ => {}
        }
        if let Some(spec) = s.strip_prefix("fixed:") {
            let (input, output) = spec.split_once('x').ok_or_else(|| {
                format!("fixed dataset expects fixed:INxOUT (e.g. fixed:512x64), got '{s}'")
            })?;
            let input_len: usize =
                input.parse().map_err(|e| format!("fixed input length: {e}"))?;
            let output_len: usize =
                output.parse().map_err(|e| format!("fixed output length: {e}"))?;
            if input_len == 0 || output_len == 0 {
                return Err("fixed dataset lengths must be positive".into());
            }
            return Ok(Dataset::Fixed { input_len, output_len });
        }
        Err(format!("unknown dataset '{s}' (expected sharegpt | alpaca | fixed:INxOUT)"))
    }
}

/// Generates request traces with Poisson arrivals.
///
/// # Examples
///
/// ```
/// use llmss_sched::{Dataset, TraceGenerator};
///
/// let trace = TraceGenerator::new(Dataset::ShareGpt, 42)
///     .rate_per_s(4.0)
///     .generate(100);
/// assert_eq!(trace.len(), 100);
/// // Arrivals are sorted and ids sequential.
/// assert!(trace.windows(2).all(|w| w[0].arrival_ps <= w[1].arrival_ps));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    dataset: Dataset,
    seed: u64,
    rate_per_s: f64,
}

impl TraceGenerator {
    /// Creates a generator for `dataset` with a deterministic seed.
    pub fn new(dataset: Dataset, seed: u64) -> Self {
        Self { dataset, seed, rate_per_s: 1.0 }
    }

    /// Sets the Poisson arrival rate (requests per second).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive.
    pub fn rate_per_s(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        self.rate_per_s = rate;
        self
    }

    /// Generates `n` requests with Poisson inter-arrival times.
    pub fn generate(&self, n: usize) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (input_model, output_model) = self.dataset.models();
        let mut t_ps: f64 = 0.0;
        (0..n as u64)
            .map(|id| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t_ps += -u.ln() / self.rate_per_s * 1e12;
                Request::new(
                    id,
                    input_model.sample(&mut rng),
                    output_model.sample(&mut rng),
                    t_ps as TimePs,
                )
            })
            .collect()
    }

    /// Generates `n` requests that all arrive at time zero (a closed-loop
    /// burst, as in the paper's Figure 7 and simulation-time experiments).
    pub fn generate_burst(&self, n: usize) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (input_model, output_model) = self.dataset.models();
        (0..n as u64)
            .map(|id| {
                Request::new(id, input_model.sample(&mut rng), output_model.sample(&mut rng), 0)
            })
            .collect()
    }
}

/// Serializes a trace in the artifact's TSV format
/// (`input_toks  output_toks  arrival_ms`, tab-separated, with header).
pub fn trace_to_tsv(requests: &[Request]) -> String {
    let mut out = String::from("input_toks\toutput_toks\tarrival_ms\n");
    for r in requests {
        out.push_str(&format!(
            "{}\t{}\t{:.3}\n",
            r.input_len,
            r.output_len,
            r.arrival_ps as f64 / 1e9
        ));
    }
    out
}

/// Parses a trace from the artifact's TSV format.
///
/// # Errors
///
/// Returns a description of the first malformed line, including an
/// arrival past [`EVENT_HORIZON_PS`].
pub fn trace_from_tsv(tsv: &str) -> Result<Vec<Request>, String> {
    let mut out = Vec::new();
    for (i, line) in tsv.lines().enumerate() {
        if i == 0 && line.starts_with("input_toks") {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut cols = line.split('\t');
        let parse = |c: Option<&str>, what: &str| -> Result<f64, String> {
            c.ok_or_else(|| format!("line {}: missing {what}", i + 1))?
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("line {}: bad {what}: {e}", i + 1))
        };
        let input = parse(cols.next(), "input_toks")? as usize;
        let output = parse(cols.next(), "output_toks")? as usize;
        let arrival_ms = parse(cols.next(), "arrival_ms")?;
        if input == 0 || output == 0 {
            return Err(format!("line {}: lengths must be positive", i + 1));
        }
        let arrival_ps = arrival_ms * 1e9;
        if arrival_ps > EVENT_HORIZON_PS as f64 {
            return Err(format!(
                "line {}: arrival_ms {arrival_ms} is past the event horizon ({} ms)",
                i + 1,
                EVENT_HORIZON_PS / 1_000_000_000
            ));
        }
        out.push(Request::new(out.len() as u64, input, output, arrival_ps as TimePs));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharegpt_median_is_conversational() {
        let model = LengthModel::sharegpt_prompt();
        let mut rng = StdRng::seed_from_u64(7);
        let mut lens: Vec<usize> = (0..2_000).map(|_| model.sample(&mut rng)).collect();
        lens.sort_unstable();
        let median = lens[lens.len() / 2];
        assert!((80..320).contains(&median), "median {median}");
        assert!(*lens.last().unwrap() > 500, "tail too light");
    }

    #[test]
    fn alpaca_is_much_shorter_than_sharegpt() {
        let mut rng = StdRng::seed_from_u64(7);
        let share: usize =
            (0..500).map(|_| LengthModel::sharegpt_prompt().sample(&mut rng)).sum();
        let alpaca: usize =
            (0..500).map(|_| LengthModel::alpaca_prompt().sample(&mut rng)).sum();
        assert!(share > 3 * alpaca);
    }

    #[test]
    fn fixed_model_is_degenerate() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = LengthModel::fixed(512);
        assert!((0..100).all(|_| m.sample(&mut rng) == 512));
    }

    #[test]
    fn poisson_rate_controls_mean_gap() {
        let trace = TraceGenerator::new(Dataset::Alpaca, 1).rate_per_s(10.0).generate(2_000);
        let total_s = trace.last().unwrap().arrival_ps as f64 / 1e12;
        let rate = trace.len() as f64 / total_s;
        assert!((rate - 10.0).abs() / 10.0 < 0.15, "measured rate {rate}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = TraceGenerator::new(Dataset::ShareGpt, 9).rate_per_s(2.0).generate(50);
        let b = TraceGenerator::new(Dataset::ShareGpt, 9).rate_per_s(2.0).generate(50);
        let c = TraceGenerator::new(Dataset::ShareGpt, 10).rate_per_s(2.0).generate(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn burst_arrivals_are_zero() {
        let trace = TraceGenerator::new(Dataset::Alpaca, 3).generate_burst(16);
        assert!(trace.iter().all(|r| r.arrival_ps == 0));
    }

    #[test]
    fn tsv_round_trip() {
        let trace = TraceGenerator::new(Dataset::ShareGpt, 5).rate_per_s(1.0).generate(20);
        let parsed = trace_from_tsv(&trace_to_tsv(&trace)).unwrap();
        assert_eq!(parsed.len(), trace.len());
        for (a, b) in trace.iter().zip(&parsed) {
            assert_eq!(a.input_len, b.input_len);
            assert_eq!(a.output_len, b.output_len);
            // Arrival round-trips through milliseconds with bounded error.
            let err = a.arrival_ps.abs_diff(b.arrival_ps);
            assert!(err <= 1_000_000, "arrival error {err} ps");
        }
    }

    #[test]
    fn dataset_spelling_round_trips() {
        for d in [
            Dataset::ShareGpt,
            Dataset::Alpaca,
            Dataset::Fixed { input_len: 512, output_len: 64 },
        ] {
            let parsed: Dataset = d.spelling().parse().unwrap();
            assert_eq!(parsed, d);
        }
        assert!("nope".parse::<Dataset>().is_err());
        assert!("fixed:512".parse::<Dataset>().is_err());
        assert!("fixed:0x4".parse::<Dataset>().is_err());
    }

    #[test]
    fn malformed_tsv_reports_line() {
        let err =
            trace_from_tsv("input_toks\toutput_toks\tarrival_ms\n12\toops\t3.5\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn arrivals_past_the_event_horizon_name_their_line() {
        let err = trace_from_tsv("8\t8\t0\n8\t8\t1e300\n").unwrap_err();
        assert!(err.contains("line 2: arrival_ms"), "{err}");
        let horizon_ms = (EVENT_HORIZON_PS / 1_000_000_000).to_string();
        assert_eq!(trace_from_tsv(&format!("8\t8\t{horizon_ms}\n")).unwrap().len(), 1);
    }
}
