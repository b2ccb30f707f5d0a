//! Inference requests and their lifecycle.

use serde::{Deserialize, Serialize};

/// Simulated time in picoseconds (matches `llmss-net`).
pub type TimePs = u64;

/// The event horizon: the latest virtual time an input may schedule an
/// event at, 10^6 s. It sits far inside [`TimePs::MAX`] (about 1.8e7 s),
/// so an in-horizon arrival, fault time or link latency plus simulated
/// service time stays on the picosecond clock. Workloads whose arrivals
/// pass it fail to materialize, and scenario validation checks durations
/// against it.
pub const EVENT_HORIZON_PS: TimePs = 1_000_000 * 1_000_000_000_000;

/// One inference request: a prompt to prefill and a target number of tokens
/// to generate.
///
/// Mirrors the artifact's trace rows (`input_toks, output_toks, arrival`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Request {
    /// Unique id (assigned in arrival order).
    pub id: u64,
    /// Prompt length in tokens.
    pub input_len: usize,
    /// Number of tokens to generate before the request completes.
    pub output_len: usize,
    /// Arrival time.
    pub arrival_ps: TimePs,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `input_len` or `output_len` is zero — every request must
    /// prefill at least one token and generate at least one.
    pub fn new(id: u64, input_len: usize, output_len: usize, arrival_ps: TimePs) -> Self {
        assert!(input_len > 0, "requests need a non-empty prompt");
        assert!(output_len > 0, "requests must generate at least one token");
        Self { id, input_len, output_len, arrival_ps }
    }

    /// Total tokens the request will ever hold in the KV cache.
    pub fn max_kv_tokens(&self) -> usize {
        self.input_len + self.output_len
    }
}

/// Where a request currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestState {
    /// Not yet admitted to a batch.
    Waiting,
    /// Admitted; prompt not yet prefetched (next iteration prefills it).
    Admitted,
    /// Prefill done; generating tokens.
    Generating,
    /// KV cache evicted to host; waiting for memory to reload.
    Evicted,
    /// All output tokens produced.
    Finished,
}

/// Per-request completion record produced by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// The request id.
    pub id: u64,
    /// Arrival time.
    pub arrival_ps: TimePs,
    /// Time the first output token was produced (end of prefill iteration).
    pub first_token_ps: TimePs,
    /// Time the final token was produced.
    pub finish_ps: TimePs,
    /// Prompt length.
    pub input_len: usize,
    /// Tokens generated.
    pub output_len: usize,
}

impl Completion {
    /// End-to-end latency.
    pub fn latency_ps(&self) -> TimePs {
        self.finish_ps.saturating_sub(self.arrival_ps)
    }

    /// Time to first token.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_kv_tokens_is_prompt_plus_output() {
        let r = Request::new(0, 100, 28, 0);
        assert_eq!(r.max_kv_tokens(), 128);
    }

    #[test]
    #[should_panic(expected = "non-empty prompt")]
    fn empty_prompt_rejected() {
        Request::new(0, 0, 1, 0);
    }

    #[test]
    fn completion_latency_math() {
        let c = Completion {
            id: 1,
            arrival_ps: 1_000,
            first_token_ps: 5_000,
            finish_ps: 13_000,
            input_len: 32,
            output_len: 5,
        };
        assert_eq!(c.latency_ps(), 12_000);
        assert_eq!(c.ttft_ps(), 4_000);
        assert!((c.tpot_ps() - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn single_token_output_has_zero_tpot() {
        let c = Completion {
            id: 1,
            arrival_ps: 0,
            first_token_ps: 10,
            finish_ps: 10,
            input_len: 4,
            output_len: 1,
        };
        assert_eq!(c.tpot_ps(), 0.0);
    }
}
