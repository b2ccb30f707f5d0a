//! Iteration-level scheduling (Orca) with KV-cache-aware admission.
//!
//! The scheduler re-forms the batch every iteration: finished requests
//! retire, newly arrived requests join (when KV memory admits them), decode
//! sequences grow their KV allocation — evicting the most recently admitted
//! sequences to host memory under pressure and reloading them when space
//! frees up (paper Section IV-A, "KV cache-aware memory modeling").
//!
//! A request-level policy (classic static batching: the batch runs until
//! *all* members finish) is included as the contrast Orca §6.1 draws.

// llmss-lint: allow(p001, file, reason = "queue fronts are checked non-empty by the scheduler state machine immediately before popping")
use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use llmss_model::SeqSlot;

use crate::{
    Completion, IterationBatch, KvCache, KvError, KvTransfer, Request, RequestState, TimePs,
};

/// Batch re-formation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Orca-style iteration-level scheduling (the artifact's
    /// `scheduling=orca` default).
    IterationLevel,
    /// Static request-level batching: admit only when the running batch
    /// has fully drained.
    RequestLevel,
}

impl SchedulingPolicy {
    /// The scenario-file spelling (the artifact's `scheduling` values).
    pub fn as_str(&self) -> &'static str {
        match self {
            SchedulingPolicy::IterationLevel => "orca",
            SchedulingPolicy::RequestLevel => "request",
        }
    }
}

impl std::str::FromStr for SchedulingPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "orca" => Ok(SchedulingPolicy::IterationLevel),
            "request" => Ok(SchedulingPolicy::RequestLevel),
            other => {
                Err(format!("unknown scheduling policy '{other}' (expected orca | request)"))
            }
        }
    }
}

/// Which serving phases this scheduler runs — the knob behind
/// disaggregated prefill/decode serving.
///
/// A unified scheduler runs every request end to end. In a disaggregated
/// deployment (LLMServingSim2.0, DistServe, TokenSim) a *prefill pool*
/// only builds KV caches and a *decode pool* only streams tokens from KV
/// caches shipped to it, so each pool's scheduler runs a restricted
/// lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerMode {
    /// Prefill and decode on the same engine (classic serving).
    Unified,
    /// Prefill pool: a request completes at the end of its prefill
    /// iteration — its KV cache is then ready to ship to a decode pool.
    PrefillOnly,
    /// Decode pool: an admitted request arrives with its prompt KV
    /// already computed elsewhere ([`KvCache::try_admit`] reserves the
    /// shipped footprint) and runs decode iterations only.
    DecodeOnly,
}

/// Scheduler configuration (the artifact's `scheduling`, `max_batch`,
/// `batch_delay` parameters).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Batch re-formation policy.
    pub policy: SchedulingPolicy,
    /// Which serving phases this scheduler runs.
    pub mode: SchedulerMode,
    /// Maximum concurrent sequences (0 = unlimited, the artifact default).
    pub max_batch: usize,
    /// Extra delay applied when waking up for newly arrived requests.
    pub batch_delay_ps: TimePs,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            policy: SchedulingPolicy::IterationLevel,
            mode: SchedulerMode::Unified,
            max_batch: 0,
            batch_delay_ps: 0,
        }
    }
}

/// A sequence the scheduler is tracking.
#[derive(Debug, Clone)]
struct Seq {
    req: Request,
    state: RequestState,
    /// Output tokens produced so far.
    generated: usize,
    first_token_ps: Option<TimePs>,
}

impl Seq {
    /// KV tokens this sequence's next decode step attends over (prompt
    /// plus generated history).
    fn kv_tokens(&self, mode: SchedulerMode) -> usize {
        match mode {
            // The first output token came out of the prefill pass; each
            // token is appended to the cache when the next iteration
            // processes it, and the last one never is.
            SchedulerMode::Unified | SchedulerMode::PrefillOnly => {
                self.req.input_len + self.generated.saturating_sub(1)
            }
            // No local prefill: the shipped prompt KV covers the first
            // decode step, and every generated token extends it.
            SchedulerMode::DecodeOnly => self.req.input_len + self.generated,
        }
    }
}

/// One request a crash knocked out of a scheduler, with enough progress
/// context for a fleet driver to price the loss and retry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostWork {
    /// The request as the scheduler knew it (original arrival and
    /// lengths — a retry re-enters admission from these).
    pub request: Request,
    /// Output tokens the crashed replica had generated (their KV died
    /// with it).
    pub generated: usize,
    /// Whether the prompt's prefill had completed (its KV died too, so
    /// the retry pays a full re-prefill).
    pub prefill_done: bool,
}

/// The iteration-level serving scheduler.
///
/// Drive it in a loop: [`next_batch`](Self::next_batch) produces the batch
/// for one iteration (or `None` when all requests have completed), the
/// caller simulates the iteration, and
/// [`complete_iteration`](Self::complete_iteration) advances the clock and
/// sequence states.
///
/// # Examples
///
/// ```
/// use llmss_sched::{
///     KvCache, KvCacheConfig, Request, Scheduler, SchedulerConfig,
/// };
///
/// let kv = KvCache::new(KvCacheConfig::paged(1 << 20, 256));
/// let requests = vec![Request::new(0, 32, 4, 0)];
/// let mut sched = Scheduler::new(SchedulerConfig::default(), kv, requests);
/// let mut iterations = 0;
/// while let Some(batch) = sched.next_batch() {
///     assert!(!batch.slots.is_empty());
///     sched.complete_iteration(1_000_000); // pretend 1 us per iteration
///     iterations += 1;
/// }
/// assert_eq!(iterations, 4); // 1 prefill + 3 decode iterations
/// assert_eq!(sched.completions().len(), 1);
/// ```
#[derive(Debug)]
pub struct Scheduler {
    config: SchedulerConfig,
    kv: KvCache,
    pending: VecDeque<Request>,
    active: Vec<Seq>,
    /// Evicted sequences in eviction order (FIFO reload priority).
    evicted: VecDeque<Seq>,
    completions: Vec<Completion>,
    clock_ps: TimePs,
    iterations: u64,
    total_requests: usize,
}

impl Scheduler {
    /// Creates a scheduler over a fixed request trace.
    ///
    /// Requests are sorted by arrival time; ids must be unique. The trace
    /// may be empty — a front-end (e.g. a cluster router) can then inject
    /// requests online with [`push_request`](Self::push_request).
    pub fn new(config: SchedulerConfig, kv: KvCache, mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| (r.arrival_ps, r.id));
        let total = requests.len();
        Self {
            config,
            kv,
            pending: requests.into(),
            active: Vec::new(),
            evicted: VecDeque::new(),
            completions: Vec::new(),
            clock_ps: 0,
            iterations: 0,
            total_requests: total,
        }
    }

    /// Injects one request online (cluster-router entry point).
    ///
    /// Unlike the trace passed to [`new`](Self::new), pushed requests
    /// arrive while the simulation is running: the request joins the
    /// pending queue in `(arrival, id)` order and is admitted by the next
    /// [`next_batch`](Self::next_batch) whose clock has reached its
    /// arrival time. Pushing a request whose arrival is already in the
    /// past (relative to the scheduler clock) is allowed — it models a
    /// request that queued at the front-end while an iteration was in
    /// flight, and is admitted at the current clock.
    pub fn push_request(&mut self, request: Request) {
        self.total_requests += 1;
        let at = self
            .pending
            .iter()
            .position(|r| (r.arrival_ps, r.id) > (request.arrival_ps, request.id))
            .unwrap_or(self.pending.len());
        self.pending.insert(at, request);
    }

    /// The earliest simulated time this scheduler can make progress, or
    /// `None` when it is fully drained (every known request completed).
    ///
    /// * With running (or evicted) sequences, the next iteration forms at
    ///   the current clock.
    /// * Otherwise the scheduler is idle until its earliest pending
    ///   arrival (plus the configured batch delay).
    ///
    /// A cluster driver interleaves replicas by stepping whichever
    /// reports the smallest ready time; a `None` replica wakes up again
    /// when [`push_request`](Self::push_request) hands it new work.
    pub fn next_ready_ps(&self) -> Option<TimePs> {
        if !self.active.is_empty() || !self.evicted.is_empty() {
            return Some(self.clock_ps);
        }
        let front = self.pending.front()?;
        // Mirror next_batch's fast-forward exactly: the batch delay is a
        // wake-up cost, charged only when the scheduler is actually asleep
        // ahead of the arrival — a pending request already behind the
        // clock is served at the clock, delay-free.
        Some(if front.arrival_ps > self.clock_ps {
            front.arrival_ps + self.config.batch_delay_ps
        } else {
            self.clock_ps
        })
    }

    /// Requests accepted but not yet finished (pending + active +
    /// evicted) — the router's queue-depth load signal.
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.active.len() + self.evicted.len()
    }

    /// The serving phases this scheduler currently runs.
    pub fn mode(&self) -> SchedulerMode {
        self.config.mode
    }

    /// Whether no work is queued or in flight — the only safe point for a
    /// role switch ([`set_mode`](Self::set_mode)).
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.active.is_empty() && self.evicted.is_empty()
    }

    /// Role-switch hook: re-targets the scheduler at a different serving
    /// phase (prefill-pool ↔ decode-pool flexing, unified ↔ pool roles).
    ///
    /// The switch is only legal on a *drained* scheduler: sequences
    /// admitted under one mode carry that mode's KV accounting, so a fleet
    /// driver must drain the replica (stop offering it work, let in-flight
    /// requests finish) before flipping its role.
    ///
    /// # Panics
    ///
    /// Panics if any request is pending, active, or evicted — a role
    /// switch mid-drain would strand it.
    pub fn set_mode(&mut self, mode: SchedulerMode) {
        assert!(
            self.is_idle(),
            "role switch with {} requests in flight: drain the replica first",
            self.outstanding()
        );
        self.config.mode = mode;
    }

    /// Requests waiting for admission that have arrived by the current
    /// clock. Requests pushed ahead of their arrival (a KV handoff still
    /// on the wire) are not counted yet.
    pub fn pending_len(&self) -> usize {
        // `pending` is sorted by `(arrival, id)`: the arrived ones are a
        // prefix.
        self.pending.partition_point(|r| r.arrival_ps <= self.clock_ps)
    }

    /// Current scheduler clock.
    pub fn clock_ps(&self) -> TimePs {
        self.clock_ps
    }

    /// Iterations completed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Whether every request has finished.
    pub fn is_done(&self) -> bool {
        self.completions.len() == self.total_requests
    }

    /// Completion records for finished requests (in finish order).
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Takes ownership of the completion records without copying them —
    /// the report-assembly path for drivers that are done stepping this
    /// scheduler. The scheduler afterwards reports no completions (and is
    /// no longer [`is_done`](Self::is_done) if it had served any), so
    /// this is a terminal operation.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Number of sequences currently running.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Number of sequences currently evicted to host.
    pub fn evicted_len(&self) -> usize {
        self.evicted.len()
    }

    /// The KV cache (for utilization metrics).
    pub fn kv(&self) -> &KvCache {
        &self.kv
    }

    /// Forms the batch for the next iteration.
    ///
    /// Returns `None` once all requests have completed. If no sequence is
    /// runnable but requests are still pending, the clock fast-forwards to
    /// the next arrival (plus the configured batch delay).
    pub fn next_batch(&mut self) -> Option<IterationBatch> {
        if self.is_done() {
            return None;
        }

        // Fast-forward when idle.
        if self.active.is_empty() && self.evicted.is_empty() {
            let next_arrival = self.pending.front()?.arrival_ps;
            if next_arrival > self.clock_ps {
                self.clock_ps = next_arrival + self.config.batch_delay_ps;
            }
        }

        let mut evictions: Vec<KvTransfer> = Vec::new();
        let mut reloads: Vec<KvTransfer> = Vec::new();

        // 1. Grow KV for decode sequences (the token generated last
        //    iteration is appended as it is processed). Under pressure,
        //    evict the most recently admitted other sequence; if none
        //    exists, the growing sequence itself is evicted. The victim
        //    set stays sorted so membership checks in this per-iteration
        //    hot loop are O(log n) instead of a linear scan per sequence.
        let mut forced_out: Vec<u64> = Vec::new();
        let mark_forced = |forced_out: &mut Vec<u64>, id: u64| {
            if let Err(pos) = forced_out.binary_search(&id) {
                forced_out.insert(pos, id);
            }
        };
        for i in 0..self.active.len() {
            if self.active[i].state != RequestState::Generating || self.active[i].generated == 0
            {
                continue;
            }
            let id = self.active[i].req.id;
            if forced_out.binary_search(&id).is_ok() {
                // Already evicted as a victim of an earlier sequence's
                // growth in this same pass.
                continue;
            }
            loop {
                match self.kv.append_token(id) {
                    Ok(_) => break,
                    Err(KvError::OutOfMemory) => {
                        match self.kv.evict_victim(Some(id)) {
                            Some(t) => {
                                mark_forced(&mut forced_out, t.request);
                                evictions.push(t);
                            }
                            None => {
                                // Nothing else to evict: push this sequence
                                // itself to host and stop growing it.
                                if let Some(t) = self.kv.evict_victim(None) {
                                    mark_forced(&mut forced_out, t.request);
                                    evictions.push(t);
                                }
                                break;
                            }
                        }
                    }
                    Err(e) => unreachable!("append on resident sequence failed: {e}"),
                }
            }
        }
        if !forced_out.is_empty() {
            // Move evicted sequences out of the active set (most recently
            // admitted first, matching eviction order).
            let mut moved: Vec<Seq> = Vec::new();
            self.active.retain_mut(|s| {
                if forced_out.binary_search(&s.req.id).is_ok() {
                    let mut out = s.clone();
                    out.state = RequestState::Evicted;
                    moved.push(out);
                    false
                } else {
                    true
                }
            });
            moved.sort_by_key(|s| s.req.id);
            self.evicted.extend(moved);
        }

        // 2. Reload evicted sequences (FIFO) while memory permits.
        while let Some(front) = self.evicted.front() {
            if self.batch_full() {
                break;
            }
            match self.kv.reload(front.req.id) {
                Ok(t) => {
                    reloads.push(t);
                    let mut seq = self.evicted.pop_front().expect("front exists");
                    seq.state = RequestState::Generating;
                    self.active.push(seq);
                }
                Err(KvError::OutOfMemory) => break,
                Err(e) => unreachable!("reload of evicted sequence failed: {e}"),
            }
        }

        // 3. Admit newly arrived requests while memory and max_batch allow.
        let admission_open = match self.config.policy {
            SchedulingPolicy::IterationLevel => true,
            SchedulingPolicy::RequestLevel => self.active.is_empty() && self.evicted.is_empty(),
        };
        if admission_open {
            while let Some(front) = self.pending.front() {
                if front.arrival_ps > self.clock_ps || self.batch_full() {
                    break;
                }
                if !self.kv.try_admit(front.id, front.input_len) {
                    // A request that fails admission into an *empty* cache
                    // can never run; dropping it silently would corrupt the
                    // experiment, so fail loudly.
                    assert!(
                        self.kv.used_pages() > 0
                            || !self.active.is_empty()
                            || !self.evicted.is_empty(),
                        "request {} needs {} KV pages but the cache only holds {}: \
                         it can never be served",
                        front.id,
                        self.kv.pages_for(front.input_len),
                        self.kv.free_pages(),
                    );
                    break;
                }
                let req = self.pending.pop_front().expect("front exists");
                // In decode-only mode the prompt KV just reserved by
                // `try_admit` models the cache shipped from a prefill
                // pool: the sequence skips prefill and decodes directly
                // against it.
                let state = match self.config.mode {
                    SchedulerMode::DecodeOnly => RequestState::Generating,
                    SchedulerMode::Unified | SchedulerMode::PrefillOnly => {
                        RequestState::Admitted
                    }
                };
                self.active.push(Seq { req, state, generated: 0, first_token_ps: None });
            }
        }

        if self.active.is_empty() {
            // Everything evicted and nothing reloadable: the system is
            // wedged only if memory cannot hold a single sequence, which
            // the KV sizing rules out; otherwise retry after advancing to
            // the next arrival.
            return self.next_batch_after_stall();
        }

        let slots: Vec<SeqSlot> = self
            .active
            .iter()
            .map(|s| match s.state {
                RequestState::Admitted => SeqSlot::prefill(s.req.id, s.req.input_len),
                RequestState::Generating => {
                    SeqSlot::decode(s.req.id, s.kv_tokens(self.config.mode))
                }
                other => unreachable!("active sequence in state {other:?}"),
            })
            .collect();

        Some(IterationBatch { slots, evictions, reloads })
    }

    fn next_batch_after_stall(&mut self) -> Option<IterationBatch> {
        // Called when eviction pressure emptied the active set; reload the
        // oldest evicted sequence by force (it must fit alone).
        if let Some(front) = self.evicted.front() {
            match self.kv.reload(front.req.id) {
                Ok(t) => {
                    let mut seq = self.evicted.pop_front().expect("front exists");
                    seq.state = RequestState::Generating;
                    let slot = SeqSlot::decode(seq.req.id, seq.kv_tokens(self.config.mode));
                    self.active.push(seq);
                    return Some(IterationBatch {
                        slots: vec![slot],
                        evictions: Vec::new(),
                        reloads: vec![t],
                    });
                }
                Err(_) => return None,
            }
        }
        None
    }

    fn batch_full(&self) -> bool {
        self.config.max_batch > 0 && self.active.len() >= self.config.max_batch
    }

    /// Records that the iteration produced by the last
    /// [`next_batch`](Self::next_batch) took `latency_ps`: advances the
    /// clock, produces tokens, and retires finished sequences.
    pub fn complete_iteration(&mut self, latency_ps: TimePs) {
        self.clock_ps += latency_ps;
        self.iterations += 1;
        let now = self.clock_ps;

        let mut finished: Vec<Seq> = Vec::new();
        for s in &mut self.active {
            match s.state {
                RequestState::Admitted => {
                    s.generated = 1;
                    s.first_token_ps = Some(now);
                    s.state = RequestState::Generating;
                }
                RequestState::Generating => {
                    s.generated += 1;
                    // A decode-only sequence emits its first token from a
                    // decode iteration, never a prefill one.
                    if s.first_token_ps.is_none() {
                        s.first_token_ps = Some(now);
                    }
                }
                other => unreachable!("active sequence in state {other:?}"),
            }
            if s.generated >= s.req.output_len || self.config.mode == SchedulerMode::PrefillOnly
            {
                s.state = RequestState::Finished;
            }
        }
        self.active.retain(|s| {
            if s.state == RequestState::Finished {
                finished.push(s.clone());
                false
            } else {
                true
            }
        });
        for s in finished {
            self.kv.release(s.req.id);
            self.completions.push(Completion {
                id: s.req.id,
                arrival_ps: s.req.arrival_ps,
                first_token_ps: s.first_token_ps.unwrap_or(now),
                finish_ps: now,
                input_len: s.req.input_len,
                output_len: s.generated,
            });
        }
    }

    /// Crash semantics: drops every request this scheduler holds —
    /// pending, active, and evicted — releasing their KV, and returns
    /// them (in pending → active → evicted order) so a fleet driver can
    /// retry them elsewhere. Already-finished completions survive; the
    /// request count shrinks so the scheduler reads as drained.
    pub fn crash_drain(&mut self) -> Vec<LostWork> {
        let mut lost = Vec::new();
        for req in self.pending.drain(..) {
            // Pending requests were never admitted: no KV to release.
            lost.push(LostWork { request: req, generated: 0, prefill_done: false });
        }
        for seq in self.active.drain(..).chain(self.evicted.drain(..)) {
            self.kv.release(seq.req.id);
            lost.push(LostWork {
                request: seq.req,
                generated: seq.generated,
                prefill_done: seq.first_token_ps.is_some(),
            });
        }
        self.total_requests -= lost.len();
        lost
    }

    /// Retracts completions by id — the crash path for a prefill pool
    /// whose finished-but-unshipped KV died with the replica (the
    /// "completion" only recorded that the KV was ready to ship).
    /// Returns how many records were removed; the request count shrinks
    /// to match.
    pub fn retract_completions(&mut self, ids: &[u64]) -> usize {
        let before = self.completions.len();
        self.completions.retain(|c| !ids.contains(&c.id));
        let removed = before - self.completions.len();
        self.total_requests -= removed;
        removed
    }

    /// Jumps the clock forward to `t` (no-op if already past it) — the
    /// recovery path: a replica coming back from an outage must not
    /// serve retries in its past.
    pub fn advance_clock_to(&mut self, t: TimePs) {
        self.clock_ps = self.clock_ps.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvCacheConfig;

    fn kv(pages: usize) -> KvCache {
        // 16-token pages at 64 B/token.
        KvCache::new(KvCacheConfig::paged(pages as u64 * 16 * 64, 64))
    }

    fn sched(requests: Vec<Request>) -> Scheduler {
        Scheduler::new(SchedulerConfig::default(), kv(1024), requests)
    }

    #[test]
    fn single_request_runs_prefill_then_decode() {
        let mut s = sched(vec![Request::new(0, 100, 3, 0)]);
        let b1 = s.next_batch().unwrap();
        assert_eq!(b1.prompt_tokens(), 100);
        s.complete_iteration(10);
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.generated_tokens(), 1);
        assert_eq!(b2.slots[0].kv_past, 100);
        s.complete_iteration(10);
        let b3 = s.next_batch().unwrap();
        assert_eq!(b3.slots[0].kv_past, 101);
        s.complete_iteration(10);
        assert!(s.next_batch().is_none());
        assert!(s.is_done());
        let c = s.completions()[0];
        assert_eq!(c.output_len, 3);
        assert_eq!(c.finish_ps, 30);
        assert_eq!(c.first_token_ps, 10);
    }

    #[test]
    fn iteration_level_admits_mid_flight() {
        let mut s = sched(vec![Request::new(0, 64, 10, 0), Request::new(1, 32, 2, 15)]);
        let b1 = s.next_batch().unwrap();
        assert_eq!(b1.batch_size(), 1);
        s.complete_iteration(20); // clock = 20 > 15: request 1 has arrived
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.batch_size(), 2);
        assert_eq!(b2.prompt_tokens(), 32); // request 1 prefills
        assert_eq!(b2.generated_tokens(), 2); // both emit a token
    }

    #[test]
    fn request_level_waits_for_drain() {
        let cfg = SchedulerConfig {
            policy: SchedulingPolicy::RequestLevel,
            ..SchedulerConfig::default()
        };
        let mut s = Scheduler::new(
            cfg,
            kv(1024),
            vec![Request::new(0, 64, 3, 0), Request::new(1, 32, 2, 1)],
        );
        let b1 = s.next_batch().unwrap();
        assert_eq!(b1.batch_size(), 1, "static batching admits only at drain");
        s.complete_iteration(10);
        // Request 0 still running: request 1 must keep waiting.
        for _ in 0..2 {
            let b = s.next_batch().unwrap();
            assert_eq!(b.batch_size(), 1);
            s.complete_iteration(10);
        }
        // Batch drained; request 1 finally admitted.
        let b = s.next_batch().unwrap();
        assert_eq!(b.batch_size(), 1);
        assert_eq!(b.prompt_tokens(), 32);
    }

    #[test]
    fn max_batch_caps_concurrency() {
        let cfg = SchedulerConfig { max_batch: 2, ..SchedulerConfig::default() };
        let reqs = (0..5).map(|i| Request::new(i, 16, 4, 0)).collect();
        let mut s = Scheduler::new(cfg, kv(1024), reqs);
        let b = s.next_batch().unwrap();
        assert_eq!(b.batch_size(), 2);
    }

    #[test]
    fn clock_fast_forwards_to_arrivals() {
        let mut s = sched(vec![Request::new(0, 16, 1, 5_000)]);
        let b = s.next_batch().unwrap();
        assert_eq!(b.batch_size(), 1);
        assert_eq!(s.clock_ps(), 5_000);
    }

    #[test]
    fn batch_delay_applies_on_wakeup() {
        let cfg = SchedulerConfig { batch_delay_ps: 500, ..SchedulerConfig::default() };
        let mut s = Scheduler::new(cfg, kv(64), vec![Request::new(0, 16, 1, 1_000)]);
        s.next_batch().unwrap();
        assert_eq!(s.clock_ps(), 1_500);
    }

    #[test]
    fn memory_pressure_evicts_and_reloads() {
        // 4 pages of 16 tokens: two 32-token sequences fill memory; growth
        // forces an eviction, and the victim reloads after the other
        // request finishes.
        let reqs = vec![Request::new(0, 32, 20, 0), Request::new(1, 32, 20, 0)];
        let mut s = Scheduler::new(SchedulerConfig::default(), kv(4), reqs);
        let b1 = s.next_batch().unwrap();
        assert_eq!(b1.batch_size(), 2);
        s.complete_iteration(10);
        // Both want to append token 33 -> two new pages needed, none free.
        let b2 = s.next_batch().unwrap();
        assert!(!b2.evictions.is_empty(), "growth must evict under pressure");
        assert_eq!(s.evicted_len() + s.active_len(), 2);
        // Drive to completion; every request must eventually finish.
        let mut guard = 0;
        s.complete_iteration(10);
        while let Some(_b) = s.next_batch() {
            s.complete_iteration(10);
            guard += 1;
            assert!(guard < 500, "scheduler failed to converge");
        }
        assert!(s.is_done());
    }

    #[test]
    fn admission_blocked_until_memory_frees() {
        // One page short: the second request waits for the first to retire.
        let reqs = vec![Request::new(0, 48, 2, 0), Request::new(1, 48, 2, 0)];
        let mut s = Scheduler::new(SchedulerConfig::default(), kv(4), reqs);
        let b1 = s.next_batch().unwrap();
        assert_eq!(b1.batch_size(), 1, "only one 3-page sequence fits");
        s.complete_iteration(10);
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.batch_size(), 1);
        s.complete_iteration(10);
        // Request 0 done; request 1 admitted now.
        let b3 = s.next_batch().unwrap();
        assert_eq!(b3.prompt_tokens(), 48);
        s.complete_iteration(10);
        s.next_batch().unwrap();
        s.complete_iteration(10);
        assert!(s.is_done());
        assert_eq!(s.completions().len(), 2);
    }

    #[test]
    fn completions_record_ttft_and_latency() {
        let mut s = sched(vec![Request::new(0, 16, 3, 100)]);
        while let Some(_b) = s.next_batch() {
            s.complete_iteration(50);
        }
        let c = s.completions()[0];
        assert_eq!(c.arrival_ps, 100);
        assert_eq!(c.ttft_ps(), 50);
        assert_eq!(c.latency_ps(), 150);
    }

    #[test]
    fn online_injection_into_empty_scheduler() {
        let mut s = sched(Vec::new());
        assert!(s.next_batch().is_none(), "no work yet");
        assert_eq!(s.next_ready_ps(), None);
        s.push_request(Request::new(0, 16, 2, 1_000));
        assert_eq!(s.next_ready_ps(), Some(1_000));
        let b = s.next_batch().unwrap();
        assert_eq!(b.prompt_tokens(), 16);
        s.complete_iteration(10);
        assert_eq!(s.next_ready_ps(), Some(s.clock_ps()));
        s.next_batch().unwrap();
        s.complete_iteration(10);
        assert!(s.is_done());
        assert_eq!(s.next_ready_ps(), None);
        // A drained scheduler accepts more work.
        s.push_request(Request::new(1, 8, 1, 5_000));
        assert!(!s.is_done());
        assert_eq!(s.next_ready_ps(), Some(5_000));
        s.next_batch().unwrap();
        s.complete_iteration(10);
        assert_eq!(s.completions().len(), 2);
    }

    #[test]
    fn pushed_request_with_past_arrival_joins_now() {
        let mut s = sched(vec![Request::new(0, 64, 8, 0)]);
        s.next_batch().unwrap();
        s.complete_iteration(1_000);
        // Arrival 200 is already behind the clock (1000).
        s.push_request(Request::new(1, 32, 2, 200));
        let b = s.next_batch().unwrap();
        assert_eq!(b.batch_size(), 2);
        assert_eq!(b.prompt_tokens(), 32);
    }

    #[test]
    fn push_request_keeps_arrival_order() {
        let mut s = sched(Vec::new());
        s.push_request(Request::new(2, 8, 1, 3_000));
        s.push_request(Request::new(0, 8, 1, 1_000));
        s.push_request(Request::new(1, 8, 1, 2_000));
        assert_eq!(s.outstanding(), 3);
        let b = s.next_batch().unwrap();
        assert_eq!(b.slots[0].request, 0, "earliest arrival admitted first");
        assert_eq!(s.clock_ps(), 1_000);
    }

    #[test]
    fn next_ready_applies_batch_delay_when_idle() {
        let cfg = SchedulerConfig { batch_delay_ps: 500, ..SchedulerConfig::default() };
        let mut s = Scheduler::new(cfg, kv(64), Vec::new());
        s.push_request(Request::new(0, 16, 1, 1_000));
        assert_eq!(s.next_ready_ps(), Some(1_500));
    }

    #[test]
    fn next_ready_matches_next_batch_for_past_arrivals_under_batch_delay() {
        // A pending request already behind the clock is served at the
        // clock with no wake-up delay; next_ready_ps must agree with
        // where next_batch will actually form the batch.
        let cfg = SchedulerConfig { batch_delay_ps: 5_000, ..SchedulerConfig::default() };
        let mut s = Scheduler::new(cfg, kv(64), vec![Request::new(0, 16, 1, 0)]);
        s.next_batch().unwrap();
        s.complete_iteration(1_000); // clock = 1_000 (no idle fast-forward)
        s.push_request(Request::new(1, 16, 1, 400)); // arrival in the past
        assert_eq!(s.next_ready_ps(), Some(1_000), "no delay for past arrivals");
        s.next_batch().unwrap();
        assert_eq!(s.clock_ps(), 1_000, "batch forms at the clock, not arrival+delay");
    }

    #[test]
    fn prefill_only_completes_at_end_of_prefill() {
        let cfg = SchedulerConfig { mode: SchedulerMode::PrefillOnly, ..Default::default() };
        let mut s = Scheduler::new(cfg, kv(1024), vec![Request::new(0, 100, 50, 0)]);
        let b = s.next_batch().unwrap();
        assert_eq!(b.prompt_tokens(), 100, "the one iteration is the prefill");
        s.complete_iteration(1_000);
        assert!(s.next_batch().is_none(), "no decode iterations in prefill-only mode");
        assert!(s.is_done());
        let c = s.completions()[0];
        assert_eq!(c.finish_ps, 1_000);
        assert_eq!(c.first_token_ps, 1_000);
        assert_eq!(c.output_len, 1, "prefill produces the KV, not the output stream");
        assert_eq!(s.kv().used_pages(), 0, "KV freed once ready to ship");
    }

    #[test]
    fn decode_only_admits_with_prepopulated_kv_and_skips_prefill() {
        let cfg = SchedulerConfig { mode: SchedulerMode::DecodeOnly, ..Default::default() };
        let mut s = Scheduler::new(cfg, kv(1024), vec![Request::new(0, 64, 3, 0)]);
        let b1 = s.next_batch().unwrap();
        assert_eq!(b1.prompt_tokens(), 0, "no prefill slot in decode-only mode");
        assert_eq!(b1.generated_tokens(), 1);
        assert_eq!(b1.slots[0].kv_past, 64, "prompt KV arrived with the handoff");
        // The shipped prompt KV is resident from admission.
        assert_eq!(s.kv().tokens_of(0), Some(64));
        s.complete_iteration(10);
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.slots[0].kv_past, 65, "decode grows the shipped cache");
        s.complete_iteration(10);
        s.next_batch().unwrap();
        s.complete_iteration(10);
        assert!(s.is_done());
        let c = s.completions()[0];
        assert_eq!(c.output_len, 3);
        assert_eq!(c.first_token_ps, 10, "first token comes from the first decode step");
        assert_eq!(c.finish_ps, 30);
    }

    #[test]
    fn decode_only_matches_unified_decode_tail() {
        // The decode-only scheduler must replay exactly the decode
        // iterations a unified scheduler would run after prefill: same
        // kv_past sequence, same token count.
        let run = |mode: SchedulerMode| {
            let cfg = SchedulerConfig { mode, ..Default::default() };
            let mut s = Scheduler::new(cfg, kv(1024), vec![Request::new(0, 32, 5, 0)]);
            let mut decode_kv = Vec::new();
            while let Some(b) = s.next_batch() {
                for slot in &b.slots {
                    if slot.new_tokens == 1 {
                        decode_kv.push(slot.kv_past);
                    }
                }
                s.complete_iteration(10);
            }
            decode_kv
        };
        let unified = run(SchedulerMode::Unified);
        let decode_only = run(SchedulerMode::DecodeOnly);
        assert_eq!(unified, vec![32, 33, 34, 35]);
        assert_eq!(decode_only, vec![32, 33, 34, 35, 36]);
        // Unified emits tokens 2..=5 from decode (token 1 from prefill);
        // decode-only emits all 5, so it runs one extra decode step. The
        // kv_past progression over the shared steps is identical.
        assert_eq!(unified, decode_only[..4].to_vec());
    }

    #[test]
    fn crash_drain_returns_everything_and_frees_kv() {
        let reqs = vec![
            Request::new(0, 32, 8, 0),   // will be mid-decode at the crash
            Request::new(1, 32, 8, 0),   // ditto
            Request::new(2, 32, 8, 900), // still pending at the crash
        ];
        let mut s = Scheduler::new(SchedulerConfig::default(), kv(1024), reqs);
        s.next_batch().unwrap();
        s.complete_iteration(10); // both prefills done, first tokens out
        let lost = s.crash_drain();
        assert_eq!(lost.len(), 3);
        assert_eq!(lost[0].request.id, 2, "pending first");
        assert!(!lost[0].prefill_done);
        assert_eq!(lost[0].generated, 0);
        assert!(lost[1].prefill_done, "active sequence had prefilled");
        assert_eq!(lost[1].generated, 1);
        assert_eq!(s.kv().used_pages(), 0, "crash releases every KV page");
        assert_eq!(s.outstanding(), 0);
        assert!(s.is_done(), "a crashed-and-drained scheduler reads as done");
        assert_eq!(s.next_ready_ps(), None);
        // The replica can serve again after recovery.
        s.push_request(Request::new(3, 16, 1, 2_000));
        s.next_batch().unwrap();
        s.complete_iteration(10);
        assert_eq!(s.completions().len(), 1);
    }

    #[test]
    fn retract_completions_unwinds_finished_prefills() {
        let cfg = SchedulerConfig { mode: SchedulerMode::PrefillOnly, ..Default::default() };
        let mut s = Scheduler::new(
            cfg,
            kv(1024),
            vec![Request::new(0, 64, 4, 0), Request::new(1, 64, 4, 0)],
        );
        s.next_batch().unwrap();
        s.complete_iteration(10);
        assert_eq!(s.completions().len(), 2);
        assert!(s.is_done());
        assert_eq!(s.retract_completions(&[1]), 1);
        assert_eq!(s.completions().len(), 1);
        assert!(s.is_done(), "the retracted request no longer counts toward the total");
        assert_eq!(s.retract_completions(&[99]), 0, "unknown ids retract nothing");
    }

    #[test]
    fn advance_clock_never_moves_backwards() {
        let mut s = sched(vec![Request::new(0, 16, 1, 0)]);
        s.next_batch().unwrap();
        s.complete_iteration(1_000);
        s.advance_clock_to(500);
        assert_eq!(s.clock_ps(), 1_000, "recovery in the past is a no-op");
        s.advance_clock_to(5_000);
        assert_eq!(s.clock_ps(), 5_000);
    }

    #[test]
    fn deterministic_run() {
        let run = || {
            let reqs: Vec<Request> = (0..20)
                .map(|i| Request::new(i, 16 + (i as usize * 7) % 64, 4, i * 100))
                .collect();
            let mut s = Scheduler::new(SchedulerConfig::default(), kv(64), reqs);
            let mut sig = Vec::new();
            while let Some(b) = s.next_batch() {
                sig.push((b.batch_size(), b.prompt_tokens(), b.evictions.len()));
                s.complete_iteration(1_000);
            }
            sig
        };
        assert_eq!(run(), run());
    }
}
