//! Virtual-time telemetry: a zero-cost-when-off event layer observing
//! the serving engine, plus exporters that render captured events as a
//! Perfetto-viewable Chrome trace and a windowed time-series TSV.
//!
//! The design splits observation from rendering:
//!
//! * Hot paths ([`ServingSimulator::step`], the fleet engine, the
//!   fabric) hold a [`Telemetry`] handle and call
//!   [`emit`](Telemetry::emit) with a *closure*. When no sink is
//!   attached — the default — the closure is never evaluated and the
//!   whole call inlines to a branch on a `None`, so the untraced path
//!   costs nothing and all existing goldens stay byte-identical.
//! * A [`TraceSink`] receives typed [`SimEvent`]s. The bundled
//!   [`MemorySink`] just accumulates them; exporters
//!   ([`chrome_trace`], [`timeline_tsv`]) are pure post-processors
//!   over the captured `Vec<SimEvent>`, which makes byte-determinism
//!   trivial: same seed, same events, same bytes.
//!
//! [`ServingSimulator::step`]: crate::ServingSimulator::step

mod chrome;
mod timeline;

pub use chrome::{chrome_trace, validate_chrome_trace};
pub use timeline::{timeline_tsv, TimelineConfig};

use std::sync::{Arc, Mutex};

use llmss_sched::TimePs;

/// One typed event in a simulation's life, stamped in virtual time.
///
/// Request-lifecycle events carry the request id; replica-scoped events
/// carry the fleet index (0 for a single-replica run). Events are
/// emitted in engine-step order: deterministic for a fixed seed, but not
/// sorted by time, since a window records its replicas one after the
/// other. The exporters order what they write themselves.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A request entered the front-end arrival queue.
    Arrival {
        /// Arrival time.
        t_ps: TimePs,
        /// Request id.
        id: u64,
        /// Prompt length in tokens.
        input_len: usize,
        /// Requested generation length in tokens.
        output_len: usize,
    },
    /// The router admitted a request onto a replica.
    Admitted {
        /// Admission time.
        t_ps: TimePs,
        /// Request id.
        id: u64,
        /// The replica that received it.
        replica: usize,
    },
    /// One scheduler iteration executed on a replica: batch formation
    /// (composition, memo outcome) plus the engine's answer.
    Iteration {
        /// The replica that ran the iteration.
        replica: usize,
        /// Iteration index on that replica.
        index: u64,
        /// Iteration start (the replica clock when the batch formed).
        start_ps: TimePs,
        /// Iteration end (start plus the simulated latency).
        end_ps: TimePs,
        /// Sequences in the batch.
        batch_size: usize,
        /// How many of them were prefill slots (no KV yet).
        prefill_slots: usize,
        /// Prompt tokens processed this iteration.
        prompt_tokens: usize,
        /// Tokens generated this iteration.
        gen_tokens: usize,
        /// Requests that had arrived by the iteration's start and were
        /// still queued after batch formation.
        queue_depth: usize,
        /// KV pages in use after batch formation.
        kv_used_pages: usize,
        /// KV pages in total.
        kv_total_pages: usize,
        /// Whether the iteration memo answered (skipping the DES).
        memo_hit: bool,
    },
    /// A request's prefill phase started on a replica.
    PrefillStart {
        /// Start time.
        t_ps: TimePs,
        /// Request id.
        id: u64,
        /// The replica running the prefill.
        replica: usize,
    },
    /// A request's prefill phase finished (its KV cache is built).
    PrefillEnd {
        /// End time.
        t_ps: TimePs,
        /// Request id.
        id: u64,
        /// The replica that ran the prefill.
        replica: usize,
    },
    /// A request generated its first decode token on a replica.
    DecodeStart {
        /// Start time.
        t_ps: TimePs,
        /// Request id.
        id: u64,
        /// The replica running the decode.
        replica: usize,
    },
    /// A request finished generating on a replica.
    Completed {
        /// Finish time.
        t_ps: TimePs,
        /// Request id.
        id: u64,
        /// The replica it finished on.
        replica: usize,
        /// The request's (scheduler-local) arrival time.
        arrival_ps: TimePs,
        /// When its first token landed.
        first_token_ps: TimePs,
        /// Prompt length in tokens.
        input_len: usize,
        /// Generated length in tokens.
        output_len: usize,
    },
    /// A finished prefill queued its KV cache for handoff.
    TransferQueued {
        /// When the KV cache became ready to ship.
        t_ps: TimePs,
        /// Request id.
        id: u64,
        /// The prefill replica holding the KV cache.
        from: usize,
    },
    /// A KV transfer entered the fabric.
    TransferStart {
        /// When the transfer started moving.
        t_ps: TimePs,
        /// Request id.
        id: u64,
        /// Source (prefill) replica.
        from: usize,
        /// Destination (decode) replica.
        to: usize,
        /// KV-cache size in bytes.
        bytes: u64,
        /// Uncontended transfer time.
        nominal_ps: TimePs,
    },
    /// A KV transfer landed on its decode replica.
    TransferEnd {
        /// Delivery time.
        t_ps: TimePs,
        /// Request id.
        id: u64,
        /// Source (prefill) replica.
        from: usize,
        /// Destination (decode) replica.
        to: usize,
    },
    /// A flow entered the fabric (fabric-side view of a transfer).
    FlowStart {
        /// Admission time.
        t_ps: TimePs,
        /// Flow id (the request id).
        id: u64,
        /// Flow size in bytes.
        bytes: u64,
    },
    /// A flow left the fabric.
    FlowEnd {
        /// Delivery time.
        t_ps: TimePs,
        /// Flow id (the request id).
        id: u64,
    },
    /// Bytes a link carried over a fabric recompute interval (the fair
    /// model's bandwidth re-share grain; one interval for FIFO
    /// bookings).
    LinkShare {
        /// Interval start.
        from_ps: TimePs,
        /// Interval end.
        to_ps: TimePs,
        /// The link's display name.
        link: String,
        /// The link's nominal bandwidth in GB/s.
        bw_gbps: f64,
        /// Bytes carried over the interval.
        bytes: f64,
    },
    /// The control plane issued a command at a tick.
    Command {
        /// The tick time.
        t_ps: TimePs,
        /// The command, rendered (`SetRole { replica: 1, .. }`, ...).
        command: String,
    },
    /// A deferred role switch landed after the replica's drain window.
    RoleApplied {
        /// When the replica finished draining and switched.
        t_ps: TimePs,
        /// The replica that switched.
        replica: usize,
        /// The role it now serves.
        role: String,
    },
    /// A replica was retired by `ScaleDown`.
    ReplicaRetired {
        /// The retirement time.
        t_ps: TimePs,
        /// The retired replica.
        replica: usize,
    },
    /// A replica joined the fleet (at start, or via `ScaleUp`).
    ReplicaActivated {
        /// When the replica was added.
        t_ps: TimePs,
        /// The new replica's fleet index.
        replica: usize,
        /// When it starts admitting work (after warmup).
        admit_from_ps: TimePs,
    },
    /// A chaos fault struck a replica.
    ReplicaFault {
        /// When the fault struck.
        t_ps: TimePs,
        /// The replica it hit.
        replica: usize,
        /// The fault kind (`crash`, `hang`, `drain`), rendered.
        kind: String,
    },
    /// A faulted replica recovered.
    ReplicaRecovered {
        /// The recovery time.
        t_ps: TimePs,
        /// The replica that came back.
        replica: usize,
    },
    /// A chaos fault degraded (or partitioned) a fabric link.
    LinkFault {
        /// When the degradation started.
        t_ps: TimePs,
        /// The fabric link index.
        link: usize,
        /// The degraded bandwidth in GB/s (zero = partition).
        bw_gbps: f64,
    },
    /// A degraded fabric link returned to its original bandwidth.
    LinkRecovered {
        /// The restoration time.
        t_ps: TimePs,
        /// The fabric link index.
        link: usize,
    },
    /// A fault knocked a request out of the fleet; it re-enters
    /// admission after a deterministic virtual-time backoff.
    RequestRetried {
        /// When the request was knocked out.
        t_ps: TimePs,
        /// Request id.
        id: u64,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// When the retry re-enters admission.
        retry_at_ps: TimePs,
    },
    /// A request exhausted its retries (or had nowhere left to go) and
    /// was abandoned.
    RequestAbandoned {
        /// The abandonment time.
        t_ps: TimePs,
        /// Request id.
        id: u64,
        /// Why it was abandoned.
        reason: String,
    },
    /// A control-plane tick fired (drain-window boundary).
    Tick {
        /// The tick time.
        t_ps: TimePs,
        /// Replicas currently in service.
        live_replicas: usize,
        /// Arrivals still queued fleet-wide.
        queued_arrivals: usize,
        /// KV transfers awaiting commit.
        pending_transfers: usize,
    },
}

impl SimEvent {
    /// The event's primary timestamp, for windowing and ordering.
    pub fn t_ps(&self) -> TimePs {
        match *self {
            SimEvent::Arrival { t_ps, .. }
            | SimEvent::Admitted { t_ps, .. }
            | SimEvent::PrefillStart { t_ps, .. }
            | SimEvent::PrefillEnd { t_ps, .. }
            | SimEvent::DecodeStart { t_ps, .. }
            | SimEvent::Completed { t_ps, .. }
            | SimEvent::TransferQueued { t_ps, .. }
            | SimEvent::TransferStart { t_ps, .. }
            | SimEvent::TransferEnd { t_ps, .. }
            | SimEvent::FlowStart { t_ps, .. }
            | SimEvent::FlowEnd { t_ps, .. }
            | SimEvent::Command { t_ps, .. }
            | SimEvent::RoleApplied { t_ps, .. }
            | SimEvent::ReplicaRetired { t_ps, .. }
            | SimEvent::ReplicaActivated { t_ps, .. }
            | SimEvent::ReplicaFault { t_ps, .. }
            | SimEvent::ReplicaRecovered { t_ps, .. }
            | SimEvent::LinkFault { t_ps, .. }
            | SimEvent::LinkRecovered { t_ps, .. }
            | SimEvent::RequestRetried { t_ps, .. }
            | SimEvent::RequestAbandoned { t_ps, .. }
            | SimEvent::Tick { t_ps, .. } => t_ps,
            SimEvent::Iteration { start_ps, .. } => start_ps,
            SimEvent::LinkShare { from_ps, .. } => from_ps,
        }
    }

    /// The request id the event concerns, if any.
    pub fn request_id(&self) -> Option<u64> {
        match *self {
            SimEvent::Arrival { id, .. }
            | SimEvent::Admitted { id, .. }
            | SimEvent::PrefillStart { id, .. }
            | SimEvent::PrefillEnd { id, .. }
            | SimEvent::DecodeStart { id, .. }
            | SimEvent::Completed { id, .. }
            | SimEvent::TransferQueued { id, .. }
            | SimEvent::TransferStart { id, .. }
            | SimEvent::TransferEnd { id, .. }
            | SimEvent::FlowStart { id, .. }
            | SimEvent::FlowEnd { id, .. }
            | SimEvent::RequestRetried { id, .. }
            | SimEvent::RequestAbandoned { id, .. } => Some(id),
            _ => None,
        }
    }

    /// The replica the event is scoped to, if any.
    pub fn replica(&self) -> Option<usize> {
        match *self {
            SimEvent::Admitted { replica, .. }
            | SimEvent::Iteration { replica, .. }
            | SimEvent::PrefillStart { replica, .. }
            | SimEvent::PrefillEnd { replica, .. }
            | SimEvent::DecodeStart { replica, .. }
            | SimEvent::Completed { replica, .. }
            | SimEvent::RoleApplied { replica, .. }
            | SimEvent::ReplicaRetired { replica, .. }
            | SimEvent::ReplicaActivated { replica, .. }
            | SimEvent::ReplicaFault { replica, .. }
            | SimEvent::ReplicaRecovered { replica, .. } => Some(replica),
            SimEvent::TransferQueued { from, .. } => Some(from),
            _ => None,
        }
    }
}

/// A receiver for [`SimEvent`]s.
///
/// Sinks are attached behind `Arc<Mutex<..>>` so one sink observes
/// every replica of a fleet; the engine hands each replica a
/// [`Telemetry`] handle cloned from the same sink, and steps a traced
/// fleet's windows on one thread so the sink records in a deterministic
/// order. The `Send` bound keeps
/// [`ServingSimulator`](crate::ServingSimulator) shippable across the
/// worker threads of untraced windows.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Receives one event.
    fn record(&mut self, event: SimEvent);
}

/// The bundled sink: accumulates events in memory for post-run export.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<SimEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events captured so far.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Takes the captured events out of the sink.
    pub fn take(&mut self) -> Vec<SimEvent> {
        std::mem::take(&mut self.events)
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: SimEvent) {
        self.events.push(event);
    }
}

/// The handle hot paths hold: either off (`Default`) — in which case
/// [`emit`](Self::emit) compiles to a branch on `None` and the event
/// closure is never evaluated — or a shared sink plus the replica index
/// the holder observes from.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Mutex<dyn TraceSink>>>,
    replica: usize,
}

impl Telemetry {
    /// The disabled handle (what every simulator starts with).
    pub fn off() -> Self {
        Self::default()
    }

    /// A handle recording into `sink`, scoped to replica 0.
    pub fn new(sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        Self { sink: Some(sink), replica: 0 }
    }

    /// The same sink, scoped to a different replica index.
    pub fn for_replica(&self, replica: usize) -> Self {
        Self { sink: self.sink.clone(), replica }
    }

    /// The replica index this handle stamps on its events.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Whether a sink is attached. Hot paths with non-trivial event
    /// assembly should guard on this; trivial ones just call
    /// [`emit`](Self::emit), whose closure is lazy anyway.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event produced by `event()` — which is only
    /// evaluated when a sink is attached.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> SimEvent) {
        if let Some(sink) = &self.sink {
            // A traced fleet steps on one thread, so a poisoned lock can
            // only mean a panic already in flight — keep recording rather
            // than compounding it with a second panic.
            let mut guard = match sink.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.record(event());
        }
    }
}

/// Keeps only events matching the optional request-id / replica
/// filters (an event with no request id or replica scope always
/// passes — fleet-level context stays useful in filtered traces).
pub fn filter_events(
    events: Vec<SimEvent>,
    requests: Option<&[u64]>,
    replicas: Option<&[usize]>,
) -> Vec<SimEvent> {
    if requests.is_none() && replicas.is_none() {
        return events;
    }
    events
        .into_iter()
        .filter(|e| {
            let id_ok = match (requests, e.request_id()) {
                (Some(wanted), Some(id)) => wanted.contains(&id),
                _ => true,
            };
            let replica_ok = match (replicas, e.replica()) {
                (Some(wanted), Some(r)) => wanted.contains(&r),
                _ => true,
            };
            id_ok && replica_ok
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_never_evaluates_the_closure() {
        let t = Telemetry::off();
        assert!(!t.is_on());
        t.emit(|| unreachable!("closure must not run when telemetry is off"));
    }

    #[test]
    fn memory_sink_captures_in_order() {
        let sink = Arc::new(Mutex::new(MemorySink::new()));
        let t = Telemetry::new(sink.clone());
        t.emit(|| SimEvent::Arrival { t_ps: 1, id: 1, input_len: 8, output_len: 4 });
        t.for_replica(2).emit(|| SimEvent::Admitted { t_ps: 2, id: 1, replica: 2 });
        let events = sink.lock().unwrap().take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_ps(), 1);
        assert_eq!(events[1].replica(), Some(2));
    }

    #[test]
    fn filters_compose_and_pass_unscoped_events() {
        let events = vec![
            SimEvent::Arrival { t_ps: 0, id: 1, input_len: 1, output_len: 1 },
            SimEvent::Arrival { t_ps: 0, id: 2, input_len: 1, output_len: 1 },
            SimEvent::Admitted { t_ps: 1, id: 1, replica: 0 },
            SimEvent::Admitted { t_ps: 1, id: 2, replica: 1 },
            SimEvent::Tick {
                t_ps: 2,
                live_replicas: 2,
                queued_arrivals: 0,
                pending_transfers: 0,
            },
        ];
        let kept = filter_events(events, Some(&[1]), Some(&[0]));
        assert_eq!(kept.len(), 3, "{kept:?}");
        assert!(matches!(kept[2], SimEvent::Tick { .. }));
    }
}
