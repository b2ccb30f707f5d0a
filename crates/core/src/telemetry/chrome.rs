//! Chrome Trace Event Format export: renders captured [`SimEvent`]s as
//! a JSON trace loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! Track model:
//!
//! * **pid 0 — `fabric`**: one thread per in-flight KV flow plus
//!   counter tracks showing per-link utilization at every bandwidth
//!   re-share point.
//! * **pid `r + 1` — `replica r`**: thread 0 is the iteration row
//!   (one complete-event per scheduler iteration, named by its batch
//!   signature `{prefill}p+{decode}d/{tokens}t`, with queue depth, KV
//!   pages and the memo outcome in the args); thread `id + 1` carries
//!   request `id`'s lifecycle as nested duration slices
//!   (`queued`/`prefill`/`decode` inside the request span). A request
//!   handed off between replicas gets a prefill-side span and a
//!   decode-side span, connected by a flow arrow following the KV
//!   transfer.
//!
//! The exporter is a pure function of the event list, so a fixed seed
//! produces byte-identical JSON. Entries stay typed until they are
//! sorted, then stream through one pretty-JSON writer into the output.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use llmss_sched::TimePs;
use serde::Value;
use serde_json::PrettyWriter;

use crate::json;

use super::SimEvent;

/// One trace event, kept typed until it is written, plus its
/// deterministic sort key `(ts, pid, tid, longest first, rank)`.
struct Entry<'a> {
    ts_ps: TimePs,
    pid: i128,
    tid: i128,
    /// A slice's duration (zero for every other kind). Longer slices
    /// sort first at equal `ts` so parents open before their children
    /// when viewers replay the array in order.
    dur_ps: TimePs,
    rank: u8,
    kind: Kind<'a>,
}

/// What an [`Entry`] draws.
enum Kind<'a> {
    /// A complete event (`ph: "X"`) spanning `ts .. ts + dur`.
    Slice(Slice<'a>),
    /// A link's utilization sample on the fabric's counter track.
    Counter { link: &'a str, util: f64 },
    /// A thread-scoped instant.
    Instant(String),
    /// The KV flow arrow leaving the prefill-side span.
    FlowStart { id: u64, bytes: u64 },
    /// The KV flow arrow entering the decode-side span.
    FlowFinish { id: u64 },
}

/// A slice's name and args, written when its entry is.
enum Slice<'a> {
    /// A scheduler iteration, named by its batch signature
    /// (`2p+14d/96t`) and annotated from its event.
    Iteration(&'a SimEvent),
    /// A request span, `req {id}` plus the serving leg (`""`,
    /// `" (prefill)"`, `" (decode)"`), with the request's lengths when
    /// its arrival was captured.
    Request { id: u64, leg: &'static str, lens: Option<(usize, usize)> },
    /// A lifecycle phase inside a request span.
    Phase(&'static str),
    /// A KV flow crossing the fabric.
    Flow { id: u64, bytes: u64 },
}

/// Everything captured about one request's lifecycle.
#[derive(Default)]
struct Life {
    arrival: Option<(TimePs, usize, usize)>,
    admitted: Option<(TimePs, usize)>,
    prefill_start: Option<(TimePs, usize)>,
    prefill_end: Option<TimePs>,
    decode_start: Option<(TimePs, usize)>,
    /// `(finish, replica)` — two entries for a handed-off request (the
    /// prefill-side bookkeeping record and the real decode-side one).
    completions: Vec<(TimePs, usize)>,
    queued: Option<(TimePs, usize)>,
    transfer_start: Option<(TimePs, usize, usize, u64)>,
    transfer_end: Option<(TimePs, usize)>,
    flow: (Option<(TimePs, u64)>, Option<TimePs>),
}

/// Picoseconds as the trace's microsecond timestamps.
fn us(t: TimePs) -> f64 {
    t as f64 / 1e6
}

fn slice(
    slice: Slice<'_>,
    pid: usize,
    tid: i128,
    start: TimePs,
    end: TimePs,
    rank: u8,
) -> Entry<'_> {
    Entry {
        ts_ps: start,
        pid: pid as i128,
        tid,
        dur_ps: end.saturating_sub(start),
        rank,
        kind: Kind::Slice(slice),
    }
}

fn instant<'a>(t_ps: TimePs, pid: i128, name: String) -> Entry<'a> {
    Entry { ts_ps: t_ps, pid, tid: 0, dur_ps: 0, rank: 4, kind: Kind::Instant(name) }
}

fn counter(t_ps: TimePs, link: &str, util: f64, rank: u8) -> Entry<'_> {
    Entry { ts_ps: t_ps, pid: 0, tid: 0, dur_ps: 0, rank, kind: Kind::Counter { link, util } }
}

/// Renders the captured events as a Chrome Trace Event Format JSON
/// document (the `traceEvents` object form).
pub fn chrome_trace(events: &[SimEvent]) -> String {
    let mut lives: BTreeMap<u64, Life> = BTreeMap::new();
    let mut entries: Vec<Entry<'_>> = Vec::new();
    // Tracks, collected as they appear; their display names follow
    // from the ids (see `write_metadata`).
    let mut processes: BTreeSet<i128> = BTreeSet::new();
    let mut threads: BTreeSet<(i128, i128)> = BTreeSet::new();
    // Per-link counter bookkeeping, in first-seen order: name and last
    // interval end.
    let mut links: Vec<(&str, TimePs)> = Vec::new();

    for e in events {
        match e {
            SimEvent::Arrival { t_ps, id, input_len, output_len } => {
                lives.entry(*id).or_default().arrival = Some((*t_ps, *input_len, *output_len));
            }
            SimEvent::Admitted { t_ps, id, replica } => {
                lives.entry(*id).or_default().admitted = Some((*t_ps, *replica));
            }
            SimEvent::PrefillStart { t_ps, id, replica } => {
                let life = lives.entry(*id).or_default();
                if life.prefill_start.is_none() {
                    life.prefill_start = Some((*t_ps, *replica));
                }
            }
            SimEvent::PrefillEnd { t_ps, id, .. } => {
                let life = lives.entry(*id).or_default();
                if life.prefill_end.is_none() {
                    life.prefill_end = Some(*t_ps);
                }
            }
            SimEvent::DecodeStart { t_ps, id, replica } => {
                let life = lives.entry(*id).or_default();
                if life.decode_start.is_none() {
                    life.decode_start = Some((*t_ps, *replica));
                }
            }
            SimEvent::Completed { t_ps, id, replica, .. } => {
                lives.entry(*id).or_default().completions.push((*t_ps, *replica));
            }
            SimEvent::TransferQueued { t_ps, id, from } => {
                lives.entry(*id).or_default().queued = Some((*t_ps, *from));
            }
            SimEvent::TransferStart { t_ps, id, from, to, bytes, .. } => {
                lives.entry(*id).or_default().transfer_start =
                    Some((*t_ps, *from, *to, *bytes));
            }
            SimEvent::TransferEnd { t_ps, id, to, .. } => {
                lives.entry(*id).or_default().transfer_end = Some((*t_ps, *to));
            }
            SimEvent::FlowStart { t_ps, id, bytes } => {
                lives.entry(*id).or_default().flow.0 = Some((*t_ps, *bytes));
            }
            SimEvent::FlowEnd { t_ps, id } => {
                lives.entry(*id).or_default().flow.1 = Some(*t_ps);
            }
            SimEvent::Iteration { replica, start_ps, end_ps, .. } => {
                let pid = replica + 1;
                processes.insert(pid as i128);
                threads.insert((pid as i128, 0));
                entries.push(slice(Slice::Iteration(e), pid, 0, *start_ps, *end_ps, 0));
            }
            SimEvent::LinkShare { from_ps, to_ps, link, bw_gbps, bytes } => {
                processes.insert(0);
                match links.iter_mut().find(|(name, _)| name == link) {
                    Some((_, end)) => *end = *to_ps,
                    None => links.push((link, *to_ps)),
                }
                let window = to_ps.saturating_sub(*from_ps);
                let cap_bytes = bw_gbps / 1000.0 * window as f64;
                let util = if cap_bytes > 0.0 { bytes / cap_bytes } else { 0.0 };
                entries.push(counter(*from_ps, link, util, 0));
            }
            SimEvent::Command { t_ps, command } => {
                entries.push(instant(*t_ps, 0, format!("cmd {command}")));
                processes.insert(0);
            }
            SimEvent::RoleApplied { t_ps, replica, role } => {
                let pid = *replica as i128 + 1;
                processes.insert(pid);
                entries.push(instant(*t_ps, pid, format!("role={role}")));
            }
            SimEvent::ReplicaRetired { t_ps, replica } => {
                let pid = *replica as i128 + 1;
                processes.insert(pid);
                entries.push(instant(*t_ps, pid, "retired".into()));
            }
            SimEvent::ReplicaActivated { replica, .. } => {
                processes.insert(*replica as i128 + 1);
            }
            SimEvent::ReplicaFault { t_ps, replica, kind } => {
                let pid = *replica as i128 + 1;
                processes.insert(pid);
                entries.push(instant(*t_ps, pid, format!("fault={kind}")));
            }
            SimEvent::ReplicaRecovered { t_ps, replica } => {
                let pid = *replica as i128 + 1;
                processes.insert(pid);
                entries.push(instant(*t_ps, pid, "recovered".into()));
            }
            SimEvent::LinkFault { t_ps, link, bw_gbps } => {
                processes.insert(0);
                entries.push(instant(*t_ps, 0, format!("link{link} fault bw={bw_gbps}")));
            }
            SimEvent::LinkRecovered { t_ps, link } => {
                processes.insert(0);
                entries.push(instant(*t_ps, 0, format!("link{link} recovered")));
            }
            SimEvent::RequestRetried { t_ps, id, attempt, .. } => {
                entries.push(instant(*t_ps, 0, format!("retry req {id} #{attempt}")));
                processes.insert(0);
            }
            SimEvent::RequestAbandoned { t_ps, id, reason } => {
                entries.push(instant(*t_ps, 0, format!("abandon req {id}: {reason}")));
                processes.insert(0);
            }
            SimEvent::Tick { .. } => {}
        }
    }

    // Close every link counter track at its last interval end.
    for &(link, end) in &links {
        entries.push(counter(end, link, 0.0, 1));
    }

    for (&id, life) in &lives {
        render_life(id, life, &mut entries, &mut processes, &mut threads);
    }

    // Metadata first, then the event stream ordered by (ts, track,
    // longest-slice-first) — which also makes ts monotonic per track.
    entries.sort_by_key(|e| (e.ts_ps, e.pid, e.tid, Reverse(e.dur_ps), e.rank));
    let mut out = String::new();
    let mut w = PrettyWriter::new(&mut out);
    w.begin_object().key("traceEvents").begin_array();
    write_metadata(&mut w, &processes, &threads);
    for entry in &entries {
        write_entry(&mut w, entry);
    }
    w.end_array().end_object();
    out
}

/// Writes the track names: `fabric` (pid 0) and `replica r` (pid
/// `r + 1`) with their sort indices, then each thread's name — a
/// replica's `iterations` row (tid 0), a request's `req {id}` row, or
/// a fabric flow's `flow {id}` row (tid `id + 1`).
fn write_metadata(
    w: &mut PrettyWriter<'_>,
    processes: &BTreeSet<i128>,
    threads: &BTreeSet<(i128, i128)>,
) {
    for &pid in processes {
        w.begin_object();
        w.key("name").str("process_name");
        w.key("ph").str("M");
        w.key("pid").int(pid);
        w.key("args").begin_object().key("name");
        match pid {
            0 => w.str("fabric"),
            _ => w.str_fmt(format_args!("replica {}", pid - 1)),
        };
        w.end_object().end_object();
        w.begin_object();
        w.key("name").str("process_sort_index");
        w.key("ph").str("M");
        w.key("pid").int(pid);
        w.key("args").begin_object().key("sort_index").int(pid).end_object();
        w.end_object();
    }
    for &(pid, tid) in threads {
        w.begin_object();
        w.key("name").str("thread_name");
        w.key("ph").str("M");
        w.key("pid").int(pid);
        w.key("tid").int(tid);
        w.key("args").begin_object().key("name");
        match (pid, tid) {
            (0, _) => w.str_fmt(format_args!("flow {}", tid - 1)),
            (_, 0) => w.str("iterations"),
            _ => w.str_fmt(format_args!("req {}", tid - 1)),
        };
        w.end_object().end_object();
    }
}

fn write_entry(w: &mut PrettyWriter<'_>, e: &Entry<'_>) {
    w.begin_object().key("name");
    match &e.kind {
        Kind::Slice(slice) => write_slice(w, e, slice),
        Kind::Counter { link, util } => {
            w.str_fmt(format_args!("util {link}"));
            w.key("ph").str("C");
            w.key("pid").int(e.pid);
            w.key("ts").float(us(e.ts_ps));
            w.key("args").begin_object().key("util").float(*util).end_object();
        }
        Kind::Instant(name) => {
            w.str(name);
            w.key("ph").str("i");
            w.key("pid").int(e.pid);
            w.key("tid").int(e.tid);
            w.key("ts").float(us(e.ts_ps));
            w.key("s").str("t");
        }
        Kind::FlowStart { id, bytes } => {
            write_arrow(w, e, "s", *id);
            w.key("args").begin_object().key("bytes").int(i128::from(*bytes)).end_object();
        }
        Kind::FlowFinish { id } => write_arrow(w, e, "f", *id),
    }
    w.end_object();
}

/// A flow arrow's fields after its `name` key, up to its args; the
/// finish binds to its enclosing slice (`bp: "e"`).
fn write_arrow(w: &mut PrettyWriter<'_>, e: &Entry<'_>, ph: &str, id: u64) {
    w.str("kv");
    w.key("cat").str("kv");
    w.key("ph").str(ph);
    if ph == "f" {
        w.key("bp").str("e");
    }
    w.key("id").int(i128::from(id));
    w.key("pid").int(e.pid);
    w.key("tid").int(e.tid);
    w.key("ts").float(us(e.ts_ps));
}

/// A slice's fields after its `name` key: its name, timing and args.
fn write_slice(w: &mut PrettyWriter<'_>, e: &Entry<'_>, slice: &Slice<'_>) {
    let timing = |w: &mut PrettyWriter<'_>| {
        w.key("ph").str("X");
        w.key("pid").int(e.pid);
        w.key("tid").int(e.tid);
        w.key("ts").float(us(e.ts_ps));
        w.key("dur").float(us(e.dur_ps));
    };
    match *slice {
        Slice::Iteration(&SimEvent::Iteration {
            index,
            batch_size,
            prefill_slots,
            prompt_tokens,
            gen_tokens,
            queue_depth,
            kv_used_pages,
            kv_total_pages,
            memo_hit,
            ..
        }) => {
            w.str_fmt(format_args!(
                "{prefill_slots}p+{}d/{}t",
                batch_size.saturating_sub(prefill_slots),
                prompt_tokens + gen_tokens
            ));
            timing(w);
            w.key("args").begin_object();
            w.key("index").int(i128::from(index));
            w.key("batch_size").int(batch_size as i128);
            w.key("prefill_slots").int(prefill_slots as i128);
            w.key("prompt_tokens").int(prompt_tokens as i128);
            w.key("gen_tokens").int(gen_tokens as i128);
            w.key("queue_depth").int(queue_depth as i128);
            w.key("kv_used_pages").int(kv_used_pages as i128);
            w.key("kv_total_pages").int(kv_total_pages as i128);
            w.key("memo_hit").bool(memo_hit);
            w.end_object();
        }
        // Iteration slices are only built from iteration events.
        Slice::Iteration(_) => {}
        Slice::Request { id, leg, lens } => {
            w.str_fmt(format_args!("req {id}{leg}"));
            timing(w);
            if let Some((input, output)) = lens {
                w.key("args").begin_object();
                w.key("input_len").int(input as i128);
                w.key("output_len").int(output as i128);
                w.end_object();
            }
        }
        Slice::Phase(name) => {
            w.str(name);
            timing(w);
        }
        Slice::Flow { id, bytes } => {
            w.str_fmt(format_args!("flow {id}"));
            timing(w);
            w.key("args").begin_object().key("bytes").int(i128::from(bytes)).end_object();
        }
    }
}

/// Emits one request's slices (and its flow arrow when it was handed
/// off). Lifecycles missing their closing event are skipped rather than
/// drawn open-ended.
fn render_life(
    id: u64,
    life: &Life,
    entries: &mut Vec<Entry<'_>>,
    processes: &mut BTreeSet<i128>,
    threads: &mut BTreeSet<(i128, i128)>,
) {
    let tid = id as i128 + 1;
    let mut track = |replica: usize, processes: &mut BTreeSet<i128>| {
        let pid = replica + 1;
        processes.insert(pid as i128);
        threads.insert((pid as i128, tid));
        pid
    };
    let lens = life.arrival.map(|(_, input, output)| (input, output));
    let request = |leg| Slice::Request { id, leg, lens };
    let handoff = life.queued.is_some() || life.transfer_start.is_some();
    if !handoff {
        // Unified lifecycle: one span on one replica.
        let Some(&(finish, replica)) = life.completions.first() else { return };
        let open = life
            .admitted
            .map(|(t, _)| t)
            .or(life.prefill_start.map(|(t, _)| t))
            .or(life.arrival.map(|(t, ..)| t))
            .unwrap_or(finish);
        let pid = track(replica, processes);
        entries.push(slice(request(""), pid, tid, open, finish, 1));
        if let Some((ps, _)) = life.prefill_start {
            if ps > open {
                entries.push(slice(Slice::Phase("queued"), pid, tid, open, ps, 2));
            }
            if let Some(pe) = life.prefill_end {
                entries.push(slice(Slice::Phase("prefill"), pid, tid, ps, pe, 2));
            }
        }
        if let Some((ds, _)) = life.decode_start {
            entries.push(slice(Slice::Phase("decode"), pid, tid, ds, finish, 2));
        }
        return;
    }

    // Handed-off lifecycle: a prefill-side span, a decode-side span,
    // and a flow arrow riding the KV transfer between them.
    let from =
        life.queued.map(|(_, f)| f).or(life.transfer_start.map(|(_, f, ..)| f)).unwrap_or(0);
    let prefill_close = life
        .queued
        .map(|(t, _)| t)
        .or(life.prefill_end)
        .or(life.transfer_start.map(|(t, ..)| t));
    let open = life
        .admitted
        .map(|(t, _)| t)
        .or(life.prefill_start.map(|(t, _)| t))
        .or(life.arrival.map(|(t, ..)| t));
    if let (Some(open), Some(close)) = (open, prefill_close) {
        let pid = track(from, processes);
        entries.push(slice(request(" (prefill)"), pid, tid, open, close, 1));
        if let Some((ps, _)) = life.prefill_start {
            if ps > open {
                entries.push(slice(Slice::Phase("queued"), pid, tid, open, ps, 2));
            }
            if let Some(pe) = life.prefill_end {
                entries.push(slice(Slice::Phase("prefill"), pid, tid, ps, pe, 2));
            }
        }
    }
    let Some((arrive, to)) = life.transfer_end else { return };
    // The decode-side completion is the one that is not the prefill
    // replica's bookkeeping record (same replica, finishing exactly at
    // the KV-ready instant).
    let queued_t = life.queued.map(|(t, _)| t);
    let decode_finish =
        life.completions.iter().find(|&&(t, r)| !(r == from && Some(t) == queued_t)).copied();
    if let Some((finish, _)) = decode_finish {
        let pid = track(to, processes);
        entries.push(slice(request(" (decode)"), pid, tid, arrive, finish, 1));
        if let Some((ds, _)) = life.decode_start {
            entries.push(slice(Slice::Phase("decode"), pid, tid, ds, finish, 2));
        }
    }
    // Flow arrow: out of the prefill-side span at the KV-ready
    // instant, into the decode-side span at delivery.
    if let Some(close) = prefill_close {
        let bytes = life.transfer_start.map(|(.., b)| b).unwrap_or(0);
        let arrow = |ts_ps, replica: usize, kind| Entry {
            ts_ps,
            pid: replica as i128 + 1,
            tid,
            dur_ps: 0,
            rank: 3,
            kind,
        };
        entries.push(arrow(close, from, Kind::FlowStart { id, bytes }));
        entries.push(arrow(arrive, to, Kind::FlowFinish { id }));
    }
    // The fabric-side flow slice (only present when the fabric emitted
    // flow events for this id).
    if let (Some((fs, bytes)), Some(fe)) = life.flow {
        processes.insert(0);
        threads.insert((0, tid));
        entries.push(slice(Slice::Flow { id, bytes }, 0, tid, fs, fe, 1));
    }
}

/// Structurally validates a Chrome trace JSON document: well-formed
/// JSON, a `traceEvents` array, required fields per phase, and `ts`
/// monotonically non-decreasing within every `(pid, tid)` track. Every
/// flow-start (`ph: "s"`) must have a matching flow-finish (`"f"`) with
/// a later-or-equal timestamp.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let root = json::parse(text)?;
    let Some(Value::Array(events)) = root.get("traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    let mut last_ts: BTreeMap<(i128, i128), f64> = BTreeMap::new();
    let mut flows: BTreeMap<i128, (usize, usize, f64, f64)> = BTreeMap::new();
    let int = |v: Option<&Value>| -> Option<i128> {
        match v {
            Some(Value::Int(i)) => Some(*i),
            _ => None,
        }
    };
    let num = |v: Option<&Value>| -> Option<f64> {
        match v {
            Some(Value::Float(f)) => Some(*f),
            Some(Value::Int(i)) => Some(*i as f64),
            _ => None,
        }
    };
    for (i, e) in events.iter().enumerate() {
        let Some(Value::Str(ph)) = e.get("ph") else {
            return Err(format!("event {i}: missing ph"));
        };
        let Some(Value::Str(_)) = e.get("name") else {
            return Err(format!("event {i}: missing name"));
        };
        let pid = int(e.get("pid")).ok_or_else(|| format!("event {i}: missing integer pid"))?;
        if ph == "M" {
            continue;
        }
        let ts = num(e.get("ts")).ok_or_else(|| format!("event {i}: missing numeric ts"))?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative ts {ts}"));
        }
        match ph.as_str() {
            "X" => {
                let tid = int(e.get("tid"))
                    .ok_or_else(|| format!("event {i}: missing integer tid"))?;
                let dur = num(e.get("dur"))
                    .ok_or_else(|| format!("event {i}: X event missing dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur {dur}"));
                }
                let prev = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
                if ts < *prev {
                    return Err(format!(
                        "event {i}: ts {ts} goes backwards on track ({pid}, {tid})"
                    ));
                }
                *prev = ts;
            }
            "s" | "f" => {
                let id =
                    int(e.get("id")).ok_or_else(|| format!("event {i}: flow missing id"))?;
                let entry = flows.entry(id).or_insert((0, 0, f64::INFINITY, f64::NEG_INFINITY));
                if ph == "s" {
                    entry.0 += 1;
                    entry.2 = entry.2.min(ts);
                } else {
                    entry.1 += 1;
                    entry.3 = entry.3.max(ts);
                }
            }
            "C" | "i" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    for (id, (starts, finishes, first_s, last_f)) in flows {
        if starts != finishes {
            return Err(format!("flow {id}: {starts} starts but {finishes} finishes"));
        }
        if starts > 0 && last_f < first_s {
            return Err(format!(
                "flow {id}: finishes at {last_f} before it starts at {first_s}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handoff_events() -> Vec<SimEvent> {
        vec![
            SimEvent::Arrival { t_ps: 0, id: 1, input_len: 8, output_len: 4 },
            SimEvent::Admitted { t_ps: 0, id: 1, replica: 0 },
            SimEvent::PrefillStart { t_ps: 10, id: 1, replica: 0 },
            SimEvent::Iteration {
                replica: 0,
                index: 0,
                start_ps: 10,
                end_ps: 50,
                batch_size: 1,
                prefill_slots: 1,
                prompt_tokens: 8,
                gen_tokens: 0,
                queue_depth: 0,
                kv_used_pages: 1,
                kv_total_pages: 8,
                memo_hit: false,
            },
            SimEvent::PrefillEnd { t_ps: 50, id: 1, replica: 0 },
            SimEvent::Completed {
                t_ps: 50,
                id: 1,
                replica: 0,
                arrival_ps: 0,
                first_token_ps: 50,
                input_len: 8,
                output_len: 1,
            },
            SimEvent::TransferQueued { t_ps: 50, id: 1, from: 0 },
            SimEvent::TransferStart {
                t_ps: 50,
                id: 1,
                from: 0,
                to: 1,
                bytes: 64,
                nominal_ps: 20,
            },
            SimEvent::FlowStart { t_ps: 50, id: 1, bytes: 64 },
            SimEvent::FlowEnd { t_ps: 70, id: 1 },
            SimEvent::TransferEnd { t_ps: 70, id: 1, from: 0, to: 1 },
            SimEvent::DecodeStart { t_ps: 80, id: 1, replica: 1 },
            SimEvent::Completed {
                t_ps: 120,
                id: 1,
                replica: 1,
                arrival_ps: 70,
                first_token_ps: 80,
                input_len: 8,
                output_len: 4,
            },
        ]
    }

    #[test]
    fn handoff_produces_flow_arrow_between_tracks() {
        let text = chrome_trace(&handoff_events());
        validate_chrome_trace(&text).unwrap();
        assert!(text.contains("\"ph\": \"s\""), "missing flow start:\n{text}");
        assert!(text.contains("\"ph\": \"f\""), "missing flow finish:\n{text}");
        assert!(text.contains("req 1 (prefill)"));
        assert!(text.contains("req 1 (decode)"));
        assert!(text.contains("replica 1"));
    }

    #[test]
    fn export_is_deterministic() {
        let events = handoff_events();
        assert_eq!(chrome_trace(&events), chrome_trace(&events));
    }

    #[test]
    fn validator_catches_backwards_ts() {
        let bad = r#"{"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 5.0, "dur": 1.0},
            {"name": "b", "ph": "X", "pid": 1, "tid": 1, "ts": 2.0, "dur": 1.0}
        ]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("backwards"));
    }

    #[test]
    fn validator_catches_unbalanced_flows() {
        let bad = r#"{"traceEvents": [
            {"name": "kv", "ph": "s", "pid": 1, "tid": 1, "ts": 5.0, "id": 3}
        ]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("flow 3"));
    }
}
