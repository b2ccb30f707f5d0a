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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use llmss_model::FnvHashMap;
use llmss_sched::TimePs;
use serde::Value;
use serde_json::{push_uint, PrettyWriter};

use crate::json;

use super::SimEvent;

/// Sorted entries per render chunk: the unit the threads claim and the
/// caller splices. Small enough that both trace goldens span several
/// chunks and that a helper descheduled mid-chunk holds back only that
/// chunk.
const CHUNK: usize = 192;

/// The depth of the `traceEvents` array inside the document.
const EVENTS_DEPTH: usize = 2;

/// Output bytes reserved per written object (a Chrome trace entry runs
/// about 250 bytes).
const ENTRY_BYTES: usize = 256;

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

/// An entry's place in the trace: its sort key, then its push index,
/// so an unstable sort of keys orders equal entries as a stable sort of
/// the entries would. A pid or tid (`0`, or `n + 1` for a 64-bit `n`)
/// is held as a carry bit and its low 64 bits, which order the same
/// way, so a key takes 40 bytes instead of an entry's 112.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    ts_ps: TimePs,
    pid_carry: bool,
    pid: u64,
    tid_carry: bool,
    tid: u64,
    dur_ps: Reverse<TimePs>,
    rank: u8,
    /// The entry's push index. 32 bits index any trace that can be
    /// written: 2^32 entries would be a terabyte of JSON.
    index: u32,
}

impl Key {
    fn new(e: &Entry<'_>, index: usize) -> Self {
        // Track ids lie in 0..=2^64: above that, `as` would wrap.
        let split = |id: i128| (id > i128::from(u64::MAX), id as u64);
        let (pid_carry, pid) = split(e.pid);
        let (tid_carry, tid) = split(e.tid);
        Key {
            ts_ps: e.ts_ps,
            pid_carry,
            pid,
            tid_carry,
            tid,
            dur_ps: Reverse(e.dur_ps),
            rank: e.rank,
            index: u32::try_from(index).unwrap_or(u32::MAX),
        }
    }
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

/// Writes a picosecond time as the microsecond number `float(us(t))`
/// writes. For `100 <= t < 10^15` that is the exact decimal `t / 10^6`,
/// written from `t`'s digits (see [`PrettyWriter::decimal`]); below 100
/// ps `{:?}` switches to an exponent (`1e-6`), and from 10^15 ps on the
/// float drops digits, so those go through the float.
fn write_us(w: &mut PrettyWriter<'_>, t: TimePs) {
    if (100..1_000_000_000_000_000).contains(&t) {
        w.decimal(t, 6);
    } else {
        w.float(us(t));
    }
}

/// `prefix`, `n` in decimal and `suffix`, assembled in `name`.
fn numbered<'n>(name: &'n mut String, prefix: &str, n: i128, suffix: &str) -> &'n str {
    name.clear();
    name.push_str(prefix);
    match u64::try_from(n) {
        Ok(n) => push_uint(name, n),
        Err(_) => name.push_str(&n.to_string()),
    }
    name.push_str(suffix);
    name
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
///
/// The track-name metadata comes first, then every other entry ordered
/// by `(ts, pid, tid, longest slice first, rank)`, which also makes `ts`
/// monotonic per track; entries with equal keys keep the order they
/// were collected in (event order, then request lifecycles by id).
/// Timestamps and durations are microseconds, spelled as `{:?}` spells
/// `ps as f64 / 1e6`: the exact decimal for `100 <= ps < 10^15`.
///
/// When the host has two or more cores (`available_parallelism`) and
/// the trace spans at least two chunks of 192 sorted entries, one scoped
/// helper thread renders chunks alongside the caller: each takes the
/// next unclaimed chunk, and the caller splices the helper's text in
/// order, so the output is the same bytes either way. Memory beyond the
/// output stays at two chunk buffers.
pub fn chrome_trace(events: &[SimEvent]) -> String {
    render(events, crate::host_parallelism() >= 2)
}

/// [`chrome_trace`], with the helper thread allowed or not.
pub(crate) fn render(events: &[SimEvent], helper: bool) -> String {
    // Lifecycles by request id, in a B-tree of small nodes: one table
    // that doubles as it grows (a `Vec` or a hash map) raised the peak
    // RSS of a 3k-request export by 2-4 MB.
    let mut lives: BTreeMap<u64, Life> = BTreeMap::new();
    let mut entries: Vec<Entry<'_>> = Vec::new();
    // Tracks, collected as they appear; their display names follow
    // from the ids (see `write_metadata`).
    let mut processes: BTreeSet<i128> = BTreeSet::new();
    let mut threads: BTreeSet<(i128, i128)> = BTreeSet::new();
    // Per-link counter bookkeeping, in first-seen order: name and last
    // interval end, indexed by name.
    let mut links: Vec<(&str, TimePs)> = Vec::new();
    let mut link_of: FnvHashMap<&str, usize> = FnvHashMap::default();

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
                let slot = *link_of.entry(link.as_str()).or_insert_with(|| {
                    links.push((link, 0));
                    links.len() - 1
                });
                links[slot].1 = *to_ps;
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

    // Consumed, so its nodes are freed before the output is allocated.
    for (id, life) in lives {
        render_life(id, &life, &mut entries, &mut processes, &mut threads);
    }
    write_trace(&entries, &processes, &threads, helper)
}

/// Sorts the entries and writes the document: the track-name metadata,
/// then the entries in trace order, on the caller's thread alone or,
/// when `helper` is set, shared with one helper thread.
fn write_trace(
    entries: &[Entry<'_>],
    processes: &BTreeSet<i128>,
    threads: &BTreeSet<(i128, i128)>,
    helper: bool,
) -> String {
    // The entries' push indices in trace order. The keys are dropped
    // before the output is allocated, so only this list outlives them.
    let order: Vec<u32> = {
        let mut keys: Vec<Key> =
            entries.iter().enumerate().map(|(i, e)| Key::new(e, i)).collect();
        keys.sort_unstable();
        keys.iter().map(|k| k.index).collect()
    };
    let objects = order.len() + 2 * processes.len() + threads.len();
    let mut out = String::with_capacity(ENTRY_BYTES * objects + 64);
    let mut w = PrettyWriter::new(&mut out);
    w.begin_object().key("traceEvents").begin_array();
    write_metadata(&mut w, processes, threads);
    if !helper || order.len() <= CHUNK {
        write_chunk(&mut w, entries, &order);
        w.end_array().end_object();
        return out;
    }
    // The first chunk goes through the writer that opened the array,
    // which knows whether the array holds an entry yet (metadata); every
    // later chunk continues a filled array.
    let (first, rest) = order.split_at(CHUNK);
    write_chunk(&mut w, entries, first);
    write_pipelined(&mut out, entries, rest);
    PrettyWriter::continuing(&mut out, EVENTS_DEPTH).end_array().end_object();
    out
}

/// Appends the entries at `order`'s indices to the `traceEvents` array
/// in `out`, chunk by chunk, with one scoped helper thread. Both threads
/// claim chunks in trace order from one counter, so whichever is free
/// takes the next; the caller writes its chunks straight into `out` and
/// splices the helper's, which arrive in the order it claimed them.
fn write_pipelined(out: &mut String, entries: &[Entry<'_>], order: &[u32]) {
    let chunks = order.len().div_ceil(CHUNK);
    let chunk = |i: usize| &order[i * CHUNK..order.len().min((i + 1) * CHUNK)];
    // Hands out chunk indices and publishes nothing else: the text
    // travels through the channel.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (to_caller, rendered) = mpsc::channel::<String>();
        let (to_helper, spare) = mpsc::channel::<String>();
        // Two buffers circulate between the threads, so the helper runs
        // at most two chunks ahead of the splice.
        for _ in 0..2 {
            let _ = to_helper.send(String::with_capacity(CHUNK * ENTRY_BYTES));
        }
        let next = &next;
        scope.spawn(move || {
            // A buffer first, then a chunk: every chunk the helper claims
            // is rendered and sent without waiting on the caller.
            while let Ok(mut buf) = spare.recv() {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= chunks {
                    return;
                }
                buf.clear();
                write_chunk(
                    &mut PrettyWriter::continuing(&mut buf, EVENTS_DEPTH),
                    entries,
                    chunk(i),
                );
                if to_caller.send(buf).is_err() {
                    return;
                }
            }
        });
        let mut done = 0;
        while done < chunks {
            let mine = next.fetch_add(1, Ordering::Relaxed);
            // Every chunk from `done` up to the caller's claim is the
            // helper's, claimed in this order.
            while done < mine.min(chunks) {
                match rendered.recv() {
                    Ok(buf) => {
                        out.push_str(&buf);
                        // The helper is gone once it has claimed past the end.
                        let _ = to_helper.send(buf);
                    }
                    // A helper that stopped early (a panic, which the scope
                    // re-raises) left this chunk unsent.
                    Err(_) => write_chunk(
                        &mut PrettyWriter::continuing(out, EVENTS_DEPTH),
                        entries,
                        chunk(done),
                    ),
                }
                done += 1;
            }
            if mine < chunks {
                write_chunk(
                    &mut PrettyWriter::continuing(out, EVENTS_DEPTH),
                    entries,
                    chunk(mine),
                );
                done = mine + 1;
            }
        }
    });
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
    let mut name = String::new();
    for &pid in processes {
        w.begin_object();
        w.key("name").str("process_name");
        w.key("ph").str("M");
        w.key("pid").int(pid);
        w.key("args").begin_object().key("name");
        match pid {
            0 => w.str("fabric"),
            _ => w.str(numbered(&mut name, "replica ", pid - 1, "")),
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
            (0, _) => w.str(numbered(&mut name, "flow ", tid - 1, "")),
            (_, 0) => w.str("iterations"),
            _ => w.str(numbered(&mut name, "req ", tid - 1, "")),
        };
        w.end_object().end_object();
    }
}

/// Writes the entries at `order`'s indices, in order.
fn write_chunk(w: &mut PrettyWriter<'_>, entries: &[Entry<'_>], order: &[u32]) {
    let mut name = String::new();
    for &index in order {
        write_entry(w, &entries[index as usize], &mut name);
    }
}

/// Writes one entry; `name` is scratch space for assembling its name.
fn write_entry(w: &mut PrettyWriter<'_>, e: &Entry<'_>, name: &mut String) {
    w.begin_object().key("name");
    match &e.kind {
        Kind::Slice(slice) => write_slice(w, e, slice, name),
        Kind::Counter { link, util } => {
            name.clear();
            name.push_str("util ");
            name.push_str(link);
            w.str(name);
            w.key("ph").str("C");
            w.key("pid").int(e.pid);
            write_us(w.key("ts"), e.ts_ps);
            w.key("args").begin_object().key("util").float(*util).end_object();
        }
        Kind::Instant(name) => {
            w.str(name);
            w.key("ph").str("i");
            w.key("pid").int(e.pid);
            w.key("tid").int(e.tid);
            write_us(w.key("ts"), e.ts_ps);
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
    write_us(w.key("ts"), e.ts_ps);
}

/// A slice's fields after its `name` key: its name, timing and args.
fn write_slice(w: &mut PrettyWriter<'_>, e: &Entry<'_>, slice: &Slice<'_>, name: &mut String) {
    let timing = |w: &mut PrettyWriter<'_>| {
        w.key("ph").str("X");
        w.key("pid").int(e.pid);
        w.key("tid").int(e.tid);
        write_us(w.key("ts"), e.ts_ps);
        write_us(w.key("dur"), e.dur_ps);
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
            name.clear();
            push_uint(name, prefill_slots as u64);
            name.push_str("p+");
            push_uint(name, batch_size.saturating_sub(prefill_slots) as u64);
            name.push_str("d/");
            push_uint(name, (prompt_tokens + gen_tokens) as u64);
            name.push('t');
            w.str(name);
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
            w.str(numbered(name, "req ", i128::from(id), leg));
            timing(w);
            if let Some((input, output)) = lens {
                w.key("args").begin_object();
                w.key("input_len").int(input as i128);
                w.key("output_len").int(output as i128);
                w.end_object();
            }
        }
        Slice::Phase(phase) => {
            w.str(phase);
            timing(w);
        }
        Slice::Flow { id, bytes } => {
            w.str(numbered(name, "flow ", i128::from(id), ""));
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

    /// One request handed off from replica `from` to `from + 1`, with
    /// every event stamped `t0` ps or later.
    fn handoff_at(id: u64, t0: TimePs, from: usize) -> Vec<SimEvent> {
        let to = from + 1;
        vec![
            SimEvent::Arrival { t_ps: t0, id, input_len: 8, output_len: 4 },
            SimEvent::Admitted { t_ps: t0, id, replica: from },
            SimEvent::PrefillStart { t_ps: t0 + 10, id, replica: from },
            SimEvent::Iteration {
                replica: from,
                index: 0,
                start_ps: t0 + 10,
                end_ps: t0 + 50,
                batch_size: 1,
                prefill_slots: 1,
                prompt_tokens: 8,
                gen_tokens: 0,
                queue_depth: 0,
                kv_used_pages: 1,
                kv_total_pages: 8,
                memo_hit: false,
            },
            SimEvent::PrefillEnd { t_ps: t0 + 50, id, replica: from },
            SimEvent::Completed {
                t_ps: t0 + 50,
                id,
                replica: from,
                arrival_ps: t0,
                first_token_ps: t0 + 50,
                input_len: 8,
                output_len: 1,
            },
            SimEvent::TransferQueued { t_ps: t0 + 50, id, from },
            SimEvent::TransferStart { t_ps: t0 + 50, id, from, to, bytes: 64, nominal_ps: 20 },
            SimEvent::FlowStart { t_ps: t0 + 50, id, bytes: 64 },
            SimEvent::FlowEnd { t_ps: t0 + 70, id },
            SimEvent::TransferEnd { t_ps: t0 + 70, id, from, to },
            SimEvent::DecodeStart { t_ps: t0 + 80, id, replica: to },
            SimEvent::Completed {
                t_ps: t0 + 120,
                id,
                replica: to,
                arrival_ps: t0 + 70,
                first_token_ps: t0 + 80,
                input_len: 8,
                output_len: 4,
            },
        ]
    }

    fn handoff_events() -> Vec<SimEvent> {
        handoff_at(1, 0, 0)
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

    /// The timestamp text is what `{:?}` prints for `ps as f64 / 1e6`:
    /// exhaustively below 2 s, around every power of ten, at the top of
    /// the range and on a seeded sample of every magnitude.
    #[test]
    fn timestamp_text_matches_the_float() {
        let check = |t: TimePs| {
            let mut text = String::new();
            write_us(&mut PrettyWriter::new(&mut text), t);
            assert_eq!(text, format!("{:?}", t as f64 / 1e6), "t = {t} ps");
        };
        (0..2_000_000).for_each(check);
        for p in (0..=19).map(|k| 10u64.pow(k)) {
            (p.saturating_sub(1_000)..=p.saturating_add(1_000)).for_each(check);
        }
        check(u64::MAX);
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..200_000 {
            let r = splitmix64(&mut state);
            check(r >> (r % 64));
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Hundreds of handed-off requests (about 20 chunks of entries) with
    /// the edges of every fast path: request id `u64::MAX` (tid 2^64),
    /// timestamps under 100 ps and from 10^15 ps on, NaN and infinite
    /// link utilization, and instant names that need escapes.
    fn many_chunks() -> Vec<SimEvent> {
        let mut events = Vec::new();
        for i in 0..400u64 {
            let id = if i == 7 { u64::MAX } else { i };
            let t0 = match i {
                0..=2 => 0,
                390.. => 1_000_000_000_000_000 + i * 3_000,
                _ => i * 7_919_000,
            };
            let from = 2 * (i % 3) as usize;
            events.extend(handoff_at(id, t0, from));
            events.push(SimEvent::LinkShare {
                from_ps: t0 + 50,
                to_ps: t0 + 70,
                link: format!("r{from}->r{}", from + 1),
                bw_gbps: 32.0,
                bytes: 40.0 + i as f64,
            });
        }
        for bytes in [f64::NAN, f64::INFINITY] {
            events.push(SimEvent::LinkShare {
                from_ps: 90,
                to_ps: 95,
                link: "trunk".into(),
                bw_gbps: 16.0,
                bytes,
            });
        }
        events.push(SimEvent::Command { t_ps: 30, command: "say \"hi\" \\ o\nk".into() });
        events.push(SimEvent::RequestAbandoned {
            t_ps: 2_000_000_000_000_000,
            id: u64::MAX,
            reason: "\"quoted\"\n\\path".into(),
        });
        events
    }

    #[test]
    fn helper_thread_changes_no_byte() {
        let events = many_chunks();
        let serial = render(&events, false);
        validate_chrome_trace(&serial).unwrap();
        // Which thread takes which chunk varies from run to run.
        for _ in 0..8 {
            let pipelined = render(&events, true);
            assert!(serial == pipelined, "the pipelined render differs from the serial one");
        }
        validate_chrome_trace(&render(&events, true)).unwrap();
        let sorted =
            serial.matches("\"ph\": ").count() - serial.matches("\"ph\": \"M\"").count();
        assert!(sorted > 10 * CHUNK, "only {sorted} sorted entries");
        for text in [
            "\"tid\": 18446744073709551616",
            "\"ts\": 1e-5",
            "\"ts\": 1000000001.17,",
            "\"util\": null",
            "\"name\": \"cmd say \\\"hi\\\" \\\\ o\\nk\"",
        ] {
            assert!(serial.contains(text), "missing {text}");
        }
    }

    /// A sort key stays a fraction of an entry.
    #[test]
    fn sort_key_is_at_most_40_bytes() {
        assert!(std::mem::size_of::<Key>() <= 40, "{}", std::mem::size_of::<Key>());
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
