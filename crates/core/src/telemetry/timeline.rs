//! Windowed virtual-time series: renders captured [`SimEvent`]s as the
//! `{output}-timeline.tsv` artifact — one row per fixed-width window of
//! simulated time, one column per signal.
//!
//! Columns:
//!
//! | column | meaning |
//! |---|---|
//! | `window_s` | window start, seconds of simulated time |
//! | `arrivals` | requests arriving in the window |
//! | `admitted` | requests admitted onto a replica |
//! | `completed` | requests finishing end to end |
//! | `queue_depth` | mean post-batch queue depth over iterations |
//! | `batch_mean` | mean batch size over iterations |
//! | `kv_util` | mean KV-page occupancy over iterations |
//! | `memo_hit_rate` | iteration-memo hit rate (`-` with no iterations) |
//! | `tok_per_s` | generated tokens per simulated second |
//! | `live_replicas` | replicas in service at the window's end |
//! | `ttft_attain` | fraction of the window's completions meeting the TTFT SLO (`-` with none) |
//! | `tpot_attain` | same for TPOT (single-token requests excluded) |
//! | `util:r{i}` | fraction of the window replica `i` spent executing |
//! | `link:{name}` | fraction of link `{name}`'s capacity carried |
//!
//! Like the Chrome exporter this is a pure function of the event list:
//! same seed, same bytes.

use llmss_model::FnvHashMap;
use llmss_sched::TimePs;

use super::SimEvent;

/// Windowing and SLO parameters for [`timeline_tsv`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineConfig {
    /// Window width in picoseconds.
    pub window_ps: TimePs,
    /// TTFT SLO threshold in milliseconds (attainment = fraction under).
    pub slo_ttft_ms: f64,
    /// TPOT SLO threshold in milliseconds.
    pub slo_tpot_ms: f64,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        // 100 ms windows, and the interactive-serving SLO targets the
        // roadmap's control-plane work quotes.
        Self { window_ps: 100_000_000_000, slo_ttft_ms: 500.0, slo_tpot_ms: 50.0 }
    }
}

/// Per-window accumulators, folded over the event stream.
#[derive(Default, Clone)]
struct Window {
    arrivals: usize,
    admitted: usize,
    completed: usize,
    queue_depth_sum: f64,
    batch_sum: f64,
    kv_util_sum: f64,
    iterations: usize,
    memo_hits: usize,
    gen_tokens: u64,
    ttft_ok: usize,
    ttft_total: usize,
    tpot_ok: usize,
    tpot_total: usize,
    /// Busy picoseconds per replica (indexed by the replica table).
    busy_ps: Vec<TimePs>,
    /// Carried bytes per link (indexed by the link table).
    link_bytes: Vec<f64>,
}

/// Renders the windowed time-series TSV.
///
/// # Panics
///
/// Panics if `config.window_ps` is zero.
pub fn timeline_tsv(events: &[SimEvent], config: &TimelineConfig) -> String {
    assert!(config.window_ps > 0, "timeline window must be positive");
    let w = config.window_ps;

    // Pass 1: discover the horizon, the replica and link tables, the
    // fleet-level arrival times, and each request's handoff bookkeeping
    // record (excluded from completion counts).
    let mut end_ps: TimePs = 0;
    let mut replicas: Vec<usize> = Vec::new();
    let mut links: Vec<(String, f64)> = Vec::new();
    let mut arrival_of: FnvHashMap<u64, TimePs> = FnvHashMap::default();
    let mut queued_of: FnvHashMap<u64, (usize, TimePs)> = FnvHashMap::default();
    for e in events {
        end_ps = end_ps.max(match *e {
            SimEvent::Iteration { end_ps, .. } => end_ps,
            SimEvent::LinkShare { to_ps, .. } => to_ps,
            ref e => e.t_ps(),
        });
        match e {
            SimEvent::Arrival { id, t_ps, .. } => {
                arrival_of.insert(*id, *t_ps);
            }
            SimEvent::TransferQueued { id, from, t_ps } => {
                queued_of.insert(*id, (*from, *t_ps));
            }
            SimEvent::Iteration { replica, .. } if !replicas.contains(replica) => {
                replicas.push(*replica);
            }
            SimEvent::LinkShare { link, bw_gbps, .. }
                if !links.iter().any(|(n, _)| n == link) =>
            {
                links.push((link.clone(), *bw_gbps));
            }
            _ => {}
        }
    }
    for e in events {
        if let SimEvent::ReplicaActivated { replica, .. } = e {
            if !replicas.contains(replica) {
                replicas.push(*replica);
            }
        }
    }
    replicas.sort_unstable();
    let replica_slot: FnvHashMap<usize, usize> =
        replicas.iter().enumerate().map(|(slot, &r)| (r, slot)).collect();

    let n_windows = (end_ps / w + 1) as usize;
    let blank = Window {
        busy_ps: vec![0; replicas.len()],
        link_bytes: vec![0.0; links.len()],
        ..Window::default()
    };
    let mut windows: Vec<Window> = vec![blank; n_windows];
    let at = |t: TimePs| ((t / w) as usize).min(n_windows - 1);

    // Live-replica series: +1/-1 deltas at activation/retirement.
    let mut live_delta = vec![0i64; n_windows];
    for e in events {
        match e {
            SimEvent::ReplicaActivated { t_ps, .. } => live_delta[at(*t_ps)] += 1,
            SimEvent::ReplicaRetired { t_ps, .. } => live_delta[at(*t_ps)] -= 1,
            _ => {}
        }
    }

    // Pass 2: fold the signals.
    for e in events {
        match e {
            SimEvent::Arrival { t_ps, .. } => windows[at(*t_ps)].arrivals += 1,
            SimEvent::Admitted { t_ps, .. } => windows[at(*t_ps)].admitted += 1,
            SimEvent::Completed {
                t_ps,
                id,
                replica,
                arrival_ps,
                first_token_ps,
                output_len,
                ..
            } => {
                // Skip the prefill-side bookkeeping record of a handoff.
                if let Some(&(from, ready)) = queued_of.get(id) {
                    if *replica == from && *t_ps == ready {
                        continue;
                    }
                }
                // End-to-end TTFT needs the original arrival; a decode
                // replica's scheduler-local arrival is the KV delivery.
                let arrival = arrival_of.get(id).copied().unwrap_or(*arrival_ps);
                let win = &mut windows[at(*t_ps)];
                win.completed += 1;
                let ttft_ms = first_token_ps.saturating_sub(arrival) as f64 / 1e9;
                win.ttft_total += 1;
                if ttft_ms <= config.slo_ttft_ms {
                    win.ttft_ok += 1;
                }
                if *output_len > 1 {
                    let tpot_ms = t_ps.saturating_sub(*first_token_ps) as f64
                        / (*output_len as f64 - 1.0)
                        / 1e9;
                    win.tpot_total += 1;
                    if tpot_ms <= config.slo_tpot_ms {
                        win.tpot_ok += 1;
                    }
                }
            }
            SimEvent::Iteration {
                replica,
                start_ps,
                end_ps,
                batch_size,
                gen_tokens,
                queue_depth,
                kv_used_pages,
                kv_total_pages,
                memo_hit,
                ..
            } => {
                let win = &mut windows[at(*start_ps)];
                win.iterations += 1;
                win.memo_hits += usize::from(*memo_hit);
                win.queue_depth_sum += *queue_depth as f64;
                win.batch_sum += *batch_size as f64;
                win.kv_util_sum += if *kv_total_pages > 0 {
                    *kv_used_pages as f64 / *kv_total_pages as f64
                } else {
                    0.0
                };
                windows[at(*end_ps)].gen_tokens += *gen_tokens as u64;
                // Busy time clips the iteration's span to each window it
                // crosses.
                let slot = replica_slot[replica];
                let (mut t, stop) = (*start_ps, *end_ps);
                while t < stop {
                    let idx = at(t);
                    let edge = ((idx as u64 + 1) * w).min(stop);
                    windows[idx].busy_ps[slot] += edge - t;
                    t = edge;
                }
            }
            SimEvent::LinkShare { from_ps, to_ps, link, bytes, .. } => {
                let slot = links.iter().position(|(n, _)| n == link).unwrap(); // llmss-lint: allow(p001, reason = "LinkShare events only name links announced by the preamble pass above")
                let span = to_ps.saturating_sub(*from_ps);
                if span == 0 {
                    windows[at(*from_ps)].link_bytes[slot] += bytes;
                    continue;
                }
                // Spread the interval's bytes over the windows it
                // overlaps, proportionally.
                let (mut t, stop) = (*from_ps, *to_ps);
                while t < stop {
                    let idx = at(t);
                    let edge = ((idx as u64 + 1) * w).min(stop);
                    windows[idx].link_bytes[slot] += bytes * (edge - t) as f64 / span as f64;
                    t = edge;
                }
            }
            _ => {}
        }
    }

    // Render.
    let mut out = String::from(
        "window_s\tarrivals\tadmitted\tcompleted\tqueue_depth\tbatch_mean\tkv_util\
         \tmemo_hit_rate\ttok_per_s\tlive_replicas\tttft_attain\ttpot_attain",
    );
    for &r in &replicas {
        out.push_str(&format!("\tutil:r{r}"));
    }
    for (name, _) in &links {
        out.push_str(&format!("\tlink:{name}"));
    }
    out.push('\n');
    let ratio_or_dash = |num: usize, den: usize| -> String {
        if den == 0 {
            "-".into()
        } else {
            format!("{:.3}", num as f64 / den as f64)
        }
    };
    let mut live: i64 = 0;
    let window_s = w as f64 / 1e12;
    for (idx, win) in windows.iter().enumerate() {
        live += live_delta[idx];
        let (queue, batch, kv) = if win.iterations > 0 {
            let n = win.iterations as f64;
            (win.queue_depth_sum / n, win.batch_sum / n, win.kv_util_sum / n)
        } else {
            (0.0, 0.0, 0.0)
        };
        out.push_str(&format!(
            "{:.6}\t{}\t{}\t{}\t{queue:.2}\t{batch:.2}\t{kv:.3}\t{}\t{:.1}\t{live}\t{}\t{}",
            idx as f64 * window_s,
            win.arrivals,
            win.admitted,
            win.completed,
            ratio_or_dash(win.memo_hits, win.iterations),
            win.gen_tokens as f64 / window_s,
            ratio_or_dash(win.ttft_ok, win.ttft_total),
            ratio_or_dash(win.tpot_ok, win.tpot_total),
        ));
        for &busy in &win.busy_ps {
            out.push_str(&format!("\t{:.4}", busy as f64 / w as f64));
        }
        for (slot, (_, bw_gbps)) in links.iter().enumerate() {
            let cap_bytes = bw_gbps / 1000.0 * w as f64;
            let util = if cap_bytes > 0.0 { win.link_bytes[slot] / cap_bytes } else { 0.0 };
            out.push_str(&format!("\t{util:.4}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_bucket_signals_and_links() {
        let events = vec![
            SimEvent::Arrival { t_ps: 0, id: 1, input_len: 8, output_len: 4 },
            SimEvent::Admitted { t_ps: 0, id: 1, replica: 0 },
            SimEvent::Iteration {
                replica: 0,
                index: 0,
                start_ps: 0,
                end_ps: 150,
                batch_size: 2,
                prefill_slots: 1,
                prompt_tokens: 8,
                gen_tokens: 4,
                queue_depth: 3,
                kv_used_pages: 4,
                kv_total_pages: 8,
                memo_hit: true,
            },
            SimEvent::Completed {
                t_ps: 150,
                id: 1,
                replica: 0,
                arrival_ps: 0,
                first_token_ps: 100,
                input_len: 8,
                output_len: 4,
            },
            SimEvent::LinkShare {
                from_ps: 0,
                to_ps: 200,
                link: "trunk".into(),
                bw_gbps: 1.0,
                bytes: 0.05,
            },
        ];
        let cfg = TimelineConfig { window_ps: 100, ..TimelineConfig::default() };
        let tsv = timeline_tsv(&events, &cfg);
        let lines: Vec<&str> = tsv.lines().collect();
        assert!(lines[0].ends_with("util:r0\tlink:trunk"), "{}", lines[0]);
        // Three windows: the iteration spans [0, 150], completion in
        // window 1, link bytes split evenly across [0, 200].
        assert_eq!(lines.len(), 1 + 3, "{tsv}");
        let w0: Vec<&str> = lines[1].split('\t').collect();
        assert_eq!(w0[1], "1", "arrivals: {tsv}");
        assert_eq!(w0[2], "1", "admitted: {tsv}");
        assert_eq!(w0[4], "3.00", "queue depth: {tsv}");
        assert_eq!(w0[7], "1.000", "memo rate: {tsv}");
        // util:r0 in window 0 is the full window.
        assert_eq!(w0[12], "1.0000", "{tsv}");
        // Window 0 carries 0.025 of its 0.1-byte capacity integral
        // (1 GB/s = 0.001 B/ps over a 100 ps window).
        assert_eq!(w0[13], "0.2500", "{tsv}");
        let w1: Vec<&str> = lines[2].split('\t').collect();
        assert_eq!(w1[3], "1", "completed: {tsv}");
        assert_eq!(w1[10], "1.000", "ttft attainment: {tsv}");
    }

    #[test]
    fn deterministic_bytes() {
        let events = vec![SimEvent::Completed {
            t_ps: 5,
            id: 1,
            replica: 0,
            arrival_ps: 0,
            first_token_ps: 3,
            input_len: 2,
            output_len: 2,
        }];
        let cfg = TimelineConfig::default();
        assert_eq!(timeline_tsv(&events, &cfg), timeline_tsv(&events, &cfg));
    }
}
