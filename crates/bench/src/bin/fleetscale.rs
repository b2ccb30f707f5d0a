//! fleetscale — planet-scale fleet stepping benchmark.
//!
//! Serves a decode-heavy bursty trace (a fixed request budget per
//! replica) through homogeneous round-robin clusters of 1, 4, 16, 64,
//! 256, and 1000 replicas under four stepping modes:
//!
//! * `serial` — every window steps inline (`--shards 1`, the default);
//! * `sharded` — windows step on worker threads (`--shards 4`);
//! * `shared` — the fleet-wide shared reuse cache at shards=1;
//! * `sharded+shared` — both together.
//!
//! Writes `BENCH_fleetscale.json` with wall-clock, iterations/second,
//! reuse hit rates (fleet-wide and per-replica local), shared-tier hit
//! counts, and each mode's speedup over serial at the same fleet size.
//! This file is the scaling-trajectory anchor: future PRs compare
//! against it.
//!
//! The trace scales with the fleet (`burst_size = replicas`), so every
//! size sees the same per-replica pressure and rows are comparable
//! across sizes — in particular the 1-replica serial row is the
//! apples-to-apples single-replica reference for the 4-replica
//! shared-cache row.
//!
//! `--smoke` shrinks the matrix to the 1/4/64-replica fleets for CI
//! and *gates*: the run fails (exit 1) if the sharded per-request TSV
//! is not byte-identical to serial or the stacked TSV to shared
//! (determinism — bucketed shared hits are bucket-exact, so the shared
//! invariant is shard-count independence), if on the
//! [`SMOKE_GATE_FLEET`]-replica fleet the stacked sharded+shared wall
//! exceeds [`SMOKE_MAX_WALL_RATIO`] of serial, pure sharding regresses
//! past [`SMOKE_SHARDED_REGRESSION`], or the shared tier records no
//! hits, or if the shared-cache 4-replica cluster's iteration hit rate
//! falls more than [`SHARED_HIT_MARGIN`] below the single-replica
//! serial hit rate (the shared tier must close the cluster cold-start
//! gap).

use std::time::Instant;

use serde::Serialize;

use llmss_bench::cluster_fleet;
use llmss_core::{ClusterReport, SimConfig};
use llmss_model::ModelSpec;
use llmss_sched::{bursty_trace, BurstyTraceSpec, Request};

/// KV bucket for the memoized local tier (the simspeed headline value).
const KV_BUCKET: usize = 64;
/// Serving-style batch cap (see simspeed).
const MAX_BATCH: usize = 32;
/// Worker-thread budget for the sharded modes.
const SHARDS: usize = 4;
/// Requests per replica in the full matrix (1000 replicas => 1M).
const REQS_PER_REPLICA: usize = 1000;
/// Requests per replica in `--smoke` — enough bursts that steady-state
/// decode (the regime the windowed step loop targets) dominates warmup.
const SMOKE_REQS_PER_REPLICA: usize = 1000;
/// CI gate: the stacked sharded+shared run must finish within this
/// fraction of the serial wall on the 64-replica smoke fleet. The gate
/// binds on the full stack (worker threads + shared cache) so it holds
/// even on single-core hosts, where pure sharding has no thread
/// parallelism to draw on.
const SMOKE_MAX_WALL_RATIO: f64 = 0.6;
/// CI gate: pure sharded stepping must never run meaningfully slower
/// than serial. On a single-core host worker threads are roughly
/// wall-neutral (the pool has nothing to draw on), so this is a drift
/// guard, with slack for wall-clock noise on shared CI runners.
const SMOKE_SHARDED_REGRESSION: f64 = 1.15;
/// The fleet size the smoke wall/shared-hit gates are evaluated on.
const SMOKE_GATE_FLEET: usize = 64;
/// CI gate: the 4-replica shared-cache cluster's fleet-wide iteration
/// hit rate must land within this many points of the 1-replica serial
/// hit rate on the same per-replica workload.
const SHARED_HIT_MARGIN: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Serial,
    Sharded,
    Shared,
    ShardedShared,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::Serial, Mode::Sharded, Mode::Shared, Mode::ShardedShared];

    fn label(self) -> &'static str {
        match self {
            Mode::Serial => "serial",
            Mode::Sharded => "sharded",
            Mode::Shared => "shared",
            Mode::ShardedShared => "sharded+shared",
        }
    }

    fn shards(self) -> usize {
        match self {
            Mode::Serial | Mode::Shared => 1,
            Mode::Sharded | Mode::ShardedShared => SHARDS,
        }
    }

    fn shared(self) -> bool {
        matches!(self, Mode::Shared | Mode::ShardedShared)
    }
}

#[derive(Debug, Serialize)]
struct FleetRow {
    replicas: usize,
    requests: usize,
    mode: &'static str,
    shards: usize,
    shared_cache: bool,
    wall_s: f64,
    iterations: u64,
    iterations_per_s: f64,
    completions: usize,
    makespan_ps: u64,
    iter_hit_rate: f64,
    local_iter_hit_rate: f64,
    shared_hits: u64,
    speedup_vs_serial: f64,
}

#[derive(Debug, Serialize)]
struct FleetscaleReport {
    smoke: bool,
    host_parallelism: usize,
    kv_bucket: usize,
    shards: usize,
    rows: Vec<FleetRow>,
}

fn replica_config() -> SimConfig {
    SimConfig::new(ModelSpec::gpt2())
        .npu_num(1)
        .tensor_parallel()
        .max_batch(MAX_BATCH)
        .kv_bucket(KV_BUCKET)
}

/// splitmix64 — the same seeded mixer the chaos engine uses;
/// deterministic per request id, no RNG state to thread around.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distinct decode lengths in the trace mix (multiples of the KV
/// bucket, 64..=384). Diversity here is the whole point: with a
/// handful of shapes a replica's private cache covers the batch-mix
/// signature space in a few hundred iterations and there is nothing
/// left for the fleet to share; a wider shape mix keeps every private
/// cache under pressure for the whole run while the *fleet-wide*
/// tier — which sees every replica's misses — still converges.
const OUTPUT_CLASSES: u64 = 6;

/// Gap between bursts: one request per replica every 12 ms (~83 req/s
/// per replica) holds steady-state batch depth near 8 at every fleet
/// size. Depth matters both ways: singleton batches collapse the
/// signature space until private caches saturate (nothing to share),
/// while depth near the [`MAX_BATCH`] cap makes batch mixes
/// combinatorially novel (nothing *can* be shared — every signature is
/// fleet-new). Mid-depth keeps private caches missing on mixes the
/// rest of the fleet has already seen, which is the effect this bench
/// exists to measure.
const BURST_GAP_MS: f64 = 12.0;

/// A decode-heavy trace sized to `replicas * per_replica` requests:
/// each burst offers one request per replica (fixed 1 µs intra-burst
/// spacing — the Poisson knob would cap the *total* arrival rate and
/// starve large fleets into singleton batches), so every fleet size
/// sees the same per-replica pressure: one request per
/// [`BURST_GAP_MS`], enough over a replica's depth-1 service rate
/// that every size settles into the same deep-batch regime
/// (heterogeneous KV mixes — the signature space the caches actually
/// fight over). Output lengths are remapped per request id across
/// [`OUTPUT_CLASSES`] classes (64..=384 tokens, mean 224) for the
/// same reason.
fn trace(replicas: usize, per_replica: usize) -> Vec<Request> {
    let mut spec = BurstyTraceSpec::decode_heavy_mix(0.9, 42);
    spec.heavy = (32, 256);
    spec.light = (32, 64);
    spec.bursts = per_replica;
    spec.burst_size = replicas;
    spec.burst_gap_ms = BURST_GAP_MS;
    spec.poisson_rate_per_s = 0.0;
    let mut requests = bursty_trace(&spec);
    for r in &mut requests {
        r.output_len = (64 + (splitmix64(r.id) % OUTPUT_CLASSES) * 64) as usize;
    }
    requests
}

struct RunOutcome {
    row: FleetRow,
    tsv: Option<String>,
}

/// Runs one (fleet size, mode) cell; `keep_tsv` retains the
/// per-request TSV for the smoke determinism comparison.
fn run_cell(replicas: usize, requests: Vec<Request>, mode: Mode, keep_tsv: bool) -> RunOutcome {
    let n = requests.len();
    let mut sim = cluster_fleet(replica_config(), replicas, requests);
    sim.set_shards(mode.shards());
    if mode.shared() {
        sim.enable_shared_cache();
    }
    let t0 = Instant::now();
    let report = ClusterReport::from(sim.run());
    let wall_s = t0.elapsed().as_secs_f64();
    let reuse = report.aggregate_reuse();
    let iterations: u64 =
        report.replica_reports.iter().map(|r| r.iterations.len() as u64).sum();
    let row = FleetRow {
        replicas,
        requests: n,
        mode: mode.label(),
        shards: mode.shards(),
        shared_cache: mode.shared(),
        wall_s,
        iterations,
        iterations_per_s: if wall_s > 0.0 { iterations as f64 / wall_s } else { 0.0 },
        completions: report.total_completions(),
        makespan_ps: report.makespan_ps(),
        iter_hit_rate: reuse.iteration_hit_rate(),
        local_iter_hit_rate: reuse.local_iteration_hit_rate(),
        shared_hits: reuse.shared_hits,
        speedup_vs_serial: 0.0, // filled once the serial wall is known
    };
    RunOutcome { row, tsv: keep_tsv.then(|| report.to_tsv()) }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let sizes: &[usize] = if smoke { &[1, 4, 64] } else { &[1, 4, 16, 64, 256, 1000] };
    let per_replica = if smoke { SMOKE_REQS_PER_REPLICA } else { REQS_PER_REPLICA };
    println!(
        "fleetscale — {per_replica} requests/replica, shards={SHARDS}, \
         host parallelism {host_parallelism}{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<9} {:>9} {:>15} {:>9} {:>12} {:>10} {:>11} {:>9}",
        "replicas",
        "requests",
        "mode",
        "wall(s)",
        "iters/s",
        "iter-hit",
        "shared-hit",
        "speedup"
    );

    let mut rows: Vec<FleetRow> = Vec::new();
    let mut failed = false;
    for &replicas in sizes {
        let requests = trace(replicas, per_replica);
        let mut serial_wall = 0.0;
        let mut serial_tsv: Option<String> = None;
        let mut shared_tsv: Option<String> = None;
        for mode in Mode::ALL {
            let outcome = run_cell(replicas, requests.clone(), mode, smoke);
            let mut row = outcome.row;
            if mode == Mode::Serial {
                serial_wall = row.wall_s;
                serial_tsv = outcome.tsv;
                row.speedup_vs_serial = 1.0;
            } else {
                row.speedup_vs_serial =
                    if row.wall_s > 0.0 { serial_wall / row.wall_s } else { 0.0 };
                // Smoke determinism gates. Sharding is timing-neutral,
                // so `sharded` must reproduce serial byte for byte. A
                // *bucketed* shared hit returns the bucket-quantized
                // outcome a local miss would have simulated exactly, so
                // shared modes are compared against each other instead:
                // the shard count must not change which lookups hit.
                let baseline = match mode {
                    Mode::Serial => None,
                    Mode::Sharded => serial_tsv.as_ref().map(|t| ("serial", t)),
                    Mode::Shared => {
                        shared_tsv = outcome.tsv.clone();
                        None
                    }
                    Mode::ShardedShared => shared_tsv.as_ref().map(|t| ("shared", t)),
                };
                if let (Some((base_label, base)), Some(tsv)) = (baseline, &outcome.tsv) {
                    if base != tsv {
                        eprintln!(
                            "FAIL: {replicas}-replica {} TSV diverged from {base_label}",
                            mode.label()
                        );
                        failed = true;
                    }
                }
            }
            println!(
                "{:<9} {:>9} {:>15} {:>9.3} {:>12.0} {:>9.1}% {:>11} {:>8.2}x",
                row.replicas,
                row.requests,
                row.mode,
                row.wall_s,
                row.iterations_per_s,
                row.iter_hit_rate * 100.0,
                row.shared_hits,
                row.speedup_vs_serial,
            );
            rows.push(row);
        }
    }

    if smoke {
        let cell = |replicas: usize, mode: Mode| {
            rows.iter().find(|r| r.replicas == replicas && r.mode == mode.label())
        };
        let wall_of = |mode: Mode| cell(SMOKE_GATE_FLEET, mode).map(|r| r.wall_s);
        if let (Some(serial), Some(stacked)) =
            (wall_of(Mode::Serial), wall_of(Mode::ShardedShared))
        {
            if stacked > serial * SMOKE_MAX_WALL_RATIO {
                eprintln!(
                    "FAIL: {SMOKE_GATE_FLEET}-replica sharded+shared wall {stacked:.3}s \
                     exceeds {SMOKE_MAX_WALL_RATIO:.1}x the serial wall {serial:.3}s"
                );
                failed = true;
            }
        }
        if let (Some(serial), Some(sharded)) = (wall_of(Mode::Serial), wall_of(Mode::Sharded)) {
            if sharded > serial * SMOKE_SHARDED_REGRESSION {
                eprintln!(
                    "FAIL: {SMOKE_GATE_FLEET}-replica sharded wall {sharded:.3}s regressed \
                     past {SMOKE_SHARDED_REGRESSION:.2}x the serial wall {serial:.3}s"
                );
                failed = true;
            }
        }
        if let Some(row) = cell(SMOKE_GATE_FLEET, Mode::ShardedShared) {
            if row.shared_hits == 0 {
                eprintln!("FAIL: homogeneous fleet recorded no shared-tier hits");
                failed = true;
            }
        }
        if let (Some(single), Some(shared4)) = (cell(1, Mode::Serial), cell(4, Mode::Shared)) {
            if shared4.iter_hit_rate < single.iter_hit_rate - SHARED_HIT_MARGIN {
                eprintln!(
                    "FAIL: 4-replica shared-cache hit rate {:.1}% is more than {:.0} points \
                     below the single-replica rate {:.1}%",
                    shared4.iter_hit_rate * 100.0,
                    SHARED_HIT_MARGIN * 100.0,
                    single.iter_hit_rate * 100.0,
                );
                failed = true;
            }
        }
    }

    let report = FleetscaleReport {
        smoke,
        host_parallelism,
        kv_bucket: KV_BUCKET,
        shards: SHARDS,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_fleetscale.json", json).expect("write BENCH_fleetscale.json");
    println!("wrote BENCH_fleetscale.json");
    if failed {
        std::process::exit(1);
    }
}
