//! The `llmservingsim` command line: a thin driver over the library's
//! `Scenario` API.
//!
//! ```text
//! llmservingsim run examples/scenarios/quickstart.toml --replicas 4
//! llmservingsim sweep examples/scenarios/sweep_routing.toml
//! llmservingsim gen examples/scenarios/quickstart.toml --out trace.tsv
//! llmservingsim --model gpt3-7b --npu-num 4 --parallel tensor   # legacy flags
//! ```
//!
//! Every path — scenario files, `--set` overrides, the artifact's legacy
//! flag set — builds the same [`Scenario`] value and runs through the
//! same [`Simulate`](llmservingsim::core::Simulate) +
//! [`ReportOutput`](llmservingsim::core::ReportOutput) surface, so the
//! binary owns no config model of its own: a scenario file and the
//! equivalent flag invocation produce byte-identical reports.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use llmservingsim::core::{
    chrome_trace, filter_events, timeline_tsv, MemorySink, ReportOutput, SimEvent, Telemetry,
};
use llmservingsim::scenario::{Scenario, Sweep};
use llmservingsim::sched::{trace_to_tsv, Workload, WorkloadSpec};

const USAGE: &str = "\
llmservingsim — HW/SW co-simulation for LLM inference serving

USAGE:
  llmservingsim run <scenario.{toml,json}> [OVERRIDES] [--output PREFIX]
  llmservingsim sweep <sweep.toml> [--output PREFIX] [--jobs N]
                      [--metrics LIST]
  llmservingsim gen [<scenario.{toml,json}>] [OVERRIDES] [--out PATH]
  llmservingsim [OVERRIDES]            (legacy, artifact-compatible)

COMMANDS:
  run     build and run one scenario; flags below override file fields
  sweep   run a cartesian parameter grid ([scenario] + [sweep] tables),
          writing one consolidated row per point to {output}-sweep.tsv
          --jobs N        worker threads (default: available cores);
                          rows keep grid order, so the TSV is
                          byte-identical to a serial run
          --metrics LIST  comma-separated metric columns (e.g.
                          ttft_p99,tpot_p50) instead of every column;
                          overrides the sweep file's `metrics` list
  gen     materialize the scenario's workload as a TSV trace

OVERRIDES (each maps onto a scenario field):
  --set KEY=VALUE       set any scenario key (see `Scenario::KEYS`;
                        workload.* sub-keys included), repeatable
  --model NAME          gpt2 | gpt3-7b | gpt3-13b | gpt3-30b | gpt3-175b |
                        llama-7b | llama-13b | llama-30b        [gpt2]
  --npu-num N           number of NPU devices                   [16]
  --max-batch N         max batch size, 0 = unlimited           [0]
  --batch-delay MS      batching delay in milliseconds          [0]
  --scheduling S        orca | request                          [orca]
  --parallel P          tensor | pipeline | hybrid              [hybrid]
  --npu-group N         NPU groups (pipeline stages) for hybrid [1]
  --npu-mem GIB         per-NPU memory override in GiB
  --kv-manage K         vllm | max                              [vllm]
  --pim-type T          none | local | pool                     [none]
  --sub-batch           enable NeuPIMs-style sub-batch interleaving
  --dataset PATH        request trace TSV (input, output, arrival_ms)
  --synthetic D         sharegpt | alpaca | fixed:INxOUT (when no
                        --dataset)                              [alpaca]
  --n-requests N        synthetic request count                 [64]
  --rate R              synthetic Poisson rate, req/s           [4]
  --seed N              trace + routing seed                    [42]
  --network PATH        NPU hardware config JSON (Table-I default)
  --output PREFIX       output file prefix       [output/llmservingsim]
  --gen                 skip the initiation phase (prompts pre-cached)
  --fast-run            alias of computation reuse (always on unless
                        --no-reuse)
  --no-reuse            disable computation-reuse caches
  --kv-bucket N         KV bucket for iteration memoization: token
                        count (1 = exact) or `adaptive`         [1]
  --no-iter-memo        disable whole-iteration outcome memoization
  --trace [PATH]        record the run and export a Chrome-trace JSON
                        (Perfetto-viewable); PATH defaults to
                        {output}-trace.json
  --timeline [PATH]     record the run and export windowed virtual-time
                        metrics TSV; PATH defaults to
                        {output}-timeline.tsv
  -h, --help            show this help

CLUSTER MODE (multi-replica serving behind a router):
  --replicas N          serving replicas; N >= 2 enables cluster mode [1]
  --routing P           round-robin | least-outstanding | least-kv |
                        power-of-two | sticky              [round-robin]

DISAGGREGATED MODE (prefill pool -> KV transfer -> decode pool):
  --disagg PxD          pool sizes, e.g. 2x2 (enables disagg mode)
  --kv-link-gbps F      inter-pool KV-link bandwidth, GB/s      [128]
  --pairing P           decode-replica pairing at prefill completion,
                        in the --routing vocabulary: round-robin |
                        least-outstanding | least-kv | power-of-two |
                        sticky                               [least-kv]

FLEET MODE (control planes over heterogeneous fleets; [fleet] table):
  --set fleet=C         control plane: static | flex | autoscale
                        (none clears the table)
  --set fleet.KEY=V     policy knobs: tick_ms, min_replicas,
                        max_replicas, queue_high, queue_low, warmup_ms,
                        flex_idle_ticks, min_prefill
  Per-replica config lists ([[fleet.replica]]: role, npus, max_batch,
  batch_delay_ms, npu_mem_gib) live in the scenario file; see
  examples/scenarios/autoscale.toml.

FLEET SCALING (every shape, a single replica included; outputs
               byte-identical; both combine with telemetry):
  --shards N            scenario key `shards`: threads for a fleet
                        step's window of replicas, the calling one
                        included; a window starts helper threads only
                        when each thread gets two replicas (a traced
                        run uses one)                             [1]
  --shared-cache        scenario key `shared_cache`: homogeneous
                        replicas share one fleet-wide reuse cache
                        (N replicas, one cold miss)

TELEMETRY ([telemetry] table; off by default, zero-cost when off):
  --set telemetry=auto         both exports at their derived paths
  --set telemetry.KEY=V        trace, timeline (path | auto | none),
                               window_ps, slo_ttft_ms, slo_tpot_ms,
                               requests, replicas (comma lists)
  See examples/scenarios/telemetry.toml and the README's
  \"Observability\".

SCENARIO FILES:
  Declarative TOML/JSON with the same schema as --set keys; see
  examples/scenarios/ and the README's \"Scenario files & sweeps\".
";

/// Flag values that do not live on the scenario itself.
#[derive(Debug, Default)]
struct CliExtras {
    /// `--output` prefix for run/sweep artifacts.
    output: Option<String>,
    /// `--out` path for `gen`.
    out: Option<String>,
    /// Legacy workload knobs, resolved after all flags are seen so the
    /// artifact's order-independent `--dataset`-beats-`--synthetic`
    /// semantics hold.
    dataset_path: Option<String>,
    synthetic: Option<String>,
    n_requests: Option<String>,
    rate: Option<String>,
}

/// Flags that set one scenario key to their operand.
const KEY_FLAGS: [(&str, &str); 19] = [
    ("--model", "model"),
    ("--npu-num", "npus"),
    ("--max-batch", "max_batch"),
    ("--batch-delay", "batch_delay_ms"),
    ("--scheduling", "scheduling"),
    ("--parallel", "parallel"),
    ("--npu-group", "npu_group"),
    ("--npu-mem", "npu_mem_gib"),
    ("--kv-manage", "kv_manage"),
    ("--pim-type", "pim"),
    ("--seed", "seed"),
    ("--network", "network"),
    ("--kv-bucket", "kv_bucket"),
    ("--replicas", "replicas"),
    ("--routing", "routing"),
    ("--disagg", "disagg"),
    ("--kv-link-gbps", "kv_link_gbps"),
    ("--pairing", "pairing"),
    ("--shards", "shards"),
];

/// Operand-free flags that set one scenario key to a fixed value.
const SWITCH_FLAGS: [(&str, &str, &str); 5] = [
    ("--sub-batch", "sub_batch", "true"),
    ("--gen", "gen_only", "true"),
    ("--no-reuse", "reuse", "false"),
    ("--no-iter-memo", "iteration_memo", "false"),
    ("--shared-cache", "shared_cache", "true"),
];

/// Applies one CLI surface — legacy flags, `run` overrides, `gen`
/// overrides — onto a scenario. Every flag funnels into
/// [`Scenario::set`], so the flag schema cannot drift from the file
/// schema.
fn apply_flags(scenario: &mut Scenario, args: &[String]) -> Result<CliExtras, String> {
    let mut extras = CliExtras::default();
    let mut i = 0;
    let set = |scenario: &mut Scenario, key: &str, value: &str| {
        scenario.set(key, value).map_err(|e| e.to_string())
    };
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = |what: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{what} requires a value"))
        };
        if let Some((_, key)) = KEY_FLAGS.iter().find(|(flag, _)| *flag == arg) {
            let v = value(arg)?;
            set(scenario, key, &v)?;
        } else if let Some((_, key, v)) = SWITCH_FLAGS.iter().find(|(flag, ..)| *flag == arg) {
            set(scenario, key, v)?;
        } else {
            match arg {
                "--set" => {
                    let pair = value("--set")?;
                    let (key, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("--set expects KEY=VALUE, got '{pair}'"))?;
                    set(scenario, key.trim(), v.trim())?;
                }
                "--dataset" => extras.dataset_path = Some(value(arg)?),
                "--synthetic" => extras.synthetic = Some(value(arg)?),
                "--n-requests" => extras.n_requests = Some(value(arg)?),
                "--rate" => extras.rate = Some(value(arg)?),
                "--output" => extras.output = Some(value(arg)?),
                "--out" => extras.out = Some(value(arg)?),
                "--fast-run" => {} // reuse is on by default; kept for artifact compat
                "--trace" | "--timeline" => {
                    // The path operand is optional: a following flag (or
                    // end of args) means the derived default path.
                    let key = &arg[2..];
                    let path = match args.get(i + 1) {
                        Some(next) if !next.starts_with('-') => {
                            i += 1;
                            next.clone()
                        }
                        _ => "auto".to_owned(),
                    };
                    set(scenario, &format!("telemetry.{key}"), &path)?;
                }
                "-h" | "--help" => {
                    print!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown option: {other}")),
            }
        }
        i += 1;
    }
    // Resolve the legacy workload knobs order-independently: an explicit
    // trace file wins; synthetic knobs otherwise apply on a synthetic
    // workload (switching the kind if the scenario had something else).
    if let Some(path) = extras.dataset_path.clone() {
        scenario.set("workload.kind", "trace").map_err(|e| e.to_string())?;
        scenario.set("workload.path", &path).map_err(|e| e.to_string())?;
    } else {
        let knobs = [
            ("dataset", extras.synthetic.clone()),
            ("requests", extras.n_requests.clone()),
            ("rate", extras.rate.clone()),
        ];
        if knobs.iter().any(|(_, v)| v.is_some()) {
            if !matches!(scenario.workload, WorkloadSpec::Synthetic { .. }) {
                scenario.set("workload.kind", "synthetic").map_err(|e| e.to_string())?;
                scenario.workload.reseed(scenario.seed);
            }
            for (key, v) in knobs.into_iter() {
                if let Some(v) = v {
                    scenario.set(&format!("workload.{key}"), &v).map_err(|e| e.to_string())?;
                }
            }
        }
    }
    Ok(extras)
}

/// Builds, runs, and writes one scenario (the `run` and legacy paths).
/// With a `[telemetry]` table the run records lifecycle events into a
/// memory sink and exports them after the report artifacts.
fn run_scenario(scenario: &Scenario, output: &str) -> Result<(), String> {
    println!("llmservingsim: {}", scenario.describe());
    let spec = scenario.telemetry.clone().filter(|t| t.enabled());
    let mut sim = scenario.build().map_err(|e| e.to_string())?;
    let (report, events): (_, Vec<SimEvent>) = match &spec {
        None => (sim.run(), Vec::new()),
        Some(_) => {
            let sink = Arc::new(Mutex::new(MemorySink::new()));
            sim.set_telemetry(Telemetry::new(sink.clone()));
            let report = sim.run();
            let events = sink.lock().expect("telemetry sink lock").take();
            (report, events)
        }
    };
    println!("{}", report.summary());
    let mut paths = report.write_artifacts(output).map_err(|e| e.to_string())?;
    if let Some(spec) = spec {
        let events = filter_events(events, spec.request_filter(), spec.replica_filter());
        if let Some(path) = spec.trace_path(output) {
            write_export(&path, &chrome_trace(&events))?;
            paths.push(path);
        }
        if let Some(path) = spec.timeline_path(output) {
            write_export(&path, &timeline_tsv(&events, &spec.timeline_config()))?;
            paths.push(path);
        }
    }
    for path in paths {
        println!("wrote {path}");
    }
    Ok(())
}

/// Writes a telemetry export, creating parent directories (explicit
/// paths may live outside the `--output` prefix directory).
fn write_export(path: &str, content: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
    }
    std::fs::write(path, content).map_err(|e| e.to_string())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("run needs a scenario file: llmservingsim run <scenario.toml>")?;
    let mut scenario = Scenario::from_path(path).map_err(|e| e.to_string())?;
    let extras = apply_flags(&mut scenario, &args[1..])?;
    run_scenario(&scenario, extras.output.as_deref().unwrap_or("output/llmservingsim"))
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("sweep needs a sweep file: llmservingsim sweep <sweep.toml>")?;
    let mut output = "output/llmservingsim".to_owned();
    let mut jobs: usize = 0; // 0 = available cores
    let mut metrics: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--output" => {
                i += 1;
                output = args.get(i).cloned().ok_or("--output requires a value")?;
            }
            "--jobs" => {
                i += 1;
                let v = args.get(i).ok_or("--jobs requires a value")?;
                jobs = v.parse().map_err(|_| format!("--jobs expects a count, got '{v}'"))?;
            }
            "--metrics" => {
                i += 1;
                metrics = Some(args.get(i).cloned().ok_or("--metrics requires a value")?);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown sweep option: {other}")),
        }
        i += 1;
    }
    let mut sweep = Sweep::from_path(path).map_err(|e| e.to_string())?;
    if let Some(list) = metrics {
        sweep.metrics = Some(list.split(',').map(|m| m.trim().to_owned()).collect());
    }
    println!(
        "llmservingsim sweep: {} points over [{}] (base: {})",
        sweep.len(),
        sweep.axes.iter().map(|a| a.key.as_str()).collect::<Vec<_>>().join(", "),
        sweep.base.describe(),
    );
    let report = sweep.run_jobs(jobs).map_err(|e| e.to_string())?;
    let tsv = report.to_tsv();
    print!("{tsv}");
    if let Some(dir) = std::path::Path::new(&output).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
    }
    let path = format!("{output}-sweep.tsv");
    std::fs::write(&path, tsv).map_err(|e| e.to_string())?;
    println!("wrote {path}");
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let (mut scenario, rest) = match args.first().filter(|a| !a.starts_with('-')) {
        Some(path) => (Scenario::from_path(path).map_err(|e| e.to_string())?, &args[1..]),
        None => (Scenario::default(), args),
    };
    let extras = apply_flags(&mut scenario, rest)?;
    let trace = scenario.workload.materialize().map_err(|e| e.to_string())?;
    let tsv = trace_to_tsv(&trace);
    match extras.out.or(extras.output) {
        Some(path) => {
            std::fs::write(&path, tsv).map_err(|e| e.to_string())?;
            eprintln!("wrote {} requests to {path}", trace.len());
        }
        None => print!("{tsv}"),
    }
    Ok(())
}

/// The artifact-compatible flag surface: no subcommand, defaults plus
/// overrides — now a one-line shim over the scenario path.
fn cmd_legacy(args: &[String]) -> Result<(), String> {
    let mut scenario = Scenario::default();
    let extras = apply_flags(&mut scenario, args)?;
    run_scenario(&scenario, extras.output.as_deref().unwrap_or("output/llmservingsim"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        // No arguments: the artifact's default run (legacy behavior).
        None => cmd_legacy(&args),
        Some(first) if first.starts_with('-') => cmd_legacy(&args),
        Some(other) => Err(format!(
            "unknown command '{other}' (expected run | sweep | gen, or legacy flags)"
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run with --help for usage");
            ExitCode::FAILURE
        }
    }
}
