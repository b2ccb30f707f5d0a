//! End-to-end CLI equivalence: the checked-in scenario files must
//! reproduce their documented legacy-flag invocations bit-identically
//! (report files byte-equal), and the subcommands must behave.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_llmservingsim"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("llmss-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn scenario_path(name: &str) -> String {
    format!("{}/examples/scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run_ok(args: &[&str]) -> Output {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "llmservingsim {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Report files under `prefix`, excluding the wall-clock breakdown
/// (nondeterministic by nature), as `(suffix, bytes)` sorted by name.
fn report_files(dir: &Path, prefix: &str) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if let Some(suffix) = name.strip_prefix(prefix) {
            if suffix != "-simulation-time.tsv" {
                out.push((suffix.to_owned(), std::fs::read(&path).unwrap()));
            }
        }
    }
    out.sort();
    assert!(!out.is_empty(), "no report files under {prefix} in {dir:?}");
    out
}

/// Runs a checked-in scenario file and its documented legacy-flag
/// equivalent, asserting byte-equal reports.
fn assert_file_matches_flags(tag: &str, scenario: &str, flags: &[&str]) {
    let dir = tempdir(tag);
    let file_prefix = dir.join("file").to_string_lossy().into_owned();
    run_ok(&["run", &scenario_path(scenario), "--output", &file_prefix]);
    let legacy_prefix = dir.join("legacy").to_string_lossy().into_owned();
    let mut args: Vec<&str> = flags.to_vec();
    args.extend_from_slice(&["--output", &legacy_prefix]);
    run_ok(&args);

    let from_file = report_files(&dir, "file");
    let from_flags = report_files(&dir, "legacy");
    assert_eq!(
        from_file.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
        from_flags.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
        "{scenario}: artifact sets differ"
    );
    for ((suffix, a), (_, b)) in from_file.iter().zip(&from_flags) {
        assert_eq!(a, b, "{scenario}: {suffix} differs between file and flags");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quickstart_scenario_file_equals_legacy_flags() {
    assert_file_matches_flags(
        "single",
        "quickstart.toml",
        &[
            "--npu-num",
            "1",
            "--parallel",
            "tensor",
            "--max-batch",
            "16",
            "--n-requests",
            "32",
            "--rate",
            "40",
        ],
    );
}

#[test]
fn cluster_scenario_file_equals_legacy_flags() {
    assert_file_matches_flags(
        "cluster",
        "cluster_small.toml",
        &[
            "--npu-num",
            "1",
            "--parallel",
            "tensor",
            "--replicas",
            "3",
            "--routing",
            "power-of-two",
            "--n-requests",
            "24",
            "--rate",
            "100",
            "--seed",
            "7",
        ],
    );
}

#[test]
fn disagg_scenario_file_equals_legacy_flags() {
    assert_file_matches_flags(
        "disagg",
        "disagg_small.toml",
        &[
            "--npu-num",
            "1",
            "--parallel",
            "tensor",
            "--disagg",
            "1x1",
            "--kv-link-gbps",
            "32",
            "--pairing",
            "sticky",
            "--n-requests",
            "16",
            "--rate",
            "200",
            "--seed",
            "9",
        ],
    );
}

#[test]
fn sweep_subcommand_writes_one_row_per_grid_point() {
    let dir = tempdir("sweep");
    let prefix = dir.join("grid").to_string_lossy().into_owned();
    let out = run_ok(&["sweep", &scenario_path("sweep_routing.toml"), "--output", &prefix]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4 points"), "{stdout}");
    let tsv = std::fs::read_to_string(format!("{prefix}-sweep.tsv")).unwrap();
    let lines: Vec<&str> = tsv.lines().collect();
    assert_eq!(lines.len(), 5, "header + 4 points:\n{tsv}");
    assert!(lines[0].starts_with("point\treplicas\trouting\t"), "{tsv}");
    assert!(!tsv.contains("NaN"), "{tsv}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gen_subcommand_emits_the_scenario_trace() {
    let out = run_ok(&["gen", &scenario_path("quickstart.toml")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("input_toks\toutput_toks\tarrival_ms\n"), "{stdout}");
    // Header + the quickstart workload's 32 requests.
    assert_eq!(stdout.lines().count(), 33, "{stdout}");
}

#[test]
fn run_overrides_win_over_file_fields() {
    let dir = tempdir("override");
    let prefix = dir.join("o").to_string_lossy().into_owned();
    let out = run_ok(&[
        "run",
        &scenario_path("quickstart.toml"),
        "--set",
        "replicas=2",
        "--output",
        &prefix,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shape=cluster x2"), "{stdout}");
    assert!(dir.join("o-cluster.tsv").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn conflicting_flags_exit_with_a_typed_message_not_a_panic() {
    let args = ["--disagg", "2x2", "--replicas", "4"];
    let out = bin().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");

    // Tracing combines with worker threads and with the shared cache.
    let dir = tempdir("traced-scaling");
    let (cluster, single) =
        (scenario_path("cluster_small.toml"), scenario_path("quickstart.toml"));
    for (tag, scenario, flag) in [
        ("cluster", &cluster, &["--shards", "4"][..]),
        ("single", &single, &["--shared-cache"]),
    ] {
        let prefix = dir.join(tag).to_string_lossy().into_owned();
        let mut args = vec!["run", scenario.as_str(), "--trace", "--output", &prefix];
        args.extend_from_slice(flag);
        run_ok(&args);
        assert!(dir.join(format!("{tag}-trace.json")).exists(), "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_floats_exit_with_a_typed_message_not_a_panic() {
    let single = scenario_path("quickstart.toml");
    let bad = ["inf", "1e30", "2e10", "nan", "-1"]
        .map(|v| format!("batch_delay_ms={v}"))
        .into_iter()
        .chain(["nan", "0", "-1", "inf"].map(|v| format!("npu_mem_gib={v}")));
    for set in bad {
        let out = bin().args(["run", &single, "--set", &set]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{set}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let field = set.split('=').next().unwrap();
        assert!(stderr.contains(&format!("{field}: must be")), "{set}: {stderr}");
        assert!(!stderr.contains("panicked"), "{set}: {stderr}");
    }
}

/// `shards` is a scenario key like any other: it leaves a cluster a
/// cluster, and the sharded run reproduces the cluster goldens.
#[test]
fn shards_key_keeps_the_cluster_shape_and_its_goldens() {
    let dir = tempdir("shards-key");
    let prefix = dir.join("s").to_string_lossy().into_owned();
    let out = run_ok(&[
        "run",
        &scenario_path("cluster_small.toml"),
        "--set",
        "shards=4",
        "--output",
        &prefix,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shape=cluster x3"), "{stdout}");
    for suffix in ["-cluster.tsv", "-summary.json"] {
        let written = std::fs::read(format!("{prefix}{suffix}")).unwrap();
        let golden = std::fs::read(format!(
            "{}/tests/golden/cluster_small{suffix}",
            env!("CARGO_MANIFEST_DIR")
        ))
        .unwrap();
        assert!(written == golden, "cluster_small{suffix} drifted under shards=4");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schema_drift_in_a_scenario_file_names_the_key() {
    let dir = tempdir("drift");
    let path = dir.join("bad.toml");
    std::fs::write(&path, "modle = \"gpt2\"\n").unwrap();
    let out = bin().args(["run", path.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("modle"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Inputs that used to overflow the picosecond clock or stall the flow
/// model in a debug build: each is a typed scenario error naming its key,
/// and the CLI exits 1 at once.
#[test]
fn runaway_bandwidths_and_times_exit_with_a_typed_message_not_a_panic() {
    let single = scenario_path("quickstart.toml");
    let cases: [(&[&str], &str); 9] = [
        (&["disagg=1x1", "kv_link_gbps=1e-12"], "kv_link_gbps"),
        (&["disagg=2x2", "fabric=star4", "fabric.bw_gbps=1e-9"], "fabric.bw_gbps"),
        (&["disagg=2x2", "fabric=star4", "fabric.trunk_gbps=1e-12"], "fabric.trunk_gbps"),
        (&["workload.rate=1e-300"], "workload.rate"),
        // 32 requests at 1e-6 req/s span ~3.2e7 s, past the horizon.
        (&["workload.rate=1e-6"], "workload.rate"),
        (&["workload.kind=bursty", "workload.burst_gap_ms=1e300"], "workload.burst_gap_ms"),
        (&["workload.kind=bursty", "workload.poisson_rate=1e-300"], "workload.poisson_rate"),
        (&["disagg=1x1", "fabric=single", "fabric.latency_ns=1e300"], "fabric.latency_ns"),
        (
            &[
                "replicas=2",
                "fleet=static",
                "chaos.crash_rate_per_s=50",
                "chaos.mttr_ms=1",
                "chaos.horizon_ms=100",
                "chaos.retry_backoff_ms=1e300",
            ],
            "chaos.retry_backoff_ms",
        ),
    ];
    for (sets, key) in cases {
        let mut args = vec!["run", single.as_str()];
        for set in sets {
            args.extend(["--set", set]);
        }
        let out = bin().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{sets:?}: {stderr}");
        assert!(stderr.contains(key), "{sets:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{sets:?}: {stderr}");
    }
}

/// Inputs that used to reach a library panic (exit 101 in a debug
/// build): a prompt no KV cache can hold, fleet sizes whose sum
/// overflows, and KV handoffs whose total transfer time runs past the
/// picosecond clock. Each names its key, and the CLI exits 1.
#[test]
fn oversized_inputs_exit_with_a_typed_message_not_a_panic() {
    let single = scenario_path("quickstart.toml");
    let cases: [(&[&str], &str); 5] = [
        (&["workload.dataset=fixed:100000000x1"], "workload: request"),
        (&["disagg=18446744073709551615x1", "fabric=star4"], "disagg: must be at most"),
        (&["replicas=18446744073709551615"], "replicas: must be at most"),
        (
            &["disagg=1x1", "fabric=single", "fabric.sharing=fifo", "fabric.latency_ns=1e15"],
            "fabric.latency_ns",
        ),
        (
            &[
                "disagg=1x1",
                "kv_link_gbps=1e-3",
                "workload.dataset=fixed:20000x1",
                "workload.requests=1400",
            ],
            "kv_link_gbps",
        ),
    ];
    for (sets, key) in cases {
        let mut args = vec!["run", single.as_str()];
        for set in sets {
            args.extend(["--set", set]);
        }
        let out = bin().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{sets:?}: {stderr}");
        assert!(stderr.contains(key), "{sets:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{sets:?}: {stderr}");
    }
}

/// A trace file whose arrival lies past the event horizon names its line.
#[test]
fn trace_arrivals_past_the_horizon_name_the_line() {
    let dir = tempdir("horizon-trace");
    let trace = dir.join("far.tsv");
    std::fs::write(&trace, "input_toks\toutput_toks\tarrival_ms\n8\t8\t0\n8\t8\t1e300\n")
        .unwrap();
    let path = format!("workload.path={}", trace.to_string_lossy());
    let single = scenario_path("quickstart.toml");
    let out = bin()
        .args(["run", &single, "--set", "workload.kind=trace", "--set", &path])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("line 3: arrival_ms"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
