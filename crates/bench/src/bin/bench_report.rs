//! Workload-suite bench reports and the perf/accuracy regression gate.
//!
//! ```text
//! # Run every suite and write the machine-readable report:
//! cargo run --release -p ecofusion-bench --bin bench_report -- --quick
//!
//! # Gate a fresh run against the committed baseline (exit 1 on drift):
//! cargo run --release -p ecofusion-bench --bin bench_report -- compare
//!
//! # Refresh the committed baseline after a deliberate behavior change:
//! cargo run --release -p ecofusion-bench --bin bench_report -- refresh-baseline
//! ```
//!
//! Modes:
//!
//! * *(default)* — run the suites at `--quick` (default) or `--full`
//!   scale, print a summary table, and write the `BenchReport` JSON to
//!   `--out` (default `results/bench_report.json`).
//! * `compare` — obtain fresh reports (run the suites, or load
//!   `--report <path>` if given; the flag is repeatable, and every
//!   report's band violations are printed in one run with a single
//!   combined exit code), load the baseline from `--baseline`
//!   (default `baselines/bench_baseline.json`), and diff under the gate
//!   tolerances. Exits nonzero on any violation. Bands are tunable:
//!   `--map-band <pp>`, `--energy-band <frac>`, `--latency-band <frac>`.
//! * `refresh-baseline` — run the suites and overwrite the baseline file.
//!
//! `--suite <name>` (repeatable) restricts a run to named suites —
//! useful for debugging one workload, but note the committed baseline
//! covers all five, so a restricted run will fail `compare` on the
//! missing ones.
//!
//! `--shards <n>` runs the suites on `n` runtime worker shards
//! (default 1). Every deterministic report field is shard-invariant, so
//! an N-shard report still compares cleanly against a 1-shard baseline —
//! the CI shard-matrix step relies on exactly that. Only wall-clock
//! throughput and the per-shard breakdown change.
//!
//! `compare --flight-recorder` arms the flight recorder: each suite runs
//! with a bounded trace ring (the last few thousand events), and when the
//! gate **fails** the recorder dumps one Chrome-trace JSON plus one
//! Prometheus text snapshot per suite under `--flight-dir` (default
//! `results/flight`) — load the `.trace.json` in Perfetto to see exactly
//! which stage, ladder move, or fault preceded the drift. On a passing
//! gate nothing is written. The traced run is bit-identical to the
//! untraced one (tracing observes the serial accounting phases only), so
//! arming the recorder never changes the gate verdict.

use ecofusion_eval::experiments::common::Scale;
use ecofusion_harness::{
    compare, run_report_traced, BenchReport, Tolerances, DEFAULT_BASELINE_PATH,
    FLIGHT_RECORDER_EVENTS,
};
use ecofusion_trace::{chrome_trace_json, prometheus_snapshot, TraceSink};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Flags that consume the following argument as their value.
const VALUE_FLAGS: &[&str] = &[
    "--out",
    "--baseline",
    "--report",
    "--suite",
    "--shards",
    "--map-band",
    "--energy-band",
    "--latency-band",
    "--flight-dir",
];

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// The positional (non-flag, non-flag-value) arguments, wherever they
/// appear. At most one is allowed — the mode — so a misplaced mode like
/// `--quick compare` errors out instead of silently running the default
/// mode with the gate never executed.
fn positionals(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if VALUE_FLAGS.contains(&a.as_str()) {
            i += 2;
        } else if a.starts_with("--") {
            i += 1;
        } else {
            out.push(a.clone());
            i += 1;
        }
    }
    out
}

fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
        }
    }
    out
}

fn parse_f64(args: &[String], flag: &str, default: f64) -> f64 {
    match flag_value(args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} expects a number, got `{v}`");
            std::process::exit(2);
        }),
    }
}

fn print_table(report: &BenchReport) {
    println!(
        "backend {} | rev {} | scale {} | model {} | shards {}",
        report.build.backend,
        report.build.git_rev,
        report.build.scale,
        report.build.model,
        report.build.shards,
    );
    println!(
        "{:<14} {:>7} {:>8} {:>11} {:>9} {:>9} {:>9} {:>13} {:>9} {:>10}",
        "suite",
        "frames",
        "mAP(%)",
        "gated (J)",
        "p50 ms",
        "p99 ms",
        "stems",
        "cache hit(%)",
        "fps",
        "digest"
    );
    for s in &report.suites {
        println!(
            "{:<14} {:>7} {:>8.3} {:>11.3} {:>9.2} {:>9.2} {:>9} {:>13.1} {:>9.1} {:>10}",
            s.suite,
            s.frames,
            s.map_pct,
            s.total_gated_j,
            s.latency.p50_ms,
            s.latency.p99_ms,
            s.stems_executed,
            s.cache_hit_rate * 100.0,
            s.throughput_fps,
            &s.determinism_digest[..8.min(s.determinism_digest.len())],
        );
        for f in &s.fleet {
            println!(
                "  └ fleet {:>3} streams: {:>5} frames, avg batch {:>5.2}, {:>8.1} fps on {} shard(s)",
                f.streams, f.frames, f.avg_batch_size, f.throughput_fps, f.shards.max(1)
            );
            for p in &f.per_shard {
                println!(
                    "      shard {}: {:>2} streams, {:>5} frames, {:>4} batches, {:>3} steals ({} frames), busy {:>7.1} ms",
                    p.shard, p.streams, p.frames, p.batches, p.steals, p.stolen_frames, p.busy_ms
                );
            }
        }
    }
}

/// The acceptance-criteria speedup line: 4-shard vs 1-shard wall-clock
/// throughput on the 64-stream fleet. Recorded and printed, never gated —
/// wall clock on a shared runner is not a stable measurement device, and
/// the ≥2× expectation only holds on a multi-core host.
fn print_fleet_speedup(report: &BenchReport) {
    let Some(fleet) = report.suite("fleet_scale") else { return };
    let Some(point) = fleet.fleet.iter().find(|f| f.streams == 64) else { return };
    println!(
        "fleet_scale 64-stream point: {:.1} fps on {} shard(s); rerun with `--shards 1`/`--shards 4` \
         to measure the multi-core speedup (target: 4-shard >= 2x 1-shard on a multi-core host)",
        point.throughput_fps,
        point.shards.max(1),
    );
}

fn fresh_report(scale: Scale, args: &[String]) -> BenchReport {
    fresh_report_traced(scale, args, None).0
}

/// Runs the suites, optionally with the flight recorder armed
/// (`trace_capacity = Some(..)` attaches a bounded `TraceSink` per suite).
fn fresh_report_traced(
    scale: Scale,
    args: &[String],
    trace_capacity: Option<usize>,
) -> (BenchReport, Vec<(String, TraceSink)>) {
    let only = flag_values(args, "--suite");
    let shards = match flag_value(args, "--shards") {
        None => 1,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: --shards expects a positive integer, got `{v}`");
                std::process::exit(2);
            }
        },
    };
    // A typo here must not produce an empty report (or clobber the
    // baseline) with exit 0.
    for name in &only {
        if ecofusion_harness::SuiteId::from_label(name).is_none() {
            let known: Vec<&str> =
                ecofusion_harness::SuiteId::ALL.iter().map(|id| id.label()).collect();
            eprintln!("error: unknown suite `{name}` (known: {})", known.join(", "));
            std::process::exit(2);
        }
    }
    let armed = if trace_capacity.is_some() { ", flight recorder armed" } else { "" };
    eprintln!("running workload suites ({scale:?}, {shards} shard(s){armed})...");
    match run_report_traced(scale, &only, shards, trace_capacity) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: suite run failed: {e:?}");
            std::process::exit(1);
        }
    }
}

/// Writes one Chrome trace and one Prometheus snapshot per suite into
/// `dir`. Only called on a failed gate — a passing run leaves no files.
fn dump_flight(dir: &Path, sinks: &[(String, TraceSink)]) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: cannot create flight dir {}: {e}", dir.display());
        return;
    }
    for (suite, sink) in sinks {
        let trace_path = dir.join(format!("{suite}.trace.json"));
        let prom_path = dir.join(format!("{suite}.prom"));
        if let Err(e) = std::fs::write(&trace_path, chrome_trace_json(sink)) {
            eprintln!("error: cannot write {}: {e}", trace_path.display());
            continue;
        }
        if let Err(e) = std::fs::write(&prom_path, prometheus_snapshot(sink)) {
            eprintln!("error: cannot write {}: {e}", prom_path.display());
        }
        eprintln!(
            "flight recorder: {} ({} events, {} dropped) + {}",
            trace_path.display(),
            sink.len(),
            sink.dropped(),
            prom_path.display(),
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let baseline_path = PathBuf::from(
        flag_value(&args, "--baseline").unwrap_or_else(|| DEFAULT_BASELINE_PATH.to_string()),
    );
    // The mode is the single positional argument (flags may come before
    // or after it); `bench_report --quick` runs the default report mode.
    let modes = positionals(&args);
    if modes.len() > 1 {
        eprintln!("error: more than one mode given: {modes:?}");
        return ExitCode::from(2);
    }
    let mode = modes.first().map(String::as_str);

    match mode {
        None => {
            let out = PathBuf::from(
                flag_value(&args, "--out").unwrap_or_else(|| "results/bench_report.json".into()),
            );
            let report = fresh_report(scale, &args);
            print_table(&report);
            print_fleet_speedup(&report);
            if let Err(e) = report.write_json(&out) {
                eprintln!("error: cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let tol = Tolerances {
                map_drop_pct: parse_f64(&args, "--map-band", Tolerances::default().map_drop_pct),
                energy_growth_frac: parse_f64(
                    &args,
                    "--energy-band",
                    Tolerances::default().energy_growth_frac,
                ),
                latency_growth_frac: parse_f64(
                    &args,
                    "--latency-band",
                    Tolerances::default().latency_growth_frac,
                ),
                // Absolute floors stay at their defaults; the bands above
                // are the CI-tunable knobs.
                ..Tolerances::default()
            };
            let baseline = match BenchReport::load_json(&baseline_path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!(
                        "error: cannot load baseline {}: {e}\n\
                         (generate one with `bench_report refresh-baseline`)",
                        baseline_path.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            let flight = args.iter().any(|a| a == "--flight-recorder");
            let flight_dir = PathBuf::from(
                flag_value(&args, "--flight-dir").unwrap_or_else(|| "results/flight".into()),
            );
            // `--report` is repeatable: every given report is diffed
            // against the baseline and ALL band violations are printed
            // in one run, with a single exit at the end — so a matrix
            // job can gate several recorded reports in one invocation.
            let report_paths = flag_values(&args, "--report");
            let (labeled, flight_sinks) = if report_paths.is_empty() {
                let (fresh, sinks) =
                    fresh_report_traced(scale, &args, flight.then_some(FLIGHT_RECORDER_EVENTS));
                (vec![("fresh run".to_string(), fresh)], sinks)
            } else {
                let mut labeled = Vec::with_capacity(report_paths.len());
                for path in &report_paths {
                    match BenchReport::load_json(&PathBuf::from(path)) {
                        Ok(r) => labeled.push((path.clone(), r)),
                        Err(e) => {
                            eprintln!("error: cannot load report {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                (labeled, Vec::new())
            };
            let mut total_violations = 0usize;
            for (label, fresh) in &labeled {
                let violations = compare(&baseline, fresh, &tol);
                for v in &violations {
                    eprintln!("  [{label}] {v}");
                }
                total_violations += violations.len();
            }
            if total_violations == 0 {
                println!(
                    "perf gate PASS: {} report(s) x {} suites vs {} (map band {} pp, energy band {:.1}%, latency band {:.1}%)",
                    labeled.len(),
                    baseline.suites.len(),
                    baseline_path.display(),
                    tol.map_drop_pct,
                    tol.energy_growth_frac * 100.0,
                    tol.latency_growth_frac * 100.0,
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perf gate FAIL: {total_violations} violation(s) across {} report(s)",
                    labeled.len()
                );
                if !flight_sinks.is_empty() {
                    dump_flight(&flight_dir, &flight_sinks);
                }
                eprintln!(
                    "if this drift is deliberate, refresh the baseline:\n\
                       cargo run --release -p ecofusion-bench --bin bench_report -- refresh-baseline"
                );
                ExitCode::FAILURE
            }
        }
        Some("refresh-baseline") => {
            let report = fresh_report(scale, &args);
            print_table(&report);
            if let Err(e) = report.write_json(&baseline_path) {
                eprintln!("error: cannot write {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("refreshed baseline {}", baseline_path.display());
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!(
                "error: unknown mode `{other}` (expected no mode, `compare`, or `refresh-baseline`)"
            );
            ExitCode::from(2)
        }
    }
}
