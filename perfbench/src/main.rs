//! Closed-loop serving benchmark of the EcoFusion runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet32 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on an untraced run;
//! `--trace 1` measures the per-layer metrics on a traced run with replay.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every correctness check passed. See `perfbench/README.md`.

mod closed_loop;
mod provenance;
mod spans;
mod stats;
mod traced;
mod workload;

use closed_loop::{timed_passes, timed_run, ClosedLoop, Setup};
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{WorkloadId, DEFAULT_SEED};

/// Set-ups per untraced run; `setup_s` is their median. Each set-up then
/// makes one pass of the timed window (see `closed_loop::timed_passes`).
const SETUP_REPS: usize = 3;
/// Share of a traced run's seconds spent on its untraced reference pass
/// (the rest is traced).
const TRACE_REFERENCE_SHARE: f64 = 0.4;
/// Fewest steps of the untraced reference pass of a traced run.
const REFERENCE_MIN_STEPS: usize = 20;

struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadId::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (known: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks the set-up digests: every set-up of one seed must agree, and at
/// the default seed they must equal the pinned digest.
fn check_digests(args: &Args, setups: &[Setup], problems: &mut Vec<String>) {
    let first = &setups[0].digest;
    if setups.iter().any(|s| &s.digest != first) {
        let all: Vec<_> = setups.iter().map(|s| s.digest.as_str()).collect();
        problems.push(format!("set-ups of one seed disagree on the selection digest: {all:?}"));
    }
    let pinned = args.workload.pinned_digest();
    if args.seed == DEFAULT_SEED && first != pinned {
        problems
            .push(format!("selection digest {first} != pinned {pinned} at seed {DEFAULT_SEED}"));
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(m, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let knobs = provenance::knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with execution knobs set: {knobs:?}. The benchmark pins its \
             own execution configuration; unset them."
        );
        return ExitCode::from(2);
    }
    let wl = workload::build(args.workload, args.seed);
    let name = args.workload.name();
    println!(
        "perfbench {name}: {} streams, batch cap {}, {} shard(s), seed {}, {} s, trace {}",
        wl.streams.len(),
        wl.max_batch,
        wl.shards,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut loops = Vec::with_capacity(reps);
    let mut rss_mb = 0.0;
    for _ in 0..reps {
        let (l, s) = ClosedLoop::setup(&wl);
        loops.push(l);
        setups.push(s);
        // Peak memory of one set-up, read before the timed window:
        // telemetry keeps per-frame history, so over a time-bound window
        // it would grow with throughput.
        if rss_mb == 0.0 {
            rss_mb = peak_rss_mb();
        }
    }
    let mut problems = Vec::new();
    if wl.frames_per_tick() > wl.max_batch {
        problems.push(format!(
            "{} frames per tick exceed the batch cap {}: the loop would build a backlog",
            wl.frames_per_tick(),
            wl.max_batch
        ));
    }
    check_digests(&args, &setups, &mut problems);
    println!(
        "set-up: digest {} over {} check ticks, {} warm-up ticks",
        setups[0].digest,
        closed_loop::CHECK_TICKS,
        closed_loop::WARM_TICKS
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let lp = &mut loops[0];
        let reference = timed_run(lp, args.seconds * TRACE_REFERENCE_SHARE, REFERENCE_MIN_STEPS);
        let out = traced::traced_run(lp, args.seconds * (1.0 - TRACE_REFERENCE_SHARE), &reference);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{name}-seed{}.trace.json", args.seed));
        let doc = format!(
            "{{\"provenance\": {},\n\"spans\": {}}}\n",
            provenance::json(name, args.seed, lp.server.num_shards(), true),
            out.spans.to_json()
        );
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc)) {
            Ok(()) => println!("spans: {} written to {}", out.spans.spans.len(), path.display()),
            Err(e) => problems.push(format!("could not write {}: {e}", path.display())),
        }
        out.metrics
    } else {
        let min_steps = stats::min_samples_for(95.0);
        let run = timed_passes(&mut loops, args.seconds, min_steps);
        let frames = run.totals.frames.max(1) as f64;
        let p = |q| stats::percentile(&run.step_ms, q).unwrap_or(f64::NAN);
        let setup_s: Vec<f64> = setups.iter().map(|s| s.seconds).collect();
        println!("set-up seconds: {setup_s:?}");
        println!(
            "timed: {} passes of {} steps, {} frames each",
            loops.len(),
            run.step_ms.len() / loops.len(),
            run.frames
        );
        // Printed but not gated: on a host with contended phases the step
        // time is bimodal, and the median flips between the modes from run
        // to run (see README "Noise"). The traced run reports it as a
        // per-layer metric.
        println!("metric step_ms_p50 = {} ms (not gated)", p(50.0));
        vec![
            ("frames_per_s", run.frames_per_s(), "frames/s"),
            ("step_ms_p95", p(95.0), "ms"),
            ("energy_j_per_frame", run.totals.gated_j / frames, "J"),
            ("px2_latency_ms_mean", run.totals.latency_ms / frames, "ms"),
            ("setup_s", stats::median(&setup_s).expect("set-ups ran"), "s"),
            ("peak_rss_mb", rss_mb, "MB"),
        ]
    };

    let (mut offered, mut processed) = (0, 0);
    for lp in &mut loops {
        lp.check_ledger();
        problems.append(&mut lp.problems);
        offered += lp.offered;
        processed += closed_loop::server_ledger(&lp.server).0;
    }
    let correct = problems.is_empty();
    let attempted = offered.max(1);
    let failed = if correct { attempted - processed.min(attempted) } else { attempted };
    for p in &problems {
        println!("CORRECTNESS FAILURE: {p}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!("metric frames_failed_frac = {} ratio", failed as f64 / attempted as f64);
    println!(
        "provenance {}",
        provenance::json(name, args.seed, loops[0].server.num_shards(), args.trace)
    );
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line =
            result_json(true, 10, 0, &[("frames_per_s", 12.5, "frames/s"), ("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"frames_per_s\": \
             {\"value\": 12.5, \"unit\": \"frames/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
