//! Int8-vs-f32 parity harness: the CI gate on quantization accuracy.
//!
//! ```text
//! # Run every suite twice (f32, then int8) and gate the mAP drift:
//! cargo run --release -p ecofusion-bench --bin int8_parity -- --quick
//!
//! # Widen the per-suite bound (percentage points):
//! cargo run --release -p ecofusion-bench --bin int8_parity -- --quick --bound 2.0
//! ```
//!
//! The harness runs the full workload-suite registry once at f32 and once
//! with `ECOFUSION_PRECISION=int8` (the same env hook the suites expose to
//! CI), pairs the per-suite mAP numbers into an
//! [`ecofusion_eval::ParityReport`], and exits nonzero when any suite's
//! drift exceeds the bound (default
//! [`ecofusion_eval::DEFAULT_MAX_DRIFT_PP`]). NaN mAP on either side is a
//! violation, never a vacuous pass.
//!
//! `--out <path>` (default `results/int8_parity.json`) receives the int8
//! run's `BenchReport`. Kernel timings are not measured here: perfbench's
//! traced run records the serving int8-vs-f32 ratios as
//! `tensor.int8_vs_f32_stem` / `tensor.int8_vs_f32_branch`.

use ecofusion_eval::experiments::common::Scale;
use ecofusion_eval::{ParityReport, ParityRow, DEFAULT_MAX_DRIFT_PP};
use ecofusion_harness::{run_report, BenchReport};
use std::path::PathBuf;
use std::process::ExitCode;

/// Flags that consume the following argument as their value.
const VALUE_FLAGS: &[&str] = &["--out", "--bound"];

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
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

/// Runs every suite at `scale` under the given precision label
/// (`None` = f32 default), restoring the environment afterwards so the
/// two passes cannot leak into each other.
fn run_at(scale: Scale, precision: Option<&str>) -> BenchReport {
    match precision {
        Some(p) => std::env::set_var("ECOFUSION_PRECISION", p),
        None => std::env::remove_var("ECOFUSION_PRECISION"),
    }
    let label = precision.unwrap_or("f32");
    eprintln!("running workload suites at {label} ({scale:?})...");
    let report = match run_report(scale, &[], 1) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {label} suite run failed: {e:?}");
            std::process::exit(1);
        }
    };
    std::env::remove_var("ECOFUSION_PRECISION");
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for (i, a) in args.iter().enumerate() {
        let consumed_value = i > 0 && VALUE_FLAGS.contains(&args[i - 1].as_str());
        if !a.starts_with("--") && !consumed_value {
            eprintln!("error: unexpected argument `{a}`");
            return ExitCode::from(2);
        }
    }
    let scale = Scale::from_args(&args);
    let bound = parse_f64(&args, "--bound", DEFAULT_MAX_DRIFT_PP);
    let out = PathBuf::from(
        flag_value(&args, "--out").unwrap_or_else(|| "results/int8_parity.json".into()),
    );

    let f32_report = run_at(scale, None);
    let int8_report = run_at(scale, Some("int8"));

    // Pair suites by name; a suite present in one run but not the other
    // would mean the env hook changed the registry, which must never
    // happen silently.
    let mut rows = Vec::new();
    for f in &f32_report.suites {
        let Some(q) = int8_report.suite(&f.suite) else {
            eprintln!("error: suite `{}` missing from the int8 run", f.suite);
            return ExitCode::FAILURE;
        };
        rows.push(ParityRow {
            suite: f.suite.clone(),
            map_f32_pct: f.map_pct,
            map_int8_pct: q.map_pct,
        });
    }
    if rows.len() != int8_report.suites.len() {
        eprintln!("error: int8 run has suites absent from the f32 run");
        return ExitCode::FAILURE;
    }
    let parity = ParityReport::new(rows).with_bound(bound);

    print!("{}", parity.render());
    if let Err(e) = int8_report.write_json(&out) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", out.display());

    if parity.passes() {
        ExitCode::SUCCESS
    } else {
        eprintln!("int8 parity FAIL: mAP drift past {bound} pp");
        ExitCode::FAILURE
    }
}
