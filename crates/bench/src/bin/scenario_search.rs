//! Coverage-guided scenario search, suite distillation, and CI replay.
//!
//! ```text
//! # Discover novel-signature scenarios (seeded, deterministic) and
//! # distill the first 2 into committed record-replay suites:
//! cargo run --release -p ecofusion-bench --bin scenario_search -- \
//!     --search --seed 2024 --emit 2 --out-dir suites/distilled
//!
//! # Minimize + distill an existing corpus:
//! cargo run --release -p ecofusion-bench --bin scenario_search -- \
//!     --minimize --corpus results/scenario_corpus.json --out-dir suites/distilled
//!
//! # Replay every committed distilled suite against its recorded
//! # digest/counters (exit 1 on any drift) — the scenario-regression
//! # CI job:
//! cargo run --release -p ecofusion-bench --bin scenario_search -- --replay
//! ```
//!
//! Modes (exactly one):
//!
//! * `--search` — run the coverage-guided search (`--seed`,
//!   `--candidates`, `--ticks` tune it; defaults are the CI-budget
//!   quick shape), print the corpus signatures, and write the corpus
//!   JSON to `--out` (default `results/scenario_corpus.json`). With
//!   `--emit <n>` the first `n` corpus entries are additionally
//!   minimized, distilled, and written under `--out-dir` (default
//!   `suites/distilled`).
//! * `--minimize` — load a corpus JSON (`--corpus`), minimize every
//!   entry (or the first `--emit <n>`), and write the distilled suites
//!   under `--out-dir`.
//! * `--replay` — load every `*.json` under `--dir` (default
//!   `suites/distilled`), re-run each scenario, and compare digest and
//!   counters exactly. Drift details are written as JSON to
//!   `--diff-out` (default `results/scenario_drift.json`) and the exit
//!   code is 1 — the artifact the CI job uploads on failure.
//!
//! Replay is hermetic (fixed model seed, paper-default options, no env
//! precision override) and shard-invariant, so one CI replay pins every
//! committed suite bit for bit.

use ecofusion_harness::{load_distilled_dir, replay_distilled, ReplayDrift, DEFAULT_DISTILLED_DIR};
use ecofusion_search::distill;
use ecofusion_search::search::{search, CorpusEntry, Evaluator, SearchConfig};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Flags that consume the following argument as their value.
const VALUE_FLAGS: &[&str] = &[
    "--seed",
    "--candidates",
    "--ticks",
    "--emit",
    "--out",
    "--out-dir",
    "--corpus",
    "--dir",
    "--diff-out",
];

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> u64 {
    match flag_value(args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} expects an integer, got `{v}`");
            std::process::exit(2);
        }),
    }
}

/// Rejects unknown flags and stray positionals so a typo'd mode (say
/// `--serach`) fails loudly instead of silently replaying nothing.
fn validate_args(args: &[String]) {
    let modes = ["--search", "--minimize", "--replay"];
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if VALUE_FLAGS.contains(&a.as_str()) {
            i += 2;
        } else if modes.contains(&a.as_str()) {
            i += 1;
        } else {
            eprintln!("error: unknown argument `{a}`");
            std::process::exit(2);
        }
    }
}

fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
    std::fs::write(path, json + "\n")
}

/// Minimizes + distills `count` corpus entries and writes each as
/// `<out_dir>/auto_s<seed>_<idx>.json`. Returns `false` on any failure.
fn emit_distilled(corpus: &[CorpusEntry], count: usize, seed: u64, out_dir: &Path) -> bool {
    let mut evaluator = Evaluator::new();
    let mut ok = true;
    for (i, entry) in corpus.iter().take(count).enumerate() {
        let name = format!("auto_s{seed}_{i:02}");
        let before = entry.scenario.size().total();
        let suite = match distill(entry, &name, seed, &mut evaluator) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: distilling {name} failed: {e:?}");
                ok = false;
                continue;
            }
        };
        let after = suite.scenario.size().total();
        let path = out_dir.join(format!("{name}.json"));
        match write_json(&path, &suite) {
            Ok(()) => eprintln!(
                "distilled {} ({} -> {} mutable inputs, digest {})",
                path.display(),
                before,
                after,
                suite.expected_digest,
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    ok
}

fn print_corpus(corpus: &[CorpusEntry]) {
    println!(
        "{:<22} {:>6} {:>9} {:>6} {:>6} {:>7} {:>8}  signature",
        "scenario", "frames", "rungs", "churn", "drops", "stalls", "mAPloss"
    );
    for e in corpus {
        let s = &e.signature;
        println!(
            "{:<22} {:>6} {:>#09b} {:>6} {:>6} {:>7} {:>8}  {}",
            e.scenario.name,
            e.outcome.counters.frames,
            s.rungs,
            e.outcome.counters.churn,
            e.outcome.counters.dropped,
            e.outcome.counters.stalls,
            s.map_loss_bucket,
            serde_json::to_string(s).unwrap_or_default(),
        );
    }
}

/// One failing suite's drift record, as written to `--diff-out`.
#[derive(Serialize)]
struct SuiteDrift {
    suite: String,
    path: String,
    drifts: Vec<ReplayDrift>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    validate_args(&args);
    let modes: Vec<&str> = ["--search", "--minimize", "--replay"]
        .into_iter()
        .filter(|m| args.iter().any(|a| a == m))
        .collect();
    if modes.len() != 1 {
        eprintln!("error: pass exactly one of --search / --minimize / --replay");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(
        flag_value(&args, "--out-dir").unwrap_or_else(|| DEFAULT_DISTILLED_DIR.to_string()),
    );

    match modes[0] {
        "--search" => {
            let cfg = SearchConfig {
                seed: parse_u64(&args, "--seed", 2024),
                candidates: parse_u64(&args, "--candidates", 48) as usize,
                ticks: parse_u64(&args, "--ticks", 48),
            };
            eprintln!(
                "searching: seed {}, {} candidates, {} ticks...",
                cfg.seed, cfg.candidates, cfg.ticks
            );
            let corpus = match search(&cfg) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: search failed: {e:?}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{} distinct-signature scenarios discovered", corpus.len());
            print_corpus(&corpus);
            let out = PathBuf::from(
                flag_value(&args, "--out").unwrap_or_else(|| "results/scenario_corpus.json".into()),
            );
            if let Err(e) = write_json(&out, &corpus) {
                eprintln!("error: cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", out.display());
            let emit = parse_u64(&args, "--emit", 0) as usize;
            if emit > 0 && !emit_distilled(&corpus, emit, cfg.seed, &out_dir) {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        "--minimize" => {
            let corpus_path = PathBuf::from(
                flag_value(&args, "--corpus")
                    .unwrap_or_else(|| "results/scenario_corpus.json".into()),
            );
            let corpus: Vec<CorpusEntry> = match std::fs::read_to_string(&corpus_path)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str(&s).map_err(|e| format!("{e:?}")))
            {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot load corpus {}: {e}", corpus_path.display());
                    return ExitCode::FAILURE;
                }
            };
            let seed = parse_u64(&args, "--seed", 2024);
            let emit = parse_u64(&args, "--emit", corpus.len() as u64) as usize;
            if emit_distilled(&corpus, emit, seed, &out_dir) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "--replay" => {
            let dir = PathBuf::from(
                flag_value(&args, "--dir").unwrap_or_else(|| DEFAULT_DISTILLED_DIR.to_string()),
            );
            let suites = match load_distilled_dir(&dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot load distilled suites from {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            };
            if suites.is_empty() {
                eprintln!("error: no distilled suites under {}", dir.display());
                return ExitCode::FAILURE;
            }
            let mut failing: Vec<SuiteDrift> = Vec::new();
            for (path, suite) in &suites {
                match replay_distilled(suite) {
                    Ok(drifts) if drifts.is_empty() => {
                        println!("replay PASS: {} (digest {})", suite.name, suite.expected_digest);
                    }
                    Ok(drifts) => {
                        eprintln!(
                            "replay FAIL: {} ({} drifted field(s))",
                            suite.name,
                            drifts.len()
                        );
                        for d in &drifts {
                            eprintln!("  {}: expected {}, got {}", d.field, d.expected, d.actual);
                        }
                        failing.push(SuiteDrift {
                            suite: suite.name.clone(),
                            path: path.display().to_string(),
                            drifts,
                        });
                    }
                    Err(e) => {
                        eprintln!("replay ERROR: {}: {e:?}", suite.name);
                        failing.push(SuiteDrift {
                            suite: suite.name.clone(),
                            path: path.display().to_string(),
                            drifts: vec![ReplayDrift {
                                field: "run".to_string(),
                                expected: "completes".to_string(),
                                actual: format!("{e:?}"),
                            }],
                        });
                    }
                }
            }
            if failing.is_empty() {
                println!(
                    "scenario regression PASS: {} suite(s) replayed bit-identically",
                    suites.len()
                );
                return ExitCode::SUCCESS;
            }
            let diff_out = PathBuf::from(
                flag_value(&args, "--diff-out")
                    .unwrap_or_else(|| "results/scenario_drift.json".into()),
            );
            if let Err(e) = write_json(&diff_out, &failing) {
                eprintln!("error: cannot write {}: {e}", diff_out.display());
            } else {
                eprintln!("wrote drift diff {}", diff_out.display());
            }
            eprintln!(
                "scenario regression FAIL: {}/{} suite(s) drifted\n\
                 if the behavior change is deliberate, re-record with --minimize \
                 (or --search --emit) and commit the refreshed suites",
                failing.len(),
                suites.len()
            );
            ExitCode::FAILURE
        }
        _ => unreachable!(),
    }
}
