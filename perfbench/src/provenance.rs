//! Where and how a result was produced: host, toolchain, code-generation
//! flags, source revision and execution configuration.

use std::fmt::Write as _;
use std::process::Command;

/// Process-global knobs that change how the runtime executes. The
/// benchmark pins its execution configuration itself and refuses to run
/// when one of these is set, so two results never differ by a knob the
/// result does not record.
pub const EXEC_KNOBS: [&str; 4] =
    ["ECOFUSION_BACKEND", "ECOFUSION_COMPILED", "ECOFUSION_PRECISION", "ECOFUSION_SHARDS"];

/// The execution knobs present in the environment, with their values.
pub fn knobs_set() -> Vec<(&'static str, String)> {
    EXEC_KNOBS.iter().filter_map(|&k| std::env::var(k).ok().map(|v| (k, v))).collect()
}

fn cpuinfo() -> (String, Vec<&'static str>) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        info.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let model = field("model name").unwrap_or_else(|| "unknown".to_string());
    let flags = field("flags").unwrap_or_default();
    let have: Vec<&'static str> = ["avx2", "fma", "avx512f", "avx512bw", "avx512_vnni", "avx_vnni"]
        .into_iter()
        .filter(|f| flags.split_whitespace().any(|x| x == *f))
        .collect();
    (model, have)
}

/// The checkout's git revision. Git is pointed at the checkout root and
/// stopped from searching above it, so a checkout without `.git` reports
/// itself as such instead of picking up an enclosing repository.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the checkout");
    let ceiling = root.parent().unwrap_or(root);
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_string())
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance block as a JSON object.
pub fn json(workload: &str, seed: u64, shards: usize, trace: bool) -> String {
    let (cpu, flags) = cpuinfo();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let compiled_features: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512vnni", cfg!(target_feature = "avx512vnni")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    let list = |v: &[&str]| v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(",");
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"host\":{{\"nproc\":{nproc},\"cpu\":{},\
         \"cpu_flags\":[{}]}},\"rustc\":{},\"rustflags\":{},\"compiled_target_features\":[{}],\
         \"git_rev\":{},\"exec\":{{\"backend\":{},\"compiled\":{},\"precision\":\"f32 base; int8 on \
         the emergency ladder rung\",\"shards\":{shards}}},\"knobs\":\"none set\"}}",
        json_str(workload),
        json_str(&cpu),
        list(&flags),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_RUSTFLAGS")),
        list(&compiled_features),
        json_str(&git_rev()),
        json_str(&format!("{:?}", ecofusion_tensor::backend::backend_kind())),
        ecofusion_tensor::graph::compiled_enabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn provenance_names_the_execution_config() {
        let j = json("fleet32", 7, 2, false);
        for key in [
            "\"nproc\"",
            "\"rustc\"",
            "\"rustflags\"",
            "\"git_rev\"",
            "\"backend\"",
            "\"compiled\"",
            "\"shards\":2",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
