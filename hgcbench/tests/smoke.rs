//! Runs every workload at a tiny scale, untraced and traced, and checks
//! that each prints every metric `BENCHMARK.json` names, with its unit,
//! and that every output check passed.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of each metric listed in one section of BENCHMARK.json
/// (the file keeps one metric object per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a JSON array")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hgcbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let e2e = declared("end_to_end");
    let layer = declared("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert!(!layer.is_empty());
    for workload in ["protocol", "cold-scale", "serve-mixed"] {
        for (trace, metrics) in [("0", &e2e), ("1", &layer)] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload}: {line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
            for (name, unit) in metrics.iter() {
                let want = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&want)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                let rest = &line[at + want.len()..];
                let value = &rest[..rest.find(',').expect("value then unit")];
                assert!(
                    value.parse::<f64>().is_ok_and(f64::is_finite),
                    "{workload}: {name} = {value}"
                );
                assert!(
                    rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} should be in {unit}: {rest}"
                );
            }
        }
    }
}
