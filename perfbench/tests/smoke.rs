//! Runs every workload at reduced scale, untraced and traced, and checks
//! that the last output line reports passing output checks and every
//! metric `BENCHMARK.json` names, with its unit. No timing assertions.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn workloads(json: &str) -> Vec<String> {
    let start = json.find("\"workloads\": [").expect("workloads listed");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("workloads close")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    for w in workloads(&json) {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(root)
                .args(["--workload", &w, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--shrink", "8"])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{w} trace={trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("some output");
            assert!(
                last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
                "{w} trace={trace}: {last}"
            );
            let metrics = declared(&json, section);
            for (name, unit) in &metrics {
                let prefix = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&prefix)
                    .unwrap_or_else(|| panic!("{w} trace={trace}: {name} missing"));
                let rest = &last[at + prefix.len()..];
                let value = &rest[..rest.find(',').expect("value ends")];
                assert!(value.parse::<f64>().is_ok(), "{w}: {name} = {value}");
                assert!(
                    rest.contains(&format!(", \"unit\": \"{unit}\"}}")),
                    "{w}: {name} has no unit {unit}"
                );
            }
            assert_eq!(
                last.matches("\"value\": ").count(),
                metrics.len(),
                "{w} trace={trace}: metrics other than the declared ones"
            );
        }
    }
}
