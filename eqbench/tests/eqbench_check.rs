//! `eqbench --check` runs a tiny version of every workload, untraced and
//! traced. It must print every metric `BENCHMARK.json` declares, with the
//! declared unit, and every result must be correct with nothing failed.

use std::path::PathBuf;
use std::process::Command;

use analysis::json::{parse, Json};

fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn check_prints_every_declared_metric_and_passes() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");

    let out = Command::new(env!("CARGO_BIN_EXE_eqbench"))
        .arg("--check")
        .output()
        .expect("run eqbench --check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "eqbench --check failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 5);
    let mut metrics = declared(&doc, "end_to_end");
    metrics.extend(declared(&doc, "per_layer"));
    for w in &workloads {
        for (name, unit) in &metrics {
            let printed = stdout.lines().any(|l| {
                let f: Vec<&str> = l.split(' ').collect();
                f.len() == 4 && f[0] == w && f[1] == name && f[3] == unit
            });
            assert!(printed, "{w} does not print {name} in {unit}");
        }
    }

    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| parse(l).expect("result line is JSON"))
        .collect();
    assert_eq!(results.len(), 2 * workloads.len());
    for r in &results {
        assert_eq!(
            r.get("correct").and_then(Json::as_bool),
            Some(true),
            "{}",
            r.render()
        );
        assert_eq!(
            r.get("failed").and_then(Json::as_i64),
            Some(0),
            "{}",
            r.render()
        );
        assert!(r.get("attempted").and_then(Json::as_i64).unwrap_or(0) >= 1);
    }
}
