//! Self-tests of the benchmark's contract: `BENCHMARK.json` mirrors the
//! tables in `metrics.rs`, every name obeys the contract's alphabet, and a
//! run of every workload prints every metric it lists, by name, with its
//! unit.

use crate::harness::RunConfig;
use crate::json::Json;
use crate::metrics::{valid_name, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::run_named;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is at most 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry {entry:?} lacks a string {key:?}"))
}

#[test]
fn benchmark_json_mirrors_the_metric_tables() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
    assert_eq!(run_seconds, crate::DEFAULT_SECONDS);

    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, def) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(field(entry, "name"), def.name);
        assert_eq!(field(entry, "why"), def.why);
        assert!(
            def.why.len() <= 200 && !def.why.contains('\n'),
            "{}",
            def.name
        );
    }

    let end_to_end = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(field(entry, "name"), def.name);
        assert_eq!(field(entry, "unit"), def.unit);
        assert_eq!(field(entry, "better"), def.better.as_str());
        let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
        assert_eq!(bound, def.bound, "{}", def.name);
        assert!(bound <= 0.25, "a bound is at most 0.25");
    }
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is required");
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let per_layer = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, def) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(field(entry, "name"), def.name);
        assert_eq!(field(entry, "unit"), def.unit);
        assert_eq!(field(entry, "better"), def.better.as_str());
        assert_eq!(
            entry.as_obj().unwrap().len(),
            3,
            "layer metrics carry no bound"
        );
    }
}

#[test]
fn every_name_obeys_the_contract_alphabet_and_is_unique() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|d| d.name));
    names.extend(PER_LAYER.iter().map(|d| d.name));
    for name in &names {
        assert!(valid_name(name), "{name:?}");
    }
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!(END_TO_END.iter().all(|d| unit_ok(d.unit)));
    assert!(PER_LAYER.iter().all(|d| unit_ok(d.unit)));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
    assert!(
        !valid_name("") && !valid_name("_x") && !valid_name("a b") && !valid_name(&"x".repeat(65))
    );
}

/// The metric names and units of one result line.
fn printed(line: &Json) -> Vec<(String, String)> {
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    line.get("metrics")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(name, metric)| {
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            (name.clone(), field(metric, "unit").to_string())
        })
        .collect()
}

#[test]
fn a_run_of_every_workload_prints_every_listed_metric() {
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let cfg = RunConfig {
                seed: 2,
                seconds: 0.0,
                trace,
                smoke: true,
                write_files: false,
            };
            let report = run_named(workload.name, cfg).expect("listed workloads exist");
            // The printed line is what a consumer parses.
            let line = Json::parse(&report.line.to_line()).expect("the result line is JSON");
            let want: Vec<(String, String)> = if trace {
                PER_LAYER
                    .iter()
                    .map(|d| (d.name.into(), d.unit.into()))
                    .collect()
            } else {
                END_TO_END
                    .iter()
                    .map(|d| (d.name.into(), d.unit.into()))
                    .collect()
            };
            assert_eq!(printed(&line), want, "{} trace={trace}", workload.name);
            if !trace {
                for (name, metric) in line.get("metrics").and_then(Json::as_obj).unwrap() {
                    let value = metric.get("value").and_then(Json::as_f64).unwrap();
                    assert!(
                        value > 0.0,
                        "{}: end-to-end metric {name} is never 0",
                        workload.name
                    );
                }
            }
        }
    }
    assert!(run_named(
        "no_such_workload",
        RunConfig {
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: true,
            write_files: false,
        }
    )
    .is_none());
}
