//! Smoke test: every workload runs once at the smoke size, all its checks
//! pass, and it reports every metric `BENCHMARK.json` names, finite and
//! with the declared unit. Run it with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use massf_core::obs::json::{parse, Value};
use massf_perfbench::workload::{Bench, Params};
use massf_perfbench::{nproc, run};
use std::path::Path;

fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_massf-perfbench"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(doc: &Value, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{section}: no {k}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
        .expect("valid JSON");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    let ours: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
    assert_eq!(
        workloads, ours,
        "BENCHMARK.json and the benchmark name the same workloads"
    );

    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(&doc, section);
        for bench in Bench::ALL {
            let p = Params {
                bench,
                seed: 7,
                tiny: true,
                threads: nproc(),
            };
            let out = run(&p, 0.0, trace, exe());
            assert!(
                out.correct(),
                "{} ({section}): {:?}",
                bench.name(),
                out.failures
            );
            assert!(out.attempted >= 1);
            for (name, unit) in &want {
                let m = out
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("{}: {name} missing", bench.name()));
                assert!(
                    m.value.is_finite(),
                    "{}: {name} = {}",
                    bench.name(),
                    m.value
                );
                assert_eq!(m.unit, unit.as_str(), "{}: {name} unit", bench.name());
            }
            assert_eq!(
                out.metrics.len(),
                want.len(),
                "{}: undeclared {section} metrics",
                bench.name()
            );
            if trace {
                let value = |name: &str| {
                    out.metrics
                        .iter()
                        .find(|m| m.name == name)
                        .map(|m| m.value)
                        .unwrap_or_else(|| panic!("{name} missing"))
                };
                // The program's own stage spans reach the per-layer figures.
                for name in [
                    "partition.kway_s",
                    "mapping.profiling_run_s",
                    "mapping.accumulate_predicted_s",
                ] {
                    assert!(value(name) > 0.0, "{}: {name} = 0", bench.name());
                }
                let coverage = value("trace.coverage");
                assert!(
                    (0.95..=1.0).contains(&coverage),
                    "{}: spans cover {coverage} of the traced pipeline",
                    bench.name()
                );
            }
            let ledger = parse(&out.ledger).expect("ledger is JSON");
            for key in ["nproc", "profile", "rustc", "commit", "seed", "nodes"] {
                assert!(ledger.get(key).is_some(), "ledger lacks {key}");
            }
        }
    }
}

#[test]
fn same_seed_gives_the_same_deterministic_metrics() {
    let p = Params {
        bench: Bench::TeragridGridnpb,
        seed: 3,
        tiny: true,
        threads: nproc(),
    };
    let pick = |name: &str| {
        let out = run(&p, 0.0, false, exe());
        assert!(out.correct(), "{:?}", out.failures);
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .expect("metric")
            .value
    };
    for name in ["imbalance", "modeled_emulation_s", "predicted_imbalance"] {
        assert_eq!(
            pick(name).to_bits(),
            pick(name).to_bits(),
            "{name} must repeat exactly"
        );
    }
}
