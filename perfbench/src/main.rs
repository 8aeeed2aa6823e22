//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--tiny]`
//!
//! Runs the benchmark and prints, per workload, the host ledger stamp and
//! every metric with its unit; the last line of standard output is the
//! result object (`correct`, `attempted`, `failed`, `metrics`). With
//! `--trace 1` the spans are written to
//! `$CARGO_TARGET_DIR/perfbench-spans/<workload>-seed<n>.json` (default
//! target directory `.bench_build`). Exits 1 if any check failed, 2 on a
//! usage error. `--rss-probe` is internal: it runs one product path and
//! prints its peak resident set, for `peak_rss_mib`.

use massf_perfbench::workload::{Bench, Params};
use massf_perfbench::{nproc, rss_probe, run, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    benches: Vec<Bench>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        benches: Bench::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        rss_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = match flag.as_str() {
            "--tiny" => {
                args.tiny = true;
                continue;
            }
            "--rss-probe" => {
                args.rss_probe = true;
                continue;
            }
            _ => it.next().ok_or_else(|| format!("{flag} needs a value"))?,
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.benches = Bench::ALL.to_vec(),
            "--workload" => {
                args.benches =
                    vec![Bench::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(format!("bad --seconds {value:?}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn write_spans(bench: Bench, seed: u64, doc: &str) -> Result<PathBuf, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    let dir = PathBuf::from(target).join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.json", bench.name()));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.rss_probe {
        // Internal: the fresh process behind `peak_rss_mib`.
        let [bench] = args.benches[..] else {
            eprintln!("perfbench: --rss-probe takes one --workload");
            return ExitCode::from(2);
        };
        let p = Params {
            bench,
            seed: args.seed,
            tiny: args.tiny,
            threads: nproc(),
        };
        return match rss_probe(&p) {
            Some(mib) => {
                println!("peak_rss_mib {mib}");
                ExitCode::SUCCESS
            }
            None => ExitCode::FAILURE,
        };
    }
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut outcomes: Vec<(Bench, Outcome)> = Vec::new();
    for &bench in &args.benches {
        let p = Params {
            bench,
            seed: args.seed,
            tiny: args.tiny,
            threads: nproc(),
        };
        let mut out = run(&p, args.seconds, args.trace, &exe);
        println!("# {} ledger {}", bench.name(), out.ledger);
        for line in &out.variants {
            println!("# {} {line}", bench.name());
        }
        for m in &out.metrics {
            println!("# {} {} = {} {}", bench.name(), m.name, m.value, m.unit);
        }
        if let Some(doc) = &out.spans {
            match write_spans(bench, args.seed, doc) {
                Ok(path) => println!("# {} spans written to {}", bench.name(), path.display()),
                Err(e) => out.failures.push(format!("cannot write spans: {e}")),
            }
        }
        println!(
            "# {} attempted {} failed {}",
            bench.name(),
            out.attempted,
            out.failed
        );
        for f in &out.failures {
            println!("# {} FAILED {f}", bench.name());
        }
        outcomes.push((bench, out));
    }
    let correct = outcomes.iter().all(|(_, o)| o.correct());
    if let [(_, only)] = outcomes.as_slice() {
        println!("{}", only.result_json());
    } else {
        // Several workloads: one object, metrics keyed `<workload>/<name>`.
        let mut all = Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            ledger: String::new(),
            spans: None,
            variants: Vec::new(),
        };
        for (bench, o) in outcomes {
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.failures.extend(o.failures);
            all.metrics.extend(o.metrics.into_iter().map(|mut m| {
                m.name = format!("{}/{}", bench.name(), m.name);
                m
            }));
        }
        println!("{}", all.result_json());
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
