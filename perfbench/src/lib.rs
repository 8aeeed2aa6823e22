//! # massf-perfbench
//!
//! The repository's benchmark: a single-threaded harness that runs the
//! paper's pipeline in `massf run`'s stage order (build, preflight lint,
//! map, audit, emulate), then the threaded executor, the replay and the
//! online-rebalancing run on the same inputs. One pipeline iteration is one
//! operation; every iteration's outputs are checked (see [`run`]).
//!
//! The untraced pass gives the end-to-end metrics. The traced pass wraps
//! the same calls in spans recorded by this crate ([`trace`]), keeps the
//! mapping stages the program records on its own `Recorder`, and gives the
//! per-layer metrics. See `README.md` beside this crate for the workloads
//! and what each metric means.

pub mod micro;
pub mod trace;
pub mod workload;

use massf_core::engine::{
    run_parallel, CostModel, EmulationConfig, EmulationReport, SchedulerKind,
};
use massf_core::mapping::weights::{accumulate_predicted_with, latency_graph};
use massf_core::metrics::imbalance::load_imbalance_f64;
use massf_core::obs::json::quote;
use massf_core::partition::quality::{edge_cut, worst_balance};
use massf_core::prelude::*;
use massf_core::traffic::flow::total_packets;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use trace::Tracer;
use workload::{map, map_probe, setup, setup_traced, Bench, Params};

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one benchmark run on one workload.
pub struct Outcome {
    /// Pipeline iterations run (untraced and traced).
    pub attempted: u64,
    /// Iterations with at least one failed check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The host ledger stamp, as a JSON object.
    pub ledger: String,
    /// The traced pass's spans as a Chrome trace document.
    pub spans: Option<String>,
    /// One line per input variant: its seed and figures.
    pub variants: Vec<String>,
}

/// Simulated quantities that every iteration of a run must repeat.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    schedule: u64,
    partition: u64,
    events: u64,
    rounds: u64,
    imbalance_bits: u64,
}

/// One pipeline iteration's timings and outputs.
struct Iteration {
    variant: usize,
    setup_s: f64,
    map_s: f64,
    pipeline_s: f64,
    seq_s: f64,
    fingerprint: Fingerprint,
    partition: Partitioning,
    seq: EmulationReport,
    imbalance: f64,
    predicted_imbalance: f64,
    netflow_records: Option<u64>,
    extras: Option<Extras>,
    failures: Vec<String>,
}

impl Iteration {
    /// The executors' figures; every traced iteration has them.
    fn ran(&self) -> &Extras {
        self.extras
            .as_ref()
            .expect("traced iterations run the executors")
    }
}

/// What the executors after the product path measured.
struct Extras {
    thr_s: f64,
    replay_s: f64,
    online_s: f64,
    replay_events: u64,
    migrated_nodes: usize,
    remaps: usize,
}

fn seconds_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The configuration `MappingStudy::evaluate` emulates with, for handing
/// the same run to the threaded executor.
fn live_config(study: &MappingStudy, partition: &Partitioning) -> EmulationConfig {
    EmulationConfig {
        partition: partition.part.clone(),
        nengines: partition.nparts,
        counter_window_us: study.counter_window_us,
        netflow: false,
        cost: CostModel::live_application(),
        engine_speeds: study.cfg.engine_capacities.clone(),
        scheduler: SchedulerKind::default(),
    }
}

/// The post-mapping audit: `BuiltScenario::audit` on the Table 1
/// workloads. Its routing passes (MC014/MC015) visit every node pair, which
/// on the 20,400-node network would take minutes (2.3 s already at the
/// smoke size's 2,040 nodes), so `brite20k-place` audits the partition
/// without the routing tables.
fn audit(p: &Params, built: &BuiltScenario, partition: &Partitioning) -> massf_lint::Diagnostics {
    if p.bench != Bench::Brite20kPlace {
        return built.audit(partition);
    }
    let study = &built.study;
    let input = massf_lint::ArtifactInput::new(&study.net)
        .with_engines(study.cfg.engines)
        .with_ubfactor(study.cfg.ubfactor)
        .with_partition(partition);
    massf_lint::lint_artifacts(&input)
}

fn check_conservation(what: &str, r: &EmulationReport, packets: u64, failures: &mut Vec<String>) {
    if r.delivered + r.dropped != packets {
        failures.push(format!(
            "{what}: delivered {} + dropped {} != scheduled {packets}",
            r.delivered, r.dropped
        ));
    }
}

/// Calls shorter than this are repeated (untraced) for a steadier median.
const MIN_CALL_S: f64 = 0.25;

/// At most this many calls per timing.
const MAX_CALLS: usize = 5;

/// Times `f`: once when tracing (one span), else repeatedly until
/// [`MIN_CALL_S`] has passed or [`MAX_CALLS`] calls were made. Returns
/// every result and every call's time.
fn repeat<T>(t: &mut Tracer, name: &'static str, mut f: impl FnMut() -> T) -> (Vec<T>, Vec<f64>) {
    let (mut out, mut times) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        out.push(t.span(name, &mut f));
        times.push(seconds_since(t0));
        if t.is_on() || times.len() >= MAX_CALLS || seconds_since(start) >= MIN_CALL_S {
            return (out, times);
        }
    }
}

/// The `massf run`-ordered product path on one input and what it left.
struct Product {
    built: BuiltScenario,
    partition: Partitioning,
    netflow_records: Option<u64>,
    seq: EmulationReport,
    setup_s: f64,
    map_s: f64,
    seq_s: f64,
    pipeline_s: f64,
    failures: Vec<String>,
}

/// Setup, preflight lint, map, audit and the sequential emulation, timed
/// together as `pipeline_s`.
fn product_path(p: &Params, t: &mut Tracer) -> Product {
    let mut failures = Vec::new();
    let t0 = Instant::now();
    let built = if t.is_on() {
        setup_traced(p, t)
    } else {
        setup(p)
    };
    let setup_s = seconds_since(t0);
    let lint = t.span("lint.preflight", || built.lint());
    if lint.has_errors() {
        failures.push(format!("preflight: {}", lint.summary_line()));
    }
    let m0 = Instant::now();
    let (partition, netflow_records) = map(p, &built, t);
    let map_s = seconds_since(m0);
    let audit = t.span("lint.audit", || audit(p, &built, &partition));
    if audit.has_errors() {
        failures.push(format!("audit: {}", audit.summary_line()));
    }
    let e0 = Instant::now();
    let seq = t.span("engine.seq", || {
        built
            .study
            .evaluate(&partition, &built.flows, CostModel::live_application())
    });
    let seq_s = seconds_since(e0);
    let pipeline_s = seconds_since(t0);
    t.end_pipeline();
    Product {
        built,
        partition,
        netflow_records,
        seq,
        setup_s,
        map_s,
        seq_s,
        pipeline_s,
        failures,
    }
}

/// Peak resident set (MiB) of this process after one product path on
/// `p`. Meant for a fresh process (`--rss-probe`), so the figure is the
/// product path's own high-water mark.
pub fn rss_probe(p: &Params) -> Option<f64> {
    let product = product_path(p, &mut Tracer::off());
    if !product.failures.is_empty() {
        return None;
    }
    peak_rss_mib()
}

/// Runs one iteration: the product path (timed as `pipeline_s`), then, if
/// `with_extras`, the threaded executor, the replay and the online run on
/// the same inputs. Returns the inputs too, for the per-layer probes.
fn iteration(
    p: &Params,
    variant: usize,
    with_extras: bool,
    t: &mut Tracer,
) -> (Iteration, BuiltScenario) {
    let traced = t.is_on();
    let Product {
        built,
        partition,
        mut netflow_records,
        seq,
        setup_s,
        map_s,
        seq_s,
        pipeline_s,
        mut failures,
    } = product_path(p, t);

    let (study, flows) = (&built.study, &built.flows);
    let packets = total_packets(flows);
    check_conservation("sequential", &seq, packets, &mut failures);
    // The product path timed `evaluate` once; a short one gets more samples.
    let mut seq_times = vec![seq_s];
    if !traced && seq_s < MIN_CALL_S {
        let live = CostModel::live_application();
        let (again, times) = repeat(t, "engine.seq", || study.evaluate(&partition, flows, live));
        if again.iter().any(|r| *r != seq) {
            failures.push("repeated sequential runs differ".to_string());
        }
        seq_times.extend(times);
    }

    let extras = if with_extras {
        let cfg = live_config(study, &partition);
        let (thr, thr_times) = repeat(t, "engine.thr", || {
            run_parallel(&study.net, &study.tables, flows, &cfg)
        });
        if thr.iter().any(|r| *r != seq) {
            failures.push("run_sequential and run_parallel reports differ".to_string());
        }
        let (replay, replay_times) = repeat(t, "engine.replay", || study.replay(&partition, flows));
        if replay.iter().any(|r| *r != replay[0]) {
            failures.push("repeated replays differ".to_string());
        }
        check_conservation("replay", &replay[0], packets, &mut failures);
        let (onlines, online_times) = repeat(t, "engine.online", || built.run_online());
        let online = &onlines[0];
        if onlines.iter().any(|o| o.report != online.report) {
            failures.push("repeated online runs differ".to_string());
        }
        check_conservation("online", &online.report, packets, &mut failures);
        Some(Extras {
            thr_s: median(thr_times),
            replay_s: median(replay_times),
            online_s: median(online_times),
            replay_events: replay[0].total_events(),
            migrated_nodes: online.migrated_nodes,
            remaps: online.remaps_applied,
        })
    } else {
        None
    };

    if traced {
        // The mapping stages the workload's own mapping skips, for the
        // per-layer figures.
        let probed = map_probe(p, &built, t);
        netflow_records = netflow_records.or(probed);
    }

    let imbalance = load_imbalance(&seq.engine_events);
    let fingerprint = Fingerprint {
        schedule: fnv(flows.iter().flat_map(|f| {
            [
                u64::from(f.src),
                u64::from(f.dst),
                f.start_us,
                f.packets,
                f.bytes,
            ]
        })),
        partition: fnv(partition.part.iter().map(|&x| u64::from(x))),
        events: seq.total_events(),
        rounds: seq.rounds,
        imbalance_bits: imbalance.to_bits(),
    };
    let it = Iteration {
        variant,
        setup_s,
        map_s,
        pipeline_s,
        seq_s: median(seq_times),
        fingerprint,
        imbalance,
        predicted_imbalance: predicted_imbalance(&built, &partition),
        partition,
        netflow_records,
        extras,
        seq,
        failures,
    };
    (it, built)
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn med(iters: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    median(iters.iter().map(f).collect())
}

/// Per-variant medians of `f` over the iterations where it is `Some`, in
/// variant order: each input variant counts once however often it ran.
fn per_variant(iters: &[Iteration], f: impl Fn(&Iteration) -> Option<f64>) -> Vec<f64> {
    let mut by_variant: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for i in iters {
        if let Some(x) = f(i) {
            by_variant.entry(i.variant).or_default().push(x);
        }
    }
    by_variant.into_values().map(median).collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Events over time summed across the variants (each variant's time is
/// its median): the throughput of the whole variant set.
fn rate(
    iters: &[Iteration],
    events: impl Fn(&Iteration) -> Option<f64>,
    secs: impl Fn(&Iteration) -> Option<f64>,
) -> f64 {
    per_variant(iters, events).iter().sum::<f64>() / per_variant(iters, secs).iter().sum::<f64>()
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Mean peak resident set over [`Params::rss_variants`] fresh processes,
/// each running `exe --rss-probe` on one input variant.
fn spawn_rss_probes(exe: &Path, p: &Params) -> Result<f64, String> {
    let peaks = (0..p.rss_variants())
        .map(|k| spawn_rss_probe(exe, &p.variant(k)))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(mean(&peaks))
}

/// Runs `exe --rss-probe` for exactly the inputs `p` names.
fn spawn_rss_probe(exe: &Path, p: &Params) -> Result<f64, String> {
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        p.bench.name(),
        "--seed",
        &p.seed.to_string(),
        "--rss-probe",
    ]);
    if p.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let value = text
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("peak_rss_mib "))
        .and_then(|v| v.parse().ok());
    match value {
        Some(v) if out.status.success() => Ok(v),
        _ => Err(format!(
            "{} exited {} with {text:?}",
            exe.display(),
            out.status
        )),
    }
}

/// PLACE's predicted per-engine load under `partition`, as the same
/// normalized standard deviation `imbalance` uses.
fn predicted_imbalance(b: &BuiltScenario, partition: &Partitioning) -> f64 {
    let study = &b.study;
    let (_, per_node) = accumulate_predicted_with(
        &study.net,
        &study.tables,
        &b.predicted,
        study.cfg.parallelism,
    );
    let mut per_engine = vec![0.0f64; partition.nparts];
    for (v, load) in per_node.iter().enumerate() {
        per_engine[partition.part[v] as usize] += load;
    }
    load_imbalance_f64(&per_engine)
}

/// The host ledger stamp: what a before/after comparison must hold equal.
/// The network size is variant 0's.
pub fn ledger(p: &Params, variants: usize) -> String {
    let net = match p.variant(0).scenario() {
        Some(sc) => sc.topology.build(),
        None => workload::brite20k_network(&p.variant(0)),
    };
    format!(
        "{{\"workload\":{},\"seed\":{},\"variants\":{variants},\"tiny\":{},\"nproc\":{},\"mapping_threads\":{},\"profile\":{},\"rustc\":{},\"commit\":{},\"nodes\":{},\"routers\":{},\"hosts\":{},\"links\":{}}}",
        quote(p.bench.name()),
        p.seed,
        p.tiny,
        nproc(),
        p.threads,
        quote(env!("PERFBENCH_PROFILE")),
        quote(env!("PERFBENCH_RUSTC")),
        quote(&git_commit()),
        net.node_count(),
        net.router_count(),
        net.host_count(),
        net.links().len(),
    )
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` in an export without git metadata).
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Runs `p`'s workload for about `seconds`. A run covers
/// [`Params::variants`] input variants whose seeds derive from `p.seed`
/// (see [`Params::variant`]), cycling through them while the next step
/// still fits in `seconds`; every variant runs at least once (untraced;
/// two traced), so a run's deterministic metrics are a fixed
/// function of the seed. The first [`Params::extra_variants`] variants of
/// each cycle also run the executors after the product path. Untraced
/// (`trace == false`) it reports the end-to-end metrics; traced, it runs
/// each variant untraced and traced (the traced pass with the executors
/// and the mapping probe), and reports the per-layer metrics plus the
/// tracing overhead.
///
/// An iteration fails if the sequential and threaded reports differ, if
/// repeated calls of one emulation disagree, if delivered + dropped differs
/// from the scheduled packets, if the preflight or the audit reports an
/// Error, or if the schedule, partition, events, rounds or imbalance differ
/// from the variant's first iteration.
pub fn run(p: &Params, seconds: f64, trace: bool, exe: &Path) -> Outcome {
    let start = Instant::now();
    let variants = p.variants();
    let mut tracer = Tracer::on();
    let mut plain: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut probe_inputs: Option<BuiltScenario> = None;
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let mut reference: Vec<Option<Fingerprint>> = vec![None; variants];
    let mut check = |it: &mut Iteration, n: usize| {
        match &reference[it.variant] {
            None => reference[it.variant] = Some(it.fingerprint.clone()),
            Some(r) if *r != it.fingerprint => it.failures.push(format!(
                "variant {} outputs differ from its first iteration: {:?} vs {r:?}",
                it.variant, it.fingerprint
            )),
            Some(_) => {}
        }
        if !it.failures.is_empty() {
            failed += 1;
            failures.extend(it.failures.iter().map(|f| format!("iteration {n}: {f}")));
        }
    };
    // The fresh processes behind `peak_rss_mib` run first, inside the
    // run's time.
    let rss = (!trace).then(|| spawn_rss_probes(exe, p));
    let (mut step, mut longest_step) = (0usize, 0.0f64);
    loop {
        let k = step % variants;
        let vp = p.variant(k);
        let with_extras = !trace && k < p.extra_variants();
        let step_start = Instant::now();
        // Traced, each step runs the variant untraced and traced, in turns
        // first one and then the other, so neither pass always finds the
        // allocator and caches warmed by the other.
        let passes: &[bool] = match (trace, step % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced_pass in passes {
            let n = plain.len() + traced.len();
            if traced_pass {
                tracer.begin_iteration(traced.len());
                let (mut it, built) = iteration(&vp, k, true, &mut tracer);
                check(&mut it, n);
                traced.push(it);
                probe_inputs.get_or_insert(built);
            } else {
                let (mut it, _) = iteration(&vp, k, with_extras, &mut Tracer::off());
                check(&mut it, n);
                plain.push(it);
            }
        }
        step += 1;
        longest_step = longest_step.max(seconds_since(step_start));
        let covered = if trace {
            step >= MIN_TRACED.min(variants)
        } else {
            step >= variants
        };
        if covered && seconds_since(start) + longest_step > seconds {
            break;
        }
    }
    let attempted = (plain.len() + traced.len()) as u64;
    let ledger = ledger(p, variants);
    let mut metrics = Vec::new();
    let mut m = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };

    let spans = if let Some(b) = &probe_inputs {
        per_layer_metrics(b, &plain, &traced, &tracer, &mut m);
        Some(tracer.to_chrome_json(&ledger))
    } else {
        m("setup_s", med(&plain, |i| i.setup_s), "s");
        m("map_s", mean(&per_variant(&plain, |i| Some(i.map_s))), "s");
        m(
            "pipeline_s",
            mean(&per_variant(&plain, |i| Some(i.pipeline_s))),
            "s",
        );
        m(
            "seq_events_per_s",
            rate(
                &plain,
                |i| Some(i.seq.total_events() as f64),
                |i| Some(i.seq_s),
            ),
            "events/s",
        );
        m(
            "replay_events_per_s",
            rate(
                &plain,
                |i| i.extras.as_ref().map(|e| e.replay_events as f64),
                |i| i.extras.as_ref().map(|e| e.replay_s),
            ),
            "events/s",
        );
        m(
            "online_s",
            mean(&per_variant(&plain, |i| {
                i.extras.as_ref().map(|e| e.online_s)
            })),
            "s",
        );
        match rss.expect("untraced runs probe the resident set") {
            Ok(rss) => m("peak_rss_mib", rss, "MiB"),
            Err(e) => failures.push(format!("peak RSS probe: {e}")),
        }
        m(
            "imbalance",
            mean(&per_variant(&plain, |i| Some(i.imbalance))),
            "ratio",
        );
        m(
            "modeled_emulation_s",
            mean(&per_variant(&plain, |i| Some(i.seq.emulation_time_s()))),
            "s",
        );
        m(
            "predicted_imbalance",
            mean(&per_variant(&plain, |i| Some(i.predicted_imbalance))),
            "ratio",
        );
        None
    };
    // A traced run may stop before it reaches every variant.
    let variant_lines = (0..variants)
        .filter_map(|k| {
            let its: Vec<&Iteration> = plain.iter().filter(|i| i.variant == k).collect();
            let first = *its.first()?;
            let med_of = |f: fn(&Iteration) -> f64| median(its.iter().map(|i| f(i)).collect());
            Some(format!(
                "variant {k} seed {} runs {}: events {} rounds {} imbalance {} predicted_imbalance {} pipeline_s {} seq_s {}",
                p.variant(k).seed,
                its.len(),
                first.fingerprint.events,
                first.fingerprint.rounds,
                first.imbalance,
                first.predicted_imbalance,
                med_of(|i| i.pipeline_s),
                med_of(|i| i.seq_s),
            ))
        })
        .collect();
    for metric in &metrics {
        if !metric.value.is_finite() {
            failures.push(format!("{} is not finite", metric.name));
        }
    }
    Outcome {
        attempted,
        failed,
        failures,
        metrics,
        ledger,
        spans,
        variants: variant_lines,
    }
}

/// Variants a traced run covers at least: one step in each pass order.
/// Its per-layer times are medians over the traced iterations; counts come
/// from variant 0.
const MIN_TRACED: usize = 2;

/// The layers, in pipeline order; span names start with one of these.
const LAYERS: [&str; 7] = [
    "topology",
    "routing",
    "traffic",
    "lint",
    "mapping",
    "partition",
    "engine",
];

fn per_layer_metrics(
    b: &BuiltScenario,
    plain: &[Iteration],
    traced: &[Iteration],
    tracer: &Tracer,
    m: &mut impl FnMut(&str, f64, &'static str),
) {
    // Per traced iteration: span time summed by name, and self time
    // summed by layer on the product path. A name the product path records
    // takes its time from there; the probes after it supply the rest (on
    // brite20k-place the PROFILE probe repeats TOP's stages, which the
    // product path has already timed).
    let mut by_name: Vec<BTreeMap<&str, f64>> = Vec::new();
    let mut by_layer: Vec<BTreeMap<&str, f64>> = Vec::new();
    for n in 0..traced.len() {
        let (mut names, mut probes, mut layers) =
            (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
        for s in tracer.iteration_spans(n) {
            let into = if s.in_pipeline {
                &mut names
            } else {
                &mut probes
            };
            *into.entry(s.name.as_str()).or_insert(0.0) += s.dur_s;
            if s.in_pipeline {
                *layers.entry(s.layer()).or_insert(0.0) += s.self_s();
            }
        }
        for (name, dur) in probes {
            names.entry(name).or_insert(dur);
        }
        by_name.push(names);
        by_layer.push(layers);
    }
    let span = |name: &str| {
        median(
            by_name
                .iter()
                .map(|b| b.get(name).copied().unwrap_or(0.0))
                .collect(),
        )
    };
    let first = &traced[0];
    let seq = &first.seq;
    let events = seq.total_events() as f64;

    m("topology.generate_s", span("topology.generate"), "s");
    m("routing.build_s", span("routing.build"), "s");
    m(
        "routing.table_bytes",
        b.study.tables.table_bytes() as f64,
        "bytes",
    );
    // The engine forwards for exactly these pairs, in schedule order.
    let pairs: Vec<_> = b.flows.iter().map(|f| (f.src, f.dst)).collect();
    let hop = median(
        (0..5)
            .map(|_| micro::hop_ns(&b.study.net, &b.study.tables, &pairs, 0.05).unwrap_or(f64::NAN))
            .collect(),
    );
    m("routing.hop_ns", hop, "ns");
    m("traffic.gen_s", span("traffic.gen"), "s");
    m("traffic.flows", b.flows.len() as f64, "count");
    m("traffic.packets", total_packets(&b.flows) as f64, "count");
    m("lint.preflight_s", span("lint.preflight"), "s");
    m("lint.audit_s", span("lint.audit"), "s");
    // The program's own stage spans from `MappingStudy::map_obs`.
    m(
        "mapping.profiling_run_s",
        span("mapping/profile/profiling_run"),
        "s",
    );
    m(
        "mapping.accumulate_measured_s",
        span("mapping/profile/traffic_graph"),
        "s",
    );
    m("mapping.latency_graph_s", span("mapping/top/weights"), "s");
    m(
        "mapping.accumulate_predicted_s",
        span("mapping/place/weights"),
        "s",
    );
    m(
        "mapping.netflow_records",
        first.netflow_records.unwrap_or(0) as f64,
        "count",
    );
    m(
        "mapping.migrated_nodes",
        first.ran().migrated_nodes as f64,
        "count",
    );
    m("mapping.remaps", first.ran().remaps as f64, "count");
    m("partition.kway_s", span("partition/top"), "s");
    let g = latency_graph(&b.study.net);
    m(
        "partition.edge_cut",
        edge_cut(&g, &first.partition.part) as f64,
        "weight",
    );
    m(
        "partition.max_part_ratio",
        worst_balance(&g, &first.partition.part, first.partition.nparts),
        "ratio",
    );
    let (seq_s, thr_s) = (span("engine.seq"), span("engine.thr"));
    m("engine.seq_s", seq_s, "s");
    m("engine.thr_s", thr_s, "s");
    let traced_events: f64 = traced.iter().map(|i| i.seq.total_events() as f64).sum();
    m(
        "engine.thr_events_per_s",
        traced_events / traced.iter().map(|i| i.ran().thr_s).sum::<f64>(),
        "events/s",
    );
    m("engine.replay_s", span("engine.replay"), "s");
    m("engine.online_s", span("engine.online"), "s");
    m("engine.events", events, "count");
    m("engine.rounds", seq.rounds as f64, "count");
    m(
        "engine.events_per_round",
        events / seq.rounds.max(1) as f64,
        "events",
    );
    m(
        "engine.remote_messages",
        seq.remote_messages as f64,
        "count",
    );
    m(
        "engine.remote_frac",
        seq.remote_messages as f64 / events.max(1.0),
        "ratio",
    );
    m(
        "engine.stall_rounds",
        seq.engine_stalls.iter().sum::<u64>() as f64,
        "count",
    );
    let queue_peak = seq.engine_queue_peak.iter().copied().max().unwrap_or(0);
    m("engine.queue_peak", queue_peak as f64, "count");
    let reallocs: u64 = seq.engine_reallocs.iter().sum();
    m(
        "engine.reallocs_per_kev",
        1000.0 * reallocs as f64 / events.max(1.0),
        "count/kev",
    );
    m(
        "engine.sched_resizes",
        seq.engine_sched_resizes.iter().sum::<u64>() as f64,
        "count",
    );
    let sched = median(
        (0..5)
            .map(|_| micro::sched_ns_per_op(queue_peak as usize, 1_000, 0.05).unwrap_or(f64::NAN))
            .collect(),
    );
    m("engine.sched_ns_per_op", sched, "ns");
    m(
        "engine.sync_us_per_round",
        1e6 * (thr_s - seq_s) / seq.rounds.max(1) as f64,
        "us",
    );
    m("engine.thr_over_seq", seq_s / thr_s, "ratio");

    for layer in LAYERS {
        m(
            &format!("{layer}.self_s"),
            median(
                by_layer
                    .iter()
                    .map(|l| l.get(layer).copied().unwrap_or(0.0))
                    .collect(),
            ),
            "s",
        );
    }
    let traced_pipeline = med(traced, |i| i.pipeline_s);
    let covered = median(
        by_layer
            .iter()
            .zip(traced)
            .map(|(l, i)| l.values().sum::<f64>() / i.pipeline_s)
            .collect(),
    );
    m("trace.pipeline_s", traced_pipeline, "s");
    m("trace.coverage", covered, "ratio");
    // Step by step, the traced and the untraced pass ran the same variant.
    m(
        "trace.overhead_s",
        median(
            traced
                .iter()
                .zip(plain)
                .map(|(t, u)| t.pipeline_s - u.pipeline_s)
                .collect(),
        ),
        "s",
    );
    m("trace.iterations", traced.len() as f64, "count");
}

impl Outcome {
    /// True when every check of every iteration passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    m.value,
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
