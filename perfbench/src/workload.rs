//! The three workloads: how each builds its inputs from the seed and how
//! it maps them.

use crate::trace::Tracer;
use massf_core::mapping::place::foreground_prediction;
use massf_core::prelude::*;
use massf_core::scenario::clustered_placement;
use massf_core::topology::brite::{self, BriteConfig};
use massf_core::traffic::flow::horizon_us;
use massf_core::traffic::gridnpb::{self, GridNpbConfig};
use massf_core::traffic::http::{self, HttpConfig};
use massf_core::traffic::scalapack::{self, ScalapackConfig};

/// Epochs of the online rebalancing run (`with_epochs(6)`).
pub const ONLINE_EPOCHS: usize = 6;

/// Engines of the synthetic 20k-host network.
pub const BRITE20K_ENGINES: usize = 16;

/// Hosts in the synthetic network's clustered application placement.
pub const BRITE20K_PLACEMENT: usize = 64;

/// The benchmark's workloads. Names are fixed; other documents cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Table 1 Brite, full-scale ScaLapack plus moderate HTTP: event-bound.
    BriteScalapack,
    /// Table 1 TeraGrid, full-scale GridNPB plus moderate HTTP: sync-bound.
    TeragridGridnpb,
    /// `BriteConfig::million_host(0.02)` with TOP and PLACE: mapping-bound.
    Brite20kPlace,
}

impl Bench {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Bench; 3] = [
        Bench::BriteScalapack,
        Bench::TeragridGridnpb,
        Bench::Brite20kPlace,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::BriteScalapack => "brite-scalapack",
            Bench::TeragridGridnpb => "teragrid-gridnpb",
            Bench::Brite20kPlace => "brite20k-place",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything that fixes one run's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Which workload.
    pub bench: Bench,
    /// Workload seed: mapper and HTTP seeds on the Table 1 workloads,
    /// `BriteConfig.seed` (and the HTTP seed) on `brite20k-place`.
    pub seed: u64,
    /// Shrinks every workload to a few-second smoke size.
    pub tiny: bool,
    /// Mapping-pipeline worker threads (pinned to the host's core count).
    pub threads: usize,
}

impl Params {
    /// The Table 1 scenario description, or `None` for `brite20k-place`.
    pub fn scenario(&self) -> Option<Scenario> {
        let (topology, app) = match self.bench {
            Bench::BriteScalapack => (Topology::Brite, Workload::Scalapack),
            Bench::TeragridGridnpb => (Topology::TeraGrid, Workload::GridNpb),
            Bench::Brite20kPlace => return None,
        };
        let mut sc = Scenario::new(topology, app)
            .with_seed(self.seed)
            .with_threads(self.threads)
            .with_epochs(ONLINE_EPOCHS)
            .with_rebalance(RebalanceMode::Incremental);
        if self.tiny {
            sc = sc.with_scale(0.08);
        }
        if let Some(bg) = sc.background.as_mut() {
            bg.seed = self.seed;
        }
        Some(sc)
    }

    /// Input variants one run covers. Mapping quality swings with the
    /// mapper seed, the HTTP seed and the BRITE seed (one seed's imbalance
    /// is 0.08 and another's 0.29 on TeraGrid), so a run averages over
    /// several variants to report a steady figure.
    pub fn variants(&self) -> usize {
        match (self.tiny, self.bench) {
            (true, _) => 2,
            (false, Bench::BriteScalapack) => 12,
            (false, Bench::TeragridGridnpb) => 24,
            // 3.3 s each: as many as fit in a 35 s run beside the
            // resident-set probe and the executors.
            (false, Bench::Brite20kPlace) => 8,
        }
    }

    /// Variants that also run the threaded executor, the replay and the
    /// online run, per cycle. Those cost up to ten times the product path
    /// (1.3 s of threaded run against 0.13 s on TeraGrid) and their timings
    /// swing less with the input than the mapping quality does, so a few
    /// variants measure them and the rest go to more inputs.
    pub fn extra_variants(&self) -> usize {
        3.min(self.variants())
    }

    /// Variants whose product path `peak_rss_mib` measures, each in a
    /// fresh process. The Table 1 footprints move with the input (21 to
    /// 27 MiB on Brite); the synthetic network's is set by its fixed-size
    /// network and tables (within 2 % across seeds) and each probe costs
    /// 3.6 s, so one variant does there.
    pub fn rss_variants(&self) -> usize {
        match self.bench {
            Bench::Brite20kPlace => 1,
            _ => 3.min(self.variants()),
        }
    }

    /// Variant `k` of this run: the same workload with a seed derived from
    /// the workload seed and `k`.
    pub fn variant(&self, k: usize) -> Params {
        Params {
            seed: splitmix(self.seed ^ splitmix(k as u64)),
            ..*self
        }
    }

    /// The approach whose partition the workload emulates under.
    pub fn approach(&self) -> Approach {
        match self.bench {
            Bench::Brite20kPlace => Approach::Place,
            _ => Approach::Profile,
        }
    }
}

/// SplitMix64 finalizer: decorrelates the variant seeds (and hashes the
/// hold model's increments).
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scenario build through the program's own entry point: `Scenario::build`
/// for the Table 1 workloads; the synthetic network has no `Topology`
/// variant, so it is always assembled from the crates' functions.
pub fn setup(p: &Params) -> BuiltScenario {
    match p.scenario() {
        Some(sc) => sc.build(),
        None => setup_brite20k(p, &mut Tracer::off()),
    }
}

/// [`setup`] split into its topology, traffic and routing calls, each in
/// its own span. On the Table 1 workloads this mirrors `Scenario::build`
/// step for step; the caller checks the result equals [`setup`]'s.
pub fn setup_traced(p: &Params, t: &mut Tracer) -> BuiltScenario {
    let Some(sc) = p.scenario() else {
        return setup_brite20k(p, t);
    };
    let net = t.span("topology.generate", || sc.topology.build());
    let (placement, flows, predicted) = t.span("traffic.gen", || {
        let hosts = net.hosts();
        let placement = clustered_placement(&hosts, sc.workload.placement_size());
        let mut flows = match sc.workload {
            Workload::Scalapack => {
                let cfg = ScalapackConfig {
                    matrix_n: ((3000.0 * sc.scale) as usize).max(200),
                    ..Default::default()
                };
                scalapack::flows(&cfg, &placement)
            }
            Workload::GridNpb => {
                let cfg = GridNpbConfig {
                    base_bytes: ((1_200_000.0 * sc.scale) as u64).max(30_000),
                    ..Default::default()
                };
                gridnpb::flows(&cfg, &gridnpb::paper_suite(&cfg), &placement)
            }
        };
        let mut predicted = foreground_prediction(&net, &placement);
        if let Some(bg) = &sc.background {
            let horizon = horizon_us(&flows).max(1_000_000);
            flows.extend(http::generate(&hosts, bg, horizon));
            predicted.extend(http::predict(&hosts, bg));
        }
        flows.sort_by_key(|f| (f.start_us, f.src, f.dst));
        (placement, flows, predicted)
    });
    let cfg = MapperConfig::new(sc.topology.engines())
        .with_seed(sc.seed)
        .with_parallelism(sc.parallelism)
        .with_routing(sc.routing);
    let study = t.span("routing.build", || MappingStudy::new(net, cfg));
    BuiltScenario {
        scenario: sc,
        study,
        placement,
        flows,
        predicted,
    }
}

/// The synthetic network alone: `BriteConfig::million_host(0.02)` seeded
/// with the workload seed.
pub fn brite20k_network(p: &Params) -> Network {
    let scale = if p.tiny { 0.002 } else { 0.02 };
    brite::generate(&BriteConfig {
        seed: p.seed,
        ..BriteConfig::million_host(scale)
    })
}

/// The 20,000-host BRITE network (400 routers, 16 engines) with a 64-host
/// clustered ScaLapack (8×8 process grid, small panels) plus moderate HTTP.
/// PLACE maps it from the predictions; the concrete schedule stays small so
/// that emulation is a minor share of the run.
fn setup_brite20k(p: &Params, t: &mut Tracer) -> BuiltScenario {
    let net = t.span("topology.generate", || brite20k_network(p));
    let (placement, flows, predicted) = t.span("traffic.gen", || {
        let hosts = net.hosts();
        let placement = clustered_placement(&hosts, BRITE20K_PLACEMENT);
        let fg = ScalapackConfig {
            matrix_n: 400,
            grid_rows: 8,
            grid_cols: 8,
            ..Default::default()
        };
        let mut flows = scalapack::flows(&fg, &placement);
        let mut predicted = foreground_prediction(&net, &placement);
        let bg = HttpConfig {
            seed: p.seed,
            ..HttpConfig::moderate_for(hosts.len())
        };
        let horizon = horizon_us(&flows).max(1_000_000);
        flows.extend(http::generate(&hosts, &bg, horizon));
        predicted.extend(http::predict(&hosts, &bg));
        flows.sort_by_key(|f| (f.start_us, f.src, f.dst));
        (placement, flows, predicted)
    });
    let cfg = MapperConfig::new(BRITE20K_ENGINES)
        .with_seed(p.seed)
        .with_threads(p.threads);
    let study = t.span("routing.build", || MappingStudy::new(net, cfg));
    // `BuiltScenario` carries the epoch knobs `run_online` reads. The
    // network here has no `Topology` variant; the description names the
    // generator family it comes from.
    let scenario = Scenario::new(Topology::Brite, Workload::Scalapack)
        .with_seed(p.seed)
        .with_threads(p.threads)
        .with_epochs(ONLINE_EPOCHS)
        .with_rebalance(RebalanceMode::Incremental);
    BuiltScenario {
        scenario,
        study,
        placement,
        flows,
        predicted,
    }
}

/// The workload's mapping through `MappingStudy::map_obs`, the call
/// `MappingStudy::map` makes with a throwaway recorder: PROFILE on the
/// Table 1 workloads, TOP then PLACE on `brite20k-place`. Traced, the
/// program's own `mapping/*` and `partition/*` spans nest in the call's
/// span. Returns the partition the workload emulates under and the
/// profiling run's NetFlow record count (PROFILE only).
pub fn map(p: &Params, b: &BuiltScenario, t: &mut Tracer) -> (Partitioning, Option<u64>) {
    if p.approach() == Approach::Place {
        map_with(Approach::Top, "mapping.map", b, t);
    }
    map_with(p.approach(), "mapping.map", b, t)
}

/// The traced pass's probe of the mapping stages the workload's own
/// mapping does not run, through the same entry point: PLACE on the
/// PROFILE workloads, PROFILE on `brite20k-place`.
pub fn map_probe(p: &Params, b: &BuiltScenario, t: &mut Tracer) -> Option<u64> {
    let other = match p.approach() {
        Approach::Place => Approach::Profile,
        _ => Approach::Place,
    };
    map_with(other, "mapping.probe", b, t).1
}

fn map_with(
    approach: Approach,
    span: &'static str,
    b: &BuiltScenario,
    t: &mut Tracer,
) -> (Partitioning, Option<u64>) {
    t.program(span, |rec| {
        let partition = b.study.map_obs(approach, &b.predicted, &b.flows, rec);
        let records = rec.counters().get("profile.netflow_records").copied();
        (partition, records)
    })
}
