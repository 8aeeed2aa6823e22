//! Miniature emulation scenarios the checker explores exhaustively.
//!
//! Model checking pays per interleaving, so these are the smallest
//! configurations that still exercise every protocol mechanism: multiple
//! engines, cross-engine traffic in both directions, and several
//! conservative rounds (so LBTS advances more than once and remote
//! events span window boundaries).

use massf_engine::engine::lookahead_us;
use massf_engine::stepping::SteppableEmulation;
use massf_engine::{EmulationConfig, EmulationReport};
use massf_routing::RoutingTables;
use massf_topology::Network;
use massf_traffic::FlowSpec;

/// One self-contained checking scenario: topology, routes, traffic, and
/// the emulation configuration (whose `nengines` is the thread count).
pub struct Scenario {
    /// Short CLI-stable name.
    pub name: &'static str,
    /// The virtual network.
    pub net: Network,
    /// All-pairs routes over `net`.
    pub tables: RoutingTables,
    /// The flow schedule.
    pub flows: Vec<FlowSpec>,
    /// Run configuration (partition, engine count, cost model).
    pub cfg: EmulationConfig,
    /// Virtual-time horizon the protocol loop runs to (`u64::MAX` runs
    /// every event; a finite horizon stops the run part-way, as an epoch
    /// boundary of a stepped emulation does).
    pub horizon: u64,
}

impl Scenario {
    /// Two engines across one cut link, one flow each direction.
    ///
    /// Topology `h0 — r0 —(cut)— r1 — h1`, partitioned `[0,0 | 1,1]`.
    /// The 200 µs cut latency is the lookahead; the flows are timed so the
    /// run takes a handful of rounds with events crossing the cut in both
    /// directions.
    pub fn two_cross() -> Scenario {
        Self::two_cross_with("two_cross", RoutingTables::build)
    }

    /// [`two_cross`](Self::two_cross) over lazy on-demand routing tables:
    /// the checker proves that racing engines materializing rows through
    /// the shared once-cells still reproduce the sequential reference
    /// bit-for-bit — including the per-engine residency block, which is
    /// structural (the demanded row set) and therefore identical across
    /// every interleaving.
    pub fn two_cross_lazy() -> Scenario {
        Self::two_cross_with("two_cross_lazy", RoutingTables::build_lazy)
    }

    /// [`two_cross`](Self::two_cross) stopped at a horizon inside the run,
    /// the way [`SteppableEmulation::run_until`] stops at an epoch
    /// boundary: the last window's LBTS is capped at the horizon, every
    /// participant must leave the loop in the same round, and the partial
    /// report must equal the stepped sequential one. Events still pending
    /// at the horizon stay queued in their engines.
    ///
    /// The horizon, 800 µs, falls inside two_cross's fourth window
    /// (`[720, 920)` uncapped), so that window's LBTS is cut to it and
    /// engine 1's event at 870 stays pending. Engine 0 still has an event
    /// below the horizon when engine 1 has none, so a participant that
    /// left the loop on its own next-event time instead of the shared
    /// `gmin` would strand the other at the barrier. Two packets have
    /// been delivered and one is still in flight.
    pub fn two_cross_stepped() -> Scenario {
        Scenario {
            horizon: 800,
            ..Self::two_cross_with("two_cross_stepped", RoutingTables::build)
        }
    }

    fn two_cross_with(name: &'static str, build: fn(&Network) -> RoutingTables) -> Scenario {
        let mut net = Network::new();
        let h0 = net.add_host("h0", 0);
        let r0 = net.add_router("r0", 0);
        let r1 = net.add_router("r1", 1);
        let h1 = net.add_host("h1", 1);
        net.add_link(h0, r0, 100.0, 30);
        net.add_link(r0, r1, 100.0, 200);
        net.add_link(r1, h1, 100.0, 30);
        let tables = build(&net);
        let flows = vec![
            FlowSpec {
                src: h0,
                dst: h1,
                start_us: 0,
                packets: 2,
                bytes: 3_000,
                packet_interval_us: 400,
                window: None,
            },
            FlowSpec {
                src: h1,
                dst: h0,
                start_us: 100,
                packets: 1,
                bytes: 1_500,
                packet_interval_us: 400,
                window: None,
            },
        ];
        Scenario {
            name,
            net,
            tables,
            flows,
            cfg: EmulationConfig::new(vec![0, 0, 1, 1], 2),
            horizon: u64::MAX,
        }
    }

    /// Three engines in a chain, traffic end to end.
    ///
    /// Topology `h0 — r0 —(cut)— r1 —(cut)— r2 — h2`, partitioned
    /// `[0,0 | 1 | 2,2]`. Exercises an engine (the middle one) that only
    /// forwards: it both receives and re-ships remote events.
    pub fn three_chain() -> Scenario {
        let mut net = Network::new();
        let h0 = net.add_host("h0", 0);
        let r0 = net.add_router("r0", 0);
        let r1 = net.add_router("r1", 1);
        let r2 = net.add_router("r2", 2);
        let h2 = net.add_host("h2", 2);
        net.add_link(h0, r0, 100.0, 30);
        net.add_link(r0, r1, 100.0, 200);
        net.add_link(r1, r2, 100.0, 200);
        net.add_link(r2, h2, 100.0, 30);
        let tables = RoutingTables::build(&net);
        let flows = vec![
            FlowSpec {
                src: h0,
                dst: h2,
                start_us: 0,
                packets: 1,
                bytes: 1_500,
                packet_interval_us: 400,
                window: None,
            },
            FlowSpec {
                src: h2,
                dst: h0,
                start_us: 50,
                packets: 1,
                bytes: 1_500,
                packet_interval_us: 400,
                window: None,
            },
        ];
        Scenario {
            name: "three_chain",
            net,
            tables,
            flows,
            cfg: EmulationConfig::new(vec![0, 0, 1, 2, 2], 3),
            horizon: u64::MAX,
        }
    }

    /// Every scenario, in CLI order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::two_cross(),
            Scenario::three_chain(),
            Scenario::two_cross_lazy(),
            Scenario::two_cross_stepped(),
        ]
    }

    /// Looks a scenario up by its CLI name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.name == name)
    }

    /// The protocol lookahead for this scenario's partition.
    pub fn lookahead(&self) -> u64 {
        lookahead_us(&self.net, &self.cfg.partition)
    }

    /// The sequential-execution report every explored schedule must
    /// reproduce bit-for-bit: a [`SteppableEmulation`] advanced to the
    /// horizon and finalized (for `u64::MAX`, exactly
    /// [`massf_engine::run_sequential`]).
    pub fn reference(&self) -> EmulationReport {
        let mut emu =
            SteppableEmulation::new(&self.net, &self.tables, &self.flows, self.cfg.clone());
        emu.run_until(self.horizon);
        emu.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_small_but_nontrivial() {
        for s in Scenario::all() {
            let r = s.reference();
            assert!(r.delivered > 0, "{}: nothing delivered", s.name);
            assert!(r.remote_messages > 0, "{}: no cross-engine traffic", s.name);
            assert!(
                (2..=8).contains(&r.rounds),
                "{}: {} rounds — retune the flows so exploration stays cheap",
                s.name,
                r.rounds
            );
        }
    }

    #[test]
    fn stepped_horizon_falls_inside_the_run() {
        let full = Scenario::two_cross().reference();
        let stepped = Scenario::two_cross_stepped().reference();
        assert!(
            stepped.total_events() < full.total_events(),
            "the horizon must stop the run before it drains"
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(Scenario::by_name("two_cross").is_some());
        assert!(Scenario::by_name("nope").is_none());
    }
}
