//! Lookup microbenches over data-dependent chains.
//!
//! Each step's input is the previous step's output, and every result goes
//! through [`black_box`], so the compiler can neither hoist a lookup out of
//! the loop nor delete it. The work done is checked against an independent
//! count before a time is reported.

use crate::workload::splitmix;
use massf_core::engine::event::{Event, EventKind};
use massf_core::engine::sched::CalendarQueue;
use massf_core::routing::RoutingTables;
use massf_core::topology::{Network, NodeId};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per routing hop, walking every `(src, dst)` pair hop by hop
/// with [`RoutingTables::next_link`]: the node a hop reaches is the source
/// of the next lookup, as in the engine's forwarding loop. Passes over the
/// pairs repeat until `min_s` has elapsed. Returns `None` when a pass's
/// hop count differs from the summed path lengths.
pub fn hop_ns(
    net: &Network,
    tables: &RoutingTables,
    pairs: &[(NodeId, NodeId)],
    min_s: f64,
) -> Option<f64> {
    let expected: u64 = pairs
        .iter()
        .map(|&(s, d)| {
            let mut links = 0u64;
            tables.for_each_hop(s, d, |_, l| links += u64::from(l.is_some()));
            links
        })
        .sum();
    if expected == 0 {
        return None;
    }
    let links = net.links();
    let mut total = 0u64;
    let t0 = Instant::now();
    while total == 0 || t0.elapsed().as_secs_f64() < min_s {
        let mut hops = 0u64;
        for &(src, dst) in black_box(pairs) {
            let mut cur = src;
            while let Some(l) = tables.next_link(cur, dst) {
                let link = &links[black_box(l).0 as usize];
                cur = if link.a == cur { link.b } else { link.a };
                hops += 1;
            }
            if black_box(cur) != dst {
                return None;
            }
        }
        if hops != expected {
            return None;
        }
        total += hops;
    }
    Some(t0.elapsed().as_secs_f64() * 1e9 / total as f64)
}

fn hold_event(time_us: u64, node: NodeId, packet_no: u64) -> Event {
    Event {
        time_us,
        node,
        kind: EventKind::Inject {
            flow: node,
            packet_no,
        },
    }
}

/// Nanoseconds per [`CalendarQueue`] operation under the classic hold
/// model at a constant depth of `depth` pending events: pop the minimum,
/// push one event at its time plus an increment hashed from the popped
/// event. Returns `None` if the queue ever pops out of time order or
/// loses an event.
pub fn sched_ns_per_op(depth: usize, mean_increment_us: u64, min_s: f64) -> Option<f64> {
    let depth = depth.max(1);
    let spread = 2 * mean_increment_us.max(1);
    let mut q = CalendarQueue::new();
    for i in 0..depth as u64 {
        q.push(hold_event(splitmix(i) % spread, i as NodeId, 0));
    }
    let mut ops = 0u64;
    let mut last = 0u64;
    let t0 = Instant::now();
    while ops == 0 || t0.elapsed().as_secs_f64() < min_s {
        for _ in 0..4096 {
            let ev = black_box(q.pop()?);
            if ev.time_us < last {
                return None;
            }
            last = ev.time_us;
            let EventKind::Inject { packet_no, .. } = ev.kind else {
                return None;
            };
            let step = 1 + splitmix(ev.time_us ^ (u64::from(ev.node) << 40) ^ packet_no) % spread;
            q.push(hold_event(ev.time_us + step, ev.node, packet_no + 1));
        }
        ops += 2 * 4096;
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / ops as f64;
    (q.len() == depth).then_some(ns)
}
