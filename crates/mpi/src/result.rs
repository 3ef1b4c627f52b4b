//! Execution results produced by both performance engines.

use harborsim_des::trace::{Rollup, SpanCategory};
use harborsim_des::SimDuration;
use std::borrow::Cow;

/// Where communication time went, by phase family.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommBreakdown {
    /// Halo-exchange time.
    pub halo: SimDuration,
    /// Allreduce time.
    pub allreduce: SimDuration,
    /// Coupling / explicit pairs time.
    pub pairs: SimDuration,
    /// Broadcast + gather + barrier time.
    pub other: SimDuration,
}

impl CommBreakdown {
    /// Derive the breakdown from a trace roll-up: the mean per-track
    /// (per-rank) blocked time in each communication family. This is the
    /// single roll-up both engines share — the analytic engine records its
    /// closed-form phases on one track, the DES engine records measured
    /// per-rank waits on `p` tracks, and this view makes them comparable.
    pub fn from_trace(rollup: &Rollup) -> CommBreakdown {
        CommBreakdown {
            halo: rollup.mean_per_track(SpanCategory::Halo),
            allreduce: rollup.mean_per_track(SpanCategory::Allreduce),
            pairs: rollup.mean_per_track(SpanCategory::Pairs),
            other: rollup.mean_per_track(SpanCategory::Other),
        }
    }

    /// Total communication time.
    pub fn total(&self) -> SimDuration {
        self.halo + self.allreduce + self.pairs + self.other
    }
}

/// How busy one fabric link was over a run. Both engines fill these with
/// the same fluid accounting — total payload bytes over link capacity —
/// so the utilization table is engine-comparable even though the DES
/// engine additionally queues messages on the links. (The DES engine sums
/// integer byte tallies and divides once at the end, so the figure is
/// bit-identical at every shard count.)
#[derive(Debug, Clone, PartialEq)]
pub struct LinkUsage {
    /// Link label from the graph, e.g. `node3:up`, `leaf0:spine-up`:
    /// borrowed from the process-wide table an engine labels links
    /// from ([`LinkGraph::with_labels`](harborsim_net::LinkGraph::with_labels)),
    /// owned when decoded or built by hand.
    pub label: Cow<'static, str>,
    /// Seconds the link spent draining payload bytes at full capacity.
    pub busy_s: f64,
    /// Payload bytes carried.
    pub bytes: u64,
}

/// The outcome of executing a job profile on a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// End-to-end elapsed time of the solver run (excludes deployment).
    pub elapsed: SimDuration,
    /// Time the critical path spent computing.
    pub compute: SimDuration,
    /// Communication time by family (critical-path attribution).
    pub comm: CommBreakdown,
    /// Total messages that crossed a node boundary.
    pub inter_node_msgs: u64,
    /// Total messages that stayed within a node.
    pub intra_node_msgs: u64,
    /// Total bytes that crossed node boundaries.
    pub inter_node_bytes: u64,
    /// Per-link utilization, one entry per link of the route table's graph
    /// (empty for single-node jobs with no inter-node traffic).
    pub links: Vec<LinkUsage>,
    /// Which engine produced this result ("analytic" or "des").
    pub engine: &'static str,
}

impl SimResult {
    /// Fraction of elapsed time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        let e = self.elapsed.as_secs_f64();
        if e == 0.0 {
            0.0
        } else {
            self.comm.total().as_secs_f64() / e
        }
    }

    /// Scale every time and counter by `k` (used to expand truncated jobs
    /// back to full length).
    pub fn scaled(&self, k: f64) -> SimResult {
        let sc = |d: SimDuration| d.mul_f64(k);
        SimResult {
            elapsed: sc(self.elapsed),
            compute: sc(self.compute),
            comm: CommBreakdown {
                halo: sc(self.comm.halo),
                allreduce: sc(self.comm.allreduce),
                pairs: sc(self.comm.pairs),
                other: sc(self.comm.other),
            },
            inter_node_msgs: (self.inter_node_msgs as f64 * k).round() as u64,
            intra_node_msgs: (self.intra_node_msgs as f64 * k).round() as u64,
            inter_node_bytes: (self.inter_node_bytes as f64 * k).round() as u64,
            links: self
                .links
                .iter()
                .map(|l| LinkUsage {
                    label: l.label.clone(),
                    busy_s: l.busy_s * k,
                    bytes: (l.bytes as f64 * k).round() as u64,
                })
                .collect(),
            engine: self.engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = CommBreakdown {
            halo: SimDuration::from_secs(1),
            allreduce: SimDuration::from_secs(2),
            pairs: SimDuration::from_secs(3),
            other: SimDuration::from_secs(4),
        };
        assert_eq!(b.total(), SimDuration::from_secs(10));
    }

    #[test]
    fn comm_fraction_and_scaling() {
        let r = SimResult {
            elapsed: SimDuration::from_secs(10),
            compute: SimDuration::from_secs(6),
            comm: CommBreakdown {
                halo: SimDuration::from_secs(4),
                ..Default::default()
            },
            inter_node_msgs: 100,
            intra_node_msgs: 50,
            inter_node_bytes: 1_000,
            links: vec![LinkUsage {
                label: "node0:up".into(),
                busy_s: 0.5,
                bytes: 1_000,
            }],
            engine: "analytic",
        };
        assert!((r.comm_fraction() - 0.4).abs() < 1e-12);
        let s = r.scaled(2.0);
        assert_eq!(s.elapsed, SimDuration::from_secs(20));
        assert_eq!(s.inter_node_msgs, 200);
        assert_eq!(s.comm.halo, SimDuration::from_secs(8));
        assert!((s.links[0].busy_s - 1.0).abs() < 1e-12);
        assert_eq!(s.links[0].bytes, 2_000);
    }
}
