//! Analytic plans that differ only in their network count their traffic
//! once per engine.
//!
//! An environment, a spine taper or a degraded link changes capacities
//! and latencies, not which ranks talk over which links. The checks read
//! the engine's own traffic table ([`QueryEngine::traffic_stats`]), which
//! the wire's stats reply does not carry.

use harborsim::hw::presets;
use harborsim::mpi::Placement;
use harborsim::study::lab::wire::encode_response;
use harborsim::study::lab::{LabRequest, LabResponse, QueryEngine};
use harborsim::study::scenario::{Execution, Scenario};
use harborsim::study::workloads;
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::Duration;

/// `fsi-small` on 64 MareNostrum4 nodes (two leaves) at 6 ranks each.
fn base() -> Scenario {
    Scenario::new(
        presets::marenostrum4(),
        workloads::by_name("fsi-small").expect("a registry workload"),
    )
    .nodes(64)
    .ranks_per_node(6)
}

/// Siblings of [`base`]: every environment, a tapered spine and a
/// degraded uplink.
fn siblings() -> Vec<Scenario> {
    vec![
        base(),
        base().execution(Execution::singularity_system_specific()),
        base().execution(Execution::singularity_self_contained()),
        base().spine_taper(0.5),
        base()
            .execution(Execution::singularity_self_contained())
            .spine_taper(0.25),
        base().degrade_node_uplink(5, 0.3),
    ]
}

fn execute(lab: &QueryEngine, scenario: Scenario) -> LabResponse {
    let reply = lab.handle(LabRequest::execute(scenario, 11));
    assert!(matches!(reply, LabResponse::Execute(_)), "{reply:?}");
    reply
}

#[test]
fn plans_that_differ_only_in_their_network_count_their_traffic_once() {
    let lab = QueryEngine::new();
    assert_eq!(lab.traffic_stats().counted, 0, "nothing counted yet");
    let n = siblings().len();
    for sc in siblings() {
        let fresh = sc
            .compile()
            .expect("compiles")
            .execute(11, &mut harborsim::des::trace::Recorder::aggregating());
        let shared = execute(&lab, sc);
        assert_eq!(
            encode_response(&shared),
            encode_response(&LabResponse::Execute(Box::new(fresh))),
            "a cost from shared counts answers as a private one"
        );
    }
    assert_eq!(lab.plans_compiled(), n as u64);
    let stats = lab.traffic_stats();
    assert_eq!(stats.counted, 1, "{n} siblings counted their traffic once");
    assert_eq!(stats.entries, 1);
    assert!(stats.stored_bytes > 0);

    // another placement or another workload is other traffic
    execute(&lab, base().placement(Placement::RoundRobin));
    execute(
        &lab,
        Scenario::new(
            presets::marenostrum4(),
            workloads::by_name("cfd-small").expect("a registry workload"),
        )
        .nodes(64)
        .ranks_per_node(6),
    );
    let stats = lab.traffic_stats();
    assert_eq!((stats.counted, stats.entries), (3, 3));

    // the wire's stats reply says nothing of it
    let wire = encode_response(&lab.handle(LabRequest::Stats));
    assert!(!wire.contains("traffic"), "{wire}");
}

#[test]
fn racing_sibling_first_executes_count_once() {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        for round in 0..16 {
            let lab = QueryEngine::new();
            let start = Barrier::new(2);
            std::thread::scope(|scope| {
                for sc in [base(), base().spine_taper(0.5)] {
                    let (lab, start) = (&lab, &start);
                    scope.spawn(move || {
                        start.wait();
                        execute(lab, sc);
                    });
                }
            });
            let stats = lab.traffic_stats();
            assert_eq!(
                (stats.counted, stats.entries),
                (1, 1),
                "round {round}: two racing siblings counted their traffic once"
            );
        }
        done.send(()).expect("the watchdog waits");
    });
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("racing first executes finished (or one panicked) within the watchdog's time");
}

#[test]
fn evicting_a_patterns_last_plan_drops_its_entry() {
    let lab = QueryEngine::with_capacity(2);
    let other = |rpn: u32| base().nodes(8).ranks_per_node(rpn);
    execute(&lab, base());
    execute(&lab, base().spine_taper(0.5));
    assert_eq!(lab.traffic_stats().entries, 1, "two plans hold one entry");
    // evicts `base()`, the coldest; its sibling still holds the entry
    execute(&lab, other(6));
    let stats = lab.traffic_stats();
    assert_eq!((stats.counted, stats.entries), (2, 2));
    // evicts the sibling, the pattern's last plan: its entry goes
    execute(&lab, other(12));
    let stats = lab.traffic_stats();
    assert_eq!((stats.counted, stats.entries), (3, 2));
    // so the pattern counts afresh when it comes back
    execute(&lab, base());
    let stats = lab.traffic_stats();
    assert_eq!((stats.counted, stats.entries), (4, 2));
    assert_eq!(lab.stats().entries, 2);
}
