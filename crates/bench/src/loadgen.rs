//! The shared query menu: twelve small-but-distinct scenarios across the
//! four paper clusters, each compiling to its own plan key.
//!
//! perfbench's serve-hot workload draws its execute requests from this
//! menu (Zipf over the indices, so Zipf over plan keys), and
//! `engine_micro` and the wire, plan-identity and allocation tests pin
//! their requests and fingerprints on it. Its entries and their order
//! are part of what those goldens record. perfbench's own load generator
//! (`perfbench/src/loadgen.rs`) is the one that drives the daemon.

use harborsim_core::scenario::{Execution, Scenario};

/// Menu size; [`menu_scenario`] accepts indices `0..MENU_LEN`.
pub const MENU_LEN: usize = 12;

/// The `i`-th menu entry: small-but-distinct scenarios across the four
/// paper clusters. Every entry compiles to its own plan key, so Zipf
/// over indices is Zipf over plan keys. (`Scenario` is not `Clone` —
/// workloads are boxed traits — so the menu is a constructor, not a
/// table.)
pub fn menu_scenario(i: usize) -> Scenario {
    let lenox = harborsim_hw::presets::lenox;
    let mn4 = harborsim_hw::presets::marenostrum4;
    let cte = harborsim_hw::presets::cte_power;
    let tx = harborsim_hw::presets::thunderx;
    let cfd = harborsim_core::workloads::artery_cfd_small;
    match i {
        // the hot head: the warm-start set itself, one per cluster
        0 => Scenario::new(lenox(), cfd()),
        1 => Scenario::new(mn4(), cfd()),
        2 => Scenario::new(cte(), cfd()),
        3 => Scenario::new(tx(), cfd()),
        // containerized variants
        4 => Scenario::new(lenox(), cfd())
            .execution(Execution::singularity_self_contained())
            .nodes(2)
            .ranks_per_node(14),
        5 => Scenario::new(lenox(), cfd())
            .execution(Execution::docker())
            .nodes(2)
            .ranks_per_node(14),
        6 => Scenario::new(mn4(), cfd())
            .execution(Execution::singularity_system_specific())
            .nodes(2)
            .ranks_per_node(48),
        7 => Scenario::new(cte(), cfd())
            .execution(Execution::singularity_system_specific())
            .nodes(2)
            .ranks_per_node(20),
        // scale-out tail
        8 => Scenario::new(mn4(), cfd())
            .execution(Execution::bare_metal())
            .nodes(4)
            .ranks_per_node(48),
        9 => Scenario::new(lenox(), cfd())
            .execution(Execution::singularity_self_contained())
            .nodes(4)
            .ranks_per_node(14),
        10 => Scenario::new(tx(), cfd())
            .execution(Execution::singularity_self_contained())
            .nodes(2)
            .ranks_per_node(48),
        11 => Scenario::new(lenox(), harborsim_core::workloads::ChainHaloCase)
            .nodes(2)
            .ranks_per_node(14),
        _ => panic!("menu index {i} out of range (menu has {MENU_LEN} entries)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn menu_entries_have_distinct_plan_keys() {
        use harborsim_core::lab::PlanKey;
        let keys: Vec<u64> = (0..MENU_LEN)
            .map(|i| {
                PlanKey::of(&menu_scenario(i), None)
                    .expect("menu scenarios are cacheable")
                    .fingerprint()
            })
            .collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "menu keys collide: {keys:?}");
    }
}
