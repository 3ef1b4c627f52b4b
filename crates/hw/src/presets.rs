//! The four clusters of the paper, as `ClusterSpec` presets.
//!
//! All figures come from the paper's "Experimental environment" section:
//!
//! | Cluster    | Nodes | CPU                       | Cores/node | Fabric        | Containers installed |
//! |------------|-------|---------------------------|------------|---------------|----------------------|
//! | Lenox      | 4     | 2× Xeon E5-2697v3         | 28         | 1GbE TCP      | Docker 1.11.1, Singularity 2.4.5, Shifter 16.08.3 |
//! | MareNostrum4 | 3456 | 2× Xeon Platinum 8160    | 48         | Omni-Path 100 | Singularity 2.4.2 |
//! | CTE-POWER  | 52    | 2× POWER9 8335-GTG        | 40         | IB EDR        | Singularity 2.5.1 |
//! | ThunderX   | 4     | 2× Cavium CN8890          | 96         | 40GbE TCP     | Singularity 2.5.2 |

use crate::cluster::{ClusterSpec, FabricLayout, InterconnectKind, SoftwareStack};
use crate::cpu::CpuModel;
use crate::node::NodeSpec;
use crate::storage::StorageSpec;
use std::sync::{Arc, OnceLock};

/// Lenox: the four-node Lenovo cluster with administrative rights — the only
/// machine where Docker can run, hence the venue for the Fig. 1 comparison.
pub fn lenox() -> ClusterSpec {
    ClusterSpec {
        name: "Lenox".into(),
        node_count: 4,
        node: NodeSpec::dual_socket(CpuModel::xeon_e5_2697v3(), 128),
        interconnect: InterconnectKind::GigabitEthernet,
        fabric_layout: FabricLayout::single_switch(0.4e-6),
        shared_storage: StorageSpec::nfs_small(),
        local_storage: Some(StorageSpec::local_scratch()),
        software: SoftwareStack {
            docker: Some("1.11.1".into()),
            singularity: Some("2.4.5".into()),
            shifter: Some("16.08.3".into()),
        },
    }
}

/// MareNostrum4: the BSC Tier-0 machine — venue of the Fig. 3 scalability
/// study up to 256 nodes / 12,288 cores.
pub fn marenostrum4() -> ClusterSpec {
    ClusterSpec {
        name: "MareNostrum4".into(),
        node_count: 3456,
        node: NodeSpec::dual_socket(CpuModel::xeon_platinum_8160(), 96),
        interconnect: InterconnectKind::OmniPath100,
        fabric_layout: FabricLayout::fat_tree(48, 0.15e-6, 0.8),
        shared_storage: StorageSpec::gpfs(),
        local_storage: Some(StorageSpec::local_scratch()),
        software: SoftwareStack::singularity_only("2.4.2"),
    }
}

/// CTE-POWER: the BSC POWER9 cluster — venue of the Fig. 2 portability
/// comparison (system-specific vs self-contained on InfiniBand EDR).
pub fn cte_power() -> ClusterSpec {
    ClusterSpec {
        name: "CTE-POWER".into(),
        node_count: 52,
        node: NodeSpec::dual_socket(CpuModel::power9_8335gtg(), 512),
        interconnect: InterconnectKind::InfinibandEdr,
        fabric_layout: FabricLayout::fat_tree(26, 0.12e-6, 1.0),
        shared_storage: StorageSpec::gpfs(),
        local_storage: Some(StorageSpec::local_scratch()),
        software: SoftwareStack::singularity_only("2.5.1"),
    }
}

/// The Mont-Blanc ThunderX mini-cluster: four Armv8 nodes — the third
/// architecture of the portability study.
pub fn thunderx() -> ClusterSpec {
    ClusterSpec {
        name: "ThunderX".into(),
        node_count: 4,
        node: NodeSpec::dual_socket(CpuModel::thunderx_cn8890(), 128),
        interconnect: InterconnectKind::FortyGigEthernet,
        fabric_layout: FabricLayout::single_switch(0.4e-6),
        shared_storage: StorageSpec::nfs_small(),
        local_storage: Some(StorageSpec::local_scratch()),
        software: SoftwareStack::singularity_only("2.5.2"),
    }
}

/// One named preset: canonical name, aliases and constructor.
pub type Named = (&'static str, &'static [&'static str], fn() -> ClusterSpec);

/// The presets under the names scripts, the wire and the CLI give them,
/// in the order the paper introduces the machines.
pub const NAMED: [Named; 4] = [
    ("lenox", &[], lenox),
    ("marenostrum4", &["mn4"], marenostrum4),
    ("cte-power", &["cte"], cte_power),
    ("thunderx", &[], thunderx),
];

fn index(name: &str) -> Option<usize> {
    NAMED
        .iter()
        .position(|(canonical, aliases, _)| *canonical == name || aliases.contains(&name))
}

/// The presets, built once per process in [`NAMED`] order and shared by
/// reference count: every front end that resolves a name gets the same
/// spec, and resolving one clones no cluster.
fn shared() -> &'static [Arc<ClusterSpec>] {
    static SHARED: OnceLock<Vec<Arc<ClusterSpec>>> = OnceLock::new();
    SHARED.get_or_init(|| {
        NAMED
            .iter()
            .map(|(_, _, build)| Arc::new(build()))
            .collect()
    })
}

/// The canonical name `name` resolves to (itself, or the name it is an
/// alias of), without building the preset. `None` for unknown names.
pub fn canonical_name(name: &str) -> Option<&'static str> {
    index(name).map(|i| NAMED[i].0)
}

/// The shared preset a canonical name or alias names. `None` for unknown
/// names.
pub fn by_name(name: &str) -> Option<Arc<ClusterSpec>> {
    index(name).map(|i| Arc::clone(&shared()[i]))
}

/// The canonical name of the preset `cluster` is, matched by structural
/// identity ([`ClusterSpec::identity`]): a preset edited in any field has
/// no name.
pub fn name_of(cluster: &ClusterSpec) -> Option<&'static str> {
    preset_index(cluster).map(|i| NAMED[i].0)
}

/// Where `cluster` sits in [`NAMED`], matched by structural identity. A
/// shared preset is recognised by address before any field is compared.
fn preset_index(cluster: &ClusterSpec) -> Option<usize> {
    let presets = shared();
    if let Some(i) = presets.iter().position(|p| std::ptr::eq(&**p, cluster)) {
        return Some(i);
    }
    let identity = cluster.identity();
    presets.iter().position(|p| p.identity() == identity)
}

/// All four presets, in the order the paper introduces them.
pub fn all() -> Vec<ClusterSpec> {
    NAMED.iter().map(|(_, _, build)| build()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuArch;

    #[test]
    fn paper_core_counts() {
        assert_eq!(lenox().node.cores(), 28);
        assert_eq!(marenostrum4().node.cores(), 48);
        assert_eq!(cte_power().node.cores(), 40);
        assert_eq!(thunderx().node.cores(), 96);
    }

    #[test]
    fn fig3_scale_fits() {
        // 256 nodes x 48 cores = 12,288 cores, as stated in the paper
        let mn4 = marenostrum4();
        assert_eq!(mn4.cores_on(256), 12_288);
        assert!(mn4.node_count >= 256);
    }

    #[test]
    fn three_architectures_for_portability() {
        let archs: Vec<CpuArch> = [marenostrum4(), cte_power(), thunderx()]
            .iter()
            .map(|c| c.node.cpu.arch)
            .collect();
        assert_eq!(
            archs,
            vec![CpuArch::X86_64, CpuArch::Ppc64le, CpuArch::Aarch64]
        );
    }

    #[test]
    fn docker_only_on_lenox() {
        assert!(lenox().software.docker.is_some());
        for c in [marenostrum4(), cte_power(), thunderx()] {
            assert!(c.software.docker.is_none(), "{}", c.name);
            assert!(c.software.singularity.is_some(), "{}", c.name);
        }
    }

    #[test]
    fn fabrics_match_paper() {
        assert_eq!(lenox().interconnect, InterconnectKind::GigabitEthernet);
        assert_eq!(marenostrum4().interconnect, InterconnectKind::OmniPath100);
        assert_eq!(cte_power().interconnect, InterconnectKind::InfinibandEdr);
        assert_eq!(thunderx().interconnect, InterconnectKind::FortyGigEthernet);
    }

    #[test]
    fn all_returns_four() {
        assert_eq!(all().len(), 4);
    }

    #[test]
    fn names_resolve_to_one_shared_spec() {
        let a = by_name("marenostrum4").unwrap();
        let b = by_name("mn4").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "an alias shares its preset");
        assert_eq!(a.identity(), marenostrum4().identity());
    }

    #[test]
    fn names_resolve_and_round_trip() {
        for (name, aliases, _) in NAMED {
            for n in std::iter::once(name).chain(aliases.iter().copied()) {
                assert_eq!(canonical_name(n), Some(name));
                assert_eq!(name_of(&by_name(n).unwrap()), Some(name));
            }
        }
        assert!(by_name("Lenox").is_none());
        let mut edited = lenox();
        edited.node_count += 1;
        assert_eq!(name_of(&edited), None);
    }

    #[test]
    fn fabric_layouts_match_machines() {
        // the two mini-clusters sit behind one managed switch; the BSC
        // machines are fat trees (MN4's spine tapered, CTE's effectively not)
        assert_eq!(lenox().fabric_layout.nodes_per_leaf, None);
        assert_eq!(thunderx().fabric_layout.nodes_per_leaf, None);
        assert_eq!(marenostrum4().fabric_layout.nodes_per_leaf, Some(48));
        assert!((marenostrum4().fabric_layout.spine_taper - 0.8).abs() < 1e-12);
        assert_eq!(cte_power().fabric_layout.nodes_per_leaf, Some(26));
        assert_eq!(cte_power().fabric_layout.spine_taper, 1.0);
    }
}
