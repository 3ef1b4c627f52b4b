//! Behavioural models of the three container runtimes (and bare metal).
//!
//! What the study distinguishes:
//!
//! | | privilege | namespaces | network data path | image format |
//! |---|---|---|---|---|
//! | Docker | root daemon | all (full isolation) | bridge + NAT | layered tarballs |
//! | Singularity | SUID helper | Mount + PID | host | SIF (squashfs) |
//! | Shifter | SUID + image gateway | Mount + PID | host | UDI (squashfs) |
//!
//! Full isolation is what makes Docker attractive to IT and painful for
//! MPI: with the default bridge network every rank-to-rank message crosses
//! veth+NAT. Singularity and Shifter keep the host's network and IPC
//! namespaces, so MPI traffic is untouched.

use crate::containment::Containment;
use crate::image::ImageFormat;
use harborsim_hw::{InterconnectKind, SoftwareStack};
use harborsim_net::{DataPath, NetworkModel, Topology, TransportSelection};

/// Linux namespaces a runtime unshares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Namespace {
    /// Filesystem mounts.
    Mount,
    /// Process ids.
    Pid,
    /// Network stack.
    Net,
    /// SysV IPC / POSIX queues.
    Ipc,
    /// Hostname.
    Uts,
    /// User/group id mapping.
    User,
    /// Cgroup root.
    Cgroup,
}

/// The execution technologies compared in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// No container: the control every figure compares against.
    BareMetal,
    /// Docker with its root-owned daemon and default bridge networking.
    Docker,
    /// Singularity (SUID model), as deployed on the BSC machines.
    Singularity,
    /// Shifter (NERSC), with its image gateway.
    Shifter,
}

impl RuntimeKind {
    /// Display name as in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::BareMetal => "Bare-metal",
            RuntimeKind::Docker => "Docker",
            RuntimeKind::Singularity => "Singularity",
            RuntimeKind::Shifter => "Shifter",
        }
    }

    /// Namespaces unshared for each rank's container.
    pub fn namespaces(self) -> &'static [Namespace] {
        match self {
            RuntimeKind::BareMetal => &[],
            RuntimeKind::Docker => &[
                Namespace::Mount,
                Namespace::Pid,
                Namespace::Net,
                Namespace::Ipc,
                Namespace::Uts,
                Namespace::Cgroup,
            ],
            RuntimeKind::Singularity | RuntimeKind::Shifter => &[Namespace::Mount, Namespace::Pid],
        }
    }

    /// Whether the runtime needs a root-owned daemon on every compute node
    /// — the reason Docker is absent from the production BSC machines.
    pub fn requires_root_daemon(self) -> bool {
        matches!(self, RuntimeKind::Docker)
    }

    /// The network data path MPI traffic takes under this runtime.
    pub fn data_path(self) -> DataPath {
        match self {
            RuntimeKind::Docker => DataPath::docker_default_bridge(),
            _ => DataPath::Host,
        }
    }

    /// Multiplicative compute slowdown (cgroup accounting, seccomp).
    pub fn compute_tax(self) -> f64 {
        match self {
            RuntimeKind::Docker => 1.02,
            RuntimeKind::Singularity | RuntimeKind::Shifter => 1.003,
            RuntimeKind::BareMetal => 1.0,
        }
    }

    /// On-disk image format consumed at run time.
    pub fn image_format(self) -> Option<ImageFormat> {
        match self {
            RuntimeKind::BareMetal => None,
            RuntimeKind::Docker => Some(ImageFormat::DockerLayered),
            RuntimeKind::Singularity => Some(ImageFormat::SingularitySif),
            RuntimeKind::Shifter => Some(ImageFormat::ShifterUdi),
        }
    }

    /// Per-node container start latency once the image is staged, seconds
    /// (daemon RPC + namespace/cgroup setup vs a SUID exec).
    pub fn start_seconds(self) -> f64 {
        match self {
            RuntimeKind::BareMetal => 0.05,   // exec + loader
            RuntimeKind::Docker => 1.1,       // dockerd create/start, netns, cgroups
            RuntimeKind::Singularity => 0.35, // SUID exec + loop mount
            RuntimeKind::Shifter => 0.55,     // slurm plugin + loop mount
        }
    }

    /// Whether a cluster's installed software stack offers this runtime.
    pub fn available_on(self, stack: &SoftwareStack) -> bool {
        match self {
            RuntimeKind::BareMetal => true,
            RuntimeKind::Docker => stack.docker.is_some(),
            RuntimeKind::Singularity => stack.singularity.is_some(),
            RuntimeKind::Shifter => stack.shifter.is_some(),
        }
    }
}

/// A complete execution choice: runtime plus image containment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecutionEnvironment {
    /// The runtime technology.
    pub runtime: RuntimeKind,
    /// How the image relates to the host stack (ignored for bare metal).
    pub containment: Containment,
}

impl ExecutionEnvironment {
    /// The five environments of the study under the names scripts, the
    /// wire and the CLI give them, in the order the paper introduces them.
    /// A two-word name is a runtime and the containment it needs.
    pub const NAMED: [(&'static str, ExecutionEnvironment); 5] = [
        ("bare-metal", ExecutionEnvironment::bare_metal()),
        ("docker", ExecutionEnvironment::docker()),
        ("shifter", ExecutionEnvironment::shifter()),
        (
            "singularity self-contained",
            ExecutionEnvironment::singularity_self_contained(),
        ),
        (
            "singularity system-specific",
            ExecutionEnvironment::singularity_system_specific(),
        ),
    ];

    /// The environment `name` names. `None` for unknown names.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::NAMED
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, env)| env)
    }

    /// This environment's name, if it is one of the five named ones
    /// (Docker with a system-specific image, say, has none).
    pub fn name(&self) -> Option<&'static str> {
        Self::NAMED
            .iter()
            .find(|(_, env)| env == self)
            .map(|&(n, _)| n)
    }

    /// Bare metal control.
    pub const fn bare_metal() -> Self {
        ExecutionEnvironment {
            runtime: RuntimeKind::BareMetal,
            containment: Containment::SystemSpecific,
        }
    }

    /// Docker with a self-contained image (the only way Docker was run in
    /// the study — it exists only on Lenox, whose fabric is plain TCP).
    pub const fn docker() -> Self {
        ExecutionEnvironment {
            runtime: RuntimeKind::Docker,
            containment: Containment::SelfContained,
        }
    }

    /// Singularity with a host-integrated image.
    pub const fn singularity_system_specific() -> Self {
        ExecutionEnvironment {
            runtime: RuntimeKind::Singularity,
            containment: Containment::SystemSpecific,
        }
    }

    /// Singularity with a fully portable image.
    pub const fn singularity_self_contained() -> Self {
        ExecutionEnvironment {
            runtime: RuntimeKind::Singularity,
            containment: Containment::SelfContained,
        }
    }

    /// Shifter with a self-contained image.
    pub const fn shifter() -> Self {
        ExecutionEnvironment {
            runtime: RuntimeKind::Shifter,
            containment: Containment::SelfContained,
        }
    }

    /// The effective MPI transport selection on a fabric.
    pub fn transport_selection(&self, fabric: InterconnectKind) -> TransportSelection {
        match self.runtime {
            RuntimeKind::BareMetal => TransportSelection::Native,
            _ => self.containment.transport_selection(fabric),
        }
    }

    /// Everything the performance engines see of this environment on
    /// `fabric`. Two environments with equal views run every job in the
    /// same simulated time: the runtime's name itself never reaches an
    /// engine.
    pub fn engine_view(&self, fabric: InterconnectKind) -> EngineView {
        EngineView {
            transport: self.transport_selection(fabric),
            data_path: self.runtime.data_path(),
            compute_tax: self.runtime.compute_tax(),
        }
    }

    /// Legend label ("Singularity system-specific", ...).
    pub fn label(&self) -> String {
        match self.runtime {
            RuntimeKind::BareMetal => "Bare-metal".to_string(),
            r => format!("{} {}", r.label(), self.containment.label()),
        }
    }
}

/// What the performance engines see of an [`ExecutionEnvironment`] on one
/// fabric ([`ExecutionEnvironment::engine_view`]): the MPI transport it
/// selects, the data path its messages take, and its compute tax. A
/// scenario builds its network model and engine configuration from this
/// view alone, so environments with equal views are indistinguishable to
/// both engines (image staging and deployment, which the runtime's name
/// does change, are not part of it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineView {
    /// The MPI transport selected on the fabric.
    pub transport: TransportSelection,
    /// How the runtime's networking wraps that transport.
    pub data_path: DataPath,
    /// Multiplicative compute slowdown.
    pub compute_tax: f64,
}

impl EngineView {
    /// Compose the network model this view observes on `fabric`.
    pub fn network_model(&self, fabric: InterconnectKind, topology: Topology) -> NetworkModel {
        NetworkModel::compose(fabric, self.transport, self.data_path, topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harborsim_hw::presets;

    #[test]
    fn namespace_policies() {
        assert_eq!(RuntimeKind::Docker.namespaces().len(), 6);
        assert_eq!(RuntimeKind::Singularity.namespaces().len(), 2);
        assert!(RuntimeKind::Singularity
            .namespaces()
            .iter()
            .all(|n| !matches!(n, Namespace::Net)));
        assert!(RuntimeKind::Docker
            .namespaces()
            .iter()
            .any(|n| matches!(n, Namespace::Net)));
    }

    #[test]
    fn docker_is_the_only_bridge() {
        assert!(matches!(
            RuntimeKind::Docker.data_path(),
            DataPath::DockerBridge { .. }
        ));
        for r in [
            RuntimeKind::BareMetal,
            RuntimeKind::Singularity,
            RuntimeKind::Shifter,
        ] {
            assert!(matches!(r.data_path(), DataPath::Host), "{r:?}");
        }
    }

    #[test]
    fn availability_follows_cluster_stacks() {
        let lenox = presets::lenox();
        let mn4 = presets::marenostrum4();
        assert!(RuntimeKind::Docker.available_on(&lenox.software));
        assert!(RuntimeKind::Shifter.available_on(&lenox.software));
        assert!(!RuntimeKind::Docker.available_on(&mn4.software));
        assert!(RuntimeKind::Singularity.available_on(&mn4.software));
        assert!(RuntimeKind::BareMetal.available_on(&mn4.software));
    }

    #[test]
    fn start_latency_ordering() {
        assert!(RuntimeKind::BareMetal.start_seconds() < RuntimeKind::Singularity.start_seconds());
        assert!(RuntimeKind::Singularity.start_seconds() < RuntimeKind::Shifter.start_seconds());
        assert!(RuntimeKind::Shifter.start_seconds() < RuntimeKind::Docker.start_seconds());
    }

    #[test]
    fn environment_transport_composition() {
        let env_ss = ExecutionEnvironment {
            runtime: RuntimeKind::Singularity,
            containment: Containment::SystemSpecific,
        };
        let env_sc = ExecutionEnvironment {
            runtime: RuntimeKind::Singularity,
            containment: Containment::SelfContained,
        };
        assert_eq!(
            env_ss.transport_selection(InterconnectKind::InfinibandEdr),
            TransportSelection::Native
        );
        assert_eq!(
            env_sc.transport_selection(InterconnectKind::InfinibandEdr),
            TransportSelection::TcpFallback
        );
        // bare metal ignores containment
        assert_eq!(
            ExecutionEnvironment::bare_metal().transport_selection(InterconnectKind::OmniPath100),
            TransportSelection::Native
        );
    }

    #[test]
    fn labels() {
        let e = ExecutionEnvironment {
            runtime: RuntimeKind::Singularity,
            containment: Containment::SelfContained,
        };
        assert_eq!(e.label(), "Singularity self-contained");
        assert_eq!(ExecutionEnvironment::bare_metal().label(), "Bare-metal");
    }

    #[test]
    fn names_round_trip() {
        for (name, env) in ExecutionEnvironment::NAMED {
            assert_eq!(ExecutionEnvironment::by_name(name), Some(env));
            assert_eq!(env.name(), Some(name));
        }
        let unnamed = ExecutionEnvironment {
            runtime: RuntimeKind::Docker,
            containment: Containment::SystemSpecific,
        };
        assert_eq!(unnamed.name(), None);
        assert_eq!(ExecutionEnvironment::by_name("singularity"), None);
    }

    #[test]
    fn compute_taxes_ordered() {
        assert!(RuntimeKind::Docker.compute_tax() > RuntimeKind::Singularity.compute_tax());
        assert!(RuntimeKind::Singularity.compute_tax() >= RuntimeKind::BareMetal.compute_tax());
    }
}
