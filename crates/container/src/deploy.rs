//! The deployment pipeline as a discrete-event simulation.
//!
//! "Deployment overhead" in the study is everything between `sbatch` and
//! the first solver instruction: getting the image onto every node and
//! starting the containers. The interesting behaviour is *contention*:
//!
//! - Docker nodes pull compressed layers from a registry whose uplink they
//!   share, then unpack locally;
//! - Singularity nodes loop-mount one SIF from the parallel filesystem and
//!   fault in the executable's working set — hundreds of nodes at once;
//! - Shifter first pays a one-time gateway conversion (pull + mksquashfs),
//!   then behaves like Singularity against its UDI.
//!
//! Shared pipes (registry uplink, parallel FS) are fair-share
//! [`FluidLink`]s; per-node work is plain event delays.

use crate::image::{ImageFormat, ImageManifest};
use crate::runtime::{ExecutionEnvironment, RuntimeKind};
use harborsim_des::trace::{Recorder, SpanCategory};
use harborsim_des::{Engine, Event, FluidLink, SimDuration, SimTime};
use harborsim_hw::StorageSpec;

/// Bytes of the image a starting container actually reads (binary + shared
/// libraries page in; the rest of the rootfs stays cold). Shared with the
/// open-system staging model in [`crate::storm`].
pub(crate) const WORKING_SET_BYTES: u64 = 260_000_000;
/// Local unpack (gunzip + untar to overlayfs) throughput, bytes/s of
/// uncompressed output.
pub(crate) const UNPACK_BPS: f64 = 180e6;
/// Gateway squashfs pack throughput, bytes/s of input.
pub(crate) const GATEWAY_PACK_BPS: f64 = 80e6;
/// Metadata round-trips to a registry before bytes flow.
pub(crate) const REGISTRY_METADATA_S: f64 = 0.35;

/// A deployment to run.
#[derive(Debug, Clone)]
pub struct DeployPlan {
    /// Number of nodes that must be ready.
    pub nodes: u32,
    /// Runtime + containment.
    pub env: ExecutionEnvironment,
    /// The image being deployed.
    pub image: ImageManifest,
    /// The cluster's shared storage (SIF/UDI home, application home).
    pub shared_storage: StorageSpec,
    /// Registry uplink bandwidth shared by all pulling nodes, bytes/s.
    pub registry_uplink_bps: f64,
    /// Whether the Shifter gateway already converted this image.
    pub shifter_udi_cached: bool,
    /// Whether node-local layer caches already hold this image's layers
    /// (a previous job pulled it): Docker pulls become metadata-only.
    pub docker_layers_cached: bool,
}

/// What the deployment cost.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// Time until the *last* node was ready (job can start).
    pub makespan: SimDuration,
    /// Time until the first node was ready.
    pub first_ready: SimDuration,
    /// Mean node-ready time, seconds.
    pub mean_ready_s: f64,
    /// One-time gateway conversion time (Shifter only), seconds.
    pub gateway_seconds: f64,
    /// Bytes pulled from the registry in total.
    pub bytes_pulled: u64,
    /// Bytes read from the parallel filesystem in total.
    pub bytes_from_pfs: u64,
    /// The image size staged per node (format-specific), bytes.
    pub image_bytes: u64,
}

struct Dep {
    registry: FluidLink<DepEv>,
    pfs: FluidLink<DepEv>,
    /// Compressed bytes of each image layer, pull order.
    layer_bytes: Vec<u64>,
    layers_left: Vec<u32>,
    /// Bytes of the image each node faults in from the parallel FS.
    working_set_bytes: f64,
    unpack_bytes: u64,
    start_s: f64,
    /// Start span name: "process-start" on bare metal, else
    /// "container-start".
    start_name: &'static str,
    remaining: u32,
    /// Always capturing: the report is derived from the recorded spans.
    rec: Recorder,
}

/// The deployment's events; `node` is also the node's trace track.
#[derive(Clone, Copy)]
enum DepEv {
    /// The node resolved the image on shared storage: fault in its
    /// working set from the parallel filesystem.
    ReadWorkingSet {
        node: u32,
    },
    /// The working-set read that started at `t0` finished.
    WorkingSetRead {
        node: u32,
        t0: SimTime,
    },
    /// Warm Docker: the registry metadata check finished.
    MetadataChecked {
        node: u32,
    },
    /// Cold Docker: metadata done, pull every layer concurrently.
    PullLayers {
        node: u32,
    },
    /// One layer pull that started at `t0` finished.
    LayerPulled {
        node: u32,
        t0: SimTime,
    },
    /// The layers are unpacked: start the container.
    Unpacked {
        node: u32,
    },
    /// A node's process or container is up.
    NodeReady,
    RegistryTimer,
    PfsTimer,
}

impl Event<Dep> for DepEv {
    fn fire(self, eng: &mut Engine<Dep, DepEv>, d: &mut Dep) {
        let now = eng.now();
        match self {
            DepEv::ReadWorkingSet { node } => {
                let ws = d.working_set_bytes;
                d.pfs
                    .start_flow(eng, ws, DepEv::WorkingSetRead { node, t0: now });
            }
            DepEv::WorkingSetRead { node, t0 } => {
                d.rec
                    .span(SpanCategory::Pull, "pfs-working-set", node, t0, now);
                d.start(eng, node);
            }
            DepEv::MetadataChecked { node } => {
                d.rec.span(
                    SpanCategory::Pull,
                    "registry-metadata",
                    node,
                    SimTime::ZERO,
                    now,
                );
                d.start(eng, node);
            }
            DepEv::PullLayers { node } => {
                for &bytes in &d.layer_bytes {
                    d.registry
                        .start_flow(eng, bytes as f64, DepEv::LayerPulled { node, t0: now });
                }
            }
            DepEv::LayerPulled { node, t0 } => {
                d.rec.span(SpanCategory::Pull, "layer-pull", node, t0, now);
                d.layers_left[node as usize] -= 1;
                if d.layers_left[node as usize] == 0 {
                    // all layers local: unpack, then start
                    let unpack = SimDuration::from_secs_f64(d.unpack_bytes as f64 / UNPACK_BPS);
                    d.rec.span(
                        SpanCategory::Unpack,
                        "unpack-layers",
                        node,
                        now,
                        now + unpack,
                    );
                    eng.schedule_event(unpack, DepEv::Unpacked { node });
                }
            }
            DepEv::Unpacked { node } => d.start(eng, node),
            DepEv::NodeReady => d.remaining -= 1,
            DepEv::RegistryTimer => FluidLink::on_timer(eng, d, |d| &mut d.registry),
            DepEv::PfsTimer => FluidLink::on_timer(eng, d, |d| &mut d.pfs),
        }
    }
}

impl Dep {
    /// Start `node`'s process or container now; it is ready once started.
    fn start(&mut self, eng: &mut Engine<Dep, DepEv>, node: u32) {
        let now = eng.now();
        let start = SimDuration::from_secs_f64(self.start_s);
        self.rec
            .span(SpanCategory::Start, self.start_name, node, now, now + start);
        eng.schedule_event(start, DepEv::NodeReady);
    }
}

impl DeployPlan {
    /// Run the deployment, emitting pull / convert / unpack / start spans
    /// through `rec` (one track per node; the Shifter gateway conversion
    /// on track `nodes`). Pass [`Recorder::off`] for the untraced path.
    /// The report is a *derived view* over the trace: per-node ready times
    /// are the ends of the `Start` spans, the gateway time is the
    /// `Convert` span, and the byte totals are trace counters.
    pub fn run(&self, rec: &mut Recorder) -> DeploymentReport {
        let n = self.nodes as usize;
        let format = self.env.runtime.image_format();
        let image_bytes = format.map_or(0, |f| self.image.size_bytes(f));
        let pfs_bw = self.shared_storage.shared_bandwidth_bps(self.nodes);
        let meta_s = self.shared_storage.metadata_op_s();

        let mut dep = Dep {
            registry: FluidLink::new(self.registry_uplink_bps, DepEv::RegistryTimer),
            pfs: FluidLink::new(pfs_bw, DepEv::PfsTimer),
            layer_bytes: self
                .image
                .layers
                .iter()
                .map(|l| l.compressed_bytes())
                .collect(),
            layers_left: vec![self.image.layers.len() as u32; n],
            working_set_bytes: 0.0,
            unpack_bytes: self.image.uncompressed_bytes(),
            start_s: self.env.runtime.start_seconds(),
            start_name: "container-start",
            remaining: self.nodes,
            // the local recorder always captures, whatever the caller's
            // mode: deriving the report needs the span end times
            rec: Recorder::capturing(),
        };
        dep.rec.declare_tracks(self.nodes);
        let mut eng: Engine<Dep, DepEv> = Engine::new();

        let mut gateway_seconds = 0.0;
        let mut bytes_pulled: u64 = 0;
        let mut bytes_from_pfs: u64 = 0;

        match self.env.runtime {
            RuntimeKind::BareMetal => {
                // load the executable + libraries from shared storage
                let ws = WORKING_SET_BYTES.min(170_000_000) as f64;
                bytes_from_pfs = ws as u64 * self.nodes as u64;
                dep.working_set_bytes = ws;
                dep.start_name = "process-start";
                let delay = SimDuration::from_secs_f64(meta_s * 40.0);
                for node in 0..self.nodes {
                    eng.schedule_event(delay, DepEv::ReadWorkingSet { node });
                }
            }
            RuntimeKind::Docker => {
                let delay = SimDuration::from_secs_f64(REGISTRY_METADATA_S);
                if self.docker_layers_cached {
                    // warm node caches: metadata check + start only
                    for node in 0..self.nodes {
                        eng.schedule_event(delay, DepEv::MetadataChecked { node });
                    }
                } else {
                    bytes_pulled = dep.layer_bytes.iter().sum::<u64>() * self.nodes as u64;
                    for node in 0..self.nodes {
                        eng.schedule_event(delay, DepEv::PullLayers { node });
                    }
                }
            }
            RuntimeKind::Singularity | RuntimeKind::Shifter => {
                // Shifter: one-time gateway conversion before any node starts
                if self.env.runtime == RuntimeKind::Shifter && !self.shifter_udi_cached {
                    let pull = dep.layer_bytes.iter().sum::<u64>();
                    bytes_pulled = pull;
                    gateway_seconds = REGISTRY_METADATA_S
                        + pull as f64 / self.registry_uplink_bps
                        + self.image.uncompressed_bytes() as f64 / GATEWAY_PACK_BPS
                        + self.image.size_bytes(ImageFormat::ShifterUdi) as f64 / pfs_bw.min(1.5e9);
                }
                let ws = WORKING_SET_BYTES.min(image_bytes.max(1)) as f64;
                bytes_from_pfs = ws as u64 * self.nodes as u64;
                dep.working_set_bytes = ws;
                let gw = SimDuration::from_secs_f64(gateway_seconds);
                if gateway_seconds > 0.0 {
                    // the one-time gateway conversion, on its own track
                    dep.rec.span(
                        SpanCategory::Convert,
                        "gateway-conversion",
                        self.nodes,
                        SimTime::ZERO,
                        SimTime::ZERO + gw,
                    );
                }
                // mount: a handful of metadata ops + superblock reads
                let delay = gw + SimDuration::from_secs_f64(meta_s * 6.0);
                for node in 0..self.nodes {
                    eng.schedule_event(delay, DepEv::ReadWorkingSet { node });
                }
            }
        }

        eng.run(&mut dep);
        assert_eq!(dep.remaining, 0, "deployment left nodes unready");
        dep.rec.counter("bytes_pulled", bytes_pulled as f64);
        dep.rec.counter("bytes_from_pfs", bytes_from_pfs as f64);

        // a node is ready when its Start span ends: exactly one per track
        let ready_ns: Vec<u64> = dep
            .rec
            .buffer()
            .spans()
            .iter()
            .filter(|s| s.category == SpanCategory::Start)
            .map(|s| s.end.as_nanos())
            .collect();
        assert_eq!(ready_ns.len(), n, "every node must record a start span");
        let rollup = dep.rec.rollup();
        let report = DeploymentReport {
            makespan: SimDuration::from_nanos(ready_ns.iter().copied().max().unwrap_or(0)),
            first_ready: SimDuration::from_nanos(ready_ns.iter().copied().min().unwrap_or(0)),
            mean_ready_s: ready_ns.iter().map(|&t| t as f64).sum::<f64>() * 1e-9 / n as f64,
            gateway_seconds: rollup.total(SpanCategory::Convert).as_secs_f64(),
            bytes_pulled: rollup.counter("bytes_pulled") as u64,
            bytes_from_pfs: rollup.counter("bytes_from_pfs") as u64,
            image_bytes,
        };
        rec.merge(dep.rec);
        report
    }
}

/// Convenience: deployment overhead of `env` for `image` on a cluster-like
/// storage config, uncached. Pass [`Recorder::off`] for the untraced path.
pub fn deployment_overhead(
    nodes: u32,
    env: ExecutionEnvironment,
    image: &ImageManifest,
    shared_storage: &StorageSpec,
    rec: &mut Recorder,
) -> DeploymentReport {
    DeployPlan {
        nodes,
        env,
        image: image.clone(),
        shared_storage: shared_storage.clone(),
        registry_uplink_bps: 117e6, // registry reached over the cluster uplink
        shifter_udi_cached: false,
        docker_layers_cached: false,
    }
    .run(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{alya_recipe, BuildEngine};
    use crate::containment::Containment;
    use harborsim_hw::CpuModel;

    fn image() -> ImageManifest {
        BuildEngine::self_contained(CpuModel::xeon_e5_2697v3())
            .build(&alya_recipe())
            .unwrap()
            .manifest
    }

    fn env(r: RuntimeKind) -> ExecutionEnvironment {
        ExecutionEnvironment {
            runtime: r,
            containment: Containment::SelfContained,
        }
    }

    #[test]
    fn bare_metal_is_fastest() {
        let img = image();
        let storage = StorageSpec::nfs_small();
        let bare = deployment_overhead(
            4,
            env(RuntimeKind::BareMetal),
            &img,
            &storage,
            &mut Recorder::off(),
        );
        for r in [
            RuntimeKind::Docker,
            RuntimeKind::Singularity,
            RuntimeKind::Shifter,
        ] {
            let rep = deployment_overhead(4, env(r), &img, &storage, &mut Recorder::off());
            assert!(
                rep.makespan > bare.makespan,
                "{r:?} should cost more than bare metal"
            );
        }
    }

    #[test]
    fn docker_pull_dominates_on_small_cluster() {
        let img = image();
        let storage = StorageSpec::nfs_small();
        let docker = deployment_overhead(
            4,
            env(RuntimeKind::Docker),
            &img,
            &storage,
            &mut Recorder::off(),
        );
        let sing = deployment_overhead(
            4,
            env(RuntimeKind::Singularity),
            &img,
            &storage,
            &mut Recorder::off(),
        );
        // each Docker node pulls the full compressed image over a shared
        // 117 MB/s uplink; Singularity reads only the working set
        assert!(
            docker.makespan.as_secs_f64() > 2.0 * sing.makespan.as_secs_f64(),
            "docker {} vs singularity {}",
            docker.makespan,
            sing.makespan
        );
        assert!(docker.bytes_pulled > 4 * 300_000_000);
        assert_eq!(sing.bytes_pulled, 0);
    }

    #[test]
    fn shifter_gateway_pays_once() {
        let img = image();
        let storage = StorageSpec::gpfs();
        let cold = DeployPlan {
            nodes: 4,
            env: env(RuntimeKind::Shifter),
            image: img.clone(),
            shared_storage: storage.clone(),
            registry_uplink_bps: 117e6,
            shifter_udi_cached: false,
            docker_layers_cached: false,
        }
        .run(&mut Recorder::off());
        let warm = DeployPlan {
            nodes: 4,
            env: env(RuntimeKind::Shifter),
            image: img.clone(),
            shared_storage: storage,
            registry_uplink_bps: 117e6,
            shifter_udi_cached: true,
            docker_layers_cached: false,
        }
        .run(&mut Recorder::off());
        assert!(cold.gateway_seconds > 10.0);
        assert_eq!(warm.gateway_seconds, 0.0);
        assert!(
            warm.makespan.as_secs_f64() < cold.makespan.as_secs_f64() / 2.0,
            "cached UDI must deploy much faster: warm {} cold {}",
            warm.makespan,
            cold.makespan
        );
    }

    #[test]
    fn singularity_storm_scales_with_nodes_on_gpfs() {
        let img = image();
        let storage = StorageSpec::gpfs();
        let t = |nodes: u32| {
            deployment_overhead(
                nodes,
                env(RuntimeKind::Singularity),
                &img,
                &storage,
                &mut Recorder::off(),
            )
            .makespan
            .as_secs_f64()
        };
        let small = t(4);
        let large = t(256);
        // 256 nodes x 260 MB working set = 66 GB through a 50 GB/s backend
        assert!(
            large > small,
            "storm must hurt: 4 nodes {small}, 256 nodes {large}"
        );
        assert!(
            large < 60.0,
            "but GPFS absorbs it in under a minute: {large}"
        );
    }

    #[test]
    fn warm_docker_caches_skip_the_pull() {
        let img = image();
        let storage = StorageSpec::nfs_small();
        let cold = DeployPlan {
            nodes: 4,
            env: env(RuntimeKind::Docker),
            image: img.clone(),
            shared_storage: storage.clone(),
            registry_uplink_bps: 117e6,
            shifter_udi_cached: false,
            docker_layers_cached: false,
        }
        .run(&mut Recorder::off());
        let warm = DeployPlan {
            nodes: 4,
            env: env(RuntimeKind::Docker),
            image: img,
            shared_storage: storage,
            registry_uplink_bps: 117e6,
            shifter_udi_cached: false,
            docker_layers_cached: true,
        }
        .run(&mut Recorder::off());
        assert_eq!(warm.bytes_pulled, 0);
        assert!(
            warm.makespan.as_secs_f64() < cold.makespan.as_secs_f64() / 5.0,
            "warm {} vs cold {}",
            warm.makespan,
            cold.makespan
        );
    }

    #[test]
    fn report_invariants() {
        let img = image();
        let rep = deployment_overhead(
            8,
            env(RuntimeKind::Singularity),
            &img,
            &StorageSpec::gpfs(),
            &mut Recorder::off(),
        );
        assert!(rep.first_ready <= rep.makespan);
        // nanosecond rounding of the duration fields vs the f64 mean
        assert!(rep.mean_ready_s <= rep.makespan.as_secs_f64() + 1e-8);
        assert!(rep.mean_ready_s >= rep.first_ready.as_secs_f64() - 1e-8);
        assert!(rep.image_bytes > 0);
    }
}
