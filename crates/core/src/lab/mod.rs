//! The lab: a concurrent query engine over scenario plans.
//!
//! Every consumer of many scenario executions — the experiments, the
//! `reproduce_all` binary, a campaign script, a remote client of the
//! [`daemon`] — routes through one [`QueryEngine`] and its single
//! typed entry point, [`QueryEngine::handle`]: a [`LabRequest`] goes in
//! (plan / execute / batch / campaign / stats), a [`LabResponse`] comes
//! out. The [`wire`] module serializes exactly these types, so the
//! in-process call and the socket query are one code path.
//!
//! A batch request is resolved in two concurrent phases:
//!
//! 1. **Plan resolution.** Each query's scenario is fingerprinted into a
//!    canonical [`PlanKey`] and looked up in the engine's plan cache: an
//!    LRU of `Arc<ScenarioPlan>` behind one mutex, with *single-flight*
//!    deduplication per key — N concurrent identical queries trigger
//!    exactly one compile (and, for deployment scenarios, one image
//!    build) while the other N−1 block on the in-flight slot. Compiles
//!    run outside the lock. Cache activity is exported through the trace
//!    layer as [`SpanCategory::Cache`] spans plus `plan_cache_*`
//!    counters.
//! 2. **Execution.** The resolved `(plan, seed)` work items are spread
//!    across the `harborsim-par` work-stealing pool, and each runs its
//!    own [`ScenarioPlan::execute`]. Results return in submission order;
//!    per-query trace attribution flows through the caller's
//!    [`Recorder`].
//!
//! Fingerprinting is sound because plans are a pure function of the
//! scenario builder plus the engine-level taper fallback (see
//! [`Scenario::compile_with`]): there is no process-global state left to
//! leak into a compiled plan. Workloads opt into fingerprinting via
//! [`AlyaCase::memo_key`](harborsim_alya::workload::AlyaCase::memo_key);
//! a case without one makes its queries *uncacheable* — compiled fresh
//! every time, never a wrong-plan hit.

pub mod daemon;
pub mod protocol;
pub mod wire;

pub use protocol::{
    CampaignReport, CampaignResult, CampaignRow, CampaignRowKind, DaemonStats, EngineStats,
    LabRequest, LabResponse, PlanInfo,
};

use crate::error::HarborError;
use crate::scenario::{EngineKind, Outcome, Scenario, ScenarioPlan};
use crate::script::CompiledScript;
use harborsim_container::runtime::ExecutionEnvironment;
use harborsim_des::trace::{Recorder, SpanCategory};
use harborsim_des::{SimDuration, SimTime};
use harborsim_mpi::Placement;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One unit of lab work: a scenario and the seeds to execute it under.
pub struct Query {
    /// The scenario (consumed: plans are cached by fingerprint, not by
    /// scenario identity).
    pub scenario: Scenario,
    /// Seeds to execute, in order.
    pub seeds: Vec<u64>,
}

impl Query {
    /// A query over `scenario` for every seed in `seeds`.
    pub fn new(scenario: Scenario, seeds: &[u64]) -> Query {
        Query {
            scenario,
            seeds: seeds.to_vec(),
        }
    }
}

/// Canonical fingerprint of everything that can change a compiled plan.
///
/// Two scenarios with the same key compile to observably identical plans;
/// two scenarios that differ in any behaviour-affecting knob — cluster,
/// case, execution environment, shape, engine, deployment, placement,
/// resolved taper, every degraded-link entry, DES shard count — differ
/// in at least one
/// field. Floats are fingerprinted as bit patterns; the degraded-link
/// multiset is sorted (degradation is multiplicative, so order does not
/// matter to the compiled route table). The cluster is held by value and
/// compared through its structural
/// [`identity`](harborsim_hw::ClusterSpec::identity), so building,
/// hashing and comparing a key renders nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    cluster: ClusterKey,
    case: String,
    env: ExecutionEnvironment,
    nodes: u32,
    ranks_per_node: u32,
    threads_per_rank: u32,
    engine: (u8, u32),
    deploy: bool,
    placement: u8,
    taper_bits: Option<u64>,
    degraded: Vec<(u32, u64)>,
    shards: u32,
    open: Option<OpenKey>,
}

/// The open-campaign component of a [`PlanKey`]: every sampled-workload
/// knob, floats as bit patterns, menus in declaration order (order is
/// behaviour — Zipf weight follows rank).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct OpenKey {
    rate: u64,
    horizon: u64,
    tenants: u32,
    node_mix: (u64, Vec<u32>),
    workload_mix: (u64, Vec<String>),
    env_mix: (u64, Vec<ExecutionEnvironment>),
}

impl OpenKey {
    fn of(spec: &crate::open::OpenSpec) -> OpenKey {
        OpenKey {
            rate: spec.rate_per_s.to_bits(),
            horizon: spec.horizon_s.to_bits(),
            tenants: spec.tenants,
            node_mix: (spec.node_mix.s.to_bits(), spec.node_mix.values.clone()),
            workload_mix: (
                spec.workload_mix.s.to_bits(),
                spec.workload_mix.values.clone(),
            ),
            env_mix: (spec.env_mix.s.to_bits(), spec.env_mix.values.clone()),
        }
    }
}

impl PlanKey {
    /// Fingerprint `scenario` under an engine-level taper fallback.
    /// `None` when the workload opted out of memoization (no
    /// [`memo_key`](harborsim_alya::workload::AlyaCase::memo_key)).
    pub fn of(scenario: &Scenario, fallback_taper: Option<f64>) -> Option<PlanKey> {
        let case = scenario.case.memo_key()?;
        let mut degraded: Vec<(u32, u64)> = scenario
            .degraded_uplinks
            .iter()
            .map(|&(node, factor)| (node, factor.to_bits()))
            .collect();
        degraded.sort_unstable();
        Some(PlanKey {
            cluster: ClusterKey(scenario.cluster.clone()),
            case,
            env: scenario.env,
            nodes: scenario.nodes,
            ranks_per_node: scenario.ranks_per_node,
            threads_per_rank: scenario.threads_per_rank,
            engine: match scenario.engine {
                EngineKind::Analytic => (0, 0),
                EngineKind::Des { max_steps_per_kind } => (1, max_steps_per_kind),
            },
            deploy: scenario.deploy,
            placement: match scenario.placement {
                Placement::Block => 0,
                Placement::RoundRobin => 1,
            },
            taper_bits: scenario.spine_taper.or(fallback_taper).map(f64::to_bits),
            degraded,
            shards: scenario.shards,
            open: scenario.open.as_ref().map(OpenKey::of),
        })
    }

    /// A stable 64-bit digest of this key: FNV-1a over the canonical
    /// `Debug` rendering, which covers every field. This is what the
    /// script layer's golden tests compare — two scenarios fingerprint
    /// identically exactly when they compile to observably identical
    /// plans. The rendering is the one keys had when they held the
    /// cluster as its `Debug` string: the cluster component renders as
    /// that string, quoted, so every recorded fingerprint still holds.
    /// It is computed only where it is reported (plan responses,
    /// campaign rows); the cache never renders it and hashes the key
    /// itself instead.
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut fnv = Fnv1a(0xcbf2_9ce4_8422_2325);
        write!(fnv, "{self:?}").expect("hashing a Debug rendering cannot fail");
        fnv.0
    }
}

/// The cluster component of a [`PlanKey`]: equal and hashed through
/// [`ClusterSpec::identity`](harborsim_hw::ClusterSpec::identity), which
/// is never coarser than the spec's `Debug` rendering.
#[derive(Clone)]
struct ClusterKey(harborsim_hw::ClusterSpec);

impl PartialEq for ClusterKey {
    fn eq(&self, other: &ClusterKey) -> bool {
        self.0.identity() == other.0.identity()
    }
}

impl Eq for ClusterKey {}

impl Hash for ClusterKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.identity().hash(state);
    }
}

impl std::fmt::Debug for ClusterKey {
    /// The spec's `Debug` rendering as a quoted string: the bytes the
    /// field wrote when it held that string, which
    /// [`PlanKey::fingerprint`] digests.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&format!("{:?}", self.0), f)
    }
}

/// FNV-1a fed the `Debug` rendering piece by piece as it is formatted,
/// so a fingerprint never allocates the rendering.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A [`PlanKey`] with its hash under the cache's [`RandomState`],
/// computed once per resolve: the cache map reuses it through
/// [`PassThrough`], so a lookup, its insert and the compile's re-insert
/// hash the structural key once between them.
#[derive(Clone, PartialEq, Eq)]
struct HashedKey {
    hash: u64,
    key: PlanKey,
}

impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The cache map's hasher: hands back the hash a [`HashedKey`] carries.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the cache map hashes only HashedKey, which writes one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type CacheMap = HashMap<HashedKey, (Slot, u64), BuildHasherDefault<PassThrough>>;

/// Point-in-time plan cache statistics (see [`QueryEngine::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries served an already-compiled plan.
    pub hits: u64,
    /// Queries that compiled (and inserted) a plan.
    pub misses: u64,
    /// Queries that blocked on another query's in-flight compile.
    pub waits: u64,
    /// Queries whose workload opted out of fingerprinting (compiled
    /// fresh, never cached).
    pub uncached: u64,
    /// Lock acquisitions that found the cache mutex already held (a
    /// `try_lock` failed and the caller had to block).
    pub contended: u64,
    /// Plans currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// The one-line form `reproduce_all` prints and CI asserts on.
    pub fn summary_line(&self) -> String {
        format!(
            "plan cache: {} hits, {} misses, {} in-flight waits, {} uncacheable ({} plans cached)",
            self.hits, self.misses, self.waits, self.uncached, self.entries
        )
    }
}

/// One query after plan resolution: its plan (or compile error), how it
/// was obtained, and the seeds to execute.
type Resolved = (Result<Arc<ScenarioPlan>, HarborError>, Resolution, Vec<u64>);

/// How a query's plan was obtained, with the wall-clock cost.
enum Resolution {
    Hit,
    Miss(std::time::Duration),
    Wait(std::time::Duration),
    Uncached(std::time::Duration),
}

enum Slot {
    Ready(Arc<ScenarioPlan>),
    InFlight(Arc<Flight>),
}

/// The rendezvous N−1 duplicate queries block on while the first compiles.
struct Flight {
    done: Mutex<Option<Result<Arc<ScenarioPlan>, HarborError>>>,
    cv: Condvar,
}

/// LRU plan cache with single-flight deduplication: one keyed map behind
/// one mutex. Compiles run outside the lock, so resolves of other keys
/// proceed while a plan builds; the lock covers only map lookups,
/// inserts and eviction.
struct PlanCache {
    capacity: usize,
    map: Mutex<CacheMap>,
    /// Keyed per cache, so clients cannot aim keys at one map slot.
    hasher: RandomState,
    /// LRU clock, ticked by every lookup; an entry's stamp is its last
    /// use.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    uncached: AtomicU64,
    contended: AtomicU64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` compiled plans.
    fn new(capacity: usize) -> PlanCache {
        assert!(capacity > 0, "a zero-capacity cache cannot single-flight");
        PlanCache {
            capacity,
            map: Mutex::new(CacheMap::default()),
            hasher: RandomState::new(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            uncached: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    fn hashed(&self, key: PlanKey) -> HashedKey {
        HashedKey {
            hash: self.hasher.hash_one(&key),
            key,
        }
    }

    /// Lock the map, counting acquisitions that had to block behind
    /// another holder.
    fn lock(&self) -> std::sync::MutexGuard<'_, CacheMap> {
        match self.map.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.map.lock().expect("a plan cache holder panicked")
            }
            Err(std::sync::TryLockError::Poisoned(e)) => panic!("poisoned plan cache: {e}"),
        }
    }

    /// Resolve `key` to a plan, compiling via `compile` on a miss. At most
    /// one thread compiles any given key at a time; concurrent duplicates
    /// block until the compile lands and then share its result (compile
    /// errors included — [`HarborError`] is `Clone` for exactly this).
    fn resolve(
        &self,
        key: PlanKey,
        compile: impl FnOnce() -> Result<ScenarioPlan, HarborError>,
    ) -> (Result<Arc<ScenarioPlan>, HarborError>, Resolution) {
        let key = self.hashed(key);
        let flight: Arc<Flight>;
        {
            let mut map = self.lock();
            let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            match map.get_mut(&key) {
                Some((Slot::Ready(plan), last_use)) => {
                    *last_use = stamp;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (Ok(Arc::clone(plan)), Resolution::Hit);
                }
                Some((Slot::InFlight(f), _)) => {
                    flight = Arc::clone(f);
                    // fall through to wait, outside the lock
                }
                None => {
                    let f = Arc::new(Flight {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    map.insert(key.clone(), (Slot::InFlight(Arc::clone(&f)), stamp));
                    drop(map);
                    // compile outside the lock: other keys keep
                    // resolving while this one builds
                    let t0 = Instant::now();
                    let compiled = compile().map(Arc::new);
                    let took = t0.elapsed();
                    let mut map = self.lock();
                    match &compiled {
                        Ok(plan) => {
                            let stamp = self.clock.load(Ordering::Relaxed);
                            map.insert(key, (Slot::Ready(Arc::clone(plan)), stamp));
                            self.evict_to_capacity(&mut map);
                        }
                        Err(_) => {
                            map.remove(&key);
                        }
                    }
                    drop(map);
                    *f.done.lock().unwrap() = Some(compiled.clone());
                    f.cv.notify_all();
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return (compiled, Resolution::Miss(took));
                }
            }
        }
        let t0 = Instant::now();
        let mut done = flight.done.lock().unwrap();
        while done.is_none() {
            done = flight.cv.wait(done).unwrap();
        }
        self.waits.fetch_add(1, Ordering::Relaxed);
        (done.clone().unwrap(), Resolution::Wait(t0.elapsed()))
    }

    /// The resident plan for `key`, only if it is ready and `accept`
    /// takes it. Only then is the lookup a hit: it bumps the LRU stamp
    /// and counts. A missing key, an in-flight compile or a refused plan
    /// counts nothing and leaves the cache as it was, so a caller that
    /// falls back to [`PlanCache::resolve`] still resolves exactly once.
    fn ready_if(
        &self,
        key: PlanKey,
        accept: impl FnOnce(&ScenarioPlan) -> bool,
    ) -> Option<Arc<ScenarioPlan>> {
        let key = self.hashed(key);
        let mut map = self.lock();
        match map.get_mut(&key) {
            Some((Slot::Ready(plan), last_use)) if accept(plan) => {
                *last_use = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(plan))
            }
            _ => None,
        }
    }

    /// Evict least-recently-used *ready* plans until residency fits the
    /// capacity; in-flight slots are never evicted (waiters hold their
    /// rendezvous).
    fn evict_to_capacity(&self, map: &mut CacheMap) {
        while map.len() > self.capacity {
            let victim = map
                .iter()
                .filter(|(_, (slot, _))| matches!(slot, Slot::Ready(_)))
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    map.remove(&k);
                }
                None => return,
            }
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            uncached: self.uncached.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            entries: self.map.lock().expect("a plan cache holder panicked").len(),
        }
    }
}

/// Most ranks a plan may have for [`QueryEngine::handle_warm`] to run
/// its execute. A resident plan costs its job once, on its first execute,
/// and every later execute only replays that table, whatever the rank
/// count; so the cap bounds only a first execute's costing, which grows
/// with ranks. On the daemon's hot menu the largest plan (192 ranks)
/// costs in about 41 µs, while a 256-node FSI plan takes milliseconds,
/// which a caller on a latency-critical thread must never pay.
pub const INLINE_MAX_RANKS: u32 = 256;

/// The concurrent query engine every sweep routes through.
///
/// The one entry point is [`QueryEngine::handle`] (or
/// [`QueryEngine::handle_traced`] to attribute trace spans): a typed
/// [`LabRequest`] in, a typed [`LabResponse`] out, identically callable
/// in-process or over the [`daemon`]'s wire protocol.
///
/// Holds the plan cache and the engine-level spine-taper
/// fallback (the explicit replacement for the old process-global
/// override knob): the fallback applies to every query compiled here
/// whose scenario did not pin its own taper, and is part of each
/// [`PlanKey`], so engines with different fallbacks never share plans
/// through a common cache.
pub struct QueryEngine {
    cache: PlanCache,
    fallback_taper: Option<f64>,
    /// Plans this engine compiled successfully (cached or not).
    compiled: AtomicU64,
}

impl Default for QueryEngine {
    fn default() -> QueryEngine {
        QueryEngine::new()
    }
}

impl QueryEngine {
    /// An engine with the default plan capacity (256) and no taper
    /// fallback.
    pub fn new() -> QueryEngine {
        QueryEngine::with_capacity(256)
    }

    /// An engine whose cache holds at most `capacity` plans.
    pub fn with_capacity(capacity: usize) -> QueryEngine {
        QueryEngine {
            cache: PlanCache::new(capacity),
            fallback_taper: None,
            compiled: AtomicU64::new(0),
        }
    }

    /// Set the engine-level spine-taper fallback (`reproduce_all
    /// --ablate-taper` / `--oversub`). Scenario-pinned tapers still win;
    /// see [`Scenario::compile_with`].
    pub fn spine_taper_fallback(mut self, taper: Option<f64>) -> QueryEngine {
        if let Some(t) = taper {
            assert!(
                t > 0.0 && t <= 1.0,
                "taper is a fraction of injection bandwidth"
            );
        }
        self.fallback_taper = taper;
        self
    }

    /// The configured taper fallback.
    pub fn taper(&self) -> Option<f64> {
        self.fallback_taper
    }

    /// Compile one canonical scenario per paper cluster so a resident
    /// engine answers its first interactive queries from a warm cache —
    /// route tables, job profiles, and calibration for all four machines
    /// are resolved before the first request arrives. Returns how many
    /// clusters were primed. Idempotent (re-priming is all cache hits).
    pub fn warm_start(&self) -> usize {
        let mut primed = 0;
        for cluster in harborsim_hw::presets::all() {
            let scenario = Scenario::new(cluster, crate::workloads::artery_cfd_small());
            if self.plan(&scenario).is_ok() {
                primed += 1;
            }
        }
        primed
    }

    /// Handle one typed request. `Execute` runs with a private
    /// aggregating recorder so its outcome carries full attribution (the
    /// lab-routed equivalent of [`Scenario::run`]); every other kind runs
    /// untraced. Use [`QueryEngine::handle_traced`] to attribute spans
    /// to a caller-owned recorder instead.
    pub fn handle(&self, req: LabRequest) -> LabResponse {
        match req {
            LabRequest::Execute { .. } => self.handle_traced(req, &mut Recorder::aggregating()),
            req => self.handle_traced(req, &mut Recorder::off()),
        }
    }

    /// [`QueryEngine::handle`] with explicit trace attribution: cache
    /// activity lands in `rec` as [`SpanCategory::Cache`] spans and
    /// `plan_cache_*` counters, and each execution records into a
    /// [`Recorder::like`] sibling merged back in submission order — so
    /// an aggregating `rec` sees every run and an off `rec` costs
    /// nothing.
    pub fn handle_traced(&self, req: LabRequest, rec: &mut Recorder) -> LabResponse {
        match req {
            LabRequest::Plan { scenario } => {
                let key = PlanKey::of(&scenario, self.fallback_taper);
                // the fingerprint of the key resolved below, rendered once
                let fingerprint = key.as_ref().map(PlanKey::fingerprint);
                match self.resolve(key, &scenario).0 {
                    Ok(plan) => LabResponse::Plan(PlanInfo {
                        fingerprint,
                        engine: plan.engine_name().to_string(),
                        ranks: plan.rank_map().ranks(),
                        deployment: plan.deployment().is_some(),
                    }),
                    Err(e) => LabResponse::Error(e),
                }
            }
            LabRequest::Execute { scenario, seed } => {
                execute_response(self.run_batch(vec![Query::new(*scenario, &[seed])], rec))
            }
            LabRequest::Batch { queries } => LabResponse::Batch(self.run_batch(queries, rec)),
            LabRequest::Campaign { script } => match crate::script::compile_str(&script)
                .map_err(HarborError::from)
                .and_then(|compiled| self.run_script(compiled, rec))
            {
                Ok(report) => LabResponse::Campaign(report),
                Err(e) => LabResponse::Error(e),
            },
            LabRequest::Stats => {
                let cache = self.stats();
                LabResponse::Stats(EngineStats {
                    cache,
                    per_shard: vec![cache],
                    batched_executes: self.batched_executes(),
                    daemon: None,
                })
            }
        }
    }

    /// Answer `req` now only if that is cheap and bounded: an `Execute`
    /// whose plan is already resident, on the analytic engine, with at
    /// most [`INLINE_MAX_RANKS`] ranks. The answer is the one
    /// [`QueryEngine::handle`] gives, with the same spans and counters.
    /// Any other request comes back untouched as
    /// `Err`, having counted nothing, so a later `handle` of it resolves
    /// through the cache exactly once. The daemon's reactor answers warm
    /// queries through this without a thread hand-off.
    ///
    /// # Errors
    /// The request itself, when it is not a warm, small analytic execute.
    pub fn handle_warm(&self, req: LabRequest) -> Result<LabResponse, LabRequest> {
        let LabRequest::Execute { scenario, seed } = req else {
            return Err(req);
        };
        let plan = PlanKey::of(&scenario, self.fallback_taper).and_then(|key| {
            self.cache.ready_if(key, |plan| {
                plan.engine_name() == "analytic" && plan.rank_map().ranks() <= INLINE_MAX_RANKS
            })
        });
        let Some(plan) = plan else {
            return Err(LabRequest::Execute { scenario, seed });
        };
        let resolved = vec![(Ok(plan), Resolution::Hit, vec![seed])];
        let mut rec = Recorder::aggregating();
        Ok(execute_response(self.run_resolved(resolved, &mut rec)))
    }

    /// Resolve one scenario to its (possibly shared) compiled plan — the
    /// in-process primitive under [`LabRequest::Plan`], kept public for
    /// benches and trace capture.
    ///
    /// # Errors
    /// See [`Scenario::compile`].
    pub fn plan(&self, scenario: &Scenario) -> Result<Arc<ScenarioPlan>, HarborError> {
        self.resolve(PlanKey::of(scenario, self.fallback_taper), scenario)
            .0
    }

    /// Resolve `scenario` through the cache under `key`, its
    /// [`PlanKey::of`] under this engine's taper fallback.
    fn resolve(
        &self,
        key: Option<PlanKey>,
        scenario: &Scenario,
    ) -> (Result<Arc<ScenarioPlan>, HarborError>, Resolution) {
        match key {
            Some(key) => self.cache.resolve(key, || self.compile(scenario)),
            None => {
                self.cache.uncached.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                let plan = self.compile(scenario).map(Arc::new);
                (plan, Resolution::Uncached(t0.elapsed()))
            }
        }
    }

    /// Compile `scenario` under this engine's taper fallback, counting
    /// successful compiles.
    fn compile(&self, scenario: &Scenario) -> Result<ScenarioPlan, HarborError> {
        let plan = scenario.compile_with(self.fallback_taper)?;
        self.compiled.fetch_add(1, Ordering::Relaxed);
        Ok(plan)
    }

    /// Run a batch of queries: plans resolve concurrently through the
    /// single-flight cache, then every `(plan, seed)` item runs on the
    /// work-stealing pool. Results come back in
    /// submission order, one `Vec<Outcome>` (seed order) per query; a
    /// query whose scenario fails to compile yields its error without
    /// sinking the batch. The engine behind [`LabRequest::Batch`].
    pub(crate) fn run_batch(
        &self,
        queries: Vec<Query>,
        rec: &mut Recorder,
    ) -> Vec<Result<Vec<Outcome>, HarborError>> {
        // Phase 1 — resolve every query's plan concurrently. Duplicate
        // fingerprints collapse onto one compile via the single-flight
        // cache; distinct ones compile in parallel.
        let resolved = harborsim_par::run(queries, |q| {
            let key = PlanKey::of(&q.scenario, self.fallback_taper);
            self.resolve_query(key, q)
        });
        self.run_resolved(resolved, rec)
    }

    /// Resolve one query's plan under `key`, its [`PlanKey::of`] under
    /// this engine's taper fallback.
    fn resolve_query(&self, key: Option<PlanKey>, q: Query) -> Resolved {
        let (plan, how) = self.resolve(key, &q.scenario);
        (plan, how, q.seeds)
    }

    /// Phase 2 of [`QueryEngine::run_batch`] over queries whose plans are
    /// already resolved: record each resolution, then execute every
    /// `(plan, seed)` item.
    fn run_resolved(
        &self,
        resolved: Vec<Resolved>,
        rec: &mut Recorder,
    ) -> Vec<Result<Vec<Outcome>, HarborError>> {
        for (_, how, _) in &resolved {
            let (name, dur) = match how {
                Resolution::Hit => ("plan-cache-hit", std::time::Duration::ZERO),
                Resolution::Miss(d) => ("plan-compile", *d),
                Resolution::Wait(d) => ("plan-cache-wait", *d),
                Resolution::Uncached(d) => ("plan-compile-uncached", *d),
            };
            let counter = match how {
                Resolution::Hit => "plan_cache_hits",
                Resolution::Miss(_) => "plan_cache_misses",
                Resolution::Wait(_) => "plan_cache_waits",
                Resolution::Uncached(_) => "plan_uncached",
            };
            rec.span(
                SpanCategory::Cache,
                name,
                0,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_secs_f64(dur.as_secs_f64()),
            );
            rec.counter(counter, 1.0);
        }
        // Flatten to (query, seed) items and shard. Each item
        // records into its own sibling recorder; merging back in item
        // order keeps the roll-up deterministic regardless of stealing.
        let mut failures: Vec<Option<HarborError>> = Vec::with_capacity(resolved.len());
        let mut items: Vec<(usize, Arc<ScenarioPlan>, u64)> = Vec::new();
        for (qi, (plan, _, seeds)) in resolved.into_iter().enumerate() {
            match plan {
                Ok(plan) => {
                    failures.push(None);
                    items.extend(seeds.iter().map(|&s| (qi, Arc::clone(&plan), s)));
                }
                Err(e) => failures.push(Some(e)),
            }
        }
        let template = Recorder::like(rec);
        let executed = harborsim_par::run(items, |(qi, plan, seed)| {
            let mut local = template.clone();
            let outcome = plan.execute(seed, &mut local);
            (qi, outcome, local)
        });
        let mut results: Vec<Result<Vec<Outcome>, HarborError>> = failures
            .into_iter()
            .map(|f| match f {
                Some(e) => Err(e),
                None => Ok(Vec::new()),
            })
            .collect();
        for (qi, outcome, local) in executed {
            rec.merge(local);
            if let Ok(outcomes) = &mut results[qi] {
                outcomes.push(outcome);
            }
        }
        results
    }

    /// Run the campaigns of a compiled `.hsim` script — the engine behind
    /// [`LabRequest::Campaign`] and `reproduce_all --script`. Every
    /// campaign's grid runs through the same cache and pool as a
    /// flag-driven run: closed grids as one batch per campaign, open
    /// campaigns through the open-system engine. The script's own
    /// `taper` directive is honoured by pinning it onto runs that did
    /// not pin their own (sound because the *resolved* taper is what a
    /// [`PlanKey`] fingerprints, not its provenance), so a row's
    /// fingerprint does not depend on this engine's taper fallback when
    /// the script sets one.
    ///
    /// # Errors
    /// The first run that fails to compile or execute.
    pub fn run_script(
        &self,
        compiled: CompiledScript,
        rec: &mut Recorder,
    ) -> Result<CampaignReport, HarborError> {
        let script_taper = compiled.taper;
        let fallback_seeds = compiled.seeds.clone();
        let mut campaigns = Vec::with_capacity(compiled.campaigns.len());
        for campaign in compiled.campaigns {
            let seeds: Vec<u64> = campaign.seeds_or(&fallback_seeds).to_vec();
            let mut labels = Vec::with_capacity(campaign.runs.len());
            let mut prints = Vec::with_capacity(campaign.runs.len());
            let mut scenarios = Vec::with_capacity(campaign.runs.len());
            for run in campaign.runs {
                labels.push(if run.labels.is_empty() {
                    "(base)".to_string()
                } else {
                    run.labels.join(" / ")
                });
                let mut scenario = run.scenario;
                if scenario.spine_taper.is_none() {
                    scenario.spine_taper = script_taper;
                }
                // the key resolved below, and its fingerprint
                let key = PlanKey::of(&scenario, self.fallback_taper);
                prints.push(key.as_ref().map_or(0, PlanKey::fingerprint));
                scenarios.push((key, scenario));
            }
            let mut rows = Vec::with_capacity(scenarios.len());
            if scenarios.iter().any(|(_, s)| s.open.is_some()) {
                for ((label, (_, scenario)), print) in labels.into_iter().zip(scenarios).zip(prints)
                {
                    let mut wait = crate::sketch::QuantileSketch::new();
                    let mut jobs = 0u64;
                    let mut utilization = 0.0;
                    for &seed in &seeds {
                        let report = crate::open::run_open_campaign(self, &scenario, seed, rec)?;
                        jobs += report.jobs;
                        utilization += report.utilization;
                        for s in &report.per_runtime {
                            wait.merge(&s.wait);
                        }
                    }
                    utilization /= seeds.len().max(1) as f64;
                    rows.push(CampaignRow {
                        label,
                        fingerprint: print,
                        kind: CampaignRowKind::Open {
                            jobs,
                            utilization,
                            wait_p50_s: wait.p50(),
                            wait_p99_s: wait.p99(),
                        },
                    });
                }
            } else {
                // each row's key is already in hand: resolve under it
                // rather than through `run_batch`, which would render it
                // again
                let resolved = harborsim_par::run(scenarios, |(key, s)| {
                    self.resolve_query(key, Query::new(s, &seeds))
                });
                for ((label, result), print) in labels
                    .into_iter()
                    .zip(self.run_resolved(resolved, rec))
                    .zip(prints)
                {
                    let outcomes = result?;
                    let n = outcomes.len().max(1) as f64;
                    let mean = outcomes
                        .iter()
                        .map(|o| o.elapsed.as_secs_f64())
                        .sum::<f64>()
                        / n;
                    rows.push(CampaignRow {
                        label,
                        fingerprint: print,
                        kind: CampaignRowKind::Closed {
                            mean_elapsed_s: mean,
                        },
                    });
                }
            }
            campaigns.push(CampaignResult {
                name: campaign.name,
                rows,
            });
        }
        Ok(CampaignReport { campaigns })
    }

    /// Current plan cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Always 0: every `(plan, seed)` item runs its own execute, none is
    /// served from another's. The stats wire's `batched_executes` field
    /// and the perfbench counter of that name read it, so it stays until
    /// a versioned wire change drops the field.
    pub fn batched_executes(&self) -> u64 {
        0
    }

    /// Plans this engine has compiled successfully, cached or uncached:
    /// N identical queries through one engine compile exactly one plan.
    pub fn plans_compiled(&self) -> u64 {
        self.compiled.load(Ordering::Relaxed)
    }
}

/// The response to a one-query, one-seed batch: its outcome or its error.
fn execute_response(mut batch: Vec<Result<Vec<Outcome>, HarborError>>) -> LabResponse {
    match batch.remove(0) {
        Ok(mut outcomes) => LabResponse::Execute(Box::new(outcomes.remove(0))),
        Err(e) => LabResponse::Error(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Execution;
    use crate::workloads;
    use harborsim_hw::presets;

    fn scenario(nodes: u32) -> Scenario {
        Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes(nodes)
            .ranks_per_node(14)
    }

    #[test]
    fn batch_matches_direct_execution_in_order() {
        let lab = QueryEngine::new();
        let seeds = [3u64, 5];
        let batch = lab
            .handle(LabRequest::Batch {
                queries: vec![
                    Query::new(scenario(1), &seeds),
                    Query::new(scenario(2), &seeds),
                ],
            })
            .into_batch();
        assert_eq!(batch.len(), 2);
        for (qi, nodes) in [1u32, 2].iter().enumerate() {
            let outcomes = batch[qi].as_ref().expect("compiles");
            assert_eq!(outcomes.len(), seeds.len());
            for (si, &seed) in seeds.iter().enumerate() {
                let direct = scenario(*nodes).run(seed);
                assert_eq!(
                    outcomes[si].elapsed, direct.elapsed,
                    "query {qi} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn identical_queries_share_one_plan() {
        let lab = QueryEngine::new();
        let queries = (0..8).map(|_| Query::new(scenario(2), &[1, 2])).collect();
        let results = lab.handle(LabRequest::Batch { queries }).into_batch();
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(
            lab.plans_compiled(),
            1,
            "8 identical queries must share one compile"
        );
        let stats = lab.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.waits, 7);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn compile_errors_are_shared_not_cached() {
        let lab = QueryEngine::new();
        let bad = || scenario(9); // lenox has 8 nodes
        let results = lab
            .handle(LabRequest::Batch {
                queries: vec![Query::new(bad(), &[1]), Query::new(bad(), &[1])],
            })
            .into_batch();
        for r in &results {
            assert!(matches!(r, Err(HarborError::Placement(_))), "{r:?}");
        }
        // the failed key is not resident: a later resolve retries
        assert_eq!(lab.stats().entries, 0);
        assert!(lab.plan(&bad()).is_err());
    }

    #[test]
    fn cache_counters_flow_into_the_trace_rollup() {
        let lab = QueryEngine::new();
        let mut rec = Recorder::aggregating();
        let queries = (0..3).map(|_| Query::new(scenario(1), &[7])).collect();
        lab.handle_traced(LabRequest::Batch { queries }, &mut rec);
        let ru = rec.rollup();
        assert_eq!(ru.counter("plan_cache_misses"), 1.0);
        assert_eq!(
            ru.counter("plan_cache_hits") + ru.counter("plan_cache_waits"),
            2.0
        );
        assert_eq!(ru.count(SpanCategory::Cache), 3);
        // every query run is attributed through the same recorder
        assert!(ru.count(SpanCategory::Run) == 3);
    }

    #[test]
    fn uncacheable_cases_compile_fresh_every_time() {
        struct Anon;
        impl harborsim_alya::workload::AlyaCase for Anon {
            fn name(&self) -> &str {
                "anonymous"
            }
            fn job_profile(&self, _ranks: u32) -> harborsim_mpi::JobProfile {
                use harborsim_mpi::{JobProfile, StepProfile};
                JobProfile::uniform(
                    StepProfile {
                        flops_per_rank: 1e7,
                        imbalance: 1.0,
                        regions: 1.0,
                        comm: vec![],
                    },
                    3,
                )
            }
        }
        let lab = QueryEngine::new();
        let mk = || {
            Scenario::new(presets::lenox(), Anon)
                .nodes(1)
                .ranks_per_node(4)
        };
        lab.handle(LabRequest::Batch {
            queries: vec![Query::new(mk(), &[1]), Query::new(mk(), &[1])],
        });
        assert_eq!(lab.plans_compiled(), 2);
        let stats = lab.stats();
        assert_eq!(stats.uncached, 2);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn taper_fallback_is_part_of_the_key() {
        let mk = || {
            Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
                .nodes(2)
                .ranks_per_node(48)
        };
        let plain = PlanKey::of(&mk(), None).unwrap();
        let ablated = PlanKey::of(&mk(), Some(1.0)).unwrap();
        assert_ne!(plain, ablated, "fallback must split the key");
        // a builder-pinned taper absorbs the fallback
        let pinned_a = PlanKey::of(&mk().spine_taper(0.5), None).unwrap();
        let pinned_b = PlanKey::of(&mk().spine_taper(0.5), Some(1.0)).unwrap();
        assert_eq!(pinned_a, pinned_b, "builder taper wins over fallback");
    }

    /// The `i`-th of 8 distinct plan keys on Lenox (only 4 nodes, so
    /// distinctness past 4 comes from the ranks-per-node axis).
    fn keyed(i: usize) -> Scenario {
        Scenario::new(presets::lenox(), workloads::artery_cfd_small())
            .execution(Execution::singularity_self_contained())
            .nodes([1u32, 2, 3, 4][i % 4])
            .ranks_per_node(if i < 4 { 14 } else { 7 })
    }

    #[test]
    fn fingerprint_is_pinned() {
        // a change to the hash input (a key field, its Debug rendering)
        // moves this value; the script and wire goldens report it
        let key = PlanKey::of(&scenario(2), None).unwrap();
        assert_eq!(key.fingerprint(), 0xad63_1317_1d03_757a);
    }

    #[test]
    fn lru_evicts_the_coldest_plan() {
        // 5 distinct keys into a capacity-3 cache: residency settles at
        // 3, and the evicted plans are exactly the least-recently-used
        // ones
        let lab = QueryEngine::with_capacity(3);
        for i in 0..5 {
            lab.plan(&keyed(i)).unwrap();
        }
        assert_eq!(lab.stats().entries, 3);
        let before = lab.stats();
        // the three hottest (most recent) keys are 2, 3, 4: all hits
        for i in 2..5 {
            lab.plan(&keyed(i)).unwrap();
        }
        assert_eq!(lab.stats().hits, before.hits + 3);
        // the two coldest were evicted: both recompile
        for i in 0..2 {
            lab.plan(&keyed(i)).unwrap();
        }
        assert_eq!(lab.stats().misses, before.misses + 2);
    }

    #[test]
    fn duplicate_items_in_a_batch_match_the_direct_run_and_trace_per_query() {
        // same scenario, same seed, many times in one batch: every
        // outcome equals the direct run, and run spans stay per query
        let lab = QueryEngine::new();
        let mut rec = Recorder::aggregating();
        let queries = (0..4).map(|_| Query::new(scenario(2), &[9])).collect();
        let batch = lab
            .handle_traced(LabRequest::Batch { queries }, &mut rec)
            .into_batch();
        let direct = scenario(2).run(9);
        for r in &batch {
            let outcomes = r.as_ref().expect("compiles");
            assert_eq!(outcomes[0].elapsed, direct.elapsed);
            assert_eq!(outcomes[0].result.compute, direct.result.compute);
        }
        assert_eq!(rec.rollup().count(SpanCategory::Run), 4);
    }

    #[test]
    fn warm_lookups_count_and_stamp_only_what_they_accept() {
        let lab = QueryEngine::with_capacity(2);
        let des = || {
            scenario(1).engine(EngineKind::Des {
                max_steps_per_kind: 2,
            })
        };
        let refused = |req: Result<LabResponse, LabRequest>| {
            assert!(matches!(req, Err(LabRequest::Execute { seed: 5, .. })));
        };
        // cold: handed back, nothing counted, nothing compiled
        refused(lab.handle_warm(LabRequest::execute(scenario(2), 5)));
        assert_eq!(lab.stats(), CacheStats::default());
        assert_eq!(lab.plans_compiled(), 0);

        // warm: one hit, and the answer `handle` gives
        lab.plan(&scenario(2)).unwrap();
        let before = lab.stats();
        let warm = lab
            .handle_warm(LabRequest::execute(scenario(2), 5))
            .ok()
            .expect("a resident analytic plan answers")
            .into_outcome();
        assert_eq!(lab.stats().hits, before.hits + 1);
        let direct = QueryEngine::new()
            .handle(LabRequest::execute(scenario(2), 5))
            .into_outcome();
        assert_eq!(warm.elapsed, direct.elapsed);
        assert_eq!(warm.result, direct.result);

        // refused even though resident: DES, or over the rank budget
        let big = Scenario::new(presets::marenostrum4(), workloads::artery_cfd_small())
            .nodes(8)
            .ranks_per_node(48);
        const { assert!(8 * 48 > INLINE_MAX_RANKS) };
        for s in [des(), big] {
            let lab = QueryEngine::new();
            lab.plan(&s).unwrap();
            let before = lab.stats();
            refused(lab.handle_warm(LabRequest::execute(s, 5)));
            assert_eq!(lab.stats(), before, "a refused lookup counts nothing");
        }
        assert!(matches!(
            lab.handle_warm(LabRequest::plan(scenario(2))),
            Err(LabRequest::Plan { .. })
        ));

        // an accepted lookup stamps its plan as used and a refused one
        // does not, so the refused plan is the one evicted next
        let lab = QueryEngine::with_capacity(2);
        lab.plan(&scenario(1)).unwrap();
        lab.plan(&des()).unwrap();
        assert!(lab.handle_warm(LabRequest::execute(scenario(1), 5)).is_ok());
        refused(lab.handle_warm(LabRequest::execute(des(), 5)));
        lab.plan(&scenario(4)).unwrap();
        assert!(lab.handle_warm(LabRequest::execute(scenario(1), 5)).is_ok());
        let before = lab.stats();
        lab.plan(&des()).unwrap();
        assert_eq!(lab.stats().misses, before.misses + 1, "DES plan evicted");
    }

    #[test]
    fn warm_start_primes_every_paper_cluster() {
        let lab = QueryEngine::new();
        assert_eq!(lab.warm_start(), 4);
        let stats = lab.stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.misses, 4);
        // idempotent: re-priming is pure hits
        assert_eq!(lab.warm_start(), 4);
        assert_eq!(lab.stats().hits, 4);
        assert_eq!(lab.stats().entries, 4);
    }

    #[test]
    fn campaign_requests_compile_and_run_scripts() {
        let lab = QueryEngine::new();
        let script = "\
seeds quick
campaign \"probe\" {
  cluster lenox
  workload cfd-small
  env singularity self-contained
  rpn 14
  sweep nodes [1, 2]
}
";
        let report = match lab.handle(LabRequest::Campaign {
            script: script.into(),
        }) {
            LabResponse::Campaign(r) => r,
            other => panic!("expected a campaign response, got {other:?}"),
        };
        assert_eq!(report.campaigns.len(), 1);
        assert_eq!(report.campaigns[0].name, "probe");
        let rows = &report.campaigns[0].rows;
        assert_eq!(rows.len(), 2);
        for (row, nodes) in rows.iter().zip([1u32, 2]) {
            let expected = PlanKey::of(&scenario(nodes), None).unwrap().fingerprint();
            assert_eq!(row.fingerprint, expected, "row {}", row.label);
            match row.kind {
                CampaignRowKind::Closed { mean_elapsed_s } => assert!(mean_elapsed_s > 0.0),
                ref k => panic!("closed campaign produced {k:?}"),
            }
        }
    }

    #[test]
    fn campaign_script_errors_are_typed_responses() {
        let lab = QueryEngine::new();
        let resp = lab.handle(LabRequest::Campaign {
            script: "campaign \"x\" {\n  cluster atlantis\n}\n".into(),
        });
        match resp {
            LabResponse::Error(HarborError::Script(e)) => {
                assert!(e.span.line >= 2, "{e}");
                assert!(e.to_string().contains("atlantis"), "{e}");
            }
            other => panic!("expected a script error, got {other:?}"),
        }
    }
}
