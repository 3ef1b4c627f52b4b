//! # harborsim-des
//!
//! A small, fast, **deterministic** discrete-event simulation (DES) kernel.
//!
//! The kernel is deliberately process-less: events are values scheduled at
//! absolute simulated times, executed in `(time, sequence)` order so that
//! simultaneous events always fire in the order they were scheduled.
//! Every simulation implements [`Event`] on a plain enum of its event
//! kinds; payloads live in a slab arena indexed by a 4-ary min-heap of
//! packed `(time, tie)` keys, so the event loop runs allocation-free.
//! Determinism is a hard requirement for the HarborSim study — the same
//! seed must regenerate byte-identical figures.
//!
//! Building blocks:
//!
//! - [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated clock.
//! - [`EventCore`] — the one pending-event set: slab + heap + clock with
//!   caller-packed keys, cancellation, and a caller-owned loop. The
//!   sharded MPI engine runs one per shard.
//! - [`Engine`] — the serial event loop over one [`EventCore`]; schedule
//!   with [`Engine::schedule_event`] or the cancellable
//!   [`Engine::schedule_cancellable_event`].
//! - [`CoreResource`] — a FIFO server pool with finite capacity (models
//!   NICs, switch pipes, registry connections, daemons...).
//! - [`FluidLink`] — a fair-share ("fluid flow") bandwidth model for shared
//!   links where concurrent transfers split capacity (parallel filesystems,
//!   registry uplinks).
//! - [`rng`] — seedable SplitMix64 streams with label-derived substreams.
//! - [`stats`] — counters, time-weighted means, and fixed-bin histograms.
//! - [`trace`] — typed spans, counters, and deterministic roll-ups: the
//!   [`Recorder`] every simulation layer reports through.

mod arena;
pub mod core;
pub mod engine;
pub mod fluid;
mod heap;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use crate::core::{EventCore, EventId};
pub use engine::{Engine, Event};
pub use fluid::FluidLink;
pub use resource::CoreResource;
pub use rng::RngStream;
pub use time::{SimDuration, SimTime};
pub use trace::{AttrValue, Recorder, Rollup, Span, SpanCategory, TraceBuffer};
