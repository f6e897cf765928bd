//! # proteus-trace — cycle-level observability for the Proteus simulator
//!
//! The paper's headline claims (Figs. 7–8) are *attribution* claims:
//! where dispatch-stall cycles go, which writes reach NVMM, and why
//! ATOM's retirement serialisation costs what it does. End-of-run
//! aggregates (`CoreStats` / `MemStats`) can state the totals but not
//! explain them; this crate captures the *timeline* the totals come
//! from:
//!
//! * a bounded ring of typed, cycle-stamped [`TraceEvent`]s per
//!   component — dispatch stall runs (with [`StallCause`]), queue
//!   enqueue/dequeue traffic, one reject per request a full queue
//!   turned away, persist events, transaction begin/commit/durable
//!   marks — with oldest-dropped overflow accounting that is always
//!   reported, never silent;
//! * queue-occupancy samples every [`SAMPLE_INTERVAL`] cycles,
//!   aggregated into shared [`Log2Histogram`]s (time-series
//!   distribution, not just the `*_peak_occupancy` point values) and
//!   kept in the ring only where the level changes;
//! * a per-transaction persist critical path ([`TxRecord`]): cycles
//!   from the last store's retirement to the durable commit, broken
//!   down by which queue the laggard entry waited in.
//!
//! Exports: Chrome trace-event JSON (loadable in Perfetto, one track
//! per core / MC queue / cache level) and a self-describing JSONL
//! summary (one flat object per line, with a schema version and an
//! `event` discriminator).
//!
//! Each fact is recorded once, so a traced run is the untraced run,
//! observed: the engine's sleeping cores and jumps replay a skipped
//! window into the trace exactly as they credit its statistics.
//!
//! ## Zero cost when disabled
//!
//! A disabled [`Tracer`] is `Option::None`: no allocation, and every
//! emission site is one branch. The simulator constructs components
//! with disabled tracers unless `System::new_with_trace` is asked for
//! a trace — a guard test asserts a traced-off run's `RunSummary` is
//! identical to the seed behaviour.
//!
//! [`StallCause`]: proteus_types::stats::StallCause
//! [`Log2Histogram`]: proteus_types::stats::Log2Histogram

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod record;
pub mod report;
pub mod ring;
pub mod tracer;

pub use event::{CacheLevel, PersistKind, QueueId, TraceEvent, TraceEventKind};
pub use record::{CommitWait, TxRecord};
pub use report::TraceReport;
pub use ring::EventRing;
pub use tracer::{Tracer, TrackDump, TrackKind, RING_CAPACITY, SAMPLE_INTERVAL};
