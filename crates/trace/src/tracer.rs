//! The per-component tracer handle.
//!
//! Every traced component (each core, the memory controller, the cache
//! sampler) owns one [`Tracer`]. Disabled, it is a single `None` — no
//! buffers, no samples, one branch per emission site. Enabled, it owns a
//! bounded [`EventRing`], per-queue occupancy and wait histograms, and the
//! component's transaction records. Ownership (no sharing, no locks) keeps
//! the simulator `Send` and the hot path branch-predictable.
//!
//! The tracer records each fact once, so a component that sleeps through
//! a window can replay it in bulk: a stall run is one event however many
//! cycles it lasts, and a periodic sample enters the ring only when it
//! differs from the one before (the histograms still see every grid
//! point).

use crate::event::{CacheLevel, QueueId, TraceEvent, TraceEventKind};
use crate::record::TxRecord;
use crate::ring::EventRing;
use proteus_types::stats::{Log2Histogram, StallCause};
use proteus_types::Cycle;

/// Capacity of each component's event ring. When full, the oldest event
/// is dropped and counted (never silently lost).
pub const RING_CAPACITY: usize = 65_536;

/// Queue-occupancy and cache-counter sampling period in cycles: samples
/// fall on the multiples of it.
pub const SAMPLE_INTERVAL: Cycle = 64;

/// Which timeline a tracer's events belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackKind {
    /// One out-of-order core.
    Core(u32),
    /// The memory controller and its queues.
    Mc,
    /// The cache hierarchy (sampled counters).
    Cache,
}

impl TrackKind {
    /// Stable track name used in exports ("core0", "mc", "cache").
    pub fn name(self) -> String {
        match self {
            TrackKind::Core(i) => format!("core{i}"),
            TrackKind::Mc => "mc".to_string(),
            TrackKind::Cache => "cache".to_string(),
        }
    }
}

/// A cache level's `(hits, misses)`.
type Counts = (u64, u64);

#[derive(Debug)]
struct TracerInner {
    kind: TrackKind,
    ring: EventRing,
    /// The next sampling grid point.
    next_sample: Cycle,
    /// The cycle after the last one [`Tracer::sample`] or
    /// [`Tracer::skip`] recorded.
    clock: Cycle,
    /// The last sampled level per queue.
    level: [Option<u32>; QueueId::COUNT],
    /// Per cache level: the cumulative `(hits, misses)` at the last
    /// sample, and the last sampled per-interval delta.
    cache: [(Counts, Option<Counts>); CacheLevel::ALL.len()],
    occupancy: [Log2Histogram; QueueId::COUNT],
    wait: [Log2Histogram; QueueId::COUNT],
    /// The open stall run: its first cycle, cause and length.
    run: Option<(Cycle, StallCause, u64)>,
    stall_cycles: [u64; StallCause::ALL.len()],
    tx_records: Vec<TxRecord>,
}

fn stall_event((at, cause, cycles): (Cycle, StallCause, u64)) -> TraceEvent {
    TraceEvent { at, kind: TraceEventKind::Stall { cause, cycles } }
}

impl TracerInner {
    /// The grid points through `now` not yet sampled: the first, and how
    /// many. Advances the grid past them.
    fn due(&mut self, now: Cycle) -> Option<(Cycle, u64)> {
        let first = self.next_sample;
        self.clock = self.clock.max(now + 1);
        if now < first {
            return None;
        }
        let points = (now - first) / SAMPLE_INTERVAL + 1;
        self.next_sample = first + points * SAMPLE_INTERVAL;
        Some((first, points))
    }

    /// Closes the open stall run into the ring, and every sampled counter
    /// with its value at the last grid point, so a counter that never
    /// changes still ends with an event.
    fn close(&mut self) {
        if let Some(run) = self.run.take() {
            self.ring.push(stall_event(run));
        }
        let Some(at) = self.next_sample.checked_sub(SAMPLE_INTERVAL) else { return };
        for queue in QueueId::ALL {
            if let Some(occupancy) = self.level[queue.slot()] {
                let kind = TraceEventKind::OccupancySample { queue, occupancy };
                self.ring.push(TraceEvent { at, kind });
            }
        }
        for level in CacheLevel::ALL {
            if let (_, Some((hits, misses))) = self.cache[level.slot()] {
                let kind = TraceEventKind::CacheSample { level, hits, misses };
                self.ring.push(TraceEvent { at, kind });
            }
        }
    }
}

/// Everything one tracer captured, detached from the component.
#[derive(Debug, Clone)]
pub struct TrackDump {
    /// Which timeline this is.
    pub kind: TrackKind,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring to make room (0 = lossless).
    pub dropped_oldest: u64,
    /// Occupancy histograms for queues that were sampled at least once.
    pub occupancy: Vec<(QueueId, Log2Histogram)>,
    /// Wait-cycle histograms for queues that recorded at least one wait.
    pub wait: Vec<(QueueId, Log2Histogram)>,
    /// Stall cycles per cause (indexed by [`StallCause::slot`]), counted
    /// outside the ring, so they are exact whatever it dropped.
    pub stall_cycles: [u64; StallCause::ALL.len()],
    /// Persist critical-path records for transactions this track committed.
    pub tx_records: Vec<TxRecord>,
}

impl TrackDump {
    /// Stable track name ("core0", "mc", "cache").
    pub fn name(&self) -> String {
        self.kind.name()
    }
}

/// A component's handle into the trace subsystem.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Option<Box<TracerInner>>,
}

impl Tracer {
    /// The no-op tracer: allocates nothing, records nothing.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Creates a tracer for `kind` with a [`RING_CAPACITY`] ring, or a
    /// disabled one if `enabled` is false.
    pub fn new(kind: TrackKind, enabled: bool) -> Self {
        if enabled {
            Tracer::with_capacity(kind, RING_CAPACITY)
        } else {
            Tracer::disabled()
        }
    }

    /// An enabled tracer whose ring holds `capacity` events.
    pub(crate) fn with_capacity(kind: TrackKind, capacity: usize) -> Self {
        Tracer {
            inner: Some(Box::new(TracerInner {
                kind,
                ring: EventRing::new(capacity),
                next_sample: 0,
                clock: 0,
                level: [None; QueueId::COUNT],
                cache: [((0, 0), None); CacheLevel::ALL.len()],
                occupancy: std::array::from_fn(|_| Log2Histogram::new()),
                wait: std::array::from_fn(|_| Log2Histogram::new()),
                run: None,
                stall_cycles: [0; StallCause::ALL.len()],
                tx_records: Vec::new(),
            })),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Ring capacity (0 when disabled) — the "no buffers when off" guard.
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |t| t.ring.capacity())
    }

    /// Appends a cycle-stamped event. No-op when disabled.
    pub fn emit(&mut self, at: Cycle, kind: TraceEventKind) {
        if let Some(t) = self.inner.as_mut() {
            t.ring.push(TraceEvent { at, kind });
        }
    }

    /// Records that dispatch stalled for `cause` in the `cycles` cycles
    /// from `at`. A stall that continues the open run (same cause, next
    /// cycle) extends it; any other closes it into the ring and opens a
    /// new one. Callers on a per-cycle path check [`Tracer::is_enabled`]
    /// first.
    pub fn stall(&mut self, at: Cycle, cause: StallCause, cycles: u64) {
        let Some(t) = self.inner.as_deref_mut() else { return };
        t.stall_cycles[cause.slot()] += cycles;
        match &mut t.run {
            Some((from, c, n)) if *c == cause && *from + *n == at => *n += cycles,
            run => {
                if let Some(closed) = run.replace((at, cause, cycles)) {
                    t.ring.push(stall_event(closed));
                }
            }
        }
    }

    /// Whether a periodic sample falls due by `now`. Lets callers skip
    /// computing sample values (e.g. aggregating cache stats) on the
    /// overwhelming majority of cycles.
    pub fn sample_due(&self, now: Cycle) -> bool {
        self.inner.as_ref().is_some_and(|t| now >= t.next_sample)
    }

    /// Samples each `(queue, occupancy)` pair at every grid point through
    /// `now` not yet sampled, for a component whose queues held these
    /// levels since its last sample (a jump or a sleep skips grid
    /// points). Every grid point feeds the histogram; a level enters the
    /// ring only when it changes. No-op when disabled.
    pub fn sample(&mut self, now: Cycle, queues: &[(QueueId, u32)]) {
        let Some(t) = self.inner.as_mut() else { return };
        let Some((first, points)) = t.due(now) else { return };
        for &(queue, occupancy) in queues {
            for _ in 0..points {
                t.occupancy[queue.slot()].record(u64::from(occupancy));
            }
            if t.level[queue.slot()].replace(occupancy) != Some(occupancy) {
                let kind = TraceEventKind::OccupancySample { queue, occupancy };
                t.ring.push(TraceEvent { at: first, kind });
            }
        }
    }

    /// Samples each level's cumulative `(level, hits, misses)` counters
    /// at every grid point through `now` not yet sampled, for counters
    /// that held these totals since the last sample. The ring gets the
    /// per-interval deltas, each only when it changes. Callers should
    /// gate the (relatively expensive) stat aggregation on
    /// [`Tracer::sample_due`].
    pub fn sample_cache(&mut self, now: Cycle, levels: &[(CacheLevel, u64, u64)]) {
        let Some(t) = self.inner.as_deref_mut() else { return };
        let Some((first, points)) = t.due(now) else { return };
        for &(level, hits, misses) in levels {
            let (total, last) = &mut t.cache[level.slot()];
            let interval = (hits - total.0, misses - total.1);
            *total = (hits, misses);
            // The first grid point closes the interval with the new
            // counts; any later one closes an interval with none.
            let deltas = [(first, interval), (first + SAMPLE_INTERVAL, (0, 0))];
            for (at, (hits, misses)) in deltas.into_iter().take(points.min(2) as usize) {
                if last.replace((hits, misses)) != Some((hits, misses)) {
                    let kind = TraceEventKind::CacheSample { level, hits, misses };
                    t.ring.push(TraceEvent { at, kind });
                }
            }
        }
    }

    /// Records the `n` cycles after the last one [`Tracer::sample`] or
    /// this call recorded, which the component slept through with its
    /// state frozen: `stall` held dispatch in each of them, and `queues`
    /// are the levels throughout. Exactly what sampling and stalling
    /// every one of those cycles records.
    pub fn skip(&mut self, n: Cycle, stall: Option<StallCause>, queues: &[(QueueId, u32)]) {
        let Some(from) = self.inner.as_ref().map(|t| t.clock).filter(|_| n > 0) else { return };
        if let Some(cause) = stall {
            self.stall(from, cause, n);
        }
        self.sample(from + n - 1, queues);
    }

    /// Records that an entry spent `cycles` waiting in `queue` before
    /// service (fed into the per-queue wait histogram).
    pub fn record_wait(&mut self, queue: QueueId, cycles: u64) {
        if let Some(t) = self.inner.as_mut() {
            t.wait[queue.slot()].record(cycles);
        }
    }

    /// Appends a committed transaction's critical-path record.
    pub fn record_tx(&mut self, rec: TxRecord) {
        if let Some(t) = self.inner.as_mut() {
            t.tx_records.push(rec);
        }
    }

    /// Detaches everything captured so far, leaving the tracer disabled.
    /// The open stall run and the sampled counters are closed into the
    /// ring first. Returns `None` if the tracer was disabled.
    pub fn take_dump(&mut self) -> Option<TrackDump> {
        let mut t = self.inner.take()?;
        t.close();
        let TracerInner { kind, ring, occupancy, wait, stall_cycles, tx_records, .. } = *t;
        let (events, dropped_oldest) = ring.into_parts();
        let keep = |hists: [Log2Histogram; QueueId::COUNT]| {
            QueueId::ALL
                .into_iter()
                .zip(hists)
                .filter(|(_, h)| h.count() > 0)
                .collect::<Vec<(QueueId, Log2Histogram)>>()
        };
        Some(TrackDump {
            kind,
            events,
            dropped_oldest,
            occupancy: keep(occupancy),
            wait: keep(wait),
            stall_cycles,
            tx_records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CommitWait;

    fn kinds(d: &TrackDump) -> Vec<(Cycle, TraceEventKind)> {
        d.events.iter().map(|e| (e.at, e.kind)).collect()
    }

    #[test]
    fn disabled_tracer_is_free_and_inert() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.capacity(), 0);
        assert!(!t.sample_due(0));
        t.emit(1, TraceEventKind::Reject { queue: QueueId::Wpq });
        t.stall(1, StallCause::RobFull, 1);
        t.sample(1, &[(QueueId::Rob, 4)]);
        t.skip(5, Some(StallCause::RobFull), &[(QueueId::Rob, 4)]);
        t.record_wait(QueueId::ReadQ, 9);
        assert!(t.take_dump().is_none());
        assert!(!Tracer::new(TrackKind::Mc, false).is_enabled());
        assert_eq!(Tracer::new(TrackKind::Mc, true).capacity(), RING_CAPACITY);
    }

    #[test]
    fn sampling_respects_interval() {
        let mut t = Tracer::new(TrackKind::Core(0), true);
        for now in 0..200 {
            t.sample(now, &[(QueueId::Rob, now as u32)]);
        }
        let d = t.take_dump().unwrap();
        // Due at 0, 64, 128, 192 — four samples, each a change — and the
        // dump's closing sample at the last grid point.
        let at: Vec<Cycle> = d.events.iter().map(|e| e.at).collect();
        assert_eq!(at, vec![0, 64, 128, 192, 192]);
        let (q, h) = &d.occupancy[0];
        assert_eq!(*q, QueueId::Rob);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 192);
    }

    /// A stall that continues the open run extends it, by one cycle or by
    /// a slept window; a new cause or a gap closes it into the ring.
    #[test]
    fn stall_runs_coalesce_and_extend_by_skipped_cycles() {
        let mut t = Tracer::new(TrackKind::Core(0), true);
        t.sample(10, &[]);
        t.stall(10, StallCause::RobFull, 1);
        t.skip(5, Some(StallCause::RobFull), &[]); // cycles 11..=15
        t.sample(16, &[]);
        t.stall(16, StallCause::RobFull, 1);
        t.stall(17, StallCause::LogQFull, 1);
        t.stall(19, StallCause::LogQFull, 1); // a gap at 18
        let d = t.take_dump().unwrap();
        let stall = |cause, cycles| TraceEventKind::Stall { cause, cycles };
        assert_eq!(
            kinds(&d),
            vec![
                (10, stall(StallCause::RobFull, 7)),
                (17, stall(StallCause::LogQFull, 1)),
                (19, stall(StallCause::LogQFull, 1)),
            ]
        );
        assert_eq!(d.stall_cycles[StallCause::RobFull.slot()], 7);
        assert_eq!(d.stall_cycles[StallCause::LogQFull.slot()], 2);
    }

    /// Sampling through a window fills every grid point it skipped with
    /// the held levels, so a slept or jumped run feeds the histograms
    /// exactly as per-cycle sampling does.
    #[test]
    fn skipped_grid_points_are_backfilled() {
        let (mut stepped, mut slept) =
            (Tracer::new(TrackKind::Core(0), true), Tracer::new(TrackKind::Core(0), true));
        let levels = |now: Cycle| [(QueueId::Rob, if now < 100 { 3 } else { 9 })];
        for now in 0..300 {
            stepped.sample(now, &levels(now));
        }
        slept.sample(0, &levels(0));
        slept.skip(99, None, &levels(0)); // cycles 1..=99
        slept.sample(300 - 1, &levels(100)); // a jump to 299
        let (a, b) = (stepped.take_dump().unwrap(), slept.take_dump().unwrap());
        assert_eq!(a.occupancy, b.occupancy);
        assert_eq!(a.occupancy[0].1.count(), 5); // 0, 64, 128, 192, 256
        assert_eq!(kinds(&a), kinds(&b));
    }

    /// Only changes enter the ring, and the dump closes a counter that
    /// held its value with that value at the last grid point. Cache
    /// samples carry per-interval deltas.
    #[test]
    fn samples_enter_the_ring_only_on_change() {
        let mut t = Tracer::new(TrackKind::Mc, true);
        for now in 0..=256 {
            t.sample(now, &[(QueueId::Lpq, 0), (QueueId::Wpq, u32::from(now >= 128))]);
        }
        let occ = |queue, occupancy| TraceEventKind::OccupancySample { queue, occupancy };
        let d = t.take_dump().unwrap();
        assert_eq!(
            kinds(&d),
            vec![
                (0, occ(QueueId::Lpq, 0)),
                (0, occ(QueueId::Wpq, 0)),
                (128, occ(QueueId::Wpq, 1)),
                (256, occ(QueueId::Wpq, 1)), // the dump closes each counter
                (256, occ(QueueId::Lpq, 0)),
            ]
        );
        assert_eq!(d.occupancy[0].1.count(), 5);

        let mut t = Tracer::new(TrackKind::Cache, true);
        t.sample_cache(0, &[(CacheLevel::L3, 0, 0)]);
        t.sample_cache(64, &[(CacheLevel::L3, 10, 2)]);
        t.sample_cache(128, &[(CacheLevel::L3, 20, 4)]);
        t.sample_cache(400, &[(CacheLevel::L3, 25, 4)]); // a jump over 192..=384
        let cache =
            |hits, misses| TraceEventKind::CacheSample { level: CacheLevel::L3, hits, misses };
        assert_eq!(
            kinds(&t.take_dump().unwrap()),
            vec![
                (0, cache(0, 0)),
                (64, cache(10, 2)),
                (192, cache(5, 0)),
                (256, cache(0, 0)),
                (384, cache(0, 0)),
            ]
        );
    }

    #[test]
    fn dump_carries_records_waits_and_drops() {
        let mut t = Tracer::with_capacity(TrackKind::Mc, 4);
        for at in 0..9 {
            t.emit(at, TraceEventKind::Persist(crate::event::PersistKind::WpqCoalesce));
        }
        t.record_wait(QueueId::ReadQ, 100);
        t.record_tx(TxRecord {
            tx: 1,
            core: 0,
            begin: 0,
            last_store: 5,
            commit_request: 6,
            durable: 9,
            wait: CommitWait::default(),
        });
        let d = t.take_dump().unwrap();
        assert_eq!(d.name(), "mc");
        assert_eq!(d.events.len(), 4);
        assert_eq!(d.dropped_oldest, 5);
        assert_eq!(d.wait.len(), 1);
        assert_eq!(d.wait[0].0, QueueId::ReadQ);
        assert_eq!(d.tx_records.len(), 1);
        assert!(d.occupancy.is_empty()); // never sampled
        assert!(!t.is_enabled()); // dump detaches
    }
}
