//! Sessions: per-stream monitor state over a shared compiled [`Engine`].
//!
//! A session steps *dispatch units*: the groups of a [`FusedProgram`].
//! With the fused backend ([`Backend::Fused`], the default) one unit is one
//! **unique recognizer group** of the fused rulebook program, serving every
//! property that structurally deduplicated into it; the interpreter oracle
//! ([`Backend::Interp`]) runs over the engine's *unshared* program, where
//! every property is its own group. All bookkeeping (liveness, deadlines,
//! statistics) is unit-granular; the per-property surface
//! ([`Session::verdict`], [`Session::violation`], [`Session::ops`],
//! reports, [`Session::drain_newly_final_into`]) fans group results back out
//! through the program's member table.
//!
//! Every ingest path runs one inlined dispatch step per event:
//! [`Session::ingest`], and the one batch loop behind
//! [`Session::ingest_batch`], the stream driver's event lines and
//! [`crate::profile_trace`]. So the CI gates that time the batch path time
//! what every surface runs.
//!
//! ## Parking and recycling
//!
//! A `Session<'e>` borrows its engine, which pins it to one stack frame.
//! [`Session::into_state`] detaches a session's allocations from the
//! engine borrow as a [`SessionState`], and [`Engine::resume`] re-attaches
//! them — rejecting states parked under a *different* engine, whose
//! monitors would otherwise keep stepping the old program. Park → resume →
//! [`Session::reset`] reallocates no monitor arena, queue or statistics
//! block. No production path parks sessions (`lomon serve` opens one
//! session per connection); the pair stays for perfbench's
//! `engine.resume` layer, which times it.

use std::sync::Arc;

use lomon_core::compiled::CompiledMonitor;
use lomon_core::fused::FusedProgram;
use lomon_core::monitor::PropertyMonitor;
use lomon_core::verdict::{Monitor, Verdict, Violation};
use lomon_core::witness::Witness;
use lomon_trace::{SimTime, TimedEvent};

use crate::compile::Engine;
use crate::metrics::{MetricsSink, SessionMetrics};
use crate::report::{DispatchStats, EngineReport, PropertyReport};

/// Backend-polymorphic routed stepping: the indexed dispatcher hands each
/// stepped monitor the precomputed action-table row of the event's name.
/// The flat-table monitors consume it and skip their own projection
/// lookup; the interpreter has no cheaper entry point and re-projects
/// internally.
pub(crate) trait RoutedMonitor: Monitor {
    fn observe_routed(&mut self, event: TimedEvent, base: u32) -> Verdict;
}

impl RoutedMonitor for PropertyMonitor {
    #[inline]
    fn observe_routed(&mut self, event: TimedEvent, _base: u32) -> Verdict {
        self.observe(event)
    }
}

impl RoutedMonitor for CompiledMonitor {
    // Forced inline: this is the per-event body of the batch hot loop, and
    // the `#[inline(always)]` chain below it (observe_routed → antecedent_at
    // → step_window) only lands inside the loop if this wrapper dissolves.
    #[inline(always)]
    fn observe_routed(&mut self, event: TimedEvent, base: u32) -> Verdict {
        CompiledMonitor::observe_routed(self, event, base)
    }
}

/// How a session routes events to monitors. Inverted-index dispatch is
/// the only mode: an event steps only subscribed, still-live units (plus
/// a deadline sweep for timed units). The naive broadcast cost it saves is
/// reported analytically by [`DispatchStats::broadcast_steps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Inverted-index dispatch.
    Indexed,
}

/// Which execution backend steps a session's monitors: the production
/// fused program, or the interpreter it is checked against.
///
/// Both backends are verdict-, diagnostic- and ops-identical per property
/// (enforced by the oracle proptests and the `hot_loop --check` CI gate);
/// they differ only in *how much work* a monitor step shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The fused rulebook program ([`lomon_core::fused`]): one flat-table
    /// cell arena per **unique** recognizer group, stepped once per event
    /// and fanned out to every structurally identical property. The
    /// default for `check`/`watch`/`serve`/`smc`.
    Fused,
    /// Tree-walking interpreter monitors ([`lomon_core::monitor`]), one
    /// per property: enum dispatch and per-recognizer bitset
    /// classification, no lowering and no sharing. The independent
    /// differential oracle and the paper-shaped reference; use it to
    /// cross-check a suspicious verdict or in a debugger.
    Interp,
}

impl Backend {
    /// Stable lowercase name, as spelled on the CLI (`--backend fused`)
    /// and in machine-readable reports (`lomon watch` NDJSON summary).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Fused => "fused",
            Backend::Interp => "interp",
        }
    }
}

/// The per-stream monitor instances, one dense arena per backend: one
/// monitor per group of the backend's program. Keeping the arena
/// monomorphic (instead of an enum per monitor) lets the dispatch loops
/// specialize per backend: monitor steps are direct, inlinable calls and
/// the arena has no per-element tag.
#[derive(Debug, Clone)]
enum MonitorArena {
    Interp(Vec<PropertyMonitor>),
    Fused(Vec<CompiledMonitor>),
}

impl MonitorArena {
    fn backend(&self) -> Backend {
        match self {
            MonitorArena::Interp(_) => Backend::Interp,
            MonitorArena::Fused(_) => Backend::Fused,
        }
    }

    /// The monitor of dispatch unit `unit`.
    fn unit(&self, unit: usize) -> &dyn Monitor {
        match self {
            MonitorArena::Interp(ms) => &ms[unit],
            MonitorArena::Fused(ms) => &ms[unit],
        }
    }
}

/// Run `$body` with `$ms` bound to the session's typed monitor arena and
/// `$program` to the program its units belong to — the one place a session
/// branches on its backend.
macro_rules! with_arena {
    ($session:expr, |$program:ident, $ms:ident| $body:expr) => {
        match &mut $session.arena {
            MonitorArena::Interp($ms) => {
                let $program = $session.engine.program(Backend::Interp);
                $body
            }
            MonitorArena::Fused($ms) => {
                let $program = $session.engine.program(Backend::Fused);
                $body
            }
        }
    };
}

/// One monitored event stream: one monitor per dispatch unit (the fused
/// per-group arena, or the interpreter's per-property prototypes) plus the
/// per-stream dispatch state.
///
/// Verdict-wise, a session behaves exactly as if each property's monitor
/// had individually observed the whole stream and then
/// [`lomon_core::verdict::Monitor::finish`]ed — see the crate docs for why
/// indexed dispatch and fused sharing both preserve this.
///
/// Units whose verdict goes final are *retired*: they stop receiving
/// events, and their member property ids are queued for
/// [`Session::drain_newly_final_into`] so a streaming caller can report
/// verdicts as they happen.
#[derive(Debug, Clone)]
pub struct Session<'e> {
    engine: &'e Engine,
    arena: MonitorArena,
    core: Core,
}

/// Everything of a session except the monitors and the engine borrow —
/// split out so the dispatch methods can borrow the arena and the
/// bookkeeping state independently, stay generic over the backend's
/// monitor type, and so a parked [`SessionState`] owns no engine
/// reference. All arrays are indexed by the units of the backend's
/// program.
#[derive(Debug, Clone)]
pub(crate) struct Core {
    active: Vec<bool>,
    /// Live units (monitors still stepped).
    active_units: usize,
    /// Live properties (what the public surface reports).
    active_props: usize,
    /// Per-unit open hard deadline (timed units only).
    deadlines: Vec<Option<SimTime>>,
    /// Cached minimum of `deadlines` over live timed units.
    next_deadline: Option<SimTime>,
    deadline_dirty: bool,
    /// Property ids (always property-granular, fanned out from groups).
    newly_final: Vec<u32>,
    stats: DispatchStats,
    finished: bool,
    /// Telemetry sink, if a registry is attached. The hot loops never see
    /// it: deltas are flushed at batch boundaries only.
    metrics: Option<MetricsSink>,
}

/// A parked session: the monitor arena and dispatch bookkeeping of a
/// [`Session`], detached from the engine borrow so they can rest in a
/// pool, cross a thread, or outlive the stack frame that served a stream.
/// Obtained from [`Session::into_state`]; revived with [`Engine::resume`],
/// which refuses states parked under a different engine (their monitors
/// still point at that engine's compiled programs).
///
/// All allocations are retained: park → resume → [`Session::reset`]
/// recycles a session without allocating.
#[derive(Debug, Clone)]
pub struct SessionState {
    arena: MonitorArena,
    core: Core,
    /// Identity of the engine this state was parked under (the address of
    /// its fused program, shared by engine clones).
    token: usize,
}

impl SessionState {
    /// The execution backend the parked monitors were built for.
    pub fn backend(&self) -> Backend {
        self.arena.backend()
    }
}

impl<'e> Session<'e> {
    pub(crate) fn new(engine: &'e Engine, backend: Backend) -> Self {
        let arena = match backend {
            // Interp monitors deep-clone the prototype tree; the fused
            // arena allocates one state per *unique* group and shares the
            // program tables.
            Backend::Interp => MonitorArena::Interp(
                engine
                    .properties
                    .iter()
                    .map(|p| p.prototype.clone())
                    .collect(),
            ),
            Backend::Fused => MonitorArena::Fused(engine.fused.instantiate()),
        };
        Session {
            engine,
            arena,
            core: Core::new(engine, engine.program(backend).group_count()),
        }
    }

    /// Detach this session from its engine borrow, keeping every
    /// allocation (monitor arena, queues, statistics, attached metrics
    /// sink) and the exact mid-stream state. The counterpart of
    /// [`Engine::resume`]; together they recycle a session across stream
    /// lifetimes.
    pub fn into_state(self) -> SessionState {
        SessionState {
            arena: self.arena,
            core: self.core,
            token: self.engine.identity(),
        }
    }

    /// Attach this session to a [`SessionMetrics`] bundle (obtained from
    /// [`SessionMetrics::register`]): from now on the session flushes its
    /// dispatch-statistics deltas into the shared counters at every batch
    /// boundary. Attaching mid-stream flushes nothing retroactively for
    /// counters already at a watermark of zero — i.e. the whole history of
    /// this stream is credited on the next flush.
    pub fn attach_metrics(&mut self, metrics: Arc<SessionMetrics>) {
        self.core.metrics = Some(MetricsSink::new(metrics));
    }

    /// Put every monitor of this session into *explain mode*: each unit
    /// keeps a [`FlightRecorder`](lomon_core::witness::FlightRecorder) ring
    /// of at most `capacity` contributing steps, so violations can be
    /// explained with a [`Witness`] chain ([`Session::witness`], and the
    /// `witness` field of [`PropertyReport`]). `capacity == 0` detaches the
    /// recorders again. Like [`Session::attach_metrics`], the detached
    /// default costs nothing: reports and NDJSON output are byte-identical
    /// to a session that never heard of explain mode.
    pub fn enable_explain(&mut self, capacity: usize) {
        with_arena!(self, |_program, ms| {
            for m in ms.iter_mut() {
                m.set_explain(capacity);
            }
        });
    }

    /// The witness chain recorded for property `id`, if the session is in
    /// explain mode and the property's monitor has recorded any steps.
    /// Under the fused backend this is the shared group's chain —
    /// structurally identical properties advance through identical steps,
    /// so the chain explains every member alike.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn witness(&self, id: usize) -> Option<Witness> {
        self.property_monitor(id).witness()
    }

    /// The engine this session was opened from.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// The execution backend this session's monitors run on.
    pub fn backend(&self) -> Backend {
        self.arena.backend()
    }

    /// The monitor reporting for property `id`: its group's monitor (the
    /// property's own under the interpreter's unshared program).
    fn property_monitor(&self, id: usize) -> &dyn Monitor {
        let program = self.engine.program(self.arena.backend());
        self.arena.unit(program.group_of(id))
    }

    /// Feed one event to every unit that can react to it. An attached
    /// metrics sink sees the event at the next flush point: callers that
    /// step one event at a time call [`Session::flush_metrics`] at their
    /// own batch boundary.
    #[inline]
    pub fn ingest(&mut self, event: TimedEvent) {
        with_arena!(self, |program, ms| {
            self.core.assert_units(program, ms.len());
            let mut tally = Tally::default();
            self.core.step::<_, true>(program, ms, event, &mut tally);
            self.core.credit(1, tally);
        });
    }

    /// Credit the statistics accumulated since the last flush to the
    /// attached metrics sink, if any; detached, this is one branch.
    pub fn flush_metrics(&mut self) {
        self.core.flush_metrics();
    }

    /// Feed a batch of events (the bulk path: one call per recorded trace
    /// chunk instead of one per event). Every event counts, those after
    /// the one that settled the session included.
    pub fn ingest_batch(&mut self, events: &[TimedEvent]) {
        let stepped = self.ingest_until_settled(events);
        // A settled session only counts the rest of the batch.
        self.core
            .credit((events.len() - stepped) as u64, Tally::default());
        self.core.flush_metrics();
    }

    /// Feed `events` in order up to the one that settles the session, and
    /// return how many were fed (`Core::batch_loop`). The stream driver's
    /// step for the event lines it reads, a run's or one line's; like
    /// [`Session::ingest`], it does not flush an attached metrics sink.
    pub(crate) fn ingest_until_settled(&mut self, events: &[TimedEvent]) -> usize {
        with_arena!(self, |program, ms| self
            .core
            .ingest_batch(program, ms, events))
    }

    /// Notify the session that simulated time has advanced to `now` with no
    /// new event — lets timed monitors detect expired deadlines online.
    /// Like [`Session::ingest`], it does not flush an attached metrics
    /// sink: callers flush at their own boundaries.
    pub fn advance_time(&mut self, now: SimTime) {
        with_arena!(self, |program, ms| {
            let swept = self.core.sweep_deadlines(program, ms, now, &[]);
            self.core.credit(0, swept);
        });
    }

    /// Declare end of observation and return the report. All still-live
    /// units get their final deadline check at `end_time`.
    pub fn finish(&mut self, end_time: SimTime) -> EngineReport {
        self.close(end_time);
        self.report()
    }

    /// Declare end of observation without materializing a report — the
    /// allocation-free variant of [`Session::finish`] for callers that poll
    /// verdicts with [`Session::verdict`] in a tight reuse loop (e.g. an
    /// SMC campaign running millions of episodes through one session).
    /// Idempotent, like `finish`.
    pub fn close(&mut self, end_time: SimTime) {
        let was_finished = self.core.finished;
        with_arena!(self, |program, ms| {
            self.core.close_in(program, ms, end_time);
        });
        self.core.flush_metrics();
        // Verdicts are counted exactly once per stream, at the
        // not-finished → finished transition (`close` is idempotent).
        if !was_finished && self.core.finished {
            if let Some(sink) = &self.core.metrics {
                for id in 0..self.engine.len() {
                    let verdict = self.property_monitor(id).verdict();
                    sink.metrics.verdict_counter(verdict).inc();
                }
                sink.metrics.streams.inc();
            }
        }
    }

    /// Snapshot the current per-property verdicts and dispatch statistics
    /// without ending the stream.
    pub fn report(&self) -> EngineReport {
        EngineReport {
            properties: (0..self.engine.len())
                .map(|id| self.property_report(id))
                .collect(),
            stats: self.core.stats,
            backend: self.backend().label(),
        }
    }

    /// The current outcome of property `id`.
    pub(crate) fn property_report(&self, id: usize) -> PropertyReport {
        let m = self.property_monitor(id);
        let verdict = m.verdict();
        PropertyReport {
            index: id,
            // An `Arc` bump, not a copy of the property text — reports in a
            // tight reuse loop must not allocate per property.
            property: Arc::clone(&self.engine.properties[id].display),
            verdict,
            violation: m.violation().cloned(),
            // `witness()` is `None` unless explain mode is on, so detached
            // sessions still build reports allocation-free (modulo the
            // vectors they always built).
            witness: if verdict == Verdict::Violated {
                m.witness()
            } else {
                None
            },
        }
    }

    /// Rewind every monitor to its initial state for the next stream,
    /// keeping all allocations. Statistics restart from zero.
    pub fn reset(&mut self) {
        // Credit whatever the last batch left unflushed before the
        // statistics restart from zero; the watermarks restart with them.
        self.core.flush_metrics();
        with_arena!(self, |_program, ms| {
            for m in ms.iter_mut() {
                m.reset();
            }
        });
        let core = &mut self.core;
        core.active.fill(true);
        core.deadlines.fill(None);
        core.active_units = core.active.len();
        core.active_props = self.engine.len();
        core.next_deadline = None;
        core.deadline_dirty = false;
        core.newly_final.clear();
        core.stats = base_stats(self.engine);
        core.finished = false;
        if let Some(sink) = &mut core.metrics {
            sink.flushed = Default::default();
        }
    }

    /// Move the ids of properties whose verdict went final since the last
    /// call into `out` (cleared first), in finalization order, reusing both
    /// buffers' capacity. Streaming callers poll this after each
    /// [`Session::ingest`] to report verdicts as they happen.
    pub fn drain_newly_final_into(&mut self, out: &mut Vec<u32>) {
        out.clear();
        out.append(&mut self.core.newly_final);
    }

    /// Current verdict of property `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn verdict(&self, id: usize) -> Verdict {
        self.property_monitor(id).verdict()
    }

    /// Violation report of property `id`, if it is violated.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn violation(&self, id: usize) -> Option<&Violation> {
        self.property_monitor(id).violation()
    }

    /// Abstract operations executed for property `id` so far (the
    /// [`lomon_core::verdict::Monitor::ops`] instrumentation) — both
    /// backends report identical per-property counts, which the oracle
    /// tests assert. Under the fused backend this is the shared group's
    /// counter: structurally identical properties perform identical
    /// abstract work, the fusion just executes it once.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ops(&self, id: usize) -> u64 {
        self.property_monitor(id).ops()
    }

    /// Number of properties still live (not retired).
    pub fn active_len(&self) -> usize {
        self.core.active_props
    }

    /// Whether every property has reached a final verdict — the stream can
    /// be abandoned early.
    pub fn is_settled(&self) -> bool {
        self.core.active_props == 0
    }

    /// Dispatch statistics so far, the rulebook size and the properties
    /// retired included.
    pub fn stats(&self) -> &DispatchStats {
        &self.core.stats
    }
}

/// A fresh statistics block carrying the rulebook's static sharing facts
/// (identical for both backends, so differential stats comparisons between
/// them stay meaningful).
fn base_stats(engine: &Engine) -> DispatchStats {
    let sharing = engine.fused.sharing();
    DispatchStats {
        properties: engine.len() as u64,
        total_cells: sharing.total_cells,
        unique_cells: sharing.unique_cells,
        ..DispatchStats::default()
    }
}

impl Engine {
    /// Re-attach a parked [`SessionState`] to this engine, reviving it as
    /// a [`Session`] in exactly the state it was parked in (mid-stream
    /// included). The zero-alloc counterpart of opening a fresh session; it
    /// has no production caller and stays for perfbench's
    /// `engine.resume` layer.
    ///
    /// # Errors
    ///
    /// Returns the state untouched if it was parked under a *different*
    /// engine (its monitors still reference that engine's compiled
    /// programs, so resuming here would silently run the wrong rulebook).
    /// Engine *clones* share identity with their original. Callers fall
    /// back to building a fresh session and dropping the stale state.
    // The Err variant carries the whole state back *by design*: the caller
    // keeps its allocations for reuse (or drops them); boxing would force
    // an allocation onto the zero-alloc happy path of `into_state`.
    #[allow(clippy::result_large_err)]
    pub fn resume(&self, state: SessionState) -> Result<Session<'_>, SessionState> {
        if state.token != self.identity() {
            return Err(state);
        }
        Ok(Session {
            engine: self,
            arena: state.arena,
            core: state.core,
        })
    }

    /// The identity token [`SessionState`]s are stamped with: the address
    /// of the shared fused program, which engine clones share and distinct
    /// compilations never do.
    pub(crate) fn identity(&self) -> usize {
        Arc::as_ptr(&self.fused) as usize
    }
}

/// The work of the dispatch step, counted in locals and credited to the
/// [`DispatchStats`] once per call ([`Core::credit`]).
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// The properties live before each event, summed over the events.
    live: u64,
    /// Monitor steps taken.
    steps: u64,
    /// Properties those steps served: every member of each stepped unit,
    /// so `served - steps` are the shared hits.
    served: u64,
}

impl Core {
    /// The dispatch state of a fresh stream over `units` dispatch units of
    /// `engine`'s rulebook.
    pub(crate) fn new(engine: &Engine, units: usize) -> Core {
        Core {
            active: vec![true; units],
            active_units: units,
            active_props: engine.len(),
            deadlines: vec![None; units],
            next_deadline: None,
            deadline_dirty: false,
            newly_final: Vec::new(),
            stats: base_stats(engine),
            finished: false,
            metrics: None,
        }
    }

    /// Flush the statistics accumulated since the last flush into the
    /// attached metrics sink, if any. Called at batch boundaries only —
    /// the common detached case is one branch on a `None`.
    fn flush_metrics(&mut self) {
        let Some(sink) = &mut self.metrics else {
            return;
        };
        let stats = &self.stats;
        let retired = stats.retired;
        let m = &sink.metrics;
        let f = &mut sink.flushed;
        m.events.add(stats.events - f.events);
        m.monitor_steps.add(stats.monitor_steps - f.monitor_steps);
        m.steps_skipped.add(stats.steps_skipped - f.steps_skipped);
        m.shared_hits.add(stats.shared_hits - f.shared_hits);
        m.retirements.add(retired.saturating_sub(f.retired));
        f.events = stats.events;
        f.monitor_steps = stats.monitor_steps;
        f.steps_skipped = stats.steps_skipped;
        f.shared_hits = stats.shared_hits;
        f.retired = retired;
        #[allow(clippy::cast_precision_loss)]
        m.properties_live.set(self.active_props as f64);
    }

    /// Credit the work of the dispatch step over `events` events. No event
    /// serves more than its live count, so `Σ(live - served) = Σlive -
    /// Σserved`; a time advance (no live count) skips nothing.
    fn credit(&mut self, events: u64, tally: Tally) {
        self.stats.events += events;
        self.stats.monitor_steps += tally.steps;
        self.stats.shared_hits += tally.served - tally.steps;
        self.stats.steps_skipped += tally.live.saturating_sub(tally.served);
    }

    /// One equal-length check up front lets the indexed loads of the
    /// dispatch step share a single bound.
    #[inline(always)]
    fn assert_units(&self, program: &FusedProgram, units: usize) {
        assert!(
            self.active.len() == units
                && program.timed_flags().len() == units
                && self.deadlines.len() == units
        );
    }

    /// Dispatch `events` up to the one that settles the session, crediting
    /// their work once, and return how many were dispatched
    /// (`Core::batch_loop`).
    pub(crate) fn ingest_batch<M: RoutedMonitor>(
        &mut self,
        program: &FusedProgram,
        monitors: &mut [M],
        events: &[TimedEvent],
    ) -> usize {
        // Deadline bookkeeping can only arm inside a batch via a timed
        // unit's flag (every `deadline_dirty = true` writer is guarded by
        // it), so a batch that starts with no timed units, a clean dirty
        // flag and no pending deadline provably never sweeps — the
        // `TIMED = false` loop drops the per-event guard and the per-unit
        // flag load entirely.
        let untimed = program.timed_groups().is_empty()
            && !self.deadline_dirty
            && self.next_deadline.is_none();
        if untimed {
            self.batch_loop::<M, false>(program, monitors, events)
        } else {
            self.batch_loop::<M, true>(program, monitors, events)
        }
    }

    /// The one batch loop: step `events` in order, stopping right after
    /// the event that settles the session, credit the events stepped and
    /// return their count. A session settled before the call steps nothing
    /// and credits every event, as [`Session::ingest`] would.
    ///
    /// Kept out of line so each `TIMED` instantiation owns an aligned
    /// symbol: inlining both into the dispatcher lays the hot loops across
    /// each other's fall-through paths.
    #[inline(never)]
    fn batch_loop<M: RoutedMonitor, const TIMED: bool>(
        &mut self,
        program: &FusedProgram,
        monitors: &mut [M],
        events: &[TimedEvent],
    ) -> usize {
        self.assert_units(program, monitors.len());
        let mut tally = Tally::default();
        let mut stepped = events.len();
        if self.active_units > 0 {
            for (k, &event) in events.iter().enumerate() {
                self.step::<M, TIMED>(program, monitors, event, &mut tally);
                if self.active_units == 0 {
                    stepped = k + 1;
                    break;
                }
            }
        }
        self.credit(stepped as u64, tally);
        stepped
    }

    /// The dispatch step of one event, the body of every ingest path.
    /// Timed units can flip to Violated on *any* event whose timestamp
    /// passes their hard deadline, so those are swept first (except
    /// subscribers: `observe` re-checks the deadline); then each live
    /// subscriber steps and is retired if final, else re-armed.
    #[inline(always)]
    fn step<M: RoutedMonitor, const TIMED: bool>(
        &mut self,
        program: &FusedProgram,
        monitors: &mut [M],
        event: TimedEvent,
        tally: &mut Tally,
    ) {
        tally.live += self.active_props as u64;
        let (units, bases) = program.subscribers(event.name);
        // The guard keeps the common no-deadline case to two flag loads.
        if TIMED && (self.deadline_dirty || self.next_deadline.is_some()) {
            let swept = self.sweep_deadlines(program, monitors, event.time, units);
            tally.steps += swept.steps;
            tally.served += swept.served;
        }
        for (&u, &base) in units.iter().zip(bases) {
            let u = u as usize;
            if self.active[u] {
                tally.steps += 1;
                tally.served += u64::from(program.member_count(u));
                let verdict = monitors[u].observe_routed(event, base);
                if verdict.is_final() {
                    self.retire(program, u);
                } else if TIMED && program.timed_flags()[u] {
                    self.deadlines[u] = monitors[u].deadline();
                    self.deadline_dirty = true;
                }
            }
        }
    }

    pub(crate) fn close_in<M: Monitor>(
        &mut self,
        program: &FusedProgram,
        monitors: &mut [M],
        end: SimTime,
    ) {
        if !self.finished {
            for (id, monitor) in monitors.iter_mut().enumerate() {
                if !self.active[id] {
                    continue;
                }
                monitor.finish(end);
                if monitor.verdict().is_final() {
                    self.retire(program, id);
                }
            }
            self.finished = true;
        }
    }

    /// Step timed unit `id` with a time notification, counting the step
    /// into `tally`: retire the unit if its verdict went final, else
    /// re-read its open deadline.
    fn step_advance<M: Monitor>(
        &mut self,
        program: &FusedProgram,
        monitors: &mut [M],
        id: usize,
        now: SimTime,
        tally: &mut Tally,
    ) {
        tally.steps += 1;
        tally.served += u64::from(program.member_count(id));
        let verdict = monitors[id].advance_time(now);
        if verdict.is_final() {
            self.retire(program, id);
        } else {
            self.deadlines[id] = monitors[id].deadline();
            self.deadline_dirty = true;
        }
    }

    /// Retire unit `id`, fanning its member properties out to the
    /// newly-final queue.
    fn retire(&mut self, program: &FusedProgram, id: usize) {
        if self.active[id] {
            self.active[id] = false;
            self.active_units -= 1;
            self.deadlines[id] = None;
            if program.timed_flags()[id] {
                self.deadline_dirty = true;
            }
            let members = program.members(id);
            self.active_props -= members.len();
            self.stats.retired += members.len() as u64;
            self.newly_final.extend_from_slice(members);
        }
    }

    /// Advance-time every live timed unit whose hard deadline `now` has
    /// passed, except subscribers of the current event (their unit ids are
    /// listed in `exclude_units`; observing performs its own deadline
    /// check). Returns the steps taken, returned by value so the dispatch
    /// step's own counters stay in registers.
    fn sweep_deadlines<M: Monitor>(
        &mut self,
        program: &FusedProgram,
        monitors: &mut [M],
        now: SimTime,
        exclude_units: &[u32],
    ) -> Tally {
        let mut tally = Tally::default();
        self.refresh_next_deadline(program);
        if self.next_deadline.is_none_or(|min| now <= min) {
            return tally;
        }
        for &unit in program.timed_groups() {
            let id = unit as usize;
            if !self.active[id] || exclude_units.contains(&unit) {
                continue;
            }
            if self.deadlines[id].is_some_and(|d| now > d) {
                self.step_advance(program, monitors, id, now, &mut tally);
            }
        }
        self.refresh_next_deadline(program);
        tally
    }

    fn refresh_next_deadline(&mut self, program: &FusedProgram) {
        if !self.deadline_dirty {
            return;
        }
        self.next_deadline = program
            .timed_groups()
            .iter()
            .filter(|&&id| self.active[id as usize])
            .filter_map(|&id| self.deadlines[id as usize])
            .min();
        self.deadline_dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lomon_trace::Vocabulary;

    fn event(voc: &Vocabulary, name: &str, ns: u64) -> TimedEvent {
        TimedEvent::new(voc.lookup(name).expect("known name"), SimTime::from_ns(ns))
    }

    fn two_property_engine(voc: &mut Vocabulary) -> Engine {
        Engine::compile(
            &["all{a, b} << start once", "go => out:done within 50 ns"],
            voc,
        )
        .expect("compiles")
    }

    #[test]
    fn indexed_steps_only_subscribers() {
        let mut voc = Vocabulary::new();
        let engine = two_property_engine(&mut voc);
        let mut session = engine.session();
        // `a` concerns only property 0: one step, one skipped.
        session.ingest(event(&voc, "a", 10));
        assert_eq!(session.stats().monitor_steps, 1);
        assert_eq!(session.stats().steps_skipped, 1);
        // A name outside every alphabet steps nothing.
        voc.input("noise");
        session.ingest(event(&voc, "noise", 20));
        assert_eq!(session.stats().monitor_steps, 1);
        assert_eq!(session.stats().steps_skipped, 3);
        assert_eq!(session.stats().events, 2);
        // A naive broadcast would have stepped both live monitors on both
        // events; the index did the one step that could react.
        let report = session.report();
        assert_eq!(report.stats.broadcast_steps(), 4);
        assert_eq!(
            report.stats.monitor_steps + report.stats.steps_skipped,
            report.stats.broadcast_steps()
        );
    }

    #[test]
    fn final_monitors_are_retired_and_reported() {
        let mut voc = Vocabulary::new();
        let engine = two_property_engine(&mut voc);
        let mut session = engine.session();
        for (name, ns) in [("a", 10), ("b", 20), ("start", 30)] {
            session.ingest(event(&voc, name, ns));
        }
        // Property 0 is one-shot: Satisfied and retired.
        let mut finalized = Vec::new();
        session.drain_newly_final_into(&mut finalized);
        assert_eq!(finalized, [0]);
        assert_eq!(session.verdict(0), Verdict::Satisfied);
        assert_eq!(session.active_len(), 1);
        let steps = session.stats().monitor_steps;
        // Further `a` events step nobody: property 0 is retired.
        session.ingest(event(&voc, "a", 40));
        assert_eq!(session.stats().monitor_steps, steps);
        assert!(!session.is_settled());
    }

    #[test]
    fn deadline_sweep_catches_timeout_on_unrelated_event() {
        let mut voc = Vocabulary::new();
        let engine = two_property_engine(&mut voc);
        let mut session = engine.session();
        session.ingest(event(&voc, "go", 10)); // deadline now 60ns
                                               // `a` is outside the timed property's alphabet, but its timestamp
                                               // reveals the miss — exactly as a naive broadcast would.
        session.ingest(event(&voc, "a", 200));
        assert_eq!(session.verdict(1), Verdict::Violated);
        let mut finalized = vec![7];
        session.drain_newly_final_into(&mut finalized);
        assert_eq!(finalized, [1], "cleared first");
        assert!(session.violation(1).is_some());
    }

    #[test]
    fn advance_time_detects_timeout_without_events() {
        let mut voc = Vocabulary::new();
        let engine = two_property_engine(&mut voc);
        let mut session = engine.session();
        session.ingest(event(&voc, "go", 10));
        session.advance_time(SimTime::from_ns(59));
        assert_eq!(session.verdict(1), Verdict::Pending);
        session.advance_time(SimTime::from_ns(61));
        assert_eq!(session.verdict(1), Verdict::Violated);
    }

    #[test]
    fn finish_settles_open_obligations() {
        let mut voc = Vocabulary::new();
        let engine = two_property_engine(&mut voc);
        let mut session = engine.session();
        session.ingest(event(&voc, "go", 10));
        let report = session.finish(SimTime::from_ns(500));
        assert_eq!(report.properties[1].verdict, Verdict::Violated);
        assert!(!report.is_ok());
        // The antecedent never went final (safety, still consistent); only
        // the timed property is retired.
        assert_eq!(report.properties[0].verdict, Verdict::PresumablySatisfied);
        assert_eq!(report.stats.retired, 1);
        // Finishing twice is idempotent.
        let again = session.finish(SimTime::from_ns(500));
        assert_eq!(again.properties[1].verdict, Verdict::Violated);
    }

    #[test]
    fn batch_equals_one_by_one() {
        let mut voc = Vocabulary::new();
        let engine = two_property_engine(&mut voc);
        let events: Vec<TimedEvent> = [("a", 10), ("go", 20), ("b", 30), ("done", 40)]
            .into_iter()
            .map(|(n, t)| event(&voc, n, t))
            .collect();
        let mut one = engine.session();
        for &e in &events {
            one.ingest(e);
        }
        let mut batch = engine.session();
        batch.ingest_batch(&events);
        let (a, b) = (
            one.finish(SimTime::from_ns(50)),
            batch.finish(SimTime::from_ns(50)),
        );
        assert_eq!(a.stats.monitor_steps, b.stats.monitor_steps);
        for (x, y) in a.properties.iter().zip(&b.properties) {
            assert_eq!(x.verdict, y.verdict);
        }
    }

    #[test]
    fn reset_reuses_the_session() {
        let mut voc = Vocabulary::new();
        let engine = two_property_engine(&mut voc);
        let mut session = engine.session();
        for (name, ns) in [("a", 10), ("b", 20), ("start", 30)] {
            session.ingest(event(&voc, name, ns));
        }
        session.finish(SimTime::from_ns(40));
        session.reset();
        assert_eq!(session.active_len(), 2);
        assert_eq!(session.stats().events, 0);
        assert_eq!(session.verdict(0), Verdict::PresumablySatisfied);
        let mut finalized = Vec::new();
        session.drain_newly_final_into(&mut finalized);
        assert!(finalized.is_empty());
        // The reused session still works.
        session.ingest(event(&voc, "start", 10));
        assert_eq!(session.verdict(0), Verdict::Violated);
    }

    #[test]
    fn fused_shares_identical_properties() {
        let mut voc = Vocabulary::new();
        let engine = Engine::compile(
            &[
                "all{a, b} << start repeated",
                "all{a, b} << start repeated",
                "all{a, b} << start repeated",
                "b << go once",
            ],
            &mut voc,
        )
        .expect("compiles");
        let mut fused = engine.session(); // Backend::Fused is the default
        let mut interp = engine.session_with_backend(DispatchMode::Indexed, Backend::Interp);
        assert_eq!(fused.backend(), Backend::Fused);
        assert_eq!(interp.backend(), Backend::Interp);
        for (name, ns) in [("a", 10), ("b", 20), ("start", 30)] {
            let e = event(&voc, name, ns);
            fused.ingest(e);
            interp.ingest(e);
        }
        // One shared step served properties 0–2; `b` also stepped property
        // 3's singleton group.
        assert_eq!(fused.stats().monitor_steps, 3 + 1);
        assert_eq!(interp.stats().monitor_steps, 3 * 3 + 1);
        assert_eq!(fused.stats().shared_hits, 3 * 2);
        assert_eq!(interp.stats().shared_hits, 0);
        assert_eq!(fused.stats().unique_cells, 2 + 1);
        assert_eq!(fused.stats().total_cells, 3 * 2 + 1);
        // The sharing facts are the rulebook's, whichever backend runs it.
        assert_eq!(interp.stats().unique_cells, 2 + 1);
        for id in 0..engine.len() {
            assert_eq!(fused.verdict(id), interp.verdict(id), "property {id}");
            assert_eq!(fused.ops(id), interp.ops(id), "property {id}");
        }
    }

    #[test]
    fn metrics_flush_matches_stats_and_counts_verdicts_once() {
        let mut voc = Vocabulary::new();
        let engine = two_property_engine(&mut voc);
        let registry = lomon_obs::Registry::new();
        let metrics = SessionMetrics::register(&registry);
        let mut session = engine.session();
        session.attach_metrics(Arc::clone(&metrics));
        let events: Vec<TimedEvent> = [("a", 10), ("b", 20), ("start", 30)]
            .into_iter()
            .map(|(n, t)| event(&voc, n, t))
            .collect();
        session.ingest_batch(&events);
        assert_eq!(metrics.events.get(), session.stats().events);
        assert_eq!(metrics.monitor_steps.get(), session.stats().monitor_steps);
        assert_eq!(metrics.steps_skipped.get(), session.stats().steps_skipped);
        assert_eq!(metrics.retirements.get(), 1); // property 0 went final
        session.close(SimTime::from_ns(40));
        assert_eq!(metrics.streams.get(), 1);
        assert_eq!(metrics.verdict_counter(Verdict::Satisfied).get(), 1);
        assert_eq!(
            metrics.verdict_counter(Verdict::PresumablySatisfied).get(),
            1
        );
        // close is idempotent: no double counting.
        session.close(SimTime::from_ns(40));
        assert_eq!(metrics.streams.get(), 1);
        assert_eq!(metrics.verdict_counter(Verdict::Satisfied).get(), 1);
        // A second stream through the reused session adds fresh deltas.
        let total = metrics.events.get();
        session.reset();
        session.ingest_batch(&events);
        assert_eq!(metrics.events.get(), total + events.len() as u64);
        session.close(SimTime::from_ns(40));
        assert_eq!(metrics.streams.get(), 2);
    }

    #[test]
    fn fused_retirement_fans_out_members() {
        let mut voc = Vocabulary::new();
        let engine = Engine::compile(
            &[
                "all{a, b} << start once",
                "go => out:done within 50 ns",
                "all{a, b} << start once",
            ],
            &mut voc,
        )
        .expect("compiles");
        let mut session = engine.session();
        for (name, ns) in [("a", 10), ("b", 20), ("start", 30)] {
            session.ingest(event(&voc, name, ns));
        }
        // Both members of the shared group finalize together.
        let mut buffer = Vec::new();
        session.drain_newly_final_into(&mut buffer);
        assert_eq!(buffer, vec![0, 2]);
        assert_eq!(session.active_len(), 1);
        assert!(!session.is_settled());
        // And the drained buffer is reusable without reallocation.
        session.ingest(event(&voc, "go", 40));
        session.ingest(event(&voc, "a", 200));
        session.drain_newly_final_into(&mut buffer);
        assert_eq!(buffer, vec![1]);
        assert!(session.is_settled());
    }

    #[test]
    fn park_and_resume_preserves_mid_stream_state() {
        let mut voc = Vocabulary::new();
        let engine = two_property_engine(&mut voc);
        let mut session = engine.session();
        session.ingest(event(&voc, "a", 10));
        session.ingest(event(&voc, "go", 20)); // open 50ns deadline
        let state = session.into_state();
        assert_eq!(state.backend(), Backend::Fused);
        // Resuming under the same engine continues the exact stream:
        // the open deadline still fires, the antecedent still remembers `a`.
        let mut resumed = engine.resume(state).expect("same engine");
        assert_eq!(resumed.stats().events, 2);
        resumed.ingest(event(&voc, "b", 30));
        resumed.ingest(event(&voc, "start", 40));
        assert_eq!(resumed.verdict(0), Verdict::Satisfied);
        resumed.advance_time(SimTime::from_ns(200));
        assert_eq!(resumed.verdict(1), Verdict::Violated);
    }

    #[test]
    fn resume_rejects_states_from_another_engine() {
        let mut voc = Vocabulary::new();
        let engine = two_property_engine(&mut voc);
        let other = two_property_engine(&mut voc);
        let state = engine.session().into_state();
        // Same shape, different compilation: the monitors belong to
        // `engine`'s programs, so `other` must refuse the state…
        let state = other.resume(state).expect_err("foreign state rejected");
        // …while an engine *clone* (shared fused program) accepts it, as
        // does the original.
        let clone = engine.clone();
        let state = clone
            .resume(state)
            .expect("clone shares identity")
            .into_state();
        assert!(engine.resume(state).is_ok());
    }

    #[test]
    fn recycled_state_equals_fresh_session() {
        let mut voc = Vocabulary::new();
        let engine = two_property_engine(&mut voc);
        let events: Vec<TimedEvent> = [("a", 10), ("go", 20), ("b", 30), ("start", 40)]
            .into_iter()
            .map(|(n, t)| event(&voc, n, t))
            .collect();
        // Dirty a session with a first stream, park it, resume, reset —
        // the recycled session must be observationally a fresh one.
        let mut first = engine.session();
        first.ingest_batch(&events);
        first.close(SimTime::from_ns(100));
        let state = first.into_state();
        let mut recycled = engine.resume(state).expect("same engine");
        recycled.reset();
        let mut fresh = engine.session();
        recycled.ingest_batch(&events);
        fresh.ingest_batch(&events);
        let (a, b) = (
            recycled.finish(SimTime::from_ns(100)),
            fresh.finish(SimTime::from_ns(100)),
        );
        assert_eq!(a.stats, b.stats);
        for (x, y) in a.properties.iter().zip(&b.properties) {
            assert_eq!(x.verdict, y.verdict);
        }
    }
}
