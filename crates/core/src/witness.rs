//! Verdict provenance: witnesses and the flight recorder.
//!
//! A monitor in *explain mode* keeps a bounded ring buffer — the
//! [`FlightRecorder`] — of the steps that actually advanced its cells.
//! When the monitor reaches a violation, the recorder's contents form a
//! [`Witness`]: the ordered chain of contributing events, each annotated
//! with the cell it moved and the state transition it caused. Replaying
//! only the witness's events through a fresh monitor of the same property
//! reproduces the identical violation (see [`replay_witness`]), which is
//! the soundness contract the differential tests enforce across the
//! fused and interp backends.
//!
//! Recording is observation, not instrumentation: live explain mode
//! records only the `(time, event)` pair of each contributing step — a
//! single bounded ring store on the hot path — and the cell/transition
//! attribution is reconstructed on the cold `witness()` read by replaying
//! the raw chain through a fresh *attributing* clone of the monitor (see
//! `reattribute`, and [`Monitor::attribute_witness`] for a chain recorded
//! elsewhere: an engine session keeps one chain per alphabet instead of
//! one recorder per monitor). The hooks never touch the `ops` accounting,
//! so explain-off monitors are bit-identical to pre-explain behaviour and
//! explain-on monitors differ only in the recorder side channel.

use crate::verdict::{Monitor, Verdict, Violation, ViolationKind};
use lomon_trace::{Name, SimTime, TimedEvent};

/// One contributing step in a witness: an in-alphabet event that was
/// observed while the monitor was still live, annotated with the first
/// cell (in arena order within the then-active fragment) whose
/// `(state, count)` pair it changed.
///
/// `from`/`to` are the Fig. 5 recognizer state codes `0..=5`
/// (`s0` idle … `s5` error), identical across backends. An event that
/// advanced no cell (a hard-deadline miss detected on arrival) records
/// the active fragment's first cell with `from == to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessStep {
    /// Timestamp of the contributing event.
    pub time: SimTime,
    /// Interned name of the contributing event.
    pub event: Name,
    /// Flattened cell index (arena order over the property's fragments).
    pub cell: u32,
    /// Recognizer state code of the attributed cell before the step.
    pub from: u8,
    /// Recognizer state code of the attributed cell after the step.
    pub to: u8,
}

impl WitnessStep {
    /// The attributed transition as `s<from>` / `s<to>` labels.
    pub fn transition(&self) -> (String, String) {
        (format!("s{}", self.from), format!("s{}", self.to))
    }
}

/// The ordered chain of contributing steps behind a verdict.
///
/// When `dropped == 0` the chain is complete: replaying exactly these
/// events reproduces the monitor's violation. When the flight recorder's
/// capacity was exceeded, `dropped` counts the oldest steps that were
/// overwritten; the remaining suffix is still the most recent evidence,
/// but exact replay is no longer guaranteed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Witness {
    /// Contributing steps, oldest first.
    pub steps: Vec<WitnessStep>,
    /// Steps evicted from the ring buffer before the verdict.
    pub dropped: u64,
}

impl Witness {
    /// The witness's events as replayable timed events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = TimedEvent> + '_ {
        self.steps.iter().map(|s| TimedEvent::new(s.event, s.time))
    }
}

/// A [`WitnessStep`] in the ring's wire layout: 16 bytes instead of the
/// public struct's padded 24, so an armed ring stays well inside L1 even
/// with several monitors armed at once.
#[derive(Debug, Clone, Copy)]
struct PackedStep {
    time_ps: u64,
    event: u32,
    cell: u16,
    from: u8,
    to: u8,
}

impl PackedStep {
    const ZERO: PackedStep = PackedStep {
        time_ps: 0,
        event: 0,
        cell: 0,
        from: 0,
        to: 0,
    };
}

/// A bounded ring buffer of contributing steps, kept per live monitor in
/// explain mode.
///
/// The recorder is a cold side channel: `record` writes one 16-byte slot,
/// at the step count masked to the ring, with no branch on the wrap;
/// `snapshot` (cold path, on report) reads the last `capacity` steps back
/// in chronological order. `clear` keeps the capacity so a reset does not
/// reallocate.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    /// Pre-filled to `capacity` slots rounded up to a power of two, so the
    /// record path is one uniform slot store regardless of how full the
    /// ring is; step `k` lives in slot `k & mask`.
    buf: Vec<PackedStep>,
    mask: usize,
    /// Steps ever recorded; everything beyond `capacity` was evicted.
    total: u64,
    /// Scratch `(state, count)` snapshot used by the interp backend to
    /// diff the active fragment across a step (the compiled backend diffs
    /// against its own `prev_cells` arena instead).
    scratch: Vec<(u8, u32)>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` steps (at least one). The
    /// ring is allocated and filled up front — arming explain mode is
    /// explicit, and a pre-filled buffer keeps the record path a single
    /// slot store with no growth or fullness branches.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = capacity.next_power_of_two();
        FlightRecorder {
            capacity,
            buf: vec![PackedStep::ZERO; slots],
            mask: slots - 1,
            total: 0,
            scratch: Vec::new(),
        }
    }

    /// The ring's bound, as configured.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a step, evicting the oldest once the ring is full.
    #[inline]
    pub fn record(&mut self, step: WitnessStep) {
        debug_assert!(step.cell <= u32::from(u16::MAX), "cell index fits u16");
        let packed = PackedStep {
            time_ps: step.time.as_ps(),
            event: step.event.index() as u32,
            cell: step.cell as u16,
            from: step.from,
            to: step.to,
        };
        if let Some(slot) = self.buf.get_mut(self.total as usize & self.mask) {
            *slot = packed;
        }
        self.total += 1;
    }

    /// Append a step known only by its `(time, event)` pair — the live
    /// explain mode's raw chain. Attribution (cell and transition) is
    /// reconstructed on demand when the witness is read (see
    /// `reattribute`).
    #[inline]
    pub fn record_event(&mut self, event: TimedEvent) {
        self.record(WitnessStep {
            time: event.time,
            event: event.name,
            cell: 0,
            from: 0,
            to: 0,
        });
    }

    /// Steps evicted so far.
    pub fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.capacity as u64)
    }

    /// Forget all recorded steps, keeping capacity and allocation.
    pub fn clear(&mut self) {
        self.total = 0;
    }

    /// The recorded chain in chronological order.
    pub fn snapshot(&self) -> Witness {
        let unpack = |p: &PackedStep| WitnessStep {
            time: SimTime::from_ps(p.time_ps),
            event: Name::from_index(p.event as usize),
            cell: p.cell.into(),
            from: p.from,
            to: p.to,
        };
        let len = self.total.min(self.capacity as u64);
        let steps = (self.total - len..self.total)
            .map(|k| unpack(&self.buf[k as usize & self.mask]))
            .collect();
        Witness {
            steps,
            dropped: self.dropped(),
        }
    }

    /// Borrow the scratch snapshot buffer, cleared (interp backend only).
    pub fn begin_scratch(&mut self) -> &mut Vec<(u8, u32)> {
        self.scratch.clear();
        &mut self.scratch
    }

    /// Attribute a step by diffing the pre-step scratch snapshot against
    /// the post-step `(state, count)` pairs, then record it.
    ///
    /// `base` is the flattened index of the diffed window's first cell.
    /// Picks the first changed cell; when nothing changed (a deadline
    /// miss detected on arrival), falls back to the window's first cell
    /// with `from == to`.
    pub fn record_diff<I>(&mut self, event: TimedEvent, base: u32, post: I)
    where
        I: IntoIterator<Item = (u8, u32)>,
    {
        let mut step = WitnessStep {
            time: event.time,
            event: event.name,
            cell: base,
            from: self.scratch.first().map_or(0, |c| c.0),
            to: self.scratch.first().map_or(0, |c| c.0),
        };
        for (k, after) in post.into_iter().enumerate() {
            let before = self.scratch.get(k).copied().unwrap_or((0, 0));
            if before != after {
                step.cell = base + k as u32;
                step.from = before.0;
                step.to = after.0;
                break;
            }
        }
        self.record(step);
    }
}

/// Reconstruct cell/transition attribution for a raw `(time, event)` chain
/// by replaying it through a fresh *attributing* clone of the monitor.
///
/// Live explain mode keeps the hot path to a single ring store, so the
/// recorded chain carries no attribution. On the cold `witness()` read,
/// `arm` puts a reset clone of the monitor into attributing mode with
/// exactly `raw.steps.len()` slots, the chain is replayed through it, and
/// the clone's fully-attributed snapshot is returned with the original
/// eviction count restored. When the raw chain is complete
/// (`dropped == 0`) the replay follows the original trajectory step for
/// step, so every witness read also exercises the replay soundness
/// contract; after eviction the attribution describes the
/// replayed-from-scratch trajectory, best effort — identically so in
/// every backend, since each reconstructs from the same chain.
pub(crate) fn reattribute<M, F>(original: &M, raw: Witness, arm: F) -> Witness
where
    M: Monitor + Clone,
    F: FnOnce(&mut M, usize),
{
    if raw.steps.is_empty() {
        return raw;
    }
    let mut fresh = original.clone();
    fresh.reset();
    arm(&mut fresh, raw.steps.len());
    for event in raw.events() {
        if fresh.verdict().is_final() {
            break;
        }
        fresh.observe(event);
    }
    let mut attributed = fresh.witness().unwrap_or_default();
    attributed.dropped = raw.dropped;
    attributed
}

/// Replay a witness through a fresh monitor of the same property.
///
/// Feeds the witness's events in order; for a deadline miss, advances
/// time to the violation's time, since such a miss can be found at an event
/// outside the alphabet, which no witness step holds; then finishes at
/// `end` if no verdict is final by then — the closing sequence of a
/// session. When the witness is complete (`dropped == 0`), the returned
/// verdict and the monitor's violation are identical to the originals:
/// out-of-alphabet events only ever matter through the passage of time,
/// which the violation's time and `end` reproduce.
pub fn replay_witness<M: Monitor + ?Sized>(
    monitor: &mut M,
    witness: &Witness,
    violation: &Violation,
    end: SimTime,
) -> Verdict {
    for event in witness.events() {
        if monitor.verdict().is_final() {
            break;
        }
        monitor.observe(event);
    }
    if !monitor.verdict().is_final() && violation.kind == ViolationKind::DeadlineMiss {
        monitor.advance_time(violation.time);
    }
    if monitor.verdict().is_final() {
        monitor.verdict()
    } else {
        monitor.finish(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(ns: u64, cell: u32) -> WitnessStep {
        WitnessStep {
            time: SimTime::from_ns(ns),
            event: Name::from_index(0),
            cell,
            from: 1,
            to: 3,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.record(step(i, i as u32));
        }
        let w = rec.snapshot();
        assert_eq!(w.dropped, 2);
        let cells: Vec<u32> = w.steps.iter().map(|s| s.cell).collect();
        assert_eq!(cells, vec![2, 3, 4]);
    }

    #[test]
    fn clear_resets_ring_but_keeps_capacity() {
        let mut rec = FlightRecorder::new(2);
        rec.record(step(1, 0));
        rec.record(step(2, 1));
        rec.record(step(3, 2));
        rec.clear();
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.capacity(), 2);
        assert!(rec.snapshot().steps.is_empty());
    }

    #[test]
    fn diff_attributes_first_changed_cell() {
        let mut rec = FlightRecorder::new(8);
        let ev = TimedEvent::new(Name::from_index(7), SimTime::from_ns(42));
        rec.begin_scratch().extend([(1, 0), (3, 2)]);
        rec.record_diff(ev, 10, [(1, 0), (3, 3)]);
        let w = rec.snapshot();
        assert_eq!(w.steps.len(), 1);
        assert_eq!(w.steps[0].cell, 11);
        assert_eq!(w.steps[0].from, 3);
        assert_eq!(w.steps[0].to, 3);
        assert_eq!(w.steps[0].event, Name::from_index(7));
    }

    #[test]
    fn diff_falls_back_to_window_start_when_unchanged() {
        let mut rec = FlightRecorder::new(8);
        let ev = TimedEvent::new(Name::from_index(0), SimTime::from_ns(1));
        rec.begin_scratch().extend([(4, 1)]);
        rec.record_diff(ev, 5, [(4, 1)]);
        let w = rec.snapshot();
        assert_eq!(w.steps[0].cell, 5);
        assert_eq!(w.steps[0].from, 4);
        assert_eq!(w.steps[0].to, 4);
    }
}
