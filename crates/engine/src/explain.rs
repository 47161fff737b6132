//! Explain mode for a session: the raw witness chains of its dispatch
//! units, recorded once per event of an alphabet rather than once per
//! unit step.
//!
//! A unit that is still live steps on every event of its alphabet, so its
//! raw chain — the `(time, event)` pairs of its contributing steps — is
//! the run of its alphabet's events since explain mode was enabled (or
//! the session last reset), up to the event that retired it. Units with
//! one alphabet therefore share one chain: [`Explain`] keeps one ring per
//! distinct alphabet (a *class*) holding its last `capacity` events. The
//! dispatch step only counts each event's name ([`Explain::count`]); the
//! rings are filled once per dispatched run of events, from its end
//! backwards, so a long run writes each ring at most `capacity` times
//! ([`Explain::settle`]); and a unit's chain is frozen when it retires. A
//! unit's witness is its chain attributed by the unit's own monitor
//! ([`lomon_core::verdict::Monitor::attribute_witness`]), as a monitor's
//! own flight recorder would have it.

use std::collections::HashMap;

use lomon_core::fused::FusedProgram;
use lomon_core::witness::{Witness, WitnessStep};
use lomon_trace::{Name, SimTime, TimedEvent};

/// The raw witness chains of a session's units (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Explain {
    /// Steps a chain keeps, as a flight recorder of this capacity would.
    capacity: u64,
    /// Ring slots per class: `capacity` rounded up to a power of two.
    slots: usize,
    /// The class of each unit.
    unit_class: Vec<u32>,
    /// Class `c`'s names are `class_names[class_start[c]..class_start[c + 1]]`.
    class_start: Vec<u32>,
    class_names: Vec<u32>,
    /// The classes of name `n` are `name_classes[name_start[n]..name_start[n + 1]]`.
    name_start: Vec<u32>,
    name_classes: Vec<u32>,
    /// Events of each name dispatched since the chains began.
    counts: Vec<u64>,
    /// Events of each class as of the last [`Explain::settle`]; class
    /// `c`'s event `k` is in slot `c * slots + (k & (slots - 1))` of
    /// `ring` while it is among the class's last `capacity`.
    totals: Vec<u64>,
    ring: Vec<TimedEvent>,
    /// Units retired since the last settle, each with its class's event
    /// count at its retirement: the length of its chain.
    retired: Vec<(u32, u64)>,
    /// The chains of retired units, frozen at the next settle.
    frozen: Vec<Option<Witness>>,
    /// Per class, for the fill: the events still to write, and the index
    /// of the last one written.
    fill: Vec<(u64, u64)>,
}

impl Explain {
    /// Chains of at most `capacity` steps for the units of `program`;
    /// units not `active` are settled and keep empty chains.
    pub(crate) fn new(program: &FusedProgram, capacity: usize, active: &[bool]) -> Explain {
        let mut classes: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut class_start = vec![0u32];
        let mut class_names = Vec::new();
        let unit_class: Vec<u32> = (0..program.group_count())
            .map(|unit| {
                let group = program.group(unit);
                let names: Vec<u32> = group
                    .alphabet()
                    .iter()
                    .filter(|&name| group.action_row(name).is_some())
                    .map(|name| name.index() as u32)
                    .collect();
                let next = classes.len() as u32;
                *classes.entry(names).or_insert_with_key(|names| {
                    class_names.extend_from_slice(names);
                    class_start.push(class_names.len() as u32);
                    next
                })
            })
            .collect();
        let class_count = classes.len();
        let width = class_names
            .iter()
            .map(|&n| n as usize + 1)
            .max()
            .unwrap_or(0);
        let mut name_start = vec![0u32; width + 1];
        for &name in &class_names {
            name_start[name as usize + 1] += 1;
        }
        for n in 0..width {
            name_start[n + 1] += name_start[n];
        }
        let mut name_classes = vec![0u32; class_names.len()];
        let mut cursor = name_start.clone();
        for c in 0..class_count {
            for &name in &class_names[class_start[c] as usize..class_start[c + 1] as usize] {
                name_classes[cursor[name as usize] as usize] = c as u32;
                cursor[name as usize] += 1;
            }
        }
        let capacity = capacity.max(1);
        let slots = capacity.next_power_of_two();
        let blank = TimedEvent::new(Name::from_index(0), SimTime::ZERO);
        Explain {
            capacity: capacity as u64,
            slots,
            unit_class,
            class_start,
            class_names,
            name_start,
            name_classes,
            counts: vec![0; width],
            totals: vec![0; class_count],
            ring: vec![blank; class_count * slots],
            retired: Vec::new(),
            frozen: active
                .iter()
                .map(|&live| (!live).then(Witness::default))
                .collect(),
            fill: vec![(0, 0); class_count],
        }
    }

    /// Count an event the dispatch step is about to deliver: the one
    /// piece of explain mode on the per-event path.
    #[inline(always)]
    pub(crate) fn count(&mut self, name: Name) {
        if let Some(count) = self.counts.get_mut(name.index()) {
            *count += 1;
        }
    }

    /// Note that `unit` retired: its chain ends with the events counted
    /// so far.
    pub(crate) fn retire(&mut self, unit: usize) {
        let total = self.class_total(self.unit_class[unit] as usize);
        self.retired.push((unit as u32, total));
    }

    /// Take in `events`, the events counted since the last settle, in
    /// order: freeze the chains of the units retired among them, then
    /// fill each class's ring with its last events.
    pub(crate) fn settle(&mut self, events: &[TimedEvent]) {
        for k in 0..self.retired.len() {
            let (unit, total) = self.retired[k];
            let chain = self.chain_of(self.unit_class[unit as usize] as usize, total, events);
            self.frozen[unit as usize] = Some(chain);
        }
        self.retired.clear();

        let mut open = 0usize;
        for class in 0..self.totals.len() {
            let total = self.class_total(class);
            let fresh = (total - self.totals[class]).min(self.capacity);
            self.fill[class] = (fresh, total);
            self.totals[class] = total;
            open += usize::from(fresh > 0);
        }
        let mask = self.slots - 1;
        for &event in events.iter().rev() {
            if open == 0 {
                break;
            }
            for &class in classes_of(&self.name_start, &self.name_classes, event.name) {
                let (left, next) = &mut self.fill[class as usize];
                if *left > 0 {
                    *left -= 1;
                    *next -= 1;
                    self.ring[class as usize * self.slots + (*next as usize & mask)] = event;
                    open -= usize::from(*left == 0);
                }
            }
        }
    }

    /// The raw chain of `unit`: frozen at its retirement, or its class's
    /// events so far.
    pub(crate) fn chain(&self, unit: usize) -> Witness {
        if let Some(frozen) = &self.frozen[unit] {
            return frozen.clone();
        }
        let class = self.unit_class[unit] as usize;
        self.chain_of(class, self.totals[class], &[])
    }

    /// Forget every chain: the stream restarts.
    pub(crate) fn reset(&mut self) {
        self.counts.fill(0);
        self.totals.fill(0);
        self.retired.clear();
        self.frozen.fill(None);
    }

    /// Events of `class` dispatched since the chains began.
    fn class_total(&self, class: usize) -> u64 {
        let names = &self.class_names
            [self.class_start[class] as usize..self.class_start[class + 1] as usize];
        names.iter().map(|&n| self.counts[n as usize]).sum()
    }

    /// The chain of a unit of `class` that stepped on the class's first
    /// `total` events: the ring holds those up to `self.totals[class]`,
    /// and `events` (not yet in the ring) the rest.
    fn chain_of(&self, class: usize, total: u64, events: &[TimedEvent]) -> Witness {
        let kept = total.min(self.capacity);
        let first = total - kept;
        let in_ring = self.totals[class];
        let mask = self.slots - 1;
        let raw = |event: TimedEvent| WitnessStep {
            time: event.time,
            event: event.name,
            cell: 0,
            from: 0,
            to: 0,
        };
        let mut steps: Vec<WitnessStep> = (first..total.min(in_ring))
            .map(|k| raw(self.ring[class * self.slots + (k as usize & mask)]))
            .collect();
        let mut k = in_ring;
        for &event in events {
            if k == total {
                break;
            }
            if classes_of(&self.name_start, &self.name_classes, event.name)
                .contains(&(class as u32))
            {
                if k >= first {
                    steps.push(raw(event));
                }
                k += 1;
            }
        }
        Witness {
            steps,
            dropped: first,
        }
    }
}

/// The classes whose alphabet holds `name`.
fn classes_of<'a>(name_start: &[u32], name_classes: &'a [u32], name: Name) -> &'a [u32] {
    match name_start.get(name.index()..name.index() + 2) {
        Some(bounds) => &name_classes[bounds[0] as usize..bounds[1] as usize],
        None => &[],
    }
}
