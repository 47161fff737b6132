//! The discrete-event scheduler.
//!
//! A deterministic stand-in for the SystemC simulation kernel: simulated
//! time never goes backwards, entries due at the same instant run in the
//! order they were scheduled, and all nondeterminism (loose timing, data)
//! is drawn from one seeded RNG, so every run is exactly reproducible.
//! The monitors of `lomon-core` only need (a) a totally ordered stream of
//! interface events and (b) the current simulated time, which is why this
//! kernel, rather than OSCI SystemC, preserves the paper's behaviour.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lomon_trace::SimTime;

/// A deferred one-shot action.
type Callback = Box<dyn FnOnce(&mut Kernel)>;

/// A scheduled callback, ordered by `(time, seq)`: earlier time first,
/// then insertion order (determinism).
struct Entry {
    time: SimTime,
    seq: u64,
    callback: Callback,
}

impl Entry {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The simulation kernel: the clock, the queue of one-shot callbacks and
/// the seeded RNG. Components schedule their behaviour as callbacks that
/// receive the kernel, read its clock and schedule further callbacks.
pub struct Kernel {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Entry>>,
    rng: StdRng,
}

impl Kernel {
    /// A kernel whose loose timing and data draws derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Kernel {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Draw a uniform value in `[lo, hi]` (components use this for loose
    /// timing, the paper's `wait (90, 110, SC_NS)` idiom, and for data, so
    /// the whole run stays reproducible from the one seed).
    pub fn draw(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range(lo..=hi)
    }

    /// Schedule a one-shot callback after `delay`. A zero delay runs it
    /// after every entry already queued for the current instant.
    pub fn call_in(&mut self, delay: SimTime, callback: impl FnOnce(&mut Kernel) + 'static) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Entry {
            time: self.now + delay,
            seq,
            callback: Box::new(callback),
        }));
    }

    /// Dispatch a single entry. Returns `false` when the queue is empty.
    fn step(&mut self) -> bool {
        let Some(Reverse(entry)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        (entry.callback)(self);
        true
    }

    /// Run until the queue drains or `limit` entries have been dispatched.
    /// Returns the number of dispatched entries.
    pub fn run(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        n
    }

    /// Run until simulated time would exceed `until` (entries at `until`
    /// are still dispatched), or the queue drains; the clock is advanced to
    /// `until` at the end (like `sc_start(t)`).
    pub fn run_until(&mut self, until: SimTime) {
        while self
            .queue
            .peek()
            .is_some_and(|Reverse(entry)| entry.time <= until)
        {
            self.step();
        }
        if self.now < until {
            self.now = until;
        }
    }

    /// Entries dispatched so far: every entry scheduled that has left
    /// the queue.
    pub fn dispatched(&self) -> u64 {
        self.seq - self.queue.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Log the current time, then re-schedule the next tick `period`
    /// later while `remaining` ticks are left.
    fn tick(k: &mut Kernel, period: SimTime, remaining: u32, log: Rc<RefCell<Vec<SimTime>>>) {
        log.borrow_mut().push(k.now());
        if remaining > 0 {
            k.call_in(period, move |k| tick(k, period, remaining - 1, log));
        }
    }

    #[test]
    fn periodic_process_advances_time() {
        let mut kernel = Kernel::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let ticks = Rc::clone(&log);
        kernel.call_in(SimTime::ZERO, move |k| {
            tick(k, SimTime::from_ns(10), 3, ticks);
        });
        kernel.run(100);
        let times: Vec<u64> = log.borrow().iter().map(|t| t.as_ns()).collect();
        assert_eq!(times, vec![0, 10, 20, 30]);
        assert_eq!(kernel.now(), SimTime::from_ns(30));
        assert_eq!(kernel.dispatched(), 4);
    }

    #[test]
    fn same_time_entries_dispatch_in_insertion_order() {
        let mut kernel = Kernel::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..3u64 {
            let log = Rc::clone(&log);
            kernel.call_in(SimTime::from_ns(5), move |_k| {
                log.borrow_mut().push(tag);
            });
        }
        kernel.run(10);
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn zero_delay_callback_runs_after_the_entries_queued_for_its_instant() {
        let mut kernel = Kernel::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let push = |tag: &'static str| {
            let log = Rc::clone(&log);
            move |_: &mut Kernel| log.borrow_mut().push(tag)
        };
        for (tag, nested) in [("first", "nested-first"), ("second", "nested-second")] {
            let (outer, inner) = (push(tag), push(nested));
            kernel.call_in(SimTime::from_ns(5), move |k| {
                outer(k);
                k.call_in(SimTime::ZERO, inner);
            });
        }
        kernel.call_in(SimTime::from_ns(5), push("third"));
        kernel.call_in(SimTime::from_ns(6), push("later"));
        kernel.run(10);
        // The zero-delay callbacks land after everything queued for 5 ns
        // when they were scheduled, in the order they were scheduled, and
        // before anything due later.
        assert_eq!(
            *log.borrow(),
            vec![
                "first",
                "second",
                "third",
                "nested-first",
                "nested-second",
                "later"
            ]
        );
    }

    #[test]
    fn loose_timing_is_deterministic_per_seed() {
        /// Log the current time, then re-schedule after a delay drawn
        /// from the loose interval `[90, 110] ns`.
        fn step(k: &mut Kernel, remaining: u32, log: Rc<RefCell<Vec<u64>>>) {
            log.borrow_mut().push(k.now().as_ps());
            if remaining > 0 {
                let lo = SimTime::from_ns(90).as_ps();
                let hi = SimTime::from_ns(110).as_ps();
                let delay = SimTime::from_ps(k.draw(lo, hi));
                k.call_in(delay, move |k| step(k, remaining - 1, log));
            }
        }
        fn run(seed: u64) -> Vec<u64> {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut kernel = Kernel::new(seed);
            let steps = Rc::clone(&log);
            kernel.call_in(SimTime::ZERO, move |k| step(k, 5, steps));
            kernel.run(100);
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
        // Delays stay inside the loose interval.
        let times = run(7);
        for pair in times.windows(2) {
            let gap = pair[1] - pair[0];
            assert!((90_000..=110_000).contains(&gap), "delay {gap}ps");
        }
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut kernel = Kernel::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for ns in [5u64, 15, 25] {
            let log = Rc::clone(&log);
            kernel.call_in(SimTime::from_ns(ns), move |_k| {
                log.borrow_mut().push(ns);
            });
        }
        kernel.run_until(SimTime::from_ns(20));
        assert_eq!(*log.borrow(), vec![5, 15]);
        assert_eq!(kernel.now(), SimTime::from_ns(20));
        kernel.run_until(SimTime::from_ns(30));
        assert_eq!(*log.borrow(), vec![5, 15, 25]);
    }

    #[test]
    fn draw_is_seed_deterministic() {
        let mut a = Kernel::new(11);
        let mut b = Kernel::new(11);
        let xs: Vec<u64> = (0..5).map(|_| a.draw(0, 100)).collect();
        let ys: Vec<u64> = (0..5).map(|_| b.draw(0, 100)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn stats_accumulate() {
        let mut kernel = Kernel::new(1);
        kernel.call_in(SimTime::ZERO, |_| {});
        assert_eq!(kernel.run(10), 1);
        assert_eq!(kernel.dispatched(), 1);
        assert_eq!(kernel.run(10), 0, "the queue is drained");
    }
}
