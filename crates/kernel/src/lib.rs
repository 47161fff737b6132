//! # lomon-kernel — a deterministic discrete-event simulation kernel
//!
//! The SystemC-kernel substitute of this reproduction: the loose-ordering
//! monitors only consume a totally ordered stream of interface events plus
//! the current simulated time, so a seeded callback scheduler exercises the
//! same monitor code paths as OSCI SystemC.
//!
//! * [`sched`] — the [`Kernel`]: a time-ordered queue of one-shot
//!   callbacks with insertion-order tie-breaking, and a seeded RNG for the
//!   paper's loose-timing `wait (90, 110, SC_NS)` idiom.
//!
//! ```
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! use lomon_kernel::Kernel;
//! use lomon_trace::SimTime;
//!
//! /// Blink now, then every 10 ns until three blinks are done.
//! fn blink(k: &mut Kernel, blinks: Rc<Cell<u32>>) {
//!     blinks.set(blinks.get() + 1);
//!     if blinks.get() < 3 {
//!         k.call_in(SimTime::from_ns(10), move |k| blink(k, blinks));
//!     }
//! }
//!
//! let blinks = Rc::new(Cell::new(0));
//! let mut kernel = Kernel::new(42);
//! let counter = Rc::clone(&blinks);
//! kernel.call_in(SimTime::ZERO, move |k| blink(k, counter));
//! kernel.run(100);
//! assert_eq!(blinks.get(), 3);
//! assert_eq!(kernel.now(), SimTime::from_ns(20));
//! ```

pub mod sched;

pub use sched::Kernel;
