//! The observation hub — Fig. 1's "assertions checker" wired into the
//! platform.
//!
//! Components publish their interface events (`set_imgAddr`, `start`,
//! `read_img`, `set_irq`, …) with the current simulated time; the hub
//! records them into a [`Trace`] (for trace-replay monitoring) and feeds
//! them to every attached online [`Monitor`]. After each event, monitors
//! with an open deadline get a kernel timeout scheduled, so `(P ⇒ Q, t)`
//! violations are detected *at* the deadline, not at the next event.

use std::cell::RefCell;
use std::rc::Rc;

use lomon_core::verdict::{Monitor, Verdict};
use lomon_kernel::Kernel;
use lomon_trace::{Name, SimTime, TimedEvent, Trace, Vocabulary};

struct AttachedMonitor {
    label: String,
    monitor: Box<dyn Monitor>,
    /// The deadline for which a timeout callback is already scheduled.
    armed_deadline: Option<SimTime>,
}

struct HubInner {
    vocabulary: Vocabulary,
    trace: Trace,
    monitors: Vec<AttachedMonitor>,
}

/// Shared handle to the observation hub (cheap to clone; the timeout
/// callbacks capture clones).
#[derive(Clone)]
pub struct ObservationHub {
    inner: Rc<RefCell<HubInner>>,
}

impl std::fmt::Debug for ObservationHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ObservationHub")
            .field("events", &inner.trace.len())
            .field("monitors", &inner.monitors.len())
            .finish()
    }
}

impl ObservationHub {
    /// A hub with the given vocabulary (pre-interned interface names).
    pub fn new(vocabulary: Vocabulary) -> Self {
        ObservationHub {
            inner: Rc::new(RefCell::new(HubInner {
                vocabulary,
                trace: Trace::new(),
                monitors: Vec::new(),
            })),
        }
    }

    /// Attach an online monitor under a display label.
    pub fn attach(&self, label: impl Into<String>, monitor: Box<dyn Monitor>) {
        self.inner.borrow_mut().monitors.push(AttachedMonitor {
            label: label.into(),
            monitor,
            armed_deadline: None,
        });
    }

    /// Intern (or look up) a name in the hub's vocabulary.
    pub fn name(&self, text: &str, direction: lomon_trace::Direction) -> Name {
        self.inner.borrow_mut().vocabulary.intern(text, direction)
    }

    /// Publish one interface event at the kernel's current time.
    pub fn publish(&self, name: Name, kernel: &mut Kernel) {
        let now = kernel.now();
        let event = TimedEvent::new(name, now);
        {
            let mut inner = self.inner.borrow_mut();
            inner.trace.push(name, now);
            for attached in &mut inner.monitors {
                attached.monitor.observe(event);
            }
        }
        self.arm_deadlines(kernel);
    }

    /// Schedule timeout callbacks for monitors with open deadlines.
    fn arm_deadlines(&self, kernel: &mut Kernel) {
        let deadlines: Vec<(usize, SimTime)> = {
            let mut inner = self.inner.borrow_mut();
            inner
                .monitors
                .iter_mut()
                .enumerate()
                .filter_map(|(idx, attached)| {
                    let deadline = attached.monitor.deadline()?;
                    if attached.armed_deadline == Some(deadline) {
                        None
                    } else {
                        attached.armed_deadline = Some(deadline);
                        Some((idx, deadline))
                    }
                })
                .collect()
        };
        let now = kernel.now();
        for (idx, deadline) in deadlines {
            let hub = self.clone();
            // Check just past the deadline (strictly-greater semantics).
            let delay = deadline.saturating_sub(now) + SimTime::from_ps(1);
            kernel.call_in(delay, move |k| {
                let mut inner = hub.inner.borrow_mut();
                let attached = &mut inner.monitors[idx];
                attached.monitor.advance_time(k.now());
                attached.armed_deadline = None;
            });
        }
    }

    /// Close observation at the kernel's current time and return the final
    /// per-monitor verdicts.
    pub fn finish(&self, kernel: &Kernel) -> Vec<(String, Verdict)> {
        let mut inner = self.inner.borrow_mut();
        let end = kernel.now();
        inner.trace.set_end_time(end);
        inner
            .monitors
            .iter_mut()
            .map(|attached| (attached.label.clone(), attached.monitor.finish(end)))
            .collect()
    }

    /// Current per-monitor verdicts without closing.
    pub fn verdicts(&self) -> Vec<(String, Verdict)> {
        self.inner
            .borrow()
            .monitors
            .iter()
            .map(|attached| (attached.label.clone(), attached.monitor.verdict()))
            .collect()
    }

    /// First violation report, rendered, if any monitor is violated.
    pub fn first_violation(&self) -> Option<String> {
        let inner = self.inner.borrow();
        inner.monitors.iter().find_map(|attached| {
            attached
                .monitor
                .violation()
                .map(|v| format!("[{}] {}", attached.label, v.display(&inner.vocabulary)))
        })
    }

    /// Copy of the recorded trace.
    pub fn trace(&self) -> Trace {
        self.inner.borrow().trace.clone()
    }

    /// Copy of the vocabulary.
    pub fn vocabulary(&self) -> Vocabulary {
        self.inner.borrow().vocabulary.clone()
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        self.inner.borrow().trace.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lomon_core::monitor::build_monitor;
    use lomon_core::parse::parse_property;

    fn hub_with_example3(bound_ns: u64) -> (ObservationHub, Name, Name, Name) {
        let mut voc = Vocabulary::new();
        let prop = parse_property(
            &format!("start => read_img[2,4] < set_irq within {bound_ns} ns"),
            &mut voc,
        )
        .expect("parses");
        let start = voc.lookup("start").unwrap();
        let read = voc.lookup("read_img").unwrap();
        let irq = voc.lookup("set_irq").unwrap();
        let monitor = build_monitor(prop, &voc).expect("well-formed");
        let hub = ObservationHub::new(voc);
        hub.attach("example3", Box::new(monitor));
        (hub, start, read, irq)
    }

    #[test]
    fn publish_records_and_monitors() {
        let (hub, start, read, irq) = hub_with_example3(1000);
        let mut kernel = Kernel::new(1);
        let h = hub.clone();
        kernel.call_in(SimTime::from_ns(10), move |k| {
            h.publish(start, k);
        });
        for ns in [20, 30] {
            let h = hub.clone();
            kernel.call_in(SimTime::from_ns(ns), move |k| {
                h.publish(read, k);
            });
        }
        let h = hub.clone();
        kernel.call_in(SimTime::from_ns(40), move |k| {
            h.publish(irq, k);
        });
        kernel.run(100);
        assert_eq!(hub.event_count(), 4);
        let verdicts = hub.finish(&kernel);
        assert_eq!(verdicts[0].1, Verdict::PresumablySatisfied);
        assert!(hub.first_violation().is_none());
    }

    #[test]
    fn online_deadline_detected_by_timeout_callback() {
        let (hub, start, _read, _irq) = hub_with_example3(100);
        let mut kernel = Kernel::new(1);
        let h = hub.clone();
        kernel.call_in(SimTime::from_ns(10), move |k| {
            h.publish(start, k);
        });
        // No response ever arrives: before the 110 ns deadline the
        // monitor is pending; run far past it.
        kernel.run_until(SimTime::from_ns(50));
        assert_eq!(hub.verdicts()[0].1, Verdict::Pending);
        kernel.run_until(SimTime::from_us(1));
        // The timeout callback must have flagged the violation online,
        // before finish().
        assert_eq!(hub.verdicts()[0].1, Verdict::Violated);
        let report = hub.first_violation().expect("violation report");
        assert!(report.contains("example3"));
    }

    #[test]
    fn finish_stamps_trace_end() {
        let (hub, start, _read, _irq) = hub_with_example3(100);
        let mut kernel = Kernel::new(1);
        let h = hub.clone();
        kernel.call_in(SimTime::from_ns(10), move |k| {
            h.publish(start, k);
        });
        kernel.run_until(SimTime::from_ns(50));
        hub.finish(&kernel);
        assert_eq!(hub.trace().end_time(), SimTime::from_ns(50));
    }
}
