//! Property test of the VCD writer: replaying the value changes of the
//! dump of any trace — many names, touching pulses, events at
//! `SimTime::MAX` — gives back every event as a one-picosecond pulse.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use lomon_trace::{write_vcd, SimTime, Trace, Vocabulary};

/// A trace over `names` interned names: each step picks a name and a gap
/// — the same picosecond, the next one or a short gap, 5 steps in 16 each,
/// or (1 in 16) a jump to within a few picoseconds of `SimTime::MAX`.
fn build_trace(names: usize, steps: &[(u16, u8, u8)], extra_end: u64) -> (Trace, Vocabulary) {
    let mut voc = Vocabulary::new();
    let interned: Vec<_> = (0..names).map(|k| voc.input(&format!("n{k}"))).collect();
    let mut trace = Trace::new();
    let mut clock = 0u64;
    for &(pick, gap, small) in steps {
        clock = match gap % 16 {
            0..=4 => clock,
            5..=9 => clock.saturating_add(1),
            10..=14 => clock.saturating_add(u64::from(small)),
            _ => clock.max(u64::MAX - u64::from(small % 3)),
        };
        trace.push(interned[usize::from(pick) % names], SimTime::from_ps(clock));
    }
    trace.set_end_time(SimTime::from_ps(
        trace.end_time().as_ps().saturating_add(extra_end),
    ));
    (trace, voc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timestamps strictly increase, every identifier code is printable
    /// and unique, and each wire is `1` at each of its events' picoseconds
    /// and `0` one picosecond later unless another of its events is there.
    #[test]
    fn vcd_replays_every_event_as_a_pulse(
        names in 1usize..400,
        steps in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 0..600),
        extra_end in 0u64..4,
    ) {
        let (trace, voc) = build_trace(names, &steps, extra_end);
        let vcd = write_vcd(&trace, &voc);
        let (header, body) = vcd
            .split_once("$enddefinitions $end\n")
            .expect("a definitions section");

        let mut id_of: HashMap<&str, &str> = HashMap::new();
        let mut ids: HashSet<&str> = HashSet::new();
        for line in header.lines() {
            let Some(var) = line.strip_prefix("$var wire 1 ") else {
                continue;
            };
            let mut parts = var.split(' ');
            let (id, name) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            prop_assert!(
                !id.is_empty() && id.bytes().all(|b| (b'!'..=b'~').contains(&b)),
                "identifier code {:?} is not printable ASCII",
                id
            );
            prop_assert!(ids.insert(id), "identifier code {:?} declared twice", id);
            id_of.insert(name, id);
        }

        let mut changes: HashMap<&str, Vec<(u64, char)>> = HashMap::new();
        let mut now: Option<u64> = None;
        for line in body.lines() {
            if let Some(stamp) = line.strip_prefix('#') {
                let t: u64 = stamp.parse().expect("numeric timestamp");
                prop_assert!(now.is_none_or(|n| t > n), "#{} after #{:?}", t, now);
                now = Some(t);
            } else if line != "$dumpvars" && line != "$end" {
                let (value, id) = line.split_at(1);
                prop_assert!(ids.contains(id), "change of undeclared wire {:?}", id);
                let t = now.expect("a value change before any timestamp");
                changes
                    .entry(id)
                    .or_default()
                    .push((t, value.chars().next().unwrap_or('?')));
            }
        }
        let value_at = |id: &str, t: u64| {
            changes[id]
                .iter()
                .take_while(|(at, _)| *at <= t)
                .last()
                .map_or('x', |&(_, value)| value)
        };

        for event in trace.iter() {
            let id = id_of[voc.resolve(event.name)];
            let t = event.time.as_ps();
            prop_assert_eq!(value_at(id, t), '1', "{} at {}ps", voc.resolve(event.name), t);
            if let Some(next) = t.checked_add(1) {
                let again = trace
                    .iter()
                    .any(|e| e.name == event.name && e.time.as_ps() == next);
                if !again {
                    prop_assert_eq!(
                        value_at(id, next),
                        '0',
                        "{} at {}ps",
                        voc.resolve(event.name),
                        next
                    );
                }
            }
        }
    }
}
