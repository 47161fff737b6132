//! VCD (Value Change Dump) export of interface traces.
//!
//! Loose-ordering traces live in an EDA workflow, and the lingua franca for
//! looking at anything over simulated time is a waveform viewer. This
//! module renders a [`Trace`] as an IEEE-1364 VCD file: each interface name
//! becomes a 1-bit wire that pulses for one timestep at each occurrence, so
//! GTKWave & friends display the event stream directly.

use std::fmt::Write as _;

use crate::{Name, NameSet, Trace, Vocabulary};

/// Render `trace` as a VCD document.
///
/// Every name of `voc` that occurs in the trace becomes a wire; each event
/// is a `1` at its timestamp followed by a `0` one picosecond later (the
/// timescale is 1 ps, matching [`crate::SimTime`]'s resolution). Pulses of
/// one name that touch (events 1 ps apart) merge into one longer pulse,
/// and an event at [`crate::SimTime::MAX`] has no fall. Timestamps strictly
/// increase; the trace's end time closes the dump when it is later than
/// every value change.
pub fn write_vcd(trace: &Trace, voc: &Vocabulary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$date lomon trace export $end");
    let _ = writeln!(out, "$version lomon 0.1.0 $end");
    let _ = writeln!(out, "$timescale 1 ps $end");
    let _ = writeln!(out, "$scope module interface $end");

    // Only names that actually occur, in intern order.
    let mut occurring = NameSet::new();
    for event in trace.iter() {
        occurring.insert(event.name);
    }
    let used: Vec<Name> = occurring.iter().collect();
    let ids: Vec<String> = (0..used.len()).map(id_code).collect();
    for (&name, id) in used.iter().zip(&ids) {
        let _ = writeln!(out, "$var wire 1 {id} {} $end", voc.resolve(name));
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // Initial values.
    let _ = writeln!(out, "#0");
    let _ = writeln!(out, "$dumpvars");
    for id in &ids {
        let _ = writeln!(out, "0{id}");
    }
    let _ = writeln!(out, "$end");

    // One timestamp of events at a time: the wires raised at the previous
    // timestamp `prev` fall at `prev + 1`, unless they rise again there.
    let mut dump = Dump {
        out,
        ids,
        stamped: 0,
    };
    let mut high: Vec<usize> = Vec::new();
    let mut prev = 0;
    let mut events = trace.events();
    while let Some(first) = events.first() {
        let t = first.time.as_ps();
        let group = events.iter().take_while(|e| e.time == first.time).count();
        let mut rising: Vec<usize> = Vec::new();
        for event in &events[..group] {
            let wire = used.binary_search(&event.name).expect("collected above");
            if !rising.contains(&wire) {
                rising.push(wire);
            }
        }
        events = &events[group..];
        if !high.is_empty() && prev + 1 < t {
            dump.changes(prev + 1, high.iter().map(|&w| ('0', w)));
            high.clear();
        }
        let falls = high
            .iter()
            .filter(|w| !rising.contains(w))
            .map(|&w| ('0', w));
        let rises = rising
            .iter()
            .filter(|w| !high.contains(w))
            .map(|&w| ('1', w));
        dump.changes(t, falls.chain(rises));
        high = rising;
        prev = t;
    }
    if let Some(fall) = prev.checked_add(1) {
        dump.changes(fall, high.iter().map(|&w| ('0', w)));
    }
    let end = trace.end_time().as_ps().max(1);
    if end > dump.stamped {
        let _ = writeln!(dump.out, "#{end}");
    }
    dump.out
}

/// The value-change section being written.
struct Dump {
    out: String,
    ids: Vec<String>,
    /// The last `#` timestamp written.
    stamped: u64,
}

impl Dump {
    /// Write `changes` (value, wire) at time `t`, stamping `t` first unless
    /// it is already the current time; no changes write nothing.
    fn changes(&mut self, t: u64, changes: impl Iterator<Item = (char, usize)>) {
        for (value, wire) in changes {
            if t > self.stamped {
                let _ = writeln!(self.out, "#{t}");
                self.stamped = t;
            }
            let _ = writeln!(self.out, "{value}{}", self.ids[wire]);
        }
    }
}

/// The identifier code of the `index`-th wire: base-94 digits over the
/// printable ASCII range `!`..=`~`, least significant first, so every
/// index has its own code of any length.
fn id_code(mut index: usize) -> String {
    let mut code = String::new();
    loop {
        code.push(char::from(b'!' + (index % 94) as u8));
        index /= 94;
        if index == 0 {
            return code;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimTime;

    #[test]
    fn vcd_structure() {
        let mut voc = Vocabulary::new();
        let a = voc.input("set_imgAddr");
        let b = voc.output("set_irq");
        let mut trace = Trace::from_pairs([
            (SimTime::from_ns(1), a),
            (SimTime::from_ns(2), b),
            (SimTime::from_ns(2), a),
        ]);
        trace.set_end_time(SimTime::from_ns(5));
        let vcd = write_vcd(&trace, &voc);
        assert!(vcd.contains("$timescale 1 ps $end"));
        assert!(vcd.contains("$var wire 1 ! set_imgAddr $end"));
        assert!(vcd.contains("$var wire 1 \" set_irq $end"));
        assert!(vcd.contains("#1000"));
        assert!(vcd.contains("#2000"));
        // Pulses rise and fall.
        assert!(vcd.contains("1!"));
        assert!(vcd.contains("0!"));
        // End-time marker.
        assert!(vcd.trim_end().ends_with("#5000"));
    }

    #[test]
    fn empty_trace_is_a_valid_header() {
        let voc = Vocabulary::new();
        let vcd = write_vcd(&Trace::new(), &voc);
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("#0"));
    }

    #[test]
    fn only_occurring_names_become_wires() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let _unused = voc.input("unused");
        let trace = Trace::from_pairs([(SimTime::from_ns(1), a)]);
        let vcd = write_vcd(&trace, &voc);
        assert!(vcd.contains("$var wire 1 ! a $end"));
        assert!(!vcd.contains("unused"));
    }

    #[test]
    fn same_time_events_share_a_timestamp_line() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let b = voc.input("b");
        let mut trace = Trace::from_pairs([(SimTime::from_ns(3), a), (SimTime::from_ns(3), b)]);
        trace.set_end_time(SimTime::from_ns(10));
        let vcd = write_vcd(&trace, &voc);
        let stamps: Vec<&str> = vcd.lines().filter(|l| l.starts_with('#')).collect();
        // #0 (init), #3000 (both events), #3001 (falls), #10000 (end).
        assert_eq!(stamps, vec!["#0", "#3000", "#3001", "#10000"]);
    }
}
