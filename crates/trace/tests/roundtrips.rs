//! Property tests for the trace infrastructure: text-format roundtrips,
//! projection laws, and run-length lexing invariants.

use proptest::prelude::*;

use lomon_trace::{
    read_trace_bytes, write_trace, Direction, Name, NameSet, RunLengthLexer, SimTime, Trace,
    Vocabulary,
};

fn build_trace(steps: &[(u8, u16)], voc: &mut Vocabulary) -> Trace {
    let mut clock = 0u64;
    let mut trace = Trace::new();
    for &(name_ix, gap) in steps {
        clock += u64::from(gap);
        let name = if name_ix % 2 == 0 {
            voc.intern(&format!("in{}", name_ix % 8), Direction::Input)
        } else {
            voc.intern(&format!("out{}", name_ix % 8), Direction::Output)
        };
        trace.push(name, SimTime::from_ps(clock));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// write → read is the identity on events, directions and end time.
    #[test]
    fn text_format_roundtrip(
        steps in prop::collection::vec((any::<u8>(), 0u16..5000), 0..60),
        extra_end in 0u64..10_000,
    ) {
        let mut voc = Vocabulary::new();
        let mut trace = build_trace(&steps, &mut voc);
        trace.set_end_time(trace.end_time() + SimTime::from_ps(extra_end));

        let text = write_trace(&trace, &voc);
        let mut voc2 = Vocabulary::new();
        let back = read_trace_bytes(text.as_bytes(), &mut voc2).expect("roundtrip parses");

        prop_assert_eq!(back.len(), trace.len());
        prop_assert_eq!(back.end_time(), trace.end_time());
        for (a, b) in trace.iter().zip(back.iter()) {
            prop_assert_eq!(a.time, b.time);
            prop_assert_eq!(voc.resolve(a.name), voc2.resolve(b.name));
            prop_assert_eq!(voc.direction(a.name), voc2.direction(b.name));
        }
    }

    /// Projection is idempotent and commutes with intersection order.
    #[test]
    fn projection_laws(
        steps in prop::collection::vec((any::<u8>(), 0u16..100), 0..60),
        keep in prop::collection::vec(any::<bool>(), 16),
    ) {
        let mut voc = Vocabulary::new();
        let trace = build_trace(&steps, &mut voc);
        let alphabet: NameSet = voc
            .iter()
            .filter(|n| keep[n.index() % keep.len()])
            .collect();
        let once = trace.project(&alphabet);
        let twice = once.project(&alphabet);
        prop_assert_eq!(&once, &twice, "projection must be idempotent");
        prop_assert!(once.names().all(|n| alphabet.contains(n)));
        prop_assert_eq!(once.end_time(), trace.end_time());
    }

    /// Lexing never loses events: the run lengths of the tokens sum to the
    /// number of collapsible events, and non-collapsible names pass 1:1.
    #[test]
    fn lexer_conserves_events(
        steps in prop::collection::vec((0u8..6, 0u16..100), 0..80),
        collapse_mask in 0u8..64,
    ) {
        let mut voc = Vocabulary::new();
        let trace = build_trace(&steps, &mut voc);
        let collapsible: NameSet = voc
            .iter()
            .filter(|n| collapse_mask & (1 << (n.index() % 6)) != 0)
            .collect();
        let tokens = RunLengthLexer::lex_trace(collapsible.clone(), &trace);
        let total: u64 = tokens.iter().map(|t| u64::from(t.token.run)).sum();
        prop_assert_eq!(total, trace.len() as u64);
        // Tokens of non-collapsible names always have run 1.
        for t in &tokens {
            if !collapsible.contains(t.token.name) {
                prop_assert_eq!(t.token.run, 1);
            }
            prop_assert!(t.first_time <= t.last_time);
        }
        // Replaying the tokens reconstructs the original name sequence.
        let replayed: Vec<Name> = tokens
            .iter()
            .flat_map(|t| std::iter::repeat_n(t.token.name, t.token.run as usize))
            .collect();
        prop_assert_eq!(replayed, trace.names().collect::<Vec<_>>());
    }

    /// With per-name bounds, every emitted token of a bounded name is at
    /// most one over its bound (the eager overflow token).
    #[test]
    fn bounded_lexer_caps_runs(
        repeats in prop::collection::vec(1u32..12, 1..20),
        bound in 1u32..6,
    ) {
        let mut voc = Vocabulary::new();
        let n = voc.input("n");
        let sep = voc.input("sep");
        let mut clock = 0u64;
        let mut trace = Trace::new();
        for &r in &repeats {
            for _ in 0..r {
                clock += 1;
                trace.push(n, SimTime::from_ps(clock));
            }
            clock += 1;
            trace.push(sep, SimTime::from_ps(clock));
        }
        let mut lexer =
            RunLengthLexer::new([n].into_iter().collect::<NameSet>()).with_bound(n, bound);
        let mut tokens = Vec::new();
        for &e in trace.iter() {
            tokens.extend(lexer.push(e));
        }
        tokens.extend(lexer.finish());
        for t in tokens.iter().filter(|t| t.token.name == n) {
            prop_assert!(t.token.run <= bound + 1, "run {} > bound+1", t.token.run);
        }
    }
}
