//! End-to-end integration: property text → monitors → virtual platform →
//! recorded trace → offline replay → same verdicts, across all the
//! workspace crates.

use lomon::core::monitor::build_monitor;
use lomon::core::parse::parse_property;
use lomon::core::verdict::{run_to_end, Verdict};
use lomon::gen::{generate, GeneratorConfig};
use lomon::psl::monitor::PslMonitor;
use lomon::tlm::platform::FaultPlan;
use lomon::tlm::scenario::{run_scenario, ScenarioConfig};
use lomon::trace::{read_trace_bytes, write_trace, Vocabulary};

#[test]
fn platform_run_replays_identically_through_files() {
    let report = run_scenario(&ScenarioConfig::nominal(1234));
    assert!(report.all_ok());

    // Serialize the trace, read it back into a fresh vocabulary.
    let text = write_trace(&report.trace, &report.vocabulary);
    let mut voc = Vocabulary::new();
    let trace = read_trace_bytes(text.as_bytes(), &mut voc).expect("file parses");
    assert_eq!(trace.len(), report.trace.len());
    assert_eq!(trace.end_time(), report.trace.end_time());

    // Replay through freshly built monitors: verdicts match online ones.
    let config = ScenarioConfig::nominal(1234);
    let gl = config.gallery_size;
    let budget = config.budget.as_ns();
    for (label, property_text) in [
        (
            "example2",
            "all{set_imgAddr, set_glAddr, set_glSize} << start repeated".to_owned(),
        ),
        (
            "example3",
            format!("start => read_img[{gl},{gl}] < set_irq within {budget} ns"),
        ),
    ] {
        let property = parse_property(&property_text, &mut voc).expect("parses");
        let mut monitor = build_monitor(property, &voc).expect("well-formed");
        let offline = run_to_end(&mut monitor, &trace);
        let online = report
            .verdicts
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| *v)
            .expect("verdict present");
        assert_eq!(offline, online, "{label}");
    }
}

#[test]
fn faulty_platform_trace_fails_replay_with_both_strategies() {
    let config = ScenarioConfig::nominal(55).with_fault(FaultPlan {
        skip_register: Some(0),
        ..FaultPlan::default()
    });
    let report = run_scenario(&config);
    assert!(!report.all_ok());

    // Offline, the untimed Example 2 violation must be caught by the Drct
    // monitor *and* the ViaPSL monitor.
    let mut voc = report.vocabulary.clone();
    let property = parse_property(
        "all{set_imgAddr, set_glAddr, set_glSize} << start repeated",
        &mut voc,
    )
    .expect("parses");

    let mut drct = build_monitor(property.clone(), &voc).expect("well-formed");
    assert_eq!(run_to_end(&mut drct, &report.trace), Verdict::Violated);

    let mut viapsl = PslMonitor::build(&property).expect("translatable");
    assert_eq!(run_to_end(&mut viapsl, &report.trace), Verdict::Violated);
}

#[test]
fn generated_stimuli_accepted_by_both_strategies() {
    let mut voc = Vocabulary::new();
    let property = parse_property(
        "all{set_imgAddr, set_glAddr, set_glSize} << start repeated",
        &mut voc,
    )
    .expect("parses");
    for seed in 0..10 {
        let trace = generate(&property, &GeneratorConfig::new(seed)).trace;
        let mut drct = build_monitor(property.clone(), &voc).expect("well-formed");
        assert!(run_to_end(&mut drct, &trace).is_ok(), "seed {seed}");
        let mut viapsl = PslMonitor::build(&property).expect("translatable");
        assert!(run_to_end(&mut viapsl, &trace).is_ok(), "seed {seed}");
    }
}

#[test]
fn umbrella_reexports_are_usable() {
    // The umbrella crate exposes every subsystem under one namespace.
    let mut voc = lomon::trace::Vocabulary::new();
    let a = voc.input("a");
    let i = voc.input("i");
    let property = lomon::core::Antecedent::new(
        lomon::core::LooseOrdering::new(vec![lomon::core::Fragment::singleton(
            lomon::core::Range::once(a),
        )]),
        i,
        false,
    );
    let mut monitor = lomon::core::AntecedentMonitor::new(property);
    let verdict = run_to_end(&mut monitor, &lomon::trace::Trace::from_names([a, i]));
    assert_eq!(verdict, Verdict::Satisfied);

    // Kernel + sync are reachable too.
    let mut kernel = lomon::kernel::Kernel::new(1);
    kernel.call_in(lomon::trace::SimTime::from_ns(5), |_| {});
    assert_eq!(kernel.run(10), 1);
    let net = lomon::sync::RangeRecognizerNet::new(1, 2, false);
    assert!(net.state_bits() > 0);
}

#[test]
fn fig6_pipeline_smoke() {
    // The full Fig. 6 pipeline (property → workload → both strategies)
    // runs for every row; detailed shape checks live in lomon-bench.
    use lomon::psl::complexity::viapsl_cost;
    for text in [
        "n << i repeated",
        "all{n1, n2, n3, n4} << i once",
        "n1 => n2 < n3 < n4 within 1 ms",
    ] {
        let mut voc = Vocabulary::new();
        let property = parse_property(text, &mut voc).expect(text);
        let workload = generate(&property, &GeneratorConfig::new(2)).trace;
        let drct = lomon::core::complexity::measure_drct(&property, &workload, &voc);
        let psl = viapsl_cost(&property).expect("translatable");
        assert!(
            (drct.ops_per_event as u64) < psl.ops_per_event,
            "{text}: Drct must be cheaper"
        );
    }
}
