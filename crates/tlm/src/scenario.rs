//! Ready-made verification scenarios on the face-recognition platform —
//! the full Fig. 1 loop: stimuli (button presses), the design under
//! verification (the platform), and the assertion checkers (the attached
//! loose-ordering monitors).
//!
//! A scenario assembles the firmware (with seed-dependent *loose ordering*
//! of the IPU configuration writes — the point of the paper: any order must
//! be accepted), injects the configured faults, attaches the two case-study
//! properties, runs the simulation and reports per-property verdicts plus
//! the recorded trace for offline replay.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use lomon_core::monitor::build_monitor;
use lomon_core::parse::parse_property;
use lomon_core::verdict::Verdict;
use lomon_kernel::Kernel;
use lomon_trace::{SimTime, Trace, Vocabulary};

use crate::firmware::{Firmware, Instr, Operand};
use crate::observe::ObservationHub;
use crate::platform::{ipu_reg, irq, map, EventNames, FaultPlan, Platform, TimingConfig};

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Seed for all loose timing, data and ordering draws.
    pub seed: u64,
    /// Number of button presses (recognition episodes).
    pub captures: u32,
    /// Gallery size the firmware programs into the IPU.
    pub gallery_size: u64,
    /// The budget `t` of the Example 3 timed property.
    pub budget: SimTime,
    /// Fault injections.
    pub fault: FaultPlan,
    /// Platform timing.
    pub timing: TimingConfig,
    /// Attach the online monitors (disable to measure raw simulation
    /// speed, i.e. the monitoring overhead baseline).
    pub monitors: bool,
}

impl ScenarioConfig {
    /// A nominal scenario with sensible defaults.
    pub fn nominal(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            captures: 2,
            gallery_size: 6,
            budget: SimTime::from_us(20),
            fault: FaultPlan::default(),
            timing: TimingConfig::default(),
            monitors: true,
        }
    }

    /// Derive a faulty variant.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// Outcome of a scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Per-property final verdicts, in attachment order
    /// (`example2`, `example3`).
    pub verdicts: Vec<(String, Verdict)>,
    /// The first violation diagnostic, if any.
    pub violation: Option<String>,
    /// The recorded interface trace.
    pub trace: Trace,
    /// The vocabulary the trace is written against.
    pub vocabulary: Vocabulary,
    /// Final simulated time.
    pub end_time: SimTime,
    /// Kernel entries dispatched during the run.
    pub dispatched: u64,
}

impl ScenarioReport {
    /// Whether every monitored property is un-violated.
    pub fn all_ok(&self) -> bool {
        self.verdicts.iter().all(|(_, v)| v.is_ok())
    }
}

/// Build the case-study firmware: per-episode — wait button, capture,
/// configure the IPU (shuffled order; faults may skip/reorder), start,
/// wait the IPU interrupt, display, actuate the lock.
pub fn case_study_firmware(config: &ScenarioConfig) -> Firmware {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xf1f2_f3f4);
    let mut program = Vec::new();

    // Episode loop: the firmware loops forever; the scenario schedules a
    // finite number of button presses.
    let loop_start = program.len();
    program.push(Instr::WaitIrq { mask: irq::GPIO });
    // Capture an image into IMG_BUF.
    program.push(Instr::Write {
        addr: map::SEN,
        value: Operand::Imm(map::IMG_BUF),
    });
    // Poll the sensor until idle.
    let poll = program.len();
    program.push(Instr::Delay {
        lo: SimTime::from_ns(200),
        hi: SimTime::from_ns(400),
    });
    program.push(Instr::Read {
        addr: map::SEN + 0x08,
        reg: 0,
    });
    program.push(Instr::BranchIfEq {
        reg: 0,
        value: 1,
        target: poll,
    });

    // IPU configuration writes, in a seed-dependent order (the loose
    // ordering the paper's Example 2 permits).
    let mut config_writes = vec![
        Instr::Write {
            addr: map::IPU + ipu_reg::IMG_ADDR,
            value: Operand::Imm(map::IMG_BUF),
        },
        Instr::Write {
            addr: map::IPU + ipu_reg::GL_ADDR,
            value: Operand::Imm(map::GL_BUF),
        },
        Instr::Write {
            addr: map::IPU + ipu_reg::GL_SIZE,
            value: Operand::Imm(config.gallery_size),
        },
    ];
    config_writes.shuffle(&mut rng);
    if let Some(skip) = config.fault.skip_register {
        config_writes.remove(skip.min(config_writes.len() - 1));
    }
    let start_write = Instr::Write {
        addr: map::IPU + ipu_reg::CTRL,
        value: Operand::Imm(1),
    };
    if config.fault.early_start && !config_writes.is_empty() {
        // Start before the final configuration write.
        let last = config_writes.pop().expect("non-empty");
        program.extend(config_writes.iter().copied());
        program.push(start_write);
        program.push(last);
    } else {
        program.extend(config_writes.iter().copied());
        program.push(start_write);
        if config.fault.double_start {
            program.push(start_write);
        }
    }

    if config.fault.double_start && config.fault.early_start {
        program.push(start_write);
    }

    // Wait for the IPU unless it will never answer (dropped interrupt
    // would hang the CPU; the monitors flag the miss either way).
    if !config.fault.drop_irq {
        program.push(Instr::WaitIrq { mask: irq::IPU });
        program.push(Instr::Read {
            addr: map::IPU + ipu_reg::STATUS,
            reg: 1,
        });
        program.push(Instr::Write {
            addr: map::LCDC,
            value: Operand::Reg(1),
        });
        // Open the lock on a match (status 2), then close it again.
        let after_lock = program.len() + 5;
        program.push(Instr::BranchIfEq {
            reg: 1,
            value: 2,
            target: program.len() + 2,
        });
        program.push(Instr::Goto(after_lock));
        program.push(Instr::Write {
            addr: map::LOCK,
            value: Operand::Imm(1),
        });
        program.push(Instr::Delay {
            lo: SimTime::from_us(5),
            hi: SimTime::from_us(10),
        });
        program.push(Instr::Write {
            addr: map::LOCK,
            value: Operand::Imm(0),
        });
        debug_assert_eq!(after_lock, program.len());
    }
    program.push(Instr::Goto(loop_start));

    Firmware::new("face-recognition", program)
}

/// The two case-study properties, over the scenario's parameters —
/// `(label, source text)` pairs, in attachment order. Public so campaign
/// layers (e.g. `lomon-smc`) can monitor the same rulebook through their
/// own engine instead of the hub's per-run monitors.
pub fn case_study_properties(config: &ScenarioConfig) -> Vec<(String, String)> {
    let gl = config.gallery_size;
    let budget_ns = config.budget.as_ns();
    vec![
        (
            "example2".to_owned(),
            "all{set_imgAddr, set_glAddr, set_glSize} << start repeated".to_owned(),
        ),
        (
            "example3".to_owned(),
            format!("start => read_img[{gl},{gl}] < set_irq within {budget_ns} ns"),
        ),
    ]
}

/// Run one scenario to quiescence and report.
///
/// # Panics
///
/// Panics if the built-in properties fail to parse or validate (that would
/// be a bug, not a user error).
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioReport {
    let mut voc = Vocabulary::new();
    let names = EventNames::intern(&mut voc);

    // Attach the two case-study monitors.
    let mut monitors = Vec::new();
    if config.monitors {
        for (label, text) in case_study_properties(config) {
            let property = parse_property(&text, &mut voc).expect("scenario property parses");
            let monitor = build_monitor(property, &voc).expect("scenario property is well-formed");
            monitors.push((label, monitor));
        }
    }
    let hub = ObservationHub::new(voc);
    for (label, monitor) in monitors {
        hub.attach(label, Box::new(monitor));
    }

    let firmware = case_study_firmware(config);
    let platform = Platform::build(hub.clone(), names, &firmware, config.timing, config.fault);

    let mut kernel = Kernel::new(config.seed);
    platform.boot(&mut kernel, config.gallery_size);
    // Button presses spaced far enough apart for an episode to finish.
    for k in 0..config.captures {
        platform.press_button_in(
            &mut kernel,
            SimTime::from_us(10) + SimTime::from_ms(u64::from(k)),
        );
    }
    // Run to quiescence, bounded far beyond the last episode.
    let horizon = SimTime::from_ms(u64::from(config.captures) + 10);
    kernel.run_until(horizon);

    let verdicts = hub.finish(&kernel);
    ScenarioReport {
        verdicts,
        violation: hub.first_violation(),
        trace: hub.trace(),
        vocabulary: hub.vocabulary(),
        end_time: kernel.now(),
        dispatched: kernel.dispatched(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_scenario_satisfies_both_properties() {
        for seed in [1, 2, 3, 4, 5] {
            let report = run_scenario(&ScenarioConfig::nominal(seed));
            assert!(
                report.all_ok(),
                "seed {seed}: {:?}\n{}",
                report.verdicts,
                report.violation.unwrap_or_default()
            );
            // Two full episodes happened.
            let voc = &report.vocabulary;
            let start = voc.lookup("start").unwrap();
            assert_eq!(report.trace.names().filter(|n| *n == start).count(), 2);
        }
    }

    #[test]
    fn skipped_register_violates_example2() {
        let config = ScenarioConfig::nominal(7).with_fault(FaultPlan {
            skip_register: Some(1),
            ..FaultPlan::default()
        });
        let report = run_scenario(&config);
        let ex2 = report
            .verdicts
            .iter()
            .find(|(l, _)| l == "example2")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(ex2, Verdict::Violated, "{:?}", report.verdicts);
        assert!(report.violation.unwrap().contains("example2"));
    }

    #[test]
    fn early_start_violates_example2() {
        let config = ScenarioConfig::nominal(8).with_fault(FaultPlan {
            early_start: true,
            ..FaultPlan::default()
        });
        let report = run_scenario(&config);
        let ex2 = report
            .verdicts
            .iter()
            .find(|(l, _)| l == "example2")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(ex2, Verdict::Violated);
    }

    #[test]
    fn dropped_irq_violates_example3_deadline() {
        let config = ScenarioConfig::nominal(9).with_fault(FaultPlan {
            drop_irq: true,
            ..FaultPlan::default()
        });
        let report = run_scenario(&config);
        let ex3 = report
            .verdicts
            .iter()
            .find(|(l, _)| l == "example3")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(ex3, Verdict::Violated);
    }

    #[test]
    fn early_irq_violates_example3_count() {
        let config = ScenarioConfig::nominal(10).with_fault(FaultPlan {
            early_irq: true,
            ..FaultPlan::default()
        });
        let report = run_scenario(&config);
        let ex3 = report
            .verdicts
            .iter()
            .find(|(l, _)| l == "example3")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(ex3, Verdict::Violated);
    }

    #[test]
    fn extra_reads_violate_example3() {
        let config = ScenarioConfig::nominal(11).with_fault(FaultPlan {
            extra_reads: 3,
            ..FaultPlan::default()
        });
        let report = run_scenario(&config);
        let ex3 = report
            .verdicts
            .iter()
            .find(|(l, _)| l == "example3")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(ex3, Verdict::Violated);
    }

    #[test]
    fn slowdown_misses_the_deadline() {
        let config = ScenarioConfig::nominal(12).with_fault(FaultPlan {
            slowdown: 50,
            ..FaultPlan::default()
        });
        let report = run_scenario(&config);
        let ex3 = report
            .verdicts
            .iter()
            .find(|(l, _)| l == "example3")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(ex3, Verdict::Violated);
    }

    #[test]
    fn double_start_violates_repeated_example2() {
        let config = ScenarioConfig::nominal(13).with_fault(FaultPlan {
            double_start: true,
            ..FaultPlan::default()
        });
        let report = run_scenario(&config);
        let ex2 = report
            .verdicts
            .iter()
            .find(|(l, _)| l == "example2")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(ex2, Verdict::Violated);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run_scenario(&ScenarioConfig::nominal(42));
        let b = run_scenario(&ScenarioConfig::nominal(42));
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.dispatched, b.dispatched);
        let c = run_scenario(&ScenarioConfig::nominal(43));
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn recorded_trace_replays_offline_with_same_verdicts() {
        let report = run_scenario(&ScenarioConfig::nominal(21));
        // Rebuild fresh monitors and replay the recorded trace.
        let mut voc = report.vocabulary.clone();
        for (label, text) in case_study_properties(&ScenarioConfig::nominal(21)) {
            let property = parse_property(&text, &mut voc).expect("parses");
            let mut monitor = build_monitor(property, &voc).expect("well-formed");
            let verdict = lomon_core::verdict::run_to_end(&mut monitor, &report.trace);
            let online = report
                .verdicts
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, v)| *v)
                .unwrap();
            assert_eq!(verdict, online, "replay mismatch for {label}");
        }
    }
}
