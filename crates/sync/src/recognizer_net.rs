//! The Fig. 5 range recognizer as a synchronous network.
//!
//! "The proposed constructions have been programmed in Lustre; it allows to
//! check their correctness with respect to the intuitive semantics […]
//! using automatic testing tools" (paper, Section 6). This module is that
//! second, independent encoding: the elementary recognizer expressed as
//! boolean/integer dataflow equations over the [`crate::network`] runtime —
//! one-hot state registers `s0..s5`, a counter register `cpt`, and
//! combinational `ok`/`nok`/`err` pulses.
//!
//! Property tests (see `tests/lustre_equivalence.rs`) drive this network
//! and the imperative `lomon_core::recognizer::RangeRecognizer` with the
//! same input sequences and require identical states and outputs at every
//! tick.

use crate::network::{Network, NetworkBuilder, Signal};

/// The event classification fed to the network at each tick (at most one
/// per tick, mirroring the asynchronous interleaving of TLM models).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassInput {
    /// The range's own name `n`.
    Own,
    /// A sibling range's name (`C`).
    Concurrent,
    /// A stopping name (`Ac`).
    Accept,
    /// A later-than-next name (`Af`).
    After,
    /// A preceding fragment's name (`B`).
    Before,
}

/// Outputs of one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetOutput {
    /// Recognition finished successfully.
    pub ok: bool,
    /// Stopped without participating (allowed under `∨`).
    pub nok: bool,
    /// The tick violated the range's obligations.
    pub err: bool,
}

/// Mirror of `lomon_core::recognizer::RangeState` read back from the
/// one-hot registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetState {
    /// `s0`.
    Idle,
    /// `s1`.
    Waiting,
    /// `s2`.
    WaitingOther,
    /// `s3`.
    Counting,
    /// `s4`.
    Done,
    /// `s5`.
    Error,
}

/// The synchronous-network encoding of one range recognizer.
#[derive(Debug, Clone)]
pub struct RangeRecognizerNet {
    net: Network,
    start: Signal,
    n: Signal,
    c: Signal,
    ac: Signal,
    af: Signal,
    b: Signal,
    s: [Signal; 6],
    cpt: Signal,
    ok: Signal,
    nok: Signal,
    err: Signal,
}

impl RangeRecognizerNet {
    /// Build the network for a range `n[u,v]` whose parent fragment has
    /// disjunctive semantics iff `is_or`.
    pub fn new(u: u32, v: u32, is_or: bool) -> Self {
        let mut bld = NetworkBuilder::new();
        // Inputs.
        let start = bld.input_bool("start");
        let n = bld.input_bool("n");
        let c = bld.input_bool("c");
        let ac = bld.input_bool("ac");
        let af = bld.input_bool("af");
        let b = bld.input_bool("b");
        // State registers (one-hot, s0 initially).
        let s0 = bld.register_bool("s0", true);
        let s1 = bld.register_bool("s1", false);
        let s2 = bld.register_bool("s2", false);
        let s3 = bld.register_bool("s3", false);
        let s4 = bld.register_bool("s4", false);
        let s5 = bld.register_bool("s5", false);
        let cpt = bld.register_int("cpt", 0);
        // Constants and derived conditions.
        let is_or_sig = bld.const_bool(is_or);
        let is_and_sig = bld.const_bool(!is_or);
        let u_const = bld.const_int(i64::from(u));
        let v_const = bld.const_int(i64::from(v));
        let one = bld.const_int(1);
        let cpt_ge_u = bld.ge(cpt, u_const);
        let cpt_lt_u = bld.not(cpt_ge_u);
        let cpt_eq_v = bld.eq_int(cpt, v_const);
        let cpt_lt_v = bld.not(cpt_eq_v); // cpt never exceeds v
        let not_n = bld.not(n);
        let not_c = bld.not(c);
        let any_event = bld.or(&[n, c, ac, af, b]);
        let none = bld.not(any_event);
        let af_or_b = bld.or(&[af, b]);

        // Output pulses (Fig. 5 transitions).
        let s3_ac_ok = bld.and(&[s3, ac, cpt_ge_u]);
        let s4_ac = bld.and(&[s4, ac]);
        let ok = bld.or(&[s3_ac_ok, s4_ac]);
        let nok = bld.and(&[s2, ac, is_or_sig]);
        let ac_af_b = bld.or(&[ac, af, b]);
        let af_b_n = bld.or(&[af, b, n]);
        let e1 = bld.and(&[s1, ac_af_b]);
        let e2a = bld.and(&[s2, af_or_b]);
        let e2b = bld.and(&[s2, ac, is_and_sig]);
        let e3a = bld.and(&[s3, af_or_b]);
        let e3b = bld.and(&[s3, n, cpt_eq_v]);
        let e3c = bld.and(&[s3, c, cpt_lt_u]);
        let e3d = bld.and(&[s3, ac, cpt_lt_u]);
        let e4 = bld.and(&[s4, af_b_n]);
        let err = bld.or(&[e1, e2a, e2b, e3a, e3b, e3c, e3d, e4]);

        // Next-state equations.
        let not_start = bld.not(start);
        let s0_stay = bld.and(&[s0, not_start]);
        let next_s0 = bld.or(&[s0_stay, ok, nok]);

        let start_alone = bld.and(&[s0, start, not_n, not_c]);
        let s1_stay = bld.and(&[s1, none]);
        let next_s1 = bld.or(&[start_alone, s1_stay]);

        let start_c = bld.and(&[s0, start, c, not_n]);
        let s1_c = bld.and(&[s1, c]);
        let c_or_none = bld.or(&[c, none]);
        let s2_stay = bld.and(&[s2, c_or_none]);
        let next_s2 = bld.or(&[start_c, s1_c, s2_stay]);

        let start_n = bld.and(&[s0, start, n]);
        let s1_n = bld.and(&[s1, n]);
        let s2_n = bld.and(&[s2, n]);
        let enter_s3 = bld.or(&[start_n, s1_n, s2_n]);
        let s3_count = bld.and(&[s3, n, cpt_lt_v]);
        let s3_stay = bld.and(&[s3, none]);
        let next_s3 = bld.or(&[enter_s3, s3_count, s3_stay]);

        let s3_to_s4 = bld.and(&[s3, c, cpt_ge_u]);
        let s4_stay = bld.and(&[s4, c_or_none]);
        let next_s4 = bld.or(&[s3_to_s4, s4_stay]);

        let next_s5 = bld.or(&[s5, err]);

        // Counter: 1 on block entry, +1 while counting, else hold.
        let cpt_plus = bld.add(cpt, one);
        let counting = bld.and(&[s3, n, cpt_lt_v]);
        let hold_or_inc = bld.mux_int(counting, cpt_plus, cpt);
        let next_cpt = bld.mux_int(enter_s3, one, hold_or_inc);

        bld.drive_register(s0, next_s0);
        bld.drive_register(s1, next_s1);
        bld.drive_register(s2, next_s2);
        bld.drive_register(s3, next_s3);
        bld.drive_register(s4, next_s4);
        bld.drive_register(s5, next_s5);
        bld.drive_register(cpt, next_cpt);

        RangeRecognizerNet {
            net: bld.build(),
            start,
            n,
            c,
            ac,
            af,
            b,
            s: [s0, s1, s2, s3, s4, s5],
            cpt,
            ok,
            nok,
            err,
        }
    }

    /// Run one synchronous instant with the given inputs.
    pub fn step(&mut self, start: bool, class: Option<ClassInput>) -> NetOutput {
        self.net.clear_inputs();
        self.net.set_bool(self.start, start);
        if let Some(class) = class {
            let signal = match class {
                ClassInput::Own => self.n,
                ClassInput::Concurrent => self.c,
                ClassInput::Accept => self.ac,
                ClassInput::After => self.af,
                ClassInput::Before => self.b,
            };
            self.net.set_bool(signal, true);
        }
        self.net.tick();
        NetOutput {
            ok: self.net.get(self.ok).as_bool(),
            nok: self.net.get(self.nok).as_bool(),
            err: self.net.get(self.err).as_bool(),
        }
    }

    /// The current (one-hot decoded) state.
    ///
    /// # Panics
    ///
    /// Panics if the one-hot invariant is broken — that would be a bug in
    /// the equations, and the property tests are there to find it.
    pub fn state(&self) -> NetState {
        let states = [
            NetState::Idle,
            NetState::Waiting,
            NetState::WaitingOther,
            NetState::Counting,
            NetState::Done,
            NetState::Error,
        ];
        let mut found = None;
        for (sig, state) in self.s.iter().zip(states) {
            if self.net.get(*sig).as_bool() {
                assert!(found.is_none(), "one-hot violation: two states active");
                found = Some(state);
            }
        }
        found.expect("one-hot violation: no state active")
    }

    /// The current counter value.
    pub fn count(&self) -> i64 {
        self.net.get(self.cpt).as_int()
    }

    /// Total register bits (compare with the paper's space accounting).
    pub fn state_bits(&self) -> u64 {
        self.net.state_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_recognition_sequence() {
        // n[2,8] in an ∨-fragment: start, n, n, Ac → ok.
        let mut net = RangeRecognizerNet::new(2, 8, true);
        assert_eq!(net.state(), NetState::Idle);
        net.step(true, None);
        assert_eq!(net.state(), NetState::Waiting);
        net.step(false, Some(ClassInput::Own));
        assert_eq!(net.state(), NetState::Counting);
        assert_eq!(net.count(), 1);
        net.step(false, Some(ClassInput::Own));
        assert_eq!(net.count(), 2);
        let out = net.step(false, Some(ClassInput::Accept));
        assert!(out.ok && !out.nok && !out.err);
        assert_eq!(net.state(), NetState::Idle);
    }

    #[test]
    fn start_coinciding_with_own_name() {
        let mut net = RangeRecognizerNet::new(1, 1, false);
        net.step(true, Some(ClassInput::Own));
        assert_eq!(net.state(), NetState::Counting);
        assert_eq!(net.count(), 1);
    }

    #[test]
    fn start_coinciding_with_sibling() {
        let mut net = RangeRecognizerNet::new(1, 1, false);
        net.step(true, Some(ClassInput::Concurrent));
        assert_eq!(net.state(), NetState::WaitingOther);
    }

    #[test]
    fn premature_accept_errs() {
        let mut net = RangeRecognizerNet::new(2, 8, true);
        net.step(true, None);
        net.step(false, Some(ClassInput::Own));
        let out = net.step(false, Some(ClassInput::Accept));
        assert!(out.err);
        assert_eq!(net.state(), NetState::Error);
    }

    #[test]
    fn error_is_latched_without_further_pulses() {
        let mut net = RangeRecognizerNet::new(1, 1, false);
        net.step(true, None);
        let out = net.step(false, Some(ClassInput::Before));
        assert!(out.err);
        let out = net.step(false, Some(ClassInput::Own));
        assert!(!out.err && !out.ok && !out.nok);
        assert_eq!(net.state(), NetState::Error);
    }

    #[test]
    fn skipped_range_noks_under_or() {
        let mut net = RangeRecognizerNet::new(1, 1, true);
        net.step(true, None);
        net.step(false, Some(ClassInput::Concurrent));
        let out = net.step(false, Some(ClassInput::Accept));
        assert!(out.nok && !out.ok && !out.err);
        assert_eq!(net.state(), NetState::Idle);
    }

    #[test]
    fn skipped_range_errs_under_and() {
        let mut net = RangeRecognizerNet::new(1, 1, false);
        net.step(true, None);
        net.step(false, Some(ClassInput::Concurrent));
        let out = net.step(false, Some(ClassInput::Accept));
        assert!(out.err);
    }

    #[test]
    fn overcount_errs() {
        let mut net = RangeRecognizerNet::new(1, 2, false);
        net.step(true, None);
        net.step(false, Some(ClassInput::Own));
        net.step(false, Some(ClassInput::Own));
        let out = net.step(false, Some(ClassInput::Own));
        assert!(out.err);
    }

    #[test]
    fn no_event_tick_holds_state() {
        let mut net = RangeRecognizerNet::new(1, 2, false);
        net.step(true, None);
        net.step(false, Some(ClassInput::Own));
        let before = (net.state(), net.count());
        net.step(false, None);
        assert_eq!((net.state(), net.count()), before);
    }

    #[test]
    fn state_bits_account_registers() {
        let net = RangeRecognizerNet::new(1, 2, false);
        // 6 boolean one-hot registers + one 64-bit counter.
        assert_eq!(net.state_bits(), 6 + 64);
    }
}
