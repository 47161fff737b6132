//! # lomon-tlm — TLM modelling layer and the case-study platform
//!
//! The paper's case study is "an access-control device based on face
//! recognition" prototyped in SystemC/TLM (Fig. 2). This crate rebuilds
//! that prototype on the `lomon-kernel` scheduler: every component's
//! behaviour is a one-shot callback scheduled with `Kernel::call_in`, and
//! loose timing and data come from the kernel's seeded `Kernel::draw`.
//!
//! * [`payload`] — TLM-2.0 generic payload (blocking transport);
//! * [`bus`] — the address decoder routing transactions to components;
//! * [`observe`] — the observation hub: publishes interface events to
//!   recorded traces and online monitors, and schedules kernel timeouts
//!   for open monitor deadlines;
//! * [`firmware`] — the embedded software as interpretable instructions;
//! * [`platform`] — GPIO, SEN, IPU, LCDC, INTC, TMR1/2, MEM, LOCK, Bus and
//!   CPU, with fault-injection switches;
//! * [`scenario`] — assembled verification scenarios: nominal runs and
//!   seven fault variants, each mapped to the property violations the
//!   monitors must catch.
//!
//! ```
//! use lomon_tlm::scenario::{run_scenario, ScenarioConfig};
//!
//! let report = run_scenario(&ScenarioConfig::nominal(1));
//! assert!(report.all_ok());
//! ```

pub mod bus;
pub mod firmware;
pub mod observe;
pub mod payload;
pub mod platform;
pub mod scenario;

pub use bus::{AddressMap, PortId, Region};
pub use firmware::{Firmware, Instr, Operand};
pub use observe::ObservationHub;
pub use payload::{GenericPayload, TlmCommand, TlmResponse};
pub use platform::{EventNames, FaultPlan, Platform, PlatformHandle, TimingConfig};
pub use scenario::{run_scenario, ScenarioConfig, ScenarioReport};
