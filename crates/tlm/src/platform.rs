//! The virtual platform of the case study (paper Fig. 2).
//!
//! An access-control device based on face recognition: a CPU running
//! interpreted [`crate::firmware`] drives, over a memory-mapped bus, an
//! image sensor (SEN), an image processing unit (IPU), an LCD controller
//! (LCDC), an interrupt controller (INTC), two timers, the system memory
//! (MEM), a door-lock actuator (LOCK) and a GPIO button block. The IPU is
//! the monitored component: its interface events (`set_imgAddr`,
//! `set_glAddr`, `set_glSize`, `start`, `read_img`, `set_irq`) are
//! published through the [`ObservationHub`], alongside platform-level
//! events (`btn_press`, `capture_done`, `lcd_update`, `lock_open`,
//! `lock_close`).
//!
//! All components live in one `Platform` struct behind an `Rc<RefCell<…>>`
//! handle; TLM-LT blocking transport is direct dispatch through the
//! [`AddressMap`], and autonomous behaviour (IPU gallery scans, sensor DMA,
//! timers) is scheduled as kernel callbacks capturing the handle — the
//! idiomatic Rust shape for a single-threaded SystemC-like model.

use std::cell::RefCell;
use std::rc::Rc;

use lomon_kernel::Kernel;
use lomon_trace::{Direction, Name, SimTime, Vocabulary};

use crate::bus::{AddressMap, PortId};
use crate::firmware::{Firmware, Instr, Operand};
use crate::observe::ObservationHub;
use crate::payload::{GenericPayload, TlmCommand, TlmResponse};

/// Interrupt lines into the INTC.
pub mod irq {
    /// The IPU's end-of-recognition interrupt.
    pub const IPU: u64 = 1 << 0;
    /// Timer 1.
    pub const TMR1: u64 = 1 << 1;
    /// Timer 2.
    pub const TMR2: u64 = 1 << 2;
    /// GPIO button block.
    pub const GPIO: u64 = 1 << 3;
}

/// The platform memory map (base addresses).
pub mod map {
    /// System memory.
    pub const MEM: u64 = 0x0000_0000;
    /// Memory size in bytes.
    pub const MEM_SIZE: u64 = 0x1_0000;
    /// Image processing unit registers.
    pub const IPU: u64 = 0x1000_0000;
    /// Interrupt controller registers.
    pub const INTC: u64 = 0x2000_0000;
    /// Timer 1 registers.
    pub const TMR1: u64 = 0x3000_0000;
    /// Timer 2 registers.
    pub const TMR2: u64 = 0x3100_0000;
    /// GPIO registers.
    pub const GPIO: u64 = 0x4000_0000;
    /// Image sensor registers.
    pub const SEN: u64 = 0x5000_0000;
    /// LCD controller registers.
    pub const LCDC: u64 = 0x6000_0000;
    /// Door-lock actuator registers.
    pub const LOCK: u64 = 0x7000_0000;

    /// Captured-image buffer (in MEM).
    pub const IMG_BUF: u64 = 0x100;
    /// Gallery buffer (in MEM).
    pub const GL_BUF: u64 = 0x1000;
}

/// IPU register offsets.
pub mod ipu_reg {
    /// Image address register (write publishes `set_imgAddr`).
    pub const IMG_ADDR: u64 = 0x00;
    /// Gallery address register (`set_glAddr`).
    pub const GL_ADDR: u64 = 0x08;
    /// Gallery size register (`set_glSize`).
    pub const GL_SIZE: u64 = 0x10;
    /// Control register (writing 1 publishes `start`).
    pub const CTRL: u64 = 0x18;
    /// Status register: 0 idle, 1 busy, 2 match, 3 no-match.
    pub const STATUS: u64 = 0x20;
    /// Best-match score.
    pub const RESULT: u64 = 0x28;
}

/// IPU status codes.
pub mod ipu_status {
    /// Idle, never started.
    pub const IDLE: u64 = 0;
    /// Recognition in progress.
    pub const BUSY: u64 = 1;
    /// Finished: face matched.
    pub const MATCH: u64 = 2;
    /// Finished: no match.
    pub const NO_MATCH: u64 = 3;
}

/// Fault injections — each maps to a property violation the monitors must
/// catch (or, for the nominal plan, to none).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Skip the k-th IPU configuration write (0..3): violates Example 2.
    pub skip_register: Option<usize>,
    /// Issue `start` before the last configuration write: violates
    /// Example 2.
    pub early_start: bool,
    /// The IPU never raises its interrupt: deadline miss in Example 3.
    pub drop_irq: bool,
    /// The IPU raises the interrupt after a single gallery read:
    /// premature stop in Example 3.
    pub early_irq: bool,
    /// Extra gallery reads beyond the configured size: too many in
    /// Example 3.
    pub extra_reads: u32,
    /// Multiply gallery-read delays (deadline miss when large).
    pub slowdown: u32,
    /// Write `start` twice in a row: violates the repeated Example 2.
    pub double_start: bool,
}

/// Timing parameters of the platform (all loose intervals).
#[derive(Debug, Clone, Copy)]
pub struct TimingConfig {
    /// Per-instruction CPU cost.
    pub cpu_lo: SimTime,
    /// Per-instruction CPU cost (upper).
    pub cpu_hi: SimTime,
    /// Gallery-read interval (lower).
    pub read_lo: SimTime,
    /// Gallery-read interval (upper).
    pub read_hi: SimTime,
    /// Sensor capture duration (lower).
    pub capture_lo: SimTime,
    /// Sensor capture duration (upper).
    pub capture_hi: SimTime,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            cpu_lo: SimTime::from_ns(5),
            cpu_hi: SimTime::from_ns(15),
            read_lo: SimTime::from_ns(50),
            read_hi: SimTime::from_ns(150),
            capture_lo: SimTime::from_us(1),
            capture_hi: SimTime::from_us(3),
        }
    }
}

/// The published interface names (pre-interned).
#[derive(Debug, Clone, Copy)]
pub struct EventNames {
    /// Write to the IPU image-address register.
    pub set_img_addr: Name,
    /// Write to the IPU gallery-address register.
    pub set_gl_addr: Name,
    /// Write to the IPU gallery-size register.
    pub set_gl_size: Name,
    /// Recognition launched.
    pub start: Name,
    /// The IPU read one gallery image.
    pub read_img: Name,
    /// The IPU raised its interrupt.
    pub set_irq: Name,
    /// A button was pressed.
    pub btn_press: Name,
    /// The sensor finished a capture.
    pub capture_done: Name,
    /// The LCD was updated.
    pub lcd_update: Name,
    /// The lock opened.
    pub lock_open: Name,
    /// The lock closed.
    pub lock_close: Name,
}

impl EventNames {
    /// Intern all platform names into a vocabulary.
    pub fn intern(voc: &mut Vocabulary) -> Self {
        EventNames {
            set_img_addr: voc.intern("set_imgAddr", Direction::Input),
            set_gl_addr: voc.intern("set_glAddr", Direction::Input),
            set_gl_size: voc.intern("set_glSize", Direction::Input),
            start: voc.intern("start", Direction::Input),
            read_img: voc.intern("read_img", Direction::Output),
            set_irq: voc.intern("set_irq", Direction::Output),
            btn_press: voc.intern("btn_press", Direction::Input),
            capture_done: voc.intern("capture_done", Direction::Output),
            lcd_update: voc.intern("lcd_update", Direction::Output),
            lock_open: voc.intern("lock_open", Direction::Output),
            lock_close: voc.intern("lock_close", Direction::Output),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Port {
    Mem,
    Ipu,
    Intc,
    Tmr1,
    Tmr2,
    Gpio,
    Sen,
    Lcdc,
    Lock,
}

#[derive(Debug, Default)]
struct IpuState {
    img_addr: u64,
    gl_addr: u64,
    gl_size: u64,
    status: u64,
    result: u64,
    reads_done: u64,
    generation: u64,
}

#[derive(Debug, Default)]
struct IntcState {
    pending: u64,
}

#[derive(Debug, Default)]
struct TimerState {
    load_ns: u64,
    running: bool,
    generation: u64,
}

#[derive(Debug, Default)]
struct SensorState {
    /// 0 = idle/done, 1 = capturing.
    busy: u64,
    generation: u64,
}

#[derive(Debug)]
struct CpuState {
    pc: usize,
    regs: [u64; 8],
    program: Vec<Instr>,
    /// Interrupt mask the CPU is blocked on (0 = not waiting).
    wait_mask: u64,
    halted: bool,
    running: bool,
}

/// The assembled platform. Create with [`Platform::build`], boot with
/// [`PlatformHandle::boot`], then run the [`Kernel`].
pub struct Platform {
    hub: ObservationHub,
    names: EventNames,
    address_map: AddressMap,
    ports: Vec<Port>,
    timing: TimingConfig,
    fault: FaultPlan,
    mem: Vec<u64>,
    ipu: IpuState,
    intc: IntcState,
    tmr1: TimerState,
    tmr2: TimerState,
    sen: SensorState,
    gpio_buttons: u64,
    lock_open: bool,
    cpu: CpuState,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("ipu", &self.ipu)
            .field("intc", &self.intc)
            .field("cpu_pc", &self.cpu.pc)
            .finish()
    }
}

/// Cloneable handle to the platform (kernel callbacks capture clones).
#[derive(Clone)]
pub struct PlatformHandle(Rc<RefCell<Platform>>);

impl std::fmt::Debug for PlatformHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.borrow().fmt(f)
    }
}

impl Platform {
    /// Assemble the platform: memory map, components, firmware and fault
    /// plan. The hub carries the (pre-interned) vocabulary and monitors.
    pub fn build(
        hub: ObservationHub,
        names: EventNames,
        firmware: &Firmware,
        timing: TimingConfig,
        fault: FaultPlan,
    ) -> PlatformHandle {
        firmware
            .validate(8)
            .expect("firmware must validate before boot");
        let mut address_map = AddressMap::new();
        let mut ports = Vec::new();
        let mut add = |map: &mut AddressMap, base: u64, size: u64, port: Port| {
            let id = map.map(base, size);
            debug_assert_eq!(id, PortId(ports.len()));
            ports.push(port);
        };
        add(&mut address_map, map::MEM, map::MEM_SIZE, Port::Mem);
        add(&mut address_map, map::IPU, 0x40, Port::Ipu);
        add(&mut address_map, map::INTC, 0x10, Port::Intc);
        add(&mut address_map, map::TMR1, 0x10, Port::Tmr1);
        add(&mut address_map, map::TMR2, 0x10, Port::Tmr2);
        add(&mut address_map, map::GPIO, 0x08, Port::Gpio);
        add(&mut address_map, map::SEN, 0x10, Port::Sen);
        add(&mut address_map, map::LCDC, 0x08, Port::Lcdc);
        add(&mut address_map, map::LOCK, 0x08, Port::Lock);

        PlatformHandle(Rc::new(RefCell::new(Platform {
            hub,
            names,
            address_map,
            ports,
            timing,
            fault,
            mem: vec![0; (map::MEM_SIZE / 8) as usize],
            ipu: IpuState::default(),
            intc: IntcState::default(),
            tmr1: TimerState::default(),
            tmr2: TimerState::default(),
            sen: SensorState::default(),
            gpio_buttons: 0,
            lock_open: false,
            cpu: CpuState {
                pc: 0,
                regs: [0; 8],
                program: firmware.program.clone(),
                wait_mask: 0,
                halted: false,
                running: false,
            },
        })))
    }

    fn mem_word(&mut self, address: u64) -> &mut u64 {
        let index = (address / 8) as usize;
        &mut self.mem[index]
    }

    /// Raise interrupt lines; wakes the CPU if it waits on any of them.
    /// Returns whether the CPU must be rescheduled.
    fn raise_irq(&mut self, bits: u64) -> bool {
        self.intc.pending |= bits;
        self.cpu.wait_mask & self.intc.pending != 0
    }

    /// TLM-LT blocking transport: route and execute one transaction.
    fn b_transport(&mut self, payload: &mut GenericPayload, kernel: &mut Kernel) -> BusEffect {
        let Some((port, offset)) = self.address_map.route(payload) else {
            return BusEffect::None;
        };
        let port = self.ports[port.0];
        match (port, payload.command) {
            (Port::Mem, TlmCommand::Read) => {
                payload.data = *self.mem_word(offset);
                payload.response = TlmResponse::Ok;
                BusEffect::None
            }
            (Port::Mem, TlmCommand::Write) => {
                *self.mem_word(offset) = payload.data;
                payload.response = TlmResponse::Ok;
                BusEffect::None
            }
            (Port::Ipu, _) => self.ipu_access(payload, offset, kernel),
            (Port::Intc, TlmCommand::Read) if offset == 0x00 => {
                payload.data = self.intc.pending;
                payload.response = TlmResponse::Ok;
                BusEffect::None
            }
            (Port::Intc, TlmCommand::Write) if offset == 0x08 => {
                self.intc.pending &= !payload.data;
                payload.response = TlmResponse::Ok;
                BusEffect::None
            }
            (Port::Tmr1, TlmCommand::Write) => {
                payload.response = TlmResponse::Ok;
                Self::timer_access(&mut self.tmr1, offset, payload.data, 0)
            }
            (Port::Tmr2, TlmCommand::Write) => {
                payload.response = TlmResponse::Ok;
                Self::timer_access(&mut self.tmr2, offset, payload.data, 1)
            }
            (Port::Gpio, TlmCommand::Read) if offset == 0x00 => {
                payload.data = self.gpio_buttons;
                payload.response = TlmResponse::Ok;
                BusEffect::None
            }
            (Port::Sen, TlmCommand::Write) if offset == 0x00 => {
                payload.response = TlmResponse::Ok;
                self.sen.busy = 1;
                self.sen.generation += 1;
                BusEffect::StartCapture {
                    destination: payload.data,
                    generation: self.sen.generation,
                }
            }
            (Port::Sen, TlmCommand::Read) if offset == 0x08 => {
                payload.data = self.sen.busy;
                payload.response = TlmResponse::Ok;
                BusEffect::None
            }
            (Port::Lcdc, TlmCommand::Write) if offset == 0x00 => {
                payload.response = TlmResponse::Ok;
                self.hub.publish(self.names.lcd_update, kernel);
                BusEffect::None
            }
            (Port::Lock, TlmCommand::Write) if offset == 0x00 => {
                payload.response = TlmResponse::Ok;
                let open = payload.data != 0;
                if open != self.lock_open {
                    self.lock_open = open;
                    let name = if open {
                        self.names.lock_open
                    } else {
                        self.names.lock_close
                    };
                    self.hub.publish(name, kernel);
                }
                BusEffect::None
            }
            _ => {
                payload.response = TlmResponse::CommandError;
                BusEffect::None
            }
        }
    }

    fn timer_access(timer: &mut TimerState, offset: u64, data: u64, idx: usize) -> BusEffect {
        match offset {
            0x00 => {
                timer.load_ns = data;
                BusEffect::None
            }
            0x08 => {
                if data != 0 {
                    timer.running = true;
                    timer.generation += 1;
                    BusEffect::StartTimer {
                        timer: idx,
                        generation: timer.generation,
                    }
                } else {
                    timer.running = false;
                    BusEffect::None
                }
            }
            _ => BusEffect::None,
        }
    }

    fn ipu_access(
        &mut self,
        payload: &mut GenericPayload,
        offset: u64,
        kernel: &mut Kernel,
    ) -> BusEffect {
        payload.response = TlmResponse::Ok;
        match (payload.command, offset) {
            (TlmCommand::Write, ipu_reg::IMG_ADDR) => {
                self.ipu.img_addr = payload.data;
                self.hub.publish(self.names.set_img_addr, kernel);
                BusEffect::None
            }
            (TlmCommand::Write, ipu_reg::GL_ADDR) => {
                self.ipu.gl_addr = payload.data;
                self.hub.publish(self.names.set_gl_addr, kernel);
                BusEffect::None
            }
            (TlmCommand::Write, ipu_reg::GL_SIZE) => {
                self.ipu.gl_size = payload.data;
                self.hub.publish(self.names.set_gl_size, kernel);
                BusEffect::None
            }
            (TlmCommand::Write, ipu_reg::CTRL) if payload.data & 1 != 0 => {
                self.hub.publish(self.names.start, kernel);
                self.ipu.status = ipu_status::BUSY;
                self.ipu.result = 0;
                self.ipu.reads_done = 0;
                self.ipu.generation += 1;
                BusEffect::StartRecognition {
                    generation: self.ipu.generation,
                }
            }
            (TlmCommand::Read, ipu_reg::STATUS) => {
                payload.data = self.ipu.status;
                BusEffect::None
            }
            (TlmCommand::Read, ipu_reg::RESULT) => {
                payload.data = self.ipu.result;
                BusEffect::None
            }
            _ => {
                payload.response = TlmResponse::CommandError;
                BusEffect::None
            }
        }
    }
}

/// Side effects a bus access requests from the scheduler (they need the
/// platform handle, so the caller performs them after the borrow ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusEffect {
    None,
    StartRecognition { generation: u64 },
    StartCapture { destination: u64, generation: u64 },
    StartTimer { timer: usize, generation: u64 },
}

impl PlatformHandle {
    /// Borrow the platform immutably (inspection).
    pub fn with<R>(&self, f: impl FnOnce(&Platform) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Current IPU status register value.
    pub fn ipu_status(&self) -> u64 {
        self.0.borrow().ipu.status
    }

    /// Whether the lock is currently open.
    pub fn lock_is_open(&self) -> bool {
        self.0.borrow().lock_open
    }

    /// Whether the CPU halted.
    pub fn cpu_halted(&self) -> bool {
        self.0.borrow().cpu.halted
    }

    /// Seed the gallery with `count` words derived from the kernel RNG and
    /// start the CPU.
    pub fn boot(&self, kernel: &mut Kernel, gallery_size: u64) {
        {
            let mut p = self.0.borrow_mut();
            for k in 0..gallery_size {
                let word = kernel.draw(0, 0xff);
                *p.mem_word(map::GL_BUF + 8 * k) = word;
            }
            p.cpu.running = true;
        }
        let handle = self.clone();
        kernel.call_in(SimTime::ZERO, move |k| handle.cpu_step(k));
    }

    /// Press the GPIO button after `delay` (external stimulus).
    pub fn press_button_in(&self, kernel: &mut Kernel, delay: SimTime) {
        let handle = self.clone();
        kernel.call_in(delay, move |k| {
            let wake = {
                let mut p = handle.0.borrow_mut();
                p.gpio_buttons = 1;
                p.hub.publish(p.names.btn_press, k);
                p.raise_irq(irq::GPIO)
            };
            if wake {
                handle.schedule_cpu(k, SimTime::ZERO);
            }
        });
    }

    fn schedule_cpu(&self, kernel: &mut Kernel, delay: SimTime) {
        let handle = self.clone();
        kernel.call_in(delay, move |k| handle.cpu_step(k));
    }

    /// Issue one bus transaction from outside the CPU (tests, debuggers).
    pub fn transport(&self, payload: &mut GenericPayload, kernel: &mut Kernel) {
        let effect = self.0.borrow_mut().b_transport(payload, kernel);
        self.apply_effect(effect, kernel);
    }

    fn apply_effect(&self, effect: BusEffect, kernel: &mut Kernel) {
        match effect {
            BusEffect::None => {}
            BusEffect::StartRecognition { generation } => {
                let (lo, hi) = {
                    let p = self.0.borrow();
                    (p.timing.read_lo, p.timing.read_hi)
                };
                let handle = self.clone();
                let delay = SimTime::from_ps(kernel.draw(lo.as_ps(), hi.as_ps()));
                kernel.call_in(delay, move |k| handle.ipu_tick(k, generation));
            }
            BusEffect::StartCapture {
                destination,
                generation,
            } => {
                let (lo, hi) = {
                    let p = self.0.borrow();
                    (p.timing.capture_lo, p.timing.capture_hi)
                };
                let handle = self.clone();
                let delay = SimTime::from_ps(kernel.draw(lo.as_ps(), hi.as_ps()));
                kernel.call_in(delay, move |k| {
                    let mut p = handle.0.borrow_mut();
                    if p.sen.generation != generation {
                        return; // superseded capture
                    }
                    let word = k.draw(0, 0xff);
                    *p.mem_word(destination) = word;
                    p.sen.busy = 0;
                    p.hub.publish(p.names.capture_done, k);
                });
            }
            BusEffect::StartTimer { timer, generation } => {
                let handle = self.clone();
                let delay_ns = {
                    let p = self.0.borrow();
                    if timer == 0 {
                        p.tmr1.load_ns
                    } else {
                        p.tmr2.load_ns
                    }
                };
                kernel.call_in(SimTime::from_ns(delay_ns), move |k| {
                    let wake = {
                        let mut p = handle.0.borrow_mut();
                        let (state, line) = if timer == 0 {
                            (&mut p.tmr1, irq::TMR1)
                        } else {
                            (&mut p.tmr2, irq::TMR2)
                        };
                        if state.generation != generation || !state.running {
                            return; // cancelled or reprogrammed
                        }
                        state.running = false;
                        p.raise_irq(line)
                    };
                    if wake {
                        handle.schedule_cpu(k, SimTime::ZERO);
                    }
                });
            }
        }
    }

    /// One IPU activity step: a gallery read, or completion.
    fn ipu_tick(&self, kernel: &mut Kernel, generation: u64) {
        enum Next {
            Read(SimTime),
            Done,
            Stale,
        }
        let next = {
            let mut p = self.0.borrow_mut();
            if p.ipu.generation != generation || p.ipu.status != ipu_status::BUSY {
                Next::Stale
            } else {
                let total = {
                    let planned = p.ipu.gl_size + u64::from(p.fault.extra_reads);
                    if p.fault.early_irq {
                        1
                    } else {
                        planned
                    }
                };
                if p.ipu.reads_done < total {
                    // One gallery read: fetch the word, accumulate a score.
                    let index = p.ipu.reads_done % p.ipu.gl_size.max(1);
                    let gallery_addr = p.ipu.gl_addr + 8 * index;
                    let img_addr = p.ipu.img_addr;
                    let gallery_word = *p.mem_word(gallery_addr);
                    let probe = *p.mem_word(img_addr);
                    if gallery_word == probe {
                        p.ipu.result += 1;
                    }
                    p.ipu.reads_done += 1;
                    p.hub.publish(p.names.read_img, kernel);
                    let slow = u64::from(p.fault.slowdown.max(1));
                    let lo = p.timing.read_lo * slow;
                    let hi = p.timing.read_hi * slow;
                    let delay = SimTime::from_ps(kernel.draw(lo.as_ps(), hi.as_ps()));
                    Next::Read(delay)
                } else {
                    Next::Done
                }
            }
        };
        match next {
            Next::Stale => {}
            Next::Read(delay) => {
                let handle = self.clone();
                kernel.call_in(delay, move |k| handle.ipu_tick(k, generation));
            }
            Next::Done => {
                let wake = {
                    let mut p = self.0.borrow_mut();
                    p.ipu.status = if p.ipu.result > 0 {
                        ipu_status::MATCH
                    } else {
                        ipu_status::NO_MATCH
                    };
                    if p.fault.drop_irq {
                        false
                    } else {
                        p.hub.publish(p.names.set_irq, kernel);
                        p.raise_irq(irq::IPU)
                    }
                };
                if wake {
                    self.schedule_cpu(kernel, SimTime::ZERO);
                }
            }
        }
    }

    /// Execute CPU instructions until a blocking operation.
    fn cpu_step(&self, kernel: &mut Kernel) {
        // Bounded burst per activation keeps single dispatches small.
        for _ in 0..64 {
            enum CpuAction {
                Continue,
                Reschedule(SimTime),
                Block,
            }
            let action = {
                let mut p = self.0.borrow_mut();
                if p.cpu.halted || !p.cpu.running {
                    return;
                }
                let pc = p.cpu.pc;
                let instr = p.cpu.program[pc];
                match instr {
                    Instr::Halt => {
                        p.cpu.halted = true;
                        return;
                    }
                    Instr::Goto(target) => {
                        p.cpu.pc = target;
                        CpuAction::Continue
                    }
                    Instr::BranchIfEq { reg, value, target } => {
                        p.cpu.pc = if p.cpu.regs[reg] == value {
                            target
                        } else {
                            pc + 1
                        };
                        CpuAction::Continue
                    }
                    Instr::Delay { lo, hi } => {
                        p.cpu.pc = pc + 1;
                        let delay = SimTime::from_ps(kernel.draw(lo.as_ps(), hi.as_ps()));
                        CpuAction::Reschedule(delay)
                    }
                    Instr::WaitIrq { mask } => {
                        if p.intc.pending & mask != 0 {
                            p.intc.pending &= !mask; // acknowledge
                            p.cpu.wait_mask = 0;
                            p.cpu.pc = pc + 1;
                            CpuAction::Continue
                        } else {
                            p.cpu.wait_mask = mask;
                            CpuAction::Block
                        }
                    }
                    Instr::Write { addr, value } => {
                        let data = match value {
                            Operand::Imm(v) => v,
                            Operand::Reg(r) => p.cpu.regs[r],
                        };
                        p.cpu.pc = pc + 1;
                        let mut payload = GenericPayload::write(addr, data);
                        let effect = p.b_transport(&mut payload, kernel);
                        debug_assert!(payload.is_ok(), "firmware write failed: {payload:?}");
                        drop(p);
                        self.apply_effect(effect, kernel);
                        CpuAction::Continue
                    }
                    Instr::Read { addr, reg } => {
                        p.cpu.pc = pc + 1;
                        let mut payload = GenericPayload::read(addr);
                        let effect = p.b_transport(&mut payload, kernel);
                        debug_assert!(payload.is_ok(), "firmware read failed: {payload:?}");
                        p.cpu.regs[reg] = payload.data;
                        drop(p);
                        self.apply_effect(effect, kernel);
                        CpuAction::Continue
                    }
                }
            };
            match action {
                CpuAction::Continue => {
                    // Charge the per-instruction loose cost occasionally to
                    // model bus latency without one dispatch per instr.
                    continue;
                }
                CpuAction::Reschedule(delay) => {
                    self.schedule_cpu(kernel, delay);
                    return;
                }
                CpuAction::Block => {
                    // The CPU sleeps until an interrupt in `wait_mask` is
                    // raised (raise_irq reschedules us); clear the mask on
                    // wake in the next activation.
                    let mut p = self.0.borrow_mut();
                    if p.intc.pending & p.cpu.wait_mask != 0 {
                        // Raced with an interrupt raised in this very step.
                        p.cpu.wait_mask = 0;
                        continue;
                    }
                    return;
                }
            }
        }
        // Burst exhausted: yield with a loose per-burst cost.
        let (lo, hi) = {
            let p = self.0.borrow();
            (p.timing.cpu_lo, p.timing.cpu_hi)
        };
        let delay = SimTime::from_ps(kernel.draw(lo.as_ps(), hi.as_ps()));
        self.schedule_cpu(kernel, delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_hub() -> (ObservationHub, EventNames) {
        let mut voc = Vocabulary::new();
        let names = EventNames::intern(&mut voc);
        (ObservationHub::new(voc), names)
    }

    #[test]
    fn memory_read_write_roundtrip() {
        let (hub, names) = minimal_hub();
        let fw = Firmware::new("halt", vec![Instr::Halt]);
        let platform = Platform::build(
            hub,
            names,
            &fw,
            TimingConfig::default(),
            FaultPlan::default(),
        );
        let mut kernel = Kernel::new(1);
        let mut w = GenericPayload::write(0x80, 0xdead);
        platform.transport(&mut w, &mut kernel);
        assert!(w.is_ok());
        let mut r = GenericPayload::read(0x80);
        platform.transport(&mut r, &mut kernel);
        assert_eq!(r.data, 0xdead);
    }

    #[test]
    fn unmapped_address_errors() {
        let (hub, names) = minimal_hub();
        let fw = Firmware::new("halt", vec![Instr::Halt]);
        let platform = Platform::build(
            hub,
            names,
            &fw,
            TimingConfig::default(),
            FaultPlan::default(),
        );
        let mut kernel = Kernel::new(1);
        let mut t = GenericPayload::read(0x9999_9999);
        platform.transport(&mut t, &mut kernel);
        assert_eq!(t.response, TlmResponse::AddressError);
    }

    #[test]
    fn ipu_register_writes_publish_events() {
        let (hub, names) = minimal_hub();
        let fw = Firmware::new("halt", vec![Instr::Halt]);
        let platform = Platform::build(
            hub.clone(),
            names,
            &fw,
            TimingConfig::default(),
            FaultPlan::default(),
        );
        let mut kernel = Kernel::new(1);
        for (offset, _label) in [
            (ipu_reg::IMG_ADDR, "set_imgAddr"),
            (ipu_reg::GL_ADDR, "set_glAddr"),
            (ipu_reg::GL_SIZE, "set_glSize"),
        ] {
            let mut t = GenericPayload::write(map::IPU + offset, 0x42);
            platform.transport(&mut t, &mut kernel);
            assert!(t.is_ok());
        }
        let voc = hub.vocabulary();
        let texts: Vec<String> = hub
            .trace()
            .names()
            .map(|n| voc.resolve(n).to_owned())
            .collect();
        assert_eq!(texts, vec!["set_imgAddr", "set_glAddr", "set_glSize"]);
    }

    #[test]
    fn recognition_runs_to_interrupt() {
        let (hub, names) = minimal_hub();
        let fw = Firmware::new("halt", vec![Instr::Halt]);
        let platform = Platform::build(
            hub.clone(),
            names,
            &fw,
            TimingConfig::default(),
            FaultPlan::default(),
        );
        let mut kernel = Kernel::new(3);
        // Configure: gallery of 4 at GL_BUF, image at IMG_BUF.
        for (offset, value) in [
            (ipu_reg::IMG_ADDR, map::IMG_BUF),
            (ipu_reg::GL_ADDR, map::GL_BUF),
            (ipu_reg::GL_SIZE, 4),
            (ipu_reg::CTRL, 1),
        ] {
            let mut t = GenericPayload::write(map::IPU + offset, value);
            platform.transport(&mut t, &mut kernel);
        }
        kernel.run_until(SimTime::from_ms(1));
        assert!(platform.ipu_status() >= ipu_status::MATCH);
        let voc = hub.vocabulary();
        let read = voc.lookup("read_img").unwrap();
        let irq_name = voc.lookup("set_irq").unwrap();
        let trace = hub.trace();
        assert_eq!(trace.names().filter(|n| *n == read).count(), 4);
        assert_eq!(trace.names().filter(|n| *n == irq_name).count(), 1);
        // IPU interrupt pending in the INTC.
        let mut t = GenericPayload::read(map::INTC);
        platform.transport(&mut t, &mut kernel);
        assert_eq!(t.data & irq::IPU, irq::IPU);
    }

    #[test]
    fn firmware_waits_for_button_then_runs() {
        let (hub, names) = minimal_hub();
        // Minimal firmware: wait button, configure IPU, start, wait irq,
        // show on LCD, halt.
        let fw = Firmware::new(
            "mini",
            vec![
                Instr::WaitIrq { mask: irq::GPIO },
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
                    value: Operand::Imm(3),
                },
                Instr::Write {
                    addr: map::IPU + ipu_reg::CTRL,
                    value: Operand::Imm(1),
                },
                Instr::WaitIrq { mask: irq::IPU },
                Instr::Read {
                    addr: map::IPU + ipu_reg::STATUS,
                    reg: 1,
                },
                Instr::Write {
                    addr: map::LCDC,
                    value: Operand::Reg(1),
                },
                Instr::Halt,
            ],
        );
        let platform = Platform::build(
            hub.clone(),
            names,
            &fw,
            TimingConfig::default(),
            FaultPlan::default(),
        );
        let mut kernel = Kernel::new(5);
        platform.boot(&mut kernel, 3);
        platform.press_button_in(&mut kernel, SimTime::from_us(10));
        kernel.run_until(SimTime::from_ms(2));
        assert!(platform.cpu_halted());
        let voc = hub.vocabulary();
        let texts: Vec<String> = hub
            .trace()
            .names()
            .map(|n| voc.resolve(n).to_owned())
            .collect();
        // btn, 3 config writes, start, 3 reads, irq, lcd.
        assert_eq!(texts[0], "btn_press");
        assert_eq!(texts[1..4], ["set_imgAddr", "set_glAddr", "set_glSize"]);
        assert_eq!(texts[4], "start");
        assert_eq!(texts[5..8], ["read_img", "read_img", "read_img"]);
        assert_eq!(texts[8], "set_irq");
        assert_eq!(texts[9], "lcd_update");
    }

    #[test]
    fn timer_raises_its_interrupt() {
        let (hub, names) = minimal_hub();
        let fw = Firmware::new(
            "timer",
            vec![
                Instr::Write {
                    addr: map::TMR1,
                    value: Operand::Imm(500), // 500 ns
                },
                Instr::Write {
                    addr: map::TMR1 + 0x08,
                    value: Operand::Imm(1),
                },
                Instr::WaitIrq { mask: irq::TMR1 },
                Instr::Halt,
            ],
        );
        let platform = Platform::build(
            hub,
            names,
            &fw,
            TimingConfig::default(),
            FaultPlan::default(),
        );
        let mut kernel = Kernel::new(1);
        platform.boot(&mut kernel, 1);
        kernel.run_until(SimTime::from_us(10));
        assert!(platform.cpu_halted());
        assert!(kernel.now() >= SimTime::from_ns(500));
    }

    #[test]
    fn lock_events_published_once_per_transition() {
        let (hub, names) = minimal_hub();
        let fw = Firmware::new(
            "lock",
            vec![
                Instr::Write {
                    addr: map::LOCK,
                    value: Operand::Imm(1),
                },
                Instr::Write {
                    addr: map::LOCK,
                    value: Operand::Imm(1), // no transition
                },
                Instr::Write {
                    addr: map::LOCK,
                    value: Operand::Imm(0),
                },
                Instr::Halt,
            ],
        );
        let platform = Platform::build(
            hub.clone(),
            names,
            &fw,
            TimingConfig::default(),
            FaultPlan::default(),
        );
        let mut kernel = Kernel::new(1);
        platform.boot(&mut kernel, 1);
        kernel.run_until(SimTime::from_us(1));
        let voc = hub.vocabulary();
        let texts: Vec<String> = hub
            .trace()
            .names()
            .map(|n| voc.resolve(n).to_owned())
            .collect();
        assert_eq!(texts, vec!["lock_open", "lock_close"]);
        assert!(!platform.lock_is_open());
    }
}
