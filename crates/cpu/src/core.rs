//! The single-issue in-order core.

use crate::isa::{Instruction, Program, Reg};

/// What an instruction needs from the world. The simulator services memory
/// effects against its cache hierarchy and (for loads) completes them with
/// [`Core::finish_load`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Pure compute (ALU or control flow): one cycle, no memory.
    Compute,
    /// A word load; complete with [`Core::finish_load`].
    Load {
        /// Byte address of the word.
        addr: u32,
        /// Destination register awaiting the value.
        dst: Reg,
    },
    /// A word store; the value is final.
    Store {
        /// Byte address of the word.
        addr: u32,
        /// The value to store.
        value: u32,
    },
    /// The program executed `Halt`.
    Halted,
}

/// The complete architectural state, i.e. what JIT checkpointing must save:
/// the register file and the program counter (paper Section II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreState {
    /// The sixteen general-purpose registers.
    pub regs: [u32; 16],
    /// The program counter (instruction index).
    pub pc: u32,
    /// Whether the core had halted.
    pub halted: bool,
}

impl CoreState {
    /// Size of the state in bytes (16 × 32-bit registers + 32-bit PC),
    /// which prices the register-file checkpoint.
    pub const BYTES: u32 = 16 * 4 + 4;
}

/// A 25 MHz-class single-issue in-order core over a [`Program`].
///
/// Every [`Core::step`] executes exactly one instruction (the fetch address
/// for the I-cache is [`Core::fetch_addr`]); committed-instruction and
/// load/store counters feed the paper's load/store-ratio analysis (Fig. 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Core {
    regs: [u32; 16],
    pc: u32,
    halted: bool,
    committed: u64,
    loads: u64,
    stores: u64,
}

impl Core {
    /// Creates a core reset to the program's entry (pc 0, registers zero).
    pub fn new(_program: &Program) -> Self {
        Self {
            regs: [0; 16],
            pc: 0,
            halted: false,
            committed: 0,
            loads: 0,
            stores: 0,
        }
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// The current program counter.
    #[inline]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether the program has halted.
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Committed instruction count.
    #[inline]
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Committed loads.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Committed stores.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Byte address the next instruction is fetched from.
    #[inline]
    pub fn fetch_addr(&self, program: &Program) -> u32 {
        program.fetch_addr(self.pc)
    }

    /// Executes one instruction and reports its external effect.
    ///
    /// Loads leave the destination register *unchanged* until the simulator
    /// calls [`Core::finish_load`]; in-order single-issue means nothing else
    /// can observe it in between.
    // `#[inline(always)]`: as `#[inline]`, solo_fig8 measured ~5 % fewer
    // sim-MIPS (2-vCPU x86-64 host).
    #[inline(always)]
    pub fn step(&mut self, program: &Program) -> Effect {
        if self.halted {
            return Effect::Halted;
        }
        let instr = program.fetch(self.pc);
        self.pc += 1;
        self.committed += 1;
        match instr {
            Instruction::Li(rd, imm) => {
                self.regs[rd.index()] = imm;
                Effect::Compute
            }
            Instruction::Addi(rd, rs, imm) => {
                self.regs[rd.index()] = self.regs[rs.index()].wrapping_add(imm as u32);
                Effect::Compute
            }
            Instruction::Add(rd, a, b) => {
                self.regs[rd.index()] = self.regs[a.index()].wrapping_add(self.regs[b.index()]);
                Effect::Compute
            }
            Instruction::Sub(rd, a, b) => {
                self.regs[rd.index()] = self.regs[a.index()].wrapping_sub(self.regs[b.index()]);
                Effect::Compute
            }
            Instruction::Mul(rd, a, b) => {
                self.regs[rd.index()] = self.regs[a.index()].wrapping_mul(self.regs[b.index()]);
                Effect::Compute
            }
            Instruction::Xor(rd, a, b) => {
                self.regs[rd.index()] = self.regs[a.index()] ^ self.regs[b.index()];
                Effect::Compute
            }
            Instruction::And(rd, a, b) => {
                self.regs[rd.index()] = self.regs[a.index()] & self.regs[b.index()];
                Effect::Compute
            }
            Instruction::Or(rd, a, b) => {
                self.regs[rd.index()] = self.regs[a.index()] | self.regs[b.index()];
                Effect::Compute
            }
            Instruction::Shl(rd, rs, amt) => {
                self.regs[rd.index()] = self.regs[rs.index()] << (amt & 31);
                Effect::Compute
            }
            Instruction::Shr(rd, rs, amt) => {
                self.regs[rd.index()] = self.regs[rs.index()] >> (amt & 31);
                Effect::Compute
            }
            Instruction::Load(rd, base, offset) => {
                self.loads += 1;
                Effect::Load {
                    addr: self.regs[base.index()].wrapping_add(offset as u32),
                    dst: rd,
                }
            }
            Instruction::Store(src, base, offset) => {
                self.stores += 1;
                Effect::Store {
                    addr: self.regs[base.index()].wrapping_add(offset as u32),
                    value: self.regs[src.index()],
                }
            }
            Instruction::Bne(a, b, target) => {
                if self.regs[a.index()] != self.regs[b.index()] {
                    self.pc = target;
                }
                Effect::Compute
            }
            Instruction::Beq(a, b, target) => {
                if self.regs[a.index()] == self.regs[b.index()] {
                    self.pc = target;
                }
                Effect::Compute
            }
            Instruction::Blt(a, b, target) => {
                if self.regs[a.index()] < self.regs[b.index()] {
                    self.pc = target;
                }
                Effect::Compute
            }
            Instruction::Jmp(target) => {
                self.pc = target;
                Effect::Compute
            }
            Instruction::Halt => {
                self.halted = true;
                self.pc -= 1; // stay on the halt
                self.committed -= 1; // halt does not commit work
                Effect::Halted
            }
        }
    }

    /// Completes an in-flight load.
    #[inline]
    pub fn finish_load(&mut self, dst: Reg, value: u32) {
        self.regs[dst.index()] = value;
    }

    /// Snapshots the architectural state for a JIT checkpoint.
    pub fn checkpoint(&self) -> CoreState {
        CoreState {
            regs: self.regs,
            pc: self.pc,
            halted: self.halted,
        }
    }

    /// Restores a JIT checkpoint after a power outage; statistics counters
    /// survive (they are simulator instrumentation, not architectural state).
    pub fn restore(&mut self, state: &CoreState) {
        self.regs = state.regs;
        self.pc = state.pc;
        self.halted = state.halted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    fn run(core: &mut Core, program: &Program, mem: &mut std::collections::HashMap<u32, u32>) {
        loop {
            match core.step(program) {
                Effect::Compute => {}
                Effect::Load { addr, dst } => {
                    let v = mem.get(&addr).copied().unwrap_or(0);
                    core.finish_load(dst, v);
                }
                Effect::Store { addr, value } => {
                    mem.insert(addr, value);
                }
                Effect::Halted => break,
            }
        }
    }

    #[test]
    fn arithmetic_loop_sums_correctly() {
        // sum = Σ i for i in 1..=10
        let mut b = ProgramBuilder::new("sum");
        b.li(Reg::R1, 0); // sum
        b.li(Reg::R2, 1); // i
        b.li(Reg::R3, 11); // bound
        let top = b.label_here();
        b.add(Reg::R1, Reg::R1, Reg::R2);
        b.addi(Reg::R2, Reg::R2, 1);
        b.blt(Reg::R2, Reg::R3, top);
        b.halt();
        let p = b.build();
        let mut core = Core::new(&p);
        run(&mut core, &p, &mut Default::default());
        assert_eq!(core.reg(Reg::R1), 55);
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let mut b = ProgramBuilder::new("mem");
        b.li(Reg::R1, 0x1000);
        b.li(Reg::R2, 0xDEAD);
        b.store(Reg::R2, Reg::R1, 4);
        b.load(Reg::R3, Reg::R1, 4);
        b.halt();
        let p = b.build();
        let mut core = Core::new(&p);
        run(&mut core, &p, &mut Default::default());
        assert_eq!(core.reg(Reg::R3), 0xDEAD);
        assert_eq!(core.loads(), 1);
        assert_eq!(core.stores(), 1);
    }

    #[test]
    fn halt_is_sticky_and_does_not_commit() {
        let mut b = ProgramBuilder::new("h");
        b.halt();
        let p = b.build();
        let mut core = Core::new(&p);
        assert_eq!(core.step(&p), Effect::Halted);
        assert_eq!(core.step(&p), Effect::Halted);
        assert_eq!(core.committed(), 0);
        assert!(core.halted());
    }

    #[test]
    fn checkpoint_restore_round_trips_mid_loop() {
        let mut b = ProgramBuilder::new("loop");
        b.li(Reg::R1, 0);
        b.li(Reg::R3, 100);
        let top = b.label_here();
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R3, top);
        b.halt();
        let p = b.build();

        let mut core = Core::new(&p);
        for _ in 0..50 {
            core.step(&p);
        }
        let ckpt = core.checkpoint();
        let r1_at_ckpt = core.reg(Reg::R1);

        // "Power failure": run a fresh core and restore.
        let mut rebooted = Core::new(&p);
        rebooted.restore(&ckpt);
        assert_eq!(rebooted.reg(Reg::R1), r1_at_ckpt);
        assert_eq!(rebooted.pc(), ckpt.pc);

        // Both finish with the same architectural result.
        run(&mut core, &p, &mut Default::default());
        run(&mut rebooted, &p, &mut Default::default());
        assert_eq!(core.reg(Reg::R1), rebooted.reg(Reg::R1));
    }

    #[test]
    fn fetch_addresses_follow_control_flow() {
        let mut b = ProgramBuilder::new("j");
        let l = b.forward_label();
        b.jmp(l);
        b.halt(); // skipped
        b.place(l);
        b.halt();
        let p = b.build_at(0x8000);
        let mut core = Core::new(&p);
        assert_eq!(core.fetch_addr(&p), 0x8000);
        core.step(&p); // jmp
        assert_eq!(core.fetch_addr(&p), 0x8008);
    }

    #[test]
    fn shift_amounts_are_masked() {
        let mut b = ProgramBuilder::new("s");
        b.li(Reg::R1, 1);
        b.shl(Reg::R2, Reg::R1, 33); // masked to 1
        b.halt();
        let p = b.build();
        let mut core = Core::new(&p);
        run(&mut core, &p, &mut Default::default());
        assert_eq!(core.reg(Reg::R2), 2);
    }

    #[test]
    fn state_bytes_matches_register_file() {
        assert_eq!(CoreState::BYTES, 68);
    }
}
