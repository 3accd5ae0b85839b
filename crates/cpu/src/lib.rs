//! The in-order nonvolatile processor model of the EDBP reproduction.
//!
//! The paper simulates "a 25 MHz single-core in-order nonvolatile processor
//! based on ARM ISA with 16 registers as in NVPsim" on gem5. We substitute a
//! compact mini-RISC ISA (see `DESIGN.md` §4): 16 general-purpose 32-bit
//! registers, single-issue in-order execution, one cycle per instruction plus
//! whatever the memory hierarchy adds. That is exactly the timing model an
//! in-order MCU-class core exhibits, and all this study measures is the
//! interaction of the access stream with caches and power failures — not ARM
//! semantics.
//!
//! The crate deliberately knows nothing about caches or energy: executing an
//! instruction yields an [`Effect`] (compute / load / store / halt) that the
//! full-system simulator services against its memory hierarchy, completing
//! loads with [`Core::finish_load`]. Checkpointing is a [`Core::checkpoint`]
//! snapshot of the architectural state ([`CoreState`]), restored with
//! [`Core::restore`] — the register-file save/restore of JIT checkpointing.
//!
//! # Example
//!
//! ```
//! use ehs_cpu::{Core, Effect, Program, ProgramBuilder, Reg};
//!
//! // r1 = 5; r2 = r1 + r1; halt
//! let mut b = ProgramBuilder::new("double");
//! b.li(Reg::R1, 5);
//! b.add(Reg::R2, Reg::R1, Reg::R1);
//! b.halt();
//! let program: Program = b.build();
//!
//! let mut core = Core::new(&program);
//! while core.step(&program) != Effect::Halted {}
//! assert_eq!(core.reg(Reg::R2), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod core;
mod isa;

pub use builder::{Label, ProgramBuilder};
pub use core::{Core, CoreState, Effect};
pub use isa::{Instruction, Program, Reg, INSTRUCTION_BYTES};
