//! Decode-once micro-op IR.
//!
//! [`Machine::load`](crate::machine::Machine::load) pre-decodes each
//! program into a flat array of micro-ops ([`Uop`]) partitioned into
//! basic blocks ([`Block`]):
//!
//! - cost-table values are baked into every fast micro-op at decode
//!   time (re-baked when the cost model changes), so the hot execute
//!   loop never consults the table;
//! - branch targets are resolved to block indices (and absolute target
//!   pcs) at decode time, so taken branches never re-scan the program
//!   list;
//! - anything that can trap, change exception level, or touch
//!   interrupt-delivery state ([`Uop::Slow`]) *terminates* its block,
//!   so within a block the machine's trap/interrupt inputs are frozen —
//!   which is what lets the executor hoist the per-step interrupt poll
//!   behind a cached quiet-window check (see `Machine::step_uop`).
//!
//! The micro-op executor is a pure acceleration layer: it must retire
//! the same instruction stream with the same cycle charges as the
//! reference interpreter (`Machine::step_interp`), which stays the
//! oracle. Whenever an observer attaches — a trace, a
//! [`FaultPlan`](crate::fault::FaultPlan), a
//! [`Checker`](crate::check::Checker) — the machine falls back to the
//! interpreter, so checked and fault-injected runs exercise the
//! reference semantics directly.

use crate::isa::{Instr, Program};
use neve_cycles::{CostTable, Event};

/// Which execution engine [`Machine::step`](crate::machine::Machine::step)
/// dispatches through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Engine {
    /// Pre-decoded micro-op IR (the default). Falls back to the
    /// interpreter automatically while a trace, fault plan or checker
    /// is attached.
    #[default]
    Uop,
    /// The reference interpreter, always.
    Interp,
}

/// A basic block: a half-open range of micro-op indices.
///
/// Block boundaries fall at the program start, at branch targets, after
/// control flow, and after every [`Uop::Slow`] micro-op. Within a block
/// nothing can trap or alter interrupt-delivery state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First micro-op index.
    pub start: u32,
    /// One past the last micro-op index.
    pub end: u32,
}

/// Marker for a branch whose target lies outside its own program (it
/// resolves through the general fetch path at run time).
pub const EXTERNAL_BLOCK: u32 = u32::MAX;

/// One micro-op. Fast variants carry their cycle charge `c` baked in;
/// branch variants additionally carry the resolved target block index
/// (or [`EXTERNAL_BLOCK`]) and absolute target pc. Everything that can
/// trap or touch interrupt state is wrapped as [`Uop::Slow`] and
/// executed through the shared interpreter arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uop {
    /// `nop`.
    Nop { c: u64 },
    /// `Instr::Work(n)`: one `Instr` event of `n * instr_cost` cycles,
    /// pre-multiplied at decode time.
    Work { c: u64 },
    /// `mov xd, #imm`.
    MovImm { rd: u8, imm: u64, c: u64 },
    /// `mov xd, xn`.
    Mov { rd: u8, rn: u8, c: u64 },
    /// `add xd, xn, xm`.
    Add { rd: u8, rn: u8, rm: u8, c: u64 },
    /// `add xd, xn, #imm`.
    AddImm { rd: u8, rn: u8, imm: u64, c: u64 },
    /// `sub xd, xn, xm`.
    Sub { rd: u8, rn: u8, rm: u8, c: u64 },
    /// `sub xd, xn, #imm`.
    SubImm { rd: u8, rn: u8, imm: u64, c: u64 },
    /// `and xd, xn, xm`.
    And { rd: u8, rn: u8, rm: u8, c: u64 },
    /// `orr xd, xn, xm`.
    Orr { rd: u8, rn: u8, rm: u8, c: u64 },
    /// `orr xd, xn, #imm`.
    OrrImm { rd: u8, rn: u8, imm: u64, c: u64 },
    /// `lsl xd, xn, #sh`.
    LslImm { rd: u8, rn: u8, sh: u8, c: u64 },
    /// `lsr xd, xn, #sh`.
    LsrImm { rd: u8, rn: u8, sh: u8, c: u64 },
    /// `b <target>`.
    B { block: u32, target: u64, c: u64 },
    /// `bl <target>` (links x30).
    Bl { block: u32, target: u64, c: u64 },
    /// `ret` (target is x30; no static block).
    Ret { c: u64 },
    /// `cbz xn, <target>`.
    Cbz {
        rn: u8,
        block: u32,
        target: u64,
        c: u64,
    },
    /// `cbnz xn, <target>`.
    Cbnz {
        rn: u8,
        block: u32,
        target: u64,
        c: u64,
    },
    /// `isb` / `dsb sy`: a `Barrier` event.
    Barrier { c: u64 },
    /// `Instr::Halt`: stops the core without retiring a pc update.
    Halt { code: u16 },
    /// Anything that can trap, fault, change EL or touch interrupt
    /// state: executed through the interpreter's instruction arm.
    Slow(Instr),
}

/// A program pre-decoded to micro-ops.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Load address of the first micro-op (same as the source program).
    pub base: u64,
    /// One past the last instruction address.
    pub end: u64,
    uops: Box<[Uop]>,
    blocks: Box<[Block]>,
}

impl CompiledProgram {
    /// The micro-op at virtual address `pc`, if inside the program.
    /// Mirrors [`Program::fetch`]: misaligned or out-of-range addresses
    /// miss.
    #[inline]
    pub fn fetch(&self, pc: u64) -> Option<Uop> {
        if pc < self.base {
            return None;
        }
        let off = pc - self.base;
        if off & 3 != 0 {
            return None;
        }
        self.uops.get((off >> 2) as usize).copied()
    }

    /// The decoded micro-ops.
    pub fn uops(&self) -> &[Uop] {
        &self.uops
    }

    /// The basic blocks (half-open micro-op index ranges).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The block containing micro-op index `idx`.
    pub fn block_of(&self, idx: u32) -> Option<Block> {
        let b = self.blocks.partition_point(|b| b.start <= idx);
        let blk = *self.blocks.get(b.checked_sub(1)?)?;
        (idx < blk.end).then_some(blk)
    }
}

/// True when the instruction ends a basic block: control flow, halts,
/// and every [`Uop::Slow`] candidate (traps, EL changes, interrupt
/// state).
fn ends_block(i: Instr) -> bool {
    !matches!(
        i,
        Instr::Nop
            | Instr::Work(_)
            | Instr::MovImm(..)
            | Instr::Mov(..)
            | Instr::Add(..)
            | Instr::AddImm(..)
            | Instr::Sub(..)
            | Instr::SubImm(..)
            | Instr::And(..)
            | Instr::Orr(..)
            | Instr::OrrImm(..)
            | Instr::LslImm(..)
            | Instr::LsrImm(..)
            | Instr::Isb
            | Instr::Dsb
    )
}

/// Pre-decodes `prog` against `table`.
///
/// Rebuild whenever the cost model changes — the baked charges must
/// match what the interpreter would charge from the same table.
pub fn compile(prog: &Program, table: &CostTable) -> CompiledProgram {
    let n = prog.code.len();
    let instr_c = table.cost(Event::Instr);
    let barrier_c = table.cost(Event::Barrier);

    // Pass 1: block leaders — program entry, intra-program branch
    // targets, and the instruction after any block terminator.
    let mut leader = vec![false; n + 1];
    leader[0] = true;
    let in_range = |a: u64| -> Option<usize> {
        if a < prog.base || a >= prog.end() || (a - prog.base) & 3 != 0 {
            return None;
        }
        Some(((a - prog.base) >> 2) as usize)
    };
    for (i, &instr) in prog.code.iter().enumerate() {
        match instr {
            Instr::B(a) | Instr::Bl(a) | Instr::Cbz(_, a) | Instr::Cbnz(_, a) => {
                if let Some(t) = in_range(a) {
                    leader[t] = true;
                }
            }
            _ => {}
        }
        if ends_block(instr) {
            leader[i + 1] = true;
        }
    }
    // The program end is an implicit leader so the trailing block is
    // always closed.
    leader[n] = true;

    // Pass 2: blocks from consecutive leaders.
    let mut blocks = Vec::new();
    let mut start = 0u32;
    for (i, &is_leader) in leader.iter().enumerate().skip(1) {
        if is_leader {
            if i as u32 > start {
                blocks.push(Block {
                    start,
                    end: i as u32,
                });
            }
            start = i as u32;
        }
    }
    let blocks: Box<[Block]> = blocks.into();
    let block_of_idx = |idx: usize| -> u32 {
        let p = blocks.partition_point(|b| b.start <= idx as u32);
        (p - 1) as u32
    };

    // Pass 3: micro-ops with costs and branch targets baked in.
    let target = |a: u64| -> u32 {
        match in_range(a) {
            Some(t) => block_of_idx(t),
            None => EXTERNAL_BLOCK,
        }
    };
    let uops: Box<[Uop]> = prog
        .code
        .iter()
        .map(|&instr| match instr {
            Instr::Nop => Uop::Nop { c: instr_c },
            Instr::Work(n) => Uop::Work {
                c: instr_c * n.max(1),
            },
            Instr::MovImm(rd, imm) => Uop::MovImm {
                rd,
                imm,
                c: instr_c,
            },
            Instr::Mov(rd, rn) => Uop::Mov { rd, rn, c: instr_c },
            Instr::Add(rd, rn, rm) => Uop::Add {
                rd,
                rn,
                rm,
                c: instr_c,
            },
            Instr::AddImm(rd, rn, imm) => Uop::AddImm {
                rd,
                rn,
                imm,
                c: instr_c,
            },
            Instr::Sub(rd, rn, rm) => Uop::Sub {
                rd,
                rn,
                rm,
                c: instr_c,
            },
            Instr::SubImm(rd, rn, imm) => Uop::SubImm {
                rd,
                rn,
                imm,
                c: instr_c,
            },
            Instr::And(rd, rn, rm) => Uop::And {
                rd,
                rn,
                rm,
                c: instr_c,
            },
            Instr::Orr(rd, rn, rm) => Uop::Orr {
                rd,
                rn,
                rm,
                c: instr_c,
            },
            Instr::OrrImm(rd, rn, imm) => Uop::OrrImm {
                rd,
                rn,
                imm,
                c: instr_c,
            },
            Instr::LslImm(rd, rn, sh) => Uop::LslImm {
                rd,
                rn,
                sh,
                c: instr_c,
            },
            Instr::LsrImm(rd, rn, sh) => Uop::LsrImm {
                rd,
                rn,
                sh,
                c: instr_c,
            },
            Instr::B(a) => Uop::B {
                block: target(a),
                target: a,
                c: instr_c,
            },
            Instr::Bl(a) => Uop::Bl {
                block: target(a),
                target: a,
                c: instr_c,
            },
            Instr::Ret => Uop::Ret { c: instr_c },
            Instr::Cbz(rn, a) => Uop::Cbz {
                rn,
                block: target(a),
                target: a,
                c: instr_c,
            },
            Instr::Cbnz(rn, a) => Uop::Cbnz {
                rn,
                block: target(a),
                target: a,
                c: instr_c,
            },
            Instr::Isb | Instr::Dsb => Uop::Barrier { c: barrier_c },
            Instr::Halt(code) => Uop::Halt { code },
            slow => Uop::Slow(slow),
        })
        .collect();

    debug_assert!(uops.len() == n);
    // Resolved block indices agree with the baked target pcs.
    #[cfg(debug_assertions)]
    for u in &uops {
        if let Uop::B { block, target, .. }
        | Uop::Bl { block, target, .. }
        | Uop::Cbz { block, target, .. }
        | Uop::Cbnz { block, target, .. } = *u
        {
            if block != EXTERNAL_BLOCK {
                let blk = blocks[block as usize];
                assert_eq!(prog.base + 4 * u64::from(blk.start), target);
            }
        }
    }

    CompiledProgram {
        base: prog.base,
        end: prog.end(),
        uops,
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn prog(base: u64, code: Vec<Instr>) -> Program {
        Program {
            base,
            code: Arc::from(code.as_slice()),
        }
    }

    fn table() -> CostTable {
        CostTable::arm(&neve_cycles::CostModel::default())
    }

    #[test]
    fn straight_line_code_is_one_block() {
        let p = prog(
            0x1000,
            vec![
                Instr::MovImm(0, 1),
                Instr::AddImm(0, 0, 1),
                Instr::Nop,
                Instr::Halt(0),
            ],
        );
        let c = compile(&p, &table());
        assert_eq!(c.blocks().len(), 1);
        assert_eq!(c.blocks()[0], Block { start: 0, end: 4 });
    }

    #[test]
    fn branch_targets_resolve_to_block_indices() {
        // 0x1000: cbz x0, 0x100c ; 0x1004: nop ; 0x1008: b 0x1000 ;
        // 0x100c: halt
        let p = prog(
            0x1000,
            vec![
                Instr::Cbz(0, 0x100c),
                Instr::Nop,
                Instr::B(0x1000),
                Instr::Halt(0),
            ],
        );
        let c = compile(&p, &table());
        // Leaders: 0 (entry), 1 (after cbz), 3 (target of cbz, after b).
        assert_eq!(c.blocks().len(), 3);
        match c.fetch(0x1000).unwrap() {
            Uop::Cbz { block, target, .. } => {
                assert_eq!(target, 0x100c);
                assert_eq!(c.blocks()[block as usize].start, 3);
            }
            u => panic!("expected cbz, got {u:?}"),
        }
        match c.fetch(0x1008).unwrap() {
            Uop::B { block, target, .. } => {
                assert_eq!(target, 0x1000);
                assert_eq!(c.blocks()[block as usize].start, 0);
            }
            u => panic!("expected b, got {u:?}"),
        }
    }

    #[test]
    fn cross_program_branches_are_external() {
        let p = prog(0x1000, vec![Instr::B(0x9000), Instr::Halt(0)]);
        let c = compile(&p, &table());
        match c.fetch(0x1000).unwrap() {
            Uop::B { block, target, .. } => {
                assert_eq!(block, EXTERNAL_BLOCK);
                assert_eq!(target, 0x9000);
            }
            u => panic!("expected b, got {u:?}"),
        }
    }

    #[test]
    fn slow_instructions_terminate_blocks() {
        let p = prog(
            0x1000,
            vec![
                Instr::Nop,
                Instr::Hvc(0),
                Instr::Nop,
                Instr::Eret,
                Instr::Halt(0),
            ],
        );
        let c = compile(&p, &table());
        // Blocks: [nop,hvc] [nop,eret] [halt].
        assert_eq!(c.blocks().len(), 3);
        assert_eq!(c.blocks()[0], Block { start: 0, end: 2 });
        assert_eq!(c.blocks()[1], Block { start: 2, end: 4 });
        assert!(matches!(c.fetch(0x1004), Some(Uop::Slow(Instr::Hvc(0)))));
    }

    #[test]
    fn costs_are_baked_from_the_table() {
        let t = table();
        let p = prog(
            0x1000,
            vec![Instr::Work(7), Instr::Isb, Instr::Nop, Instr::Halt(0)],
        );
        let c = compile(&p, &t);
        assert!(matches!(
            c.fetch(0x1000),
            Some(Uop::Work { c }) if c == t.cost(Event::Instr) * 7
        ));
        assert!(matches!(
            c.fetch(0x1004),
            Some(Uop::Barrier { c }) if c == t.cost(Event::Barrier)
        ));
    }

    #[test]
    fn fetch_mirrors_program_fetch_bounds() {
        let p = prog(0x1000, vec![Instr::Nop, Instr::Halt(0)]);
        let c = compile(&p, &table());
        assert!(c.fetch(0x0ffc).is_none(), "below base");
        assert!(c.fetch(0x1002).is_none(), "misaligned");
        assert!(c.fetch(0x1008).is_none(), "past end");
        assert!(c.fetch(0x1004).is_some());
    }

    #[test]
    fn block_of_locates_indices() {
        let p = prog(
            0x1000,
            vec![Instr::Nop, Instr::Hvc(0), Instr::Nop, Instr::Halt(0)],
        );
        let c = compile(&p, &table());
        assert_eq!(c.block_of(0), Some(Block { start: 0, end: 2 }));
        assert_eq!(c.block_of(1), Some(Block { start: 0, end: 2 }));
        assert_eq!(c.block_of(2), Some(Block { start: 2, end: 4 }));
        assert_eq!(c.block_of(9), None);
    }
}
