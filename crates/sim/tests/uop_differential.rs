//! Randomized differential test: the pre-decoded micro-op execution path
//! (`Machine::run`) against the per-step reference interpreter
//! (`Machine::run_legacy`).
//!
//! Programs are generated from a vocabulary biased toward the features
//! where the two paths genuinely diverge in mechanism: hardware loops
//! (specializable straight-line bodies, nested loops sharing an end
//! address, bodies with control flow or CSR reads that must fall back),
//! software loops closed by a backward branch (counter and
//! pointer-compare loops, a load feeding the branch, trip count 1,
//! never-exiting loops, poisoned bodies, a hardware loop ending on the
//! loop's exit), dot-product loops in the level-a and level-b shapes
//! (with streams running out of memory or misaligned, a spill word
//! aliasing a stream, an SPR write in flight at entry, never-exiting
//! loops, and near-misses that must not be recognized, other load
//! widths and strides among them), post-increment
//! load/store streams, `pl.sdotsp` SPR
//! pipelines, taken and untaken branches, `jalr`, serial divides, and
//! pointer streams that eventually fault mid-loop. Every seed is run
//! under several cycle budgets so the watchdog fires inside bulk loop
//! runs too.
//!
//! After both paths run the same program on identically staged machines,
//! *everything observable* must match: the `Result`, all 32 registers,
//! PC, cycle and instret counters, hardware-loop and SPR state, every
//! per-mnemonic statistics row, and the full memory image.

use rnnasip_isa::{
    AluImmOp, AluOp, BranchOp, Csr, CsrOp, DotOp, Instr, LoadOp, LoopIdx, MulDivOp, PvAluOp, Reg,
    SimdMode, SimdSize, StoreOp,
};
use rnnasip_rng::StdRng;
use rnnasip_sim::{Fault, FaultPlan, FaultSite, Machine, Memory, Program};

/// Small memory so runaway pointer streams fault within a few hundred
/// iterations instead of never.
const MEM_BYTES: usize = 2048;

const REG_POOL: [Reg; 8] = [
    Reg::A0,
    Reg::A3,
    Reg::A4,
    Reg::T0,
    Reg::T1,
    Reg::S0,
    Reg::S1,
    Reg::ZERO,
];

/// `a1` is the load/`pl.sdotsp` pointer, `a2` the store pointer — kept
/// out of the general pool so streams stay mostly in bounds.
const PTR_LOAD: Reg = Reg::A1;
const PTR_STORE: Reg = Reg::A2;

struct Gen {
    rng: StdRng,
}

impl Gen {
    fn u(&mut self, n: u32) -> u32 {
        self.rng.gen::<u32>() % n
    }

    fn reg(&mut self) -> Reg {
        REG_POOL[self.u(REG_POOL.len() as u32) as usize]
    }

    fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> Instr {
        let _ = self;
        Instr::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    /// One straight-line (loop-body-eligible) instruction.
    fn body_instr(&mut self) -> Instr {
        match self.u(12) {
            0 | 1 => {
                let (rd, rs1) = (self.reg(), self.reg());
                let imm = self.u(64) as i32 - 32;
                self.addi(rd, rs1, imm)
            }
            2 => Instr::Op {
                op: [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::And][self.u(4) as usize],
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            3 => Instr::Mac {
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            4 => Instr::PvDot {
                op: [DotOp::SdotSp, DotOp::DotUp, DotOp::SdotUsp][self.u(3) as usize],
                size: if self.u(2) == 0 {
                    SimdSize::Half
                } else {
                    SimdSize::Byte
                },
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            5 => Instr::PvAlu {
                op: [PvAluOp::Add, PvAluOp::Max, PvAluOp::Sra][self.u(3) as usize],
                size: SimdSize::Half,
                mode: match self.u(3) {
                    0 => SimdMode::Vv,
                    1 => SimdMode::Sc,
                    _ => SimdMode::Sci(self.u(63) as i8 - 31),
                },
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            6 | 7 => Instr::LoadPostInc {
                op: LoadOp::Lw,
                rd: self.reg(),
                rs1: PTR_LOAD,
                offset: 4,
            },
            8 => Instr::StorePostInc {
                op: StoreOp::Sw,
                rs2: self.reg(),
                rs1: PTR_STORE,
                offset: 4,
            },
            9 => Instr::PlSdotsp {
                spr: self.u(2) as u8,
                size: SimdSize::Half,
                rd: self.reg(),
                rs1: PTR_LOAD,
                rs2: self.reg(),
            },
            10 => Instr::MulDiv {
                op: [MulDivOp::Mul, MulDivOp::Mulh, MulDivOp::Div, MulDivOp::Remu]
                    [self.u(4) as usize],
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            _ => Instr::PlTanh {
                rd: self.reg(),
                rs1: self.reg(),
            },
        }
    }

    /// A hardware loop over a body of `body_len` generated instructions.
    fn emit_loop(&mut self, out: &mut Vec<Instr>) {
        let body_len = 1 + self.u(4);
        let nested = self.u(4) == 0;
        let poison = self.u(5) == 0; // body gets a fallback-forcing op
        if nested {
            let outer = 1 + self.u(4);
            let inner = 1 + self.u(24);
            // Outer body = inner setup + shared body; both loops end at
            // the same address (the canonical RI5CY nesting pattern).
            out.push(Instr::LpSetupi {
                l: LoopIdx::L1,
                count: outer,
                uimm: 2 + 2 * (body_len + 1),
            });
            out.push(Instr::LpSetupi {
                l: LoopIdx::L0,
                count: inner,
                uimm: 2 + 2 * body_len,
            });
        } else {
            let count = self.u(48);
            let l = if self.u(2) == 0 {
                LoopIdx::L0
            } else {
                LoopIdx::L1
            };
            if self.u(2) == 0 {
                out.push(self.addi(Reg::T2, Reg::ZERO, count as i32));
                out.push(Instr::LpSetup {
                    l,
                    rs1: Reg::T2,
                    uimm: 2 + 2 * body_len,
                });
            } else {
                out.push(Instr::LpSetupi {
                    l,
                    count,
                    uimm: 2 + 2 * body_len,
                });
            }
        }
        for k in 0..body_len {
            if poison && k == body_len / 2 {
                // A branch or CSR read in the body defeats specialization
                // at translate time; the generic path must handle the
                // loop identically.
                out.push(if self.u(2) == 0 {
                    Instr::Branch {
                        op: BranchOp::Bne,
                        rs1: Reg::ZERO,
                        rs2: Reg::ZERO,
                        offset: 8, // never taken
                    }
                } else {
                    Instr::Csr {
                        op: CsrOp::Csrrs,
                        rd: self.reg(),
                        rs1: Reg::ZERO,
                        csr: Csr::Mcycle,
                    }
                });
            } else {
                out.push(self.body_instr());
            }
        }
    }

    /// A software loop closed by a backward conditional branch over a
    /// straight body of generated instructions. `T2`/`T3` (outside the
    /// general pool) hold the counter and bound, so body ops cannot
    /// disturb the trip count.
    fn emit_branch_loop(&mut self, out: &mut Vec<Instr>) {
        let trips = 1 + self.u(12) as i32;
        let body_len = self.u(4);
        let poison = self.u(6) == 0;
        // Sometimes run it inside a hardware loop whose end is the
        // branch's fall-through: armed, that end must keep the loop off
        // the bulk runner.
        let in_hwloop = self.u(8) == 0;
        let setup_at = out.len();
        if in_hwloop {
            out.push(Instr::LpSetupi {
                l: LoopIdx::L1,
                count: 1 + self.u(3),
                uimm: 0, // patched below
            });
        }
        let form = self.u(5);
        // Set-up and the body's tail: (bound-setting ops, tail ops,
        // closing branch op, rs1, rs2).
        let (setup, tail, op, rs1, rs2): (Vec<Instr>, Vec<Instr>, BranchOp, Reg, Reg) = match form {
            // Down-counter: bne / blt on the counter.
            0 => (
                vec![self.addi(Reg::T2, Reg::ZERO, trips)],
                vec![self.addi(Reg::T2, Reg::T2, -1)],
                if self.u(2) == 0 {
                    BranchOp::Bne
                } else {
                    BranchOp::Blt
                },
                if self.u(2) == 0 { Reg::T2 } else { Reg::ZERO },
                if self.u(2) == 0 { Reg::ZERO } else { Reg::T2 },
            ),
            // Up-counter against a bound: bltu t2, t3.
            1 => (
                vec![
                    self.addi(Reg::T2, Reg::ZERO, 0),
                    self.addi(Reg::T3, Reg::ZERO, trips),
                ],
                vec![self.addi(Reg::T2, Reg::T2, 1)],
                BranchOp::Bltu,
                Reg::T2,
                Reg::T3,
            ),
            // Pointer compare on the load stream: bltu / bne / bgeu
            // against an end pointer. Body loads may advance the pointer
            // further, overshooting a `bne` bound into a runaway stream
            // that faults out of bounds.
            2 => {
                let (op, rs1, rs2, end) = match self.u(3) {
                    0 => (BranchOp::Bltu, PTR_LOAD, Reg::T3, 4 * trips),
                    1 => (BranchOp::Bne, PTR_LOAD, Reg::T3, 4 * trips),
                    _ => (BranchOp::Bgeu, Reg::T3, PTR_LOAD, 4 * (trips - 1)),
                };
                (
                    vec![self.addi(Reg::T3, PTR_LOAD, end)],
                    vec![Instr::LoadPostInc {
                        op: LoadOp::Lw,
                        rd: self.reg(),
                        rs1: PTR_LOAD,
                        offset: 4,
                    }],
                    op,
                    rs1,
                    rs2,
                )
            }
            // The counter stored and reloaded: the load feeds the
            // branch (a static load-use stall on the closing op).
            3 => (
                vec![self.addi(Reg::T2, Reg::ZERO, trips)],
                vec![
                    self.addi(Reg::T2, Reg::T2, -1),
                    Instr::Store {
                        op: StoreOp::Sw,
                        rs2: Reg::T2,
                        rs1: PTR_STORE,
                        offset: 0,
                    },
                    Instr::Load {
                        op: LoadOp::Lw,
                        rd: Reg::T4,
                        rs1: PTR_STORE,
                        offset: 0,
                    },
                ],
                BranchOp::Bne,
                Reg::T4,
                Reg::ZERO,
            ),
            // Never exits (`bgeu x, zero` is always taken): the run ends
            // on the watchdog or a runaway stream's fault.
            _ => (
                Vec::new(),
                Vec::new(),
                BranchOp::Bgeu,
                self.reg(),
                Reg::ZERO,
            ),
        };
        out.extend(setup);
        let head = out.len();
        for k in 0..body_len {
            if poison && k == body_len / 2 {
                // A CSR read or an inner (never-taken) branch keeps the
                // body off the branch-closed runner.
                out.push(if self.u(2) == 0 {
                    Instr::Csr {
                        op: CsrOp::Csrrs,
                        rd: self.reg(),
                        rs1: Reg::ZERO,
                        csr: Csr::Minstret,
                    }
                } else {
                    Instr::Branch {
                        op: BranchOp::Bne,
                        rs1: Reg::ZERO,
                        rs2: Reg::ZERO,
                        offset: 4,
                    }
                });
            } else {
                out.push(self.body_instr());
            }
        }
        out.extend(tail);
        let offset = -4 * (out.len() - head) as i32;
        out.push(Instr::Branch {
            op,
            rs1,
            rs2,
            offset,
        });
        if in_hwloop {
            // lp.setupi's end is `pc + 2 * uimm`: the branch fall-through.
            let uimm = 2 * (out.len() - setup_at) as u32;
            if let Instr::LpSetupi { uimm: u, .. } = &mut out[setup_at] {
                *u = uimm;
            }
        }
    }

    /// A stream base for a dot loop: usually in bounds, sometimes near
    /// the top of memory (the stream runs out mid-loop), sometimes off
    /// the access alignment by `misalign` bytes.
    fn dot_base(&mut self, misalign: u32) -> i32 {
        (match self.u(16) {
            0 => MEM_BYTES as u32 - 24,
            1 => 4 * self.u(200) + misalign,
            _ => 4 * self.u(200),
        }) as i32
    }

    /// A dot-product loop in the shapes the translator runs as one host
    /// reduction — the level-a software MAC loop (spilled accumulator,
    /// `bltu` on the input pointer, either load order), a counter-closed
    /// variant, a never-exiting one, and the level-b `p.lw!, p.lw!,
    /// pv.sdotsp.h` hardware-loop body in either load order — with the
    /// entry conditions that must decline (a stream running out of
    /// memory or misaligned, a spill word aliasing a stream, an SPR
    /// write in flight) and near-misses the translator must not
    /// recognize (accumulator equal to a pointer, a load feeding the
    /// branch, a third load, loads or strides other than the two kernel
    /// shapes'). Registers `a5`–`a7`, `s2`–`s4`, `t5`, `t6`
    /// are its own.
    fn emit_dot_loop(&mut self, out: &mut Vec<Instr>) {
        const WP: Reg = Reg::A5;
        const XP: Reg = Reg::A6;
        const ACC: Reg = Reg::A7;
        const SPILL: Reg = Reg::S2;
        const END: Reg = Reg::S3;
        const CNT: Reg = Reg::S4;
        const W: Reg = Reg::T5;
        const X: Reg = Reg::T6;
        let trips = if self.u(5) == 0 {
            1
        } else {
            1 + self.u(24) as i32
        };
        let swap = self.u(2) == 0;
        let near_miss = if self.u(6) == 0 { 1 + self.u(3) } else { 0 };
        let spr_in_flight = self.u(8) == 0;
        let in_flight = |g: &mut Self| Instr::PlSdotsp {
            spr: g.u(2) as u8,
            size: SimdSize::Half,
            rd: g.reg(),
            rs1: PTR_LOAD,
            rs2: g.reg(),
        };
        let acc = if near_miss == 1 { WP } else { ACC };

        if self.u(3) == 0 {
            // Level b: word streams through post-increment loads.
            let (bw, bx) = (self.dot_base(2), self.dot_base(2));
            out.push(self.addi(WP, Reg::ZERO, bw));
            out.push(self.addi(XP, Reg::ZERO, bx));
            // Sometimes a strided weight stream (every other word), which
            // the translator must leave to the per-op runner.
            let w_stride = if self.u(8) == 0 { 8 } else { 4 };
            let mut body = vec![
                Instr::LoadPostInc {
                    op: LoadOp::Lw,
                    rd: W,
                    rs1: WP,
                    offset: w_stride,
                },
                Instr::LoadPostInc {
                    op: LoadOp::Lw,
                    rd: X,
                    rs1: XP,
                    offset: 4,
                },
            ];
            if swap {
                body.reverse();
            }
            if near_miss == 3 {
                body.push(Instr::LoadPostInc {
                    op: LoadOp::Lw,
                    rd: Reg::T4,
                    rs1: XP,
                    offset: 4,
                });
            }
            body.push(Instr::PvDot {
                op: DotOp::SdotSp,
                size: SimdSize::Half,
                rd: acc,
                rs1: if swap { X } else { W },
                rs2: if swap { W } else { X },
            });
            if spr_in_flight {
                let i = in_flight(self);
                out.push(i);
            }
            out.push(Instr::LpSetupi {
                l: LoopIdx::L0,
                count: trips as u32,
                uimm: 2 + 2 * body.len() as u32,
            });
            out.extend(body);
            return;
        }

        // Level a: halfword streams, advanced by `addi` or post-increment;
        // sometimes zero-extended or byte loads, a doubled stride, or
        // streams walking down, none of which the translator may tag.
        let (bw, bx) = (self.dot_base(1), self.dot_base(1));
        let form = [0, 0, 0, 1, 1, 2][self.u(6) as usize];
        let (op, stride) = match self.u(16) {
            0 => (LoadOp::Lhu, 2),
            1 => (LoadOp::Lb, 2),
            2 => (LoadOp::Lh, 4),
            3 => (LoadOp::Lh, -2),
            _ => (LoadOp::Lh, 2),
        };
        // The spill word: usually clear of both streams, sometimes inside
        // the input stream.
        let spill = if self.u(5) == 0 {
            (bx + 4 * self.u(4) as i32) & !3
        } else {
            4 * (440 + self.u(40)) as i32
        };
        out.push(self.addi(WP, Reg::ZERO, bw));
        out.push(self.addi(XP, Reg::ZERO, bx));
        out.push(self.addi(END, XP, stride * trips));
        out.push(self.addi(SPILL, Reg::ZERO, spill));
        out.push(self.addi(CNT, Reg::ZERO, trips));
        let spilled = form == 0;
        let post_inc = self.u(3) == 0;
        let lh = |rd: Reg, rs1: Reg| {
            if post_inc {
                Instr::LoadPostInc {
                    op,
                    rd,
                    rs1,
                    offset: stride,
                }
            } else {
                Instr::Load {
                    op,
                    rd,
                    rs1,
                    offset: 0,
                }
            }
        };
        let mut body = vec![lh(W, WP), lh(X, XP)];
        if swap {
            body.reverse();
        }
        if near_miss == 3 {
            body.push(Instr::Load {
                op: LoadOp::Lh,
                rd: Reg::T4,
                rs1: WP,
                offset: 2,
            });
        }
        if spilled {
            body.push(Instr::Load {
                op: LoadOp::Lw,
                rd: acc,
                rs1: SPILL,
                offset: 0,
            });
        }
        if !post_inc {
            body.push(self.addi(WP, WP, stride));
        }
        body.push(Instr::Mac {
            rd: acc,
            rs1: if swap { X } else { W },
            rs2: if swap { W } else { X },
        });
        if spilled {
            body.push(Instr::Store {
                op: StoreOp::Sw,
                rs2: acc,
                rs1: SPILL,
                offset: 0,
            });
        }
        if !post_inc {
            body.push(self.addi(XP, XP, stride));
        }
        let (op, rs1, rs2) = match form {
            // The level-a close: input pointer against its end (`bne`
            // when it does not step up by one halfword).
            0 if stride == 2 => (BranchOp::Bltu, XP, END),
            0 => (BranchOp::Bne, XP, END),
            // Counter-closed.
            1 => {
                body.push(self.addi(CNT, CNT, -1));
                (BranchOp::Bne, CNT, Reg::ZERO)
            }
            // Never exits: the streams run out of memory, or the
            // watchdog fires first.
            _ => (BranchOp::Bgeu, XP, Reg::ZERO),
        };
        let (rs1, rs2) = if near_miss == 2 {
            (X, Reg::ZERO)
        } else {
            (rs1, rs2)
        };
        if spr_in_flight {
            let i = in_flight(self);
            out.push(i);
        }
        let head = out.len();
        out.extend(body);
        let offset = -4 * (out.len() - head) as i32;
        out.push(Instr::Branch {
            op,
            rs1,
            rs2,
            offset,
        });
    }

    fn emit_chunk(&mut self, out: &mut Vec<Instr>) {
        match self.u(16) {
            0..=1 => {
                for _ in 0..=self.u(3) {
                    let i = self.body_instr();
                    out.push(i);
                }
            }
            2 => {
                // Forward branch over filler instructions.
                let skip = 1 + self.u(3);
                out.push(Instr::Branch {
                    op: [BranchOp::Beq, BranchOp::Bne, BranchOp::Blt, BranchOp::Bgeu]
                        [self.u(4) as usize],
                    rs1: self.reg(),
                    rs2: self.reg(),
                    offset: 4 * (1 + skip as i32),
                });
                for _ in 0..=skip {
                    let (rd, rs1) = (self.reg(), self.reg());
                    let i = self.addi(rd, rs1, 1);
                    out.push(i);
                }
            }
            3..=5 => self.emit_loop(out),
            9..=11 => self.emit_branch_loop(out),
            12..=14 => self.emit_dot_loop(out),
            6 => {
                // pl.sdotsp stream with a spacer, the paper's idiom.
                for _ in 0..2 + self.u(3) {
                    out.push(Instr::PlSdotsp {
                        spr: self.u(2) as u8,
                        size: SimdSize::Half,
                        rd: self.reg(),
                        rs1: PTR_LOAD,
                        rs2: self.reg(),
                    });
                    if self.u(2) == 0 {
                        let i = self.addi(Reg::ZERO, Reg::ZERO, 0);
                        out.push(i);
                    }
                }
            }
            7 => {
                // auipc + jalr: a register-indirect jump to a known-good
                // forward target (auipc addr + 8 or + 12).
                let skip = self.u(2); // 0 or 1 filler skipped
                out.push(Instr::Auipc {
                    rd: Reg::T2,
                    imm20: 0,
                });
                out.push(Instr::Jalr {
                    rd: Reg::RA,
                    rs1: Reg::T2,
                    offset: 8 + 4 * skip as i32,
                });
                for _ in 0..=skip {
                    let i = self.addi(Reg::ZERO, Reg::ZERO, 0);
                    out.push(i);
                }
            }
            8 => {
                // Load/store pairs through the pointer regs, with a
                // halfword variant that de-aligns the word stream.
                out.push(Instr::LoadPostInc {
                    op: if self.u(5) == 0 {
                        LoadOp::Lh
                    } else {
                        LoadOp::Lw
                    },
                    rd: self.reg(),
                    rs1: PTR_LOAD,
                    offset: if self.u(5) == 0 { 2 } else { 4 },
                });
                out.push(Instr::Store {
                    op: StoreOp::Sw,
                    rs2: self.reg(),
                    rs1: PTR_STORE,
                    offset: 4 * self.u(8) as i32,
                });
                out.push(Instr::LoadReg {
                    op: LoadOp::Lbu,
                    rd: self.reg(),
                    rs1: PTR_LOAD,
                    rs2: Reg::ZERO,
                });
            }
            _ => match self.u(5) {
                // Rarities: manual loop CSR setup, a degenerate lp.setupi
                // (start >= end -> BadHwLoop), fence, CSR reads, and a
                // backward jal (infinite loop -> watchdog).
                0 => {
                    out.push(Instr::LpCounti {
                        l: LoopIdx::L0,
                        uimm: self.u(4),
                    });
                    out.push(Instr::LpStarti {
                        l: LoopIdx::L0,
                        uimm: self.u(8),
                    });
                    out.push(Instr::LpEndi {
                        l: LoopIdx::L0,
                        uimm: self.u(8),
                    });
                    let i = self.body_instr();
                    out.push(i);
                    let i = self.body_instr();
                    out.push(i);
                }
                1 => out.push(Instr::LpSetupi {
                    l: LoopIdx::L1,
                    count: 1 + self.u(4),
                    uimm: self.u(2),
                }),
                2 => out.push(Instr::Fence),
                3 => out.push(Instr::Csr {
                    op: CsrOp::Csrrs,
                    rd: self.reg(),
                    rs1: Reg::ZERO,
                    csr: [Csr::Mcycle, Csr::Minstret, Csr::LpCount0][self.u(3) as usize],
                }),
                _ => out.push(Instr::Jal {
                    rd: Reg::ZERO,
                    offset: -8,
                }),
            },
        }
    }

    fn program(&mut self) -> Program {
        let mut v = Vec::new();
        // Pointer setup: word-aligned, usually low (streams stay in
        // bounds), sometimes near the top of memory (streams fault).
        let load_base = if self.u(4) == 0 {
            (MEM_BYTES as u32 - 64) & !3
        } else {
            4 * self.u(200)
        };
        v.push(self.addi(PTR_LOAD, Reg::ZERO, load_base as i32));
        let store_base = 4 * (100 + self.u(100)) as i32;
        v.push(self.addi(PTR_STORE, Reg::ZERO, store_base));
        // Seed a couple of pool registers with data.
        for _ in 0..3 {
            let rd = self.reg();
            let imm = self.u(4096) as i32 - 2048;
            let i = self.addi(rd, Reg::ZERO, imm);
            v.push(i);
        }
        for _ in 0..4 + self.u(6) {
            self.emit_chunk(&mut v);
        }
        v.push(Instr::Ecall);
        Program::from_instrs(0, v)
    }
}

/// Builds a machine with deterministically patterned memory.
fn staged_machine(prog: &Program, seed: u64) -> Machine {
    let mut mem = Memory::new(MEM_BYTES);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
    for a in (0..MEM_BYTES as u32).step_by(4) {
        mem.write_u32(a, rng.gen::<u32>()).unwrap();
    }
    // The patterned image is the baseline; the dirty bitmap tracks the
    // program's own writes from here.
    let image = mem.image();
    mem.load_image(&image);
    let mut m = Machine::with_memory(mem);
    m.load_program(prog);
    m
}

fn assert_identical(seed: u64, max_cycles: u64, prog: &Program) {
    assert_identical_with_plan(seed, max_cycles, prog, None);
}

fn assert_identical_with_plan(
    seed: u64,
    max_cycles: u64,
    prog: &Program,
    plan: Option<&FaultPlan>,
) {
    let mut legacy = staged_machine(prog, seed);
    let mut uop = staged_machine(prog, seed);
    if let Some(plan) = plan {
        legacy.arm_faults(plan);
        uop.arm_faults(plan);
    }
    let r_legacy = legacy.run_legacy(max_cycles);
    let r_uop = uop.run(max_cycles);
    let ctx = format!("seed {seed}, budget {max_cycles}");

    assert_eq!(legacy.fault_log(), uop.fault_log(), "fault log ({ctx})");

    assert_eq!(r_legacy, r_uop, "exit ({ctx})");
    let (cl, cu) = (legacy.core(), uop.core());
    assert_eq!(cl.pc, cu.pc, "pc ({ctx})");
    assert_eq!(cl.cycle, cu.cycle, "cycle ({ctx})");
    assert_eq!(cl.instret, cu.instret, "instret ({ctx})");
    for r in Reg::all() {
        assert_eq!(cl.reg(r), cu.reg(r), "reg {r} ({ctx})");
    }
    for l in 0..2 {
        assert_eq!(cl.hwloop[l].start, cu.hwloop[l].start, "lpstart{l} ({ctx})");
        assert_eq!(cl.hwloop[l].end, cu.hwloop[l].end, "lpend{l} ({ctx})");
        assert_eq!(cl.hwloop[l].count, cu.hwloop[l].count, "lpcount{l} ({ctx})");
    }
    assert_eq!(cl.spr, cu.spr, "spr ({ctx})");

    let (sl, su) = (legacy.stats(), uop.stats());
    assert_eq!(sl.cycles(), su.cycles(), "total cycles ({ctx})");
    assert_eq!(sl.instrs(), su.instrs(), "total instrs ({ctx})");
    assert_eq!(sl.stall_cycles(), su.stall_cycles(), "stalls ({ctx})");
    assert_eq!(sl.mac_ops(), su.mac_ops(), "macs ({ctx})");
    for ((name_l, row_l), (name_u, row_u)) in sl.iter().zip(su.iter()) {
        assert_eq!(name_l, name_u, "row order ({ctx})");
        assert_eq!(row_l, row_u, "row {name_l} ({ctx})");
    }

    assert_eq!(
        legacy.mem().image().as_bytes(),
        uop.mem().image().as_bytes(),
        "memory ({ctx})"
    );
}

#[test]
fn randomized_programs_match_reference_bit_exactly() {
    let mut halts = 0u32;
    let mut errors = 0u32;
    for seed in 0..400u64 {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
        };
        let prog = g.program();
        // Several budgets per program: tiny (watchdog mid-loop, often
        // mid-bulk), small, and ample (normal termination).
        for max_cycles in [60, 700, 20_000] {
            assert_identical(seed, max_cycles, &prog);
        }
        let mut probe = staged_machine(&prog, seed);
        match probe.run(20_000) {
            Ok(_) => halts += 1,
            Err(_) => errors += 1,
        }
    }
    // The generator must keep both populations healthy, or the test
    // quietly stops covering one side.
    assert!(halts >= 100, "only {halts} seeds halted cleanly");
    assert!(errors >= 40, "only {errors} seeds faulted");
}

/// A seeded fault plan aimed at a program of `prog_len` 4-byte
/// instructions based at 0: a few bit-flips across all three site kinds,
/// sometimes with a forced watchdog.
fn fault_plan(seed: u64, prog_len: usize) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
    let mut u = move |n: u32| rng.gen::<u32>() % n;
    let mut plan = FaultPlan::new();
    for _ in 0..1 + u(3) {
        // Mostly early triggers (many generated programs retire only a
        // few dozen instructions); occasionally deep into a loop.
        let at_instret = u64::from(if u(4) == 0 { u(1500) } else { u(40) });
        let site = match u(4) {
            0 => FaultSite::MemBit {
                // Slightly past the end sometimes, exercising NoTarget.
                addr: u(MEM_BYTES as u32 + 64),
                bit: u(8),
                silent: u(4) == 0,
            },
            1 => FaultSite::RegBit {
                reg: REG_POOL[u(REG_POOL.len() as u32) as usize],
                bit: u(32),
            },
            2 => FaultSite::InstrBit {
                pc: 4 * u(prog_len as u32 + 2),
                bit: u(32),
            },
            _ => FaultSite::MemBit {
                addr: 4 * u(MEM_BYTES as u32 / 4),
                bit: u(8),
                silent: false,
            },
        };
        plan = plan.with_fault(Fault { at_instret, site });
    }
    if u(4) == 0 {
        plan = plan.with_watchdog(u64::from(200 + u(4_000)));
    }
    plan
}

/// Satellite of the fault-injection subsystem: under identical injected
/// fault plans — memory/register bit-flips, instruction corruption,
/// forced watchdogs — both execution paths must report the same error
/// variant, faulting PC, cycle count, fault log, and full machine state.
#[test]
fn fault_plans_match_reference_bit_exactly() {
    let mut applied = 0usize;
    let mut corrupted = 0usize;
    let mut errors = 0u32;
    for seed in 0..150u64 {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
        };
        let prog = g.program();
        let plan = fault_plan(seed, prog.len());
        for max_cycles in [700, 20_000] {
            assert_identical_with_plan(seed, max_cycles, &prog, Some(&plan));
        }
        let mut probe = staged_machine(&prog, seed);
        probe.arm_faults(&plan);
        if probe.run(20_000).is_err() {
            errors += 1;
        }
        applied += probe.fault_log().len();
        corrupted += probe
            .fault_log()
            .iter()
            .filter(|r| {
                matches!(
                    r.effect,
                    rnnasip_sim::FaultEffect::PatchedInstr { .. }
                        | rnnasip_sim::FaultEffect::RemovedInstr { .. }
                )
            })
            .count();
    }
    // Population health: the plans must actually strike, corrupt code,
    // and produce detected crashes, or the differential stops covering
    // the interesting paths.
    assert!(applied >= 100, "only {applied} faults applied");
    assert!(corrupted >= 10, "only {corrupted} instruction corruptions");
    assert!(errors >= 20, "only {errors} seeds faulted under injection");
}

#[test]
fn specialized_loops_are_actually_exercised() {
    // Guard against the generator drifting to programs whose loops never
    // specialize — the whole point is differential coverage of the bulk
    // runner.
    let mut specialized = 0usize;
    for seed in 0..100u64 {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
        };
        let prog = g.program();
        let mut m = Machine::new(MEM_BYTES);
        m.load_program(&prog);
        specialized += m.uop_program().loop_bodies();
    }
    assert!(
        specialized >= 50,
        "only {specialized} specialized loop bodies across 100 seeds"
    );
}

#[test]
fn dot_loops_are_actually_exercised() {
    // Same guard for the dot-loop chunk: recognized dot loops must keep
    // installing, or the differential stops covering the native
    // reduction and its declines.
    let mut installed = 0usize;
    for seed in 0..100u64 {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
        };
        let prog = g.program();
        let mut m = Machine::new(MEM_BYTES);
        m.load_program(&prog);
        installed += usize::from(m.uop_program().dot_loops() > 0);
    }
    assert!(
        installed >= 50,
        "dot loops installed on only {installed} of 100 seeds"
    );
}

#[test]
fn branch_closed_loops_are_actually_exercised() {
    // Same guard for the software-loop chunk: branch-closed runs must
    // keep installing, or the differential stops covering that runner.
    let mut installed = 0usize;
    for seed in 0..100u64 {
        let mut g = Gen {
            rng: StdRng::seed_from_u64(seed),
        };
        let prog = g.program();
        let mut m = Machine::new(MEM_BYTES);
        m.load_program(&prog);
        installed += usize::from(m.uop_program().branch_loops() > 0);
    }
    assert!(
        installed >= 50,
        "branch-closed loops installed on only {installed} of 100 seeds"
    );
}
