#![allow(clippy::needless_range_loop)] // lane loops index several arrays at once

//! The decode stage: lower a validated [`Kernel`] once into flat microcode
//! (a [`DecodedKernel`]) and execute it with zero per-block heap allocation.
//!
//! The tree-walking interpreter in [`crate::interp`] re-matches `Operand`
//! enums in every lane of every instruction and allocates a fresh register
//! file per warp per block. For a 4096² exhaustive run that is ~131k blocks
//! of pure re-discovery of facts that never change across the grid. Decoding
//! resolves them once per kernel:
//!
//! - every operand becomes a pre-multiplied register-row base (immediates
//!   get broadcast rows in an immediate pool appended after the vregs), so
//!   a lane read is one indexed load;
//! - branch targets and immediate post-dominators become array offsets;
//! - per-instruction issue costs and counter categories are baked in from
//!   the [`DeviceSpec`] at decode time.
//!
//! Execution reuses a [`DecodedScratch`] arena across blocks (the launch
//! path pools arenas process-wide, so they outlive a launch). The decoded
//! executor is observationally identical to [`crate::interp::run_block`] —
//! same counters, cycles, write-journal order and errors — and the
//! tree-walker stays as the reference oracle for differential testing.

use crate::counters::PerfCounters;
use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::interp::{BlockRun, MAX_WARP_INSTRUCTIONS, WARP};
use crate::launch::ParamValue;
use crate::memory::{segment_count_full, transactions_for_warp_fixed, DeviceBuffer};
use isp_ir::cfg::Cfg;
use isp_ir::kernel::Kernel;
use isp_ir::{BinOp, CmpOp, Instr, InstrCategory, Operand, SReg, Terminator, Ty, UnOp};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel block offset meaning "no block" (no reconvergence point / no
/// stop block). Kernels have far fewer than `u32::MAX` blocks.
const NO_BLOCK: u32 = u32::MAX;

const W: u32 = WARP as u32;

const CAT_BRA: usize = InstrCategory::Bra.index();
const CAT_RET: usize = InstrCategory::Ret.index();
const CAT_BAR2: usize = InstrCategory::Bar2.index();

/// One decoded instruction: issue cost and counter category baked in, the
/// operation itself pre-resolved so the lane loop never matches an
/// `Operand`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DOp {
    /// Issue cost on the decoding device, in cycles.
    pub(crate) cost: u32,
    /// `InstrCategory::index()` for flat histogram accounting.
    pub(crate) cat: u8,
    pub(crate) kind: DOpKind,
}

/// The decoded operation. All operand fields are register-row *bases*:
/// `slot * 32`, so lane `l` reads `regs[base + l]`. Immediates are rows in
/// the scratch arena's immediate pool, filled once per prepare.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DOpKind {
    BinI {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    BinF {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Predicate logic (`and`/`or`/`xor` on the low bit).
    BinP {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    MadI {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
    },
    MadF {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
    },
    /// Raw bit copy (any type).
    Mov {
        dst: u32,
        a: u32,
    },
    /// Predicate not: `(x & 1) ^ 1`.
    NotP {
        dst: u32,
        a: u32,
    },
    /// Bitwise not.
    NotB {
        dst: u32,
        a: u32,
    },
    NegI {
        dst: u32,
        a: u32,
    },
    AbsI {
        dst: u32,
        a: u32,
    },
    /// Float unary: neg/abs/exp/log/sqrt/rsqrt/floor.
    UnF {
        op: UnOp,
        dst: u32,
        a: u32,
    },
    /// `s32 -> f32`.
    CvtIF {
        dst: u32,
        a: u32,
    },
    /// `f32 -> s32` (round-to-nearest).
    CvtFI {
        dst: u32,
        a: u32,
    },
    SetPI {
        cmp: CmpOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    SetPF {
        cmp: CmpOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    SelP {
        dst: u32,
        a: u32,
        b: u32,
        pred: u32,
    },
    Sreg {
        dst: u32,
        sreg: SReg,
    },
    LdParam {
        dst: u32,
        index: u32,
    },
    Ld {
        dst: u32,
        buf: u32,
        addr: u32,
    },
    Tex {
        dst: u32,
        buf: u32,
        x: u32,
        y: u32,
    },
    St {
        buf: u32,
        addr: u32,
        val: u32,
    },
    Lds {
        dst: u32,
        addr: u32,
    },
    Sts {
        addr: u32,
        val: u32,
    },
    /// Never executed: barrier blocks are intercepted before their body.
    Bar,
}

impl DOpKind {
    /// PTX-style mnemonic for histogram keys and fusion reports. Stable
    /// strings: the opcode-sequence histograms exported by the probe layer
    /// key on `"{a}+{b}"` pair strings built from these.
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            DOpKind::BinI { op, .. } => match op {
                BinOp::Add => "add.s32",
                BinOp::Sub => "sub.s32",
                BinOp::Mul => "mul.s32",
                BinOp::Div => "div.s32",
                BinOp::Rem => "rem.s32",
                BinOp::Min => "min.s32",
                BinOp::Max => "max.s32",
                BinOp::And => "and.b32",
                BinOp::Or => "or.b32",
                BinOp::Xor => "xor.b32",
                BinOp::Shl => "shl.b32",
                BinOp::Shr => "shr.s32",
            },
            DOpKind::BinF { op, .. } => match op {
                BinOp::Add => "add.f32",
                BinOp::Sub => "sub.f32",
                BinOp::Mul => "mul.f32",
                BinOp::Div => "div.f32",
                BinOp::Rem => "rem.f32",
                BinOp::Min => "min.f32",
                BinOp::Max => "max.f32",
                _ => "bin.f32",
            },
            DOpKind::BinP { op, .. } => match op {
                BinOp::And => "and.pred",
                BinOp::Or => "or.pred",
                _ => "xor.pred",
            },
            DOpKind::MadI { .. } => "mad.s32",
            DOpKind::MadF { .. } => "mad.f32",
            DOpKind::Mov { .. } => "mov",
            DOpKind::NotP { .. } => "not.pred",
            DOpKind::NotB { .. } => "not.b32",
            DOpKind::NegI { .. } => "neg.s32",
            DOpKind::AbsI { .. } => "abs.s32",
            DOpKind::UnF { op, .. } => match op {
                UnOp::Neg => "neg.f32",
                UnOp::Abs => "abs.f32",
                UnOp::Exp => "ex2.f32",
                UnOp::Log => "lg2.f32",
                UnOp::Sqrt => "sqrt.f32",
                UnOp::Rsqrt => "rsqrt.f32",
                UnOp::Floor => "floor.f32",
                _ => "un.f32",
            },
            DOpKind::CvtIF { .. } => "cvt.f32.s32",
            DOpKind::CvtFI { .. } => "cvt.s32.f32",
            DOpKind::SetPI { cmp, .. } => match cmp {
                CmpOp::Eq => "setp.eq.s32",
                CmpOp::Ne => "setp.ne.s32",
                CmpOp::Lt => "setp.lt.s32",
                CmpOp::Le => "setp.le.s32",
                CmpOp::Gt => "setp.gt.s32",
                CmpOp::Ge => "setp.ge.s32",
            },
            DOpKind::SetPF { cmp, .. } => match cmp {
                CmpOp::Eq => "setp.eq.f32",
                CmpOp::Ne => "setp.ne.f32",
                CmpOp::Lt => "setp.lt.f32",
                CmpOp::Le => "setp.le.f32",
                CmpOp::Gt => "setp.gt.f32",
                CmpOp::Ge => "setp.ge.f32",
            },
            DOpKind::SelP { .. } => "selp",
            DOpKind::Sreg { .. } => "mov.sreg",
            DOpKind::LdParam { .. } => "ld.param",
            DOpKind::Ld { .. } => "ld.global",
            DOpKind::Tex { .. } => "tex.2d",
            DOpKind::St { .. } => "st.global",
            DOpKind::Lds { .. } => "ld.shared",
            DOpKind::Sts { .. } => "st.shared",
            DOpKind::Bar => "bar.sync",
        }
    }
}

/// One fused dispatch unit: up to three adjacent straight-line ops issued
/// with a single budget/counter update. `cats` holds the constituent
/// categories (histogram attribution is per-constituent, so fusion is
/// invisible to counters) and `cost` their pre-combined issue cost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FOp {
    /// Index of the first constituent in [`DecodedKernel::ops`].
    first: u32,
    /// Number of constituents (1–3).
    n: u8,
    /// `InstrCategory::index()` of each constituent (`cats[..n]` valid).
    cats: [u8; 3],
    /// Sum of constituent issue costs.
    cost: u32,
    kind: FKind,
}

/// The fused operation body. Specialised variants embed their operand row
/// bases so the hot loop neither refetches nor re-matches the constituent
/// [`DOp`]s; the patterns are the top of the opcode-sequence histograms
/// (see DESIGN.md §7c): stencil address arithmetic (`mad+mad`), the clamp
/// chain (`mad+mad+min`), address-math-feeding-load, and load+convert.
/// Everything else fuses generically — same bulk charge, per-op body.
#[derive(Debug, Clone, Copy)]
#[allow(clippy::too_many_arguments)]
enum FKind {
    /// Unfused single op; dispatches through the normal path.
    Solo,
    /// `mad.s32 ; mad.s32 ; min.s32` — the clamp-address superinstruction.
    Mad2IMin {
        d1: u32,
        a1: u32,
        b1: u32,
        c1: u32,
        d2: u32,
        a2: u32,
        b2: u32,
        c2: u32,
        d3: u32,
        a3: u32,
        b3: u32,
    },
    /// `mad.s32 ; mad.s32` — 2-D address arithmetic.
    Mad2I {
        d1: u32,
        a1: u32,
        b1: u32,
        c1: u32,
        d2: u32,
        a2: u32,
        b2: u32,
        c2: u32,
    },
    /// `mad.f32 ; mad.f32` — stencil accumulation.
    Mad2F {
        d1: u32,
        a1: u32,
        b1: u32,
        c1: u32,
        d2: u32,
        a2: u32,
        b2: u32,
        c2: u32,
    },
    /// `mad.s32 ; ld.global` — address math feeding its load. The mad runs
    /// embedded; the load dispatches its normal body (validation,
    /// transactions, journal).
    MadILd { d1: u32, a1: u32, b1: u32, c1: u32 },
    /// `ld.global ; cvt.f32.s32` — load+convert chain.
    LdCvt { d2: u32, a2: u32 },
    /// `mul.f32 ; add.f32` — stencil weight-apply + accumulate.
    MulAddF {
        d1: u32,
        a1: u32,
        b1: u32,
        d2: u32,
        a2: u32,
        b2: u32,
    },
    /// `ld.global ; mul.f32 ; add.f32` — the full tap: load a sample,
    /// weight it, accumulate. The load dispatches its normal body; the
    /// arithmetic tail runs fused.
    LdMulAddF {
        d2: u32,
        a2: u32,
        b2: u32,
        d3: u32,
        a3: u32,
        b3: u32,
    },
    /// Generic fused pair (any two adjacent straight-line ops).
    Pair,
    /// Generic fused triple.
    Triple,
}

/// Decode-time fusion summary for one kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Fused groups formed (dispatch units covering ≥ 2 ops).
    pub groups: u64,
    /// Ops absorbed into those groups.
    pub fused_ops: u64,
    /// Static dispatches eliminated: `fused_ops - groups`.
    pub dispatches_saved: u64,
}

/// Decoded terminator with targets as array offsets and the reconvergence
/// point (immediate post-dominator) precomputed for `CondBr`.
#[derive(Debug, Clone, Copy)]
enum DTerm {
    Ret,
    Br {
        target: u32,
    },
    CondBr {
        /// Predicate register-row base.
        pred: u32,
        if_true: u32,
        if_false: u32,
        /// Reconvergence block, or [`NO_BLOCK`].
        ipdom: u32,
    },
}

/// A decoded basic block: an index range into the dense instruction array,
/// plus the fused-dispatch range into [`DecodedKernel::fops`].
#[derive(Debug, Clone, Copy)]
struct DBlock {
    start: u32,
    end: u32,
    /// Fused dispatch range (empty unless the kernel was decoded with
    /// fusion; barrier blocks stay empty — their body never executes).
    fstart: u32,
    fend: u32,
    term: DTerm,
    /// Whether this is a barrier block (first instruction is `bar`).
    is_bar: bool,
}

/// A kernel lowered to flat microcode for one device. Produced once by
/// [`decode`], cached by the launch layer, shared read-only across workers.
#[derive(Debug, Clone)]
pub struct DecodedKernel {
    /// Kernel name (error messages must match the reference interpreter).
    pub name: String,
    /// Structural fingerprint of the source kernel (cache key).
    pub fingerprint: u64,
    /// Identity of this decoding, unique in the process (see
    /// [`next_decode_id`]): the key a [`DecodedScratch`] is prepared under.
    id: u64,
    pub(crate) ops: Vec<DOp>,
    blocks: Vec<DBlock>,
    /// Fused dispatch stream (empty when `fuse` is false). The tracing
    /// executor and the recorder always walk `ops` unfused.
    fops: Vec<FOp>,
    /// Whether the fused stream is active for untraced execution.
    pub(crate) fuse: bool,
    pub(crate) num_vregs: u32,
    /// vregs + immediate pool rows.
    pub(crate) num_slots: u32,
    /// Distinct immediate bit patterns (row `num_vregs + i` broadcasts
    /// `imms[i]`).
    pub(crate) imms: Vec<u32>,
    shared_elems: u32,
    /// Vreg indices [`DecodedScratch::reset`] must zero before each block —
    /// the rows with at least one read (including a terminator predicate)
    /// not preceded by a same-basic-block write. See [`rows_needing_zero`].
    zero_rows: Vec<u32>,
    /// Baked device parameters.
    pub(crate) mem_cycles: u64,
    cost_bra: u64,
    cost_ret: u64,
    cost_bar2: u64,
    pub(crate) warp_size: u32,
}

impl DecodedKernel {
    /// Number of decoded instructions (for tests and stats).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of distinct immediates pooled.
    pub fn num_imms(&self) -> usize {
        self.imms.len()
    }

    /// Static dispatch units on the untraced hot path: fused groups when
    /// fusion is on, individual ops otherwise.
    pub fn num_dispatches(&self) -> usize {
        if self.fuse {
            self.fops.len()
        } else {
            self.ops.len()
        }
    }

    /// Decode-time fusion summary (all-zero when decoded without fusion).
    pub fn fusion_stats(&self) -> FusionStats {
        let mut s = FusionStats::default();
        for f in &self.fops {
            if f.n >= 2 {
                s.groups += 1;
                s.fused_ops += f.n as u64;
            }
        }
        s.dispatches_saved = s.fused_ops - s.groups;
        s
    }

    /// `flags[i]` is true iff op `i` starts a basic block — the
    /// opcode-sequence profiler uses this to avoid counting pairs that
    /// straddle a block boundary (never fusable).
    pub(crate) fn block_start_flags(&self) -> Vec<bool> {
        let mut flags = vec![false; self.ops.len()];
        for b in &self.blocks {
            if (b.start as usize) < flags.len() {
                flags[b.start as usize] = true;
            }
        }
        flags
    }
}

/// Structural fingerprint of a kernel: every semantically relevant field
/// (instructions, terminators, types, immediate bits, signatures) hashed;
/// labels and parameter names — which cannot affect execution — skipped.
pub fn kernel_fingerprint(k: &Kernel) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(k.name.as_bytes());
    h.write_u32(k.num_buffers);
    h.write_u32(k.num_vregs);
    h.write_u32(k.shared_elems);
    h.write_usize(k.params.len());
    for p in &k.params {
        h.write_u8(p.ty as u8);
    }
    h.write_usize(k.blocks.len());
    for b in &k.blocks {
        h.write_usize(b.instrs.len());
        for i in &b.instrs {
            hash_instr(&mut h, i);
        }
        hash_term(&mut h, &b.terminator);
    }
    h.finish()
}

fn hash_vreg(h: &mut DefaultHasher, r: isp_ir::VReg) {
    h.write_u32(r.index);
    h.write_u8(r.ty as u8);
}

fn hash_operand(h: &mut DefaultHasher, op: &Operand) {
    match op {
        Operand::Reg(r) => {
            h.write_u8(0);
            hash_vreg(h, *r);
        }
        Operand::ImmI(v) => {
            h.write_u8(1);
            h.write_u32(*v as u32);
        }
        Operand::ImmF(v) => {
            h.write_u8(2);
            h.write_u32(v.to_bits());
        }
    }
}

fn hash_instr(h: &mut DefaultHasher, i: &Instr) {
    match i {
        Instr::Bin { op, dst, a, b } => {
            h.write_u8(0);
            h.write_u8(*op as u8);
            hash_vreg(h, *dst);
            hash_operand(h, a);
            hash_operand(h, b);
        }
        Instr::Mad { dst, a, b, c } => {
            h.write_u8(1);
            hash_vreg(h, *dst);
            hash_operand(h, a);
            hash_operand(h, b);
            hash_operand(h, c);
        }
        Instr::Un { op, dst, a } => {
            h.write_u8(2);
            h.write_u8(*op as u8);
            hash_vreg(h, *dst);
            hash_operand(h, a);
        }
        Instr::Cvt { dst, a } => {
            h.write_u8(3);
            hash_vreg(h, *dst);
            hash_operand(h, a);
        }
        Instr::SetP { cmp, dst, a, b } => {
            h.write_u8(4);
            h.write_u8(*cmp as u8);
            hash_vreg(h, *dst);
            hash_operand(h, a);
            hash_operand(h, b);
        }
        Instr::SelP { dst, a, b, pred } => {
            h.write_u8(5);
            hash_vreg(h, *dst);
            hash_operand(h, a);
            hash_operand(h, b);
            hash_vreg(h, *pred);
        }
        Instr::Sreg { dst, sreg } => {
            h.write_u8(6);
            h.write_u8(*sreg as u8);
            hash_vreg(h, *dst);
        }
        Instr::LdParam { dst, index } => {
            h.write_u8(7);
            h.write_u32(*index);
            hash_vreg(h, *dst);
        }
        Instr::Ld { dst, buf, addr } => {
            h.write_u8(8);
            h.write_u32(*buf);
            hash_vreg(h, *dst);
            hash_operand(h, addr);
        }
        Instr::Tex { dst, buf, x, y } => {
            h.write_u8(9);
            h.write_u32(*buf);
            hash_vreg(h, *dst);
            hash_operand(h, x);
            hash_operand(h, y);
        }
        Instr::St { buf, addr, val } => {
            h.write_u8(10);
            h.write_u32(*buf);
            hash_operand(h, addr);
            hash_operand(h, val);
        }
        Instr::Lds { dst, addr } => {
            h.write_u8(11);
            hash_vreg(h, *dst);
            hash_operand(h, addr);
        }
        Instr::Sts { addr, val } => {
            h.write_u8(12);
            hash_operand(h, addr);
            hash_operand(h, val);
        }
        Instr::Bar => h.write_u8(13),
    }
}

fn hash_term(h: &mut DefaultHasher, t: &Terminator) {
    match t {
        Terminator::Br { target } => {
            h.write_u8(0);
            h.write_u32(target.0);
        }
        Terminator::CondBr {
            pred,
            if_true,
            if_false,
        } => {
            h.write_u8(1);
            hash_vreg(h, *pred);
            h.write_u32(if_true.0);
            h.write_u32(if_false.0);
        }
        Terminator::Ret => h.write_u8(2),
    }
}

/// Interns immediates into broadcast rows appended after the vregs.
struct Lowerer {
    num_vregs: u32,
    imms: Vec<u32>,
    map: HashMap<u32, u32>,
}

impl Lowerer {
    /// Row index of an immediate bit pattern, deduplicated by bits (safe
    /// across `ImmI`/`ImmF` because all reads are bit-level; type
    /// interpretation happens in the op arm).
    fn imm(&mut self, bits: u32) -> u32 {
        let imms = &mut self.imms;
        *self.map.entry(bits).or_insert_with(|| {
            imms.push(bits);
            (imms.len() - 1) as u32
        })
    }

    /// Register-row base of an operand.
    fn slot(&mut self, op: &Operand) -> u32 {
        let s = match op {
            Operand::Reg(r) => r.index,
            Operand::ImmI(v) => self.num_vregs + self.imm(*v as u32),
            Operand::ImmF(v) => self.num_vregs + self.imm(v.to_bits()),
        };
        s * W
    }
}

/// Lower a validated kernel into flat microcode for `device`, with
/// superinstruction fusion on (the default for every launch path). Called
/// once per (kernel, device); the result is shared read-only by every
/// worker.
pub fn decode(kernel: &Kernel, device: &DeviceSpec) -> DecodedKernel {
    decode_with_fusion(kernel, device, true)
}

/// [`decode`] with explicit control over the fusion pass — ablation
/// binaries and the observability-neutrality tests compare both decodings.
pub fn decode_with_fusion(kernel: &Kernel, device: &DeviceSpec, fuse: bool) -> DecodedKernel {
    let ipdom = Cfg::new(kernel).ipostdom();
    let mut low = Lowerer {
        num_vregs: kernel.num_vregs,
        imms: Vec::new(),
        map: HashMap::new(),
    };
    let mut ops: Vec<DOp> = Vec::with_capacity(kernel.static_len());
    let mut blocks: Vec<DBlock> = Vec::with_capacity(kernel.blocks.len());
    for (bid, bb) in kernel.blocks.iter().enumerate() {
        let start = ops.len() as u32;
        for instr in &bb.instrs {
            let cat = InstrCategory::of_instr(instr);
            let kind = lower_instr(instr, &mut low);
            ops.push(DOp {
                cost: device.issue_cost(cat) as u32,
                cat: cat.index() as u8,
                kind,
            });
        }
        let term = match &bb.terminator {
            Terminator::Ret => DTerm::Ret,
            Terminator::Br { target } => DTerm::Br { target: target.0 },
            Terminator::CondBr {
                pred,
                if_true,
                if_false,
            } => DTerm::CondBr {
                pred: pred.index * W,
                if_true: if_true.0,
                if_false: if_false.0,
                ipdom: ipdom[bid].map_or(NO_BLOCK, |b| b.0),
            },
        };
        blocks.push(DBlock {
            start,
            end: ops.len() as u32,
            fstart: 0,
            fend: 0,
            term,
            is_bar: bb.instrs.first().is_some_and(|i| matches!(i, Instr::Bar)),
        });
    }
    let fops = if fuse {
        fuse_blocks(&ops, &mut blocks)
    } else {
        Vec::new()
    };
    let zero_rows = rows_needing_zero(&ops, &blocks, kernel.num_vregs);
    DecodedKernel {
        name: kernel.name.clone(),
        fingerprint: kernel_fingerprint(kernel),
        id: next_decode_id(),
        ops,
        blocks,
        fops,
        fuse,
        num_vregs: kernel.num_vregs,
        num_slots: kernel.num_vregs + low.imms.len() as u32,
        imms: low.imms,
        shared_elems: kernel.shared_elems,
        zero_rows,
        mem_cycles: device.mem_transaction_cycles,
        cost_bra: device.issue_cost(InstrCategory::Bra),
        cost_ret: device.issue_cost(InstrCategory::Ret),
        cost_bar2: device.issue_cost(InstrCategory::Bar2),
        warp_size: device.warp_size,
    }
}

/// A fresh [`DecodedKernel::id`]. Every decoding — from source or from a
/// disk-cache entry — gets its own, so an arena prepared for one decoding
/// is never taken as prepared for another: the fingerprint names the source
/// kernel, not the fusion flag, register counts and immediates that set the
/// arena's layout.
fn next_decode_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Which vreg rows can observe state from before the block started. A row
/// needs per-block zeroing iff some read of it (data operand, address,
/// store value, or terminator predicate) is not preceded by a write to the
/// same row earlier in the *same* basic block. Within one basic block the
/// active lane mask is constant and every operation is lane-wise, so a
/// same-block write covers every lane a later read can observe — rows that
/// fail the test on every read can never see a previous block's values and
/// [`DecodedScratch::reset`] skips them. Everything else (cross-block live
/// values, genuine read-before-write) keeps the reference interpreter's
/// zero-initialised semantics. SSA-heavy kernels define most temporaries
/// immediately before use, so this typically shrinks the per-block memset
/// from the whole register file to a handful of rows.
fn rows_needing_zero(ops: &[DOp], blocks: &[DBlock], num_vregs: u32) -> Vec<u32> {
    let vreg_rows = num_vregs as usize * WARP;
    let mut need = vec![false; num_vregs as usize];
    let mut written = vec![false; num_vregs as usize];
    for db in blocks {
        written.fill(false);
        let read = |row: u32, written: &[bool], need: &mut [bool]| {
            let r = row as usize;
            if r < vreg_rows && !written[r / WARP] {
                need[r / WARP] = true;
            }
        };
        for op in &ops[db.start as usize..db.end as usize] {
            use DOpKind as K;
            let (srcs, dst) = match op.kind {
                K::BinI { dst, a, b, .. }
                | K::BinF { dst, a, b, .. }
                | K::BinP { dst, a, b, .. }
                | K::SetPI { dst, a, b, .. }
                | K::SetPF { dst, a, b, .. } => ([Some(a), Some(b), None], Some(dst)),
                K::MadI { dst, a, b, c } | K::MadF { dst, a, b, c } => {
                    ([Some(a), Some(b), Some(c)], Some(dst))
                }
                K::Mov { dst, a }
                | K::NotP { dst, a }
                | K::NotB { dst, a }
                | K::NegI { dst, a }
                | K::AbsI { dst, a }
                | K::UnF { dst, a, .. }
                | K::CvtIF { dst, a }
                | K::CvtFI { dst, a } => ([Some(a), None, None], Some(dst)),
                K::SelP { dst, a, b, pred } => ([Some(a), Some(b), Some(pred)], Some(dst)),
                K::Sreg { dst, .. } | K::LdParam { dst, .. } => ([None, None, None], Some(dst)),
                K::Ld { dst, addr, .. } | K::Lds { dst, addr } => {
                    ([Some(addr), None, None], Some(dst))
                }
                K::Tex { dst, x, y, .. } => ([Some(x), Some(y), None], Some(dst)),
                K::St { addr, val, .. } | K::Sts { addr, val } => {
                    ([Some(addr), Some(val), None], None)
                }
                K::Bar => ([None, None, None], None),
            };
            for src in srcs.into_iter().flatten() {
                read(src, &written, &mut need);
            }
            if let Some(d) = dst {
                let d = d as usize;
                if d < vreg_rows {
                    written[d / WARP] = true;
                }
            }
        }
        if let DTerm::CondBr { pred, .. } = db.term {
            read(pred, &written, &mut need);
        }
    }
    (0..num_vregs).filter(|&r| need[r as usize]).collect()
}

fn lower_instr(instr: &Instr, low: &mut Lowerer) -> DOpKind {
    match instr {
        Instr::Bin { op, dst, a, b } => {
            let (a, b) = (low.slot(a), low.slot(b));
            let d = dst.index * W;
            match dst.ty {
                Ty::S32 => DOpKind::BinI {
                    op: *op,
                    dst: d,
                    a,
                    b,
                },
                Ty::F32 => DOpKind::BinF {
                    op: *op,
                    dst: d,
                    a,
                    b,
                },
                Ty::Pred => DOpKind::BinP {
                    op: *op,
                    dst: d,
                    a,
                    b,
                },
            }
        }
        Instr::Mad { dst, a, b, c } => {
            let (a, b, c) = (low.slot(a), low.slot(b), low.slot(c));
            let d = dst.index * W;
            match dst.ty {
                Ty::S32 => DOpKind::MadI { dst: d, a, b, c },
                Ty::F32 => DOpKind::MadF { dst: d, a, b, c },
                Ty::Pred => unreachable!("validated IR"),
            }
        }
        Instr::Un { op, dst, a } => {
            let a = low.slot(a);
            let d = dst.index * W;
            match (op, dst.ty) {
                (UnOp::Mov, _) => DOpKind::Mov { dst: d, a },
                (UnOp::Not, Ty::Pred) => DOpKind::NotP { dst: d, a },
                (UnOp::Not, _) => DOpKind::NotB { dst: d, a },
                (UnOp::Neg, Ty::S32) => DOpKind::NegI { dst: d, a },
                (UnOp::Abs, Ty::S32) => DOpKind::AbsI { dst: d, a },
                (_, Ty::F32) => DOpKind::UnF { op: *op, dst: d, a },
                _ => unreachable!("validated IR"),
            }
        }
        Instr::Cvt { dst, a } => {
            let a = low.slot(a);
            let d = dst.index * W;
            match dst.ty {
                Ty::F32 => DOpKind::CvtIF { dst: d, a },
                Ty::S32 => DOpKind::CvtFI { dst: d, a },
                Ty::Pred => unreachable!("validated IR"),
            }
        }
        Instr::SetP { cmp, dst, a, b } => {
            // Comparison type follows the first operand, like the reference.
            let float = a.ty() == Ty::F32;
            let (a, b) = (low.slot(a), low.slot(b));
            let d = dst.index * W;
            if float {
                DOpKind::SetPF {
                    cmp: *cmp,
                    dst: d,
                    a,
                    b,
                }
            } else {
                DOpKind::SetPI {
                    cmp: *cmp,
                    dst: d,
                    a,
                    b,
                }
            }
        }
        Instr::SelP { dst, a, b, pred } => DOpKind::SelP {
            dst: dst.index * W,
            a: low.slot(a),
            b: low.slot(b),
            pred: pred.index * W,
        },
        Instr::Sreg { dst, sreg } => DOpKind::Sreg {
            dst: dst.index * W,
            sreg: *sreg,
        },
        Instr::LdParam { dst, index } => DOpKind::LdParam {
            dst: dst.index * W,
            index: *index,
        },
        Instr::Ld { dst, buf, addr } => DOpKind::Ld {
            dst: dst.index * W,
            buf: *buf,
            addr: low.slot(addr),
        },
        Instr::Tex { dst, buf, x, y } => DOpKind::Tex {
            dst: dst.index * W,
            buf: *buf,
            x: low.slot(x),
            y: low.slot(y),
        },
        Instr::St { buf, addr, val } => DOpKind::St {
            buf: *buf,
            addr: low.slot(addr),
            val: low.slot(val),
        },
        Instr::Lds { dst, addr } => DOpKind::Lds {
            dst: dst.index * W,
            addr: low.slot(addr),
        },
        Instr::Sts { addr, val } => DOpKind::Sts {
            addr: low.slot(addr),
            val: low.slot(val),
        },
        Instr::Bar => DOpKind::Bar,
    }
}

/// The peephole fusion pass: greedily fold adjacent straight-line ops of
/// each non-barrier block into [`FOp`] dispatch units, preferring the
/// specialised superinstruction patterns (histogram-ranked, DESIGN.md §7c)
/// over generic pairs/triples. Any op may participate — an error raised by
/// a constituent aborts the launch before counters become observable, and
/// the one case where intermediate counter state *is* observable (budget
/// exhaustion mid-group) falls back to sequential dispatch at execution
/// time. Fills each block's `fstart..fend` and returns the fused stream.
fn fuse_blocks(ops: &[DOp], blocks: &mut [DBlock]) -> Vec<FOp> {
    let mut fops: Vec<FOp> = Vec::with_capacity(ops.len());
    for b in blocks.iter_mut() {
        b.fstart = fops.len() as u32;
        if b.is_bar {
            // Barrier blocks are intercepted before their body runs.
            b.fend = b.fstart;
            continue;
        }
        let mut i = b.start as usize;
        let end = b.end as usize;
        while i < end {
            let left = end - i;
            let group = move |n: usize, kind: FKind| {
                let mut cats = [0u8; 3];
                let mut cost = 0u32;
                for j in 0..n {
                    cats[j] = ops[i + j].cat;
                    cost += ops[i + j].cost;
                }
                FOp {
                    first: i as u32,
                    n: n as u8,
                    cats,
                    cost,
                    kind,
                }
            };
            let fop = match_superinstruction(ops, i, left, &group).unwrap_or_else(|| {
                if left >= 3 {
                    group(3, FKind::Triple)
                } else if left == 2 {
                    group(2, FKind::Pair)
                } else {
                    group(1, FKind::Solo)
                }
            });
            i += fop.n as usize;
            fops.push(fop);
        }
        b.fend = fops.len() as u32;
    }
    fops
}

/// Try the specialised superinstruction patterns at op `i`.
fn match_superinstruction(
    ops: &[DOp],
    i: usize,
    left: usize,
    group: &dyn Fn(usize, FKind) -> FOp,
) -> Option<FOp> {
    use DOpKind as K;
    if left >= 3 {
        if let (
            K::MadI {
                dst: d1,
                a: a1,
                b: b1,
                c: c1,
            },
            K::MadI {
                dst: d2,
                a: a2,
                b: b2,
                c: c2,
            },
            K::BinI {
                op: BinOp::Min,
                dst: d3,
                a: a3,
                b: b3,
            },
        ) = (ops[i].kind, ops[i + 1].kind, ops[i + 2].kind)
        {
            return Some(group(
                3,
                FKind::Mad2IMin {
                    d1,
                    a1,
                    b1,
                    c1,
                    d2,
                    a2,
                    b2,
                    c2,
                    d3,
                    a3,
                    b3,
                },
            ));
        }
        if let (
            K::Ld { .. },
            K::BinF {
                op: BinOp::Mul,
                dst: d2,
                a: a2,
                b: b2,
            },
            K::BinF {
                op: BinOp::Add,
                dst: d3,
                a: a3,
                b: b3,
            },
        ) = (ops[i].kind, ops[i + 1].kind, ops[i + 2].kind)
        {
            return Some(group(
                3,
                FKind::LdMulAddF {
                    d2,
                    a2,
                    b2,
                    d3,
                    a3,
                    b3,
                },
            ));
        }
    }
    if left < 2 {
        return None;
    }
    match (ops[i].kind, ops[i + 1].kind) {
        (
            K::MadI {
                dst: d1,
                a: a1,
                b: b1,
                c: c1,
            },
            K::MadI {
                dst: d2,
                a: a2,
                b: b2,
                c: c2,
            },
        ) => Some(group(
            2,
            FKind::Mad2I {
                d1,
                a1,
                b1,
                c1,
                d2,
                a2,
                b2,
                c2,
            },
        )),
        (
            K::MadF {
                dst: d1,
                a: a1,
                b: b1,
                c: c1,
            },
            K::MadF {
                dst: d2,
                a: a2,
                b: b2,
                c: c2,
            },
        ) => Some(group(
            2,
            FKind::Mad2F {
                d1,
                a1,
                b1,
                c1,
                d2,
                a2,
                b2,
                c2,
            },
        )),
        (
            K::MadI {
                dst: d1,
                a: a1,
                b: b1,
                c: c1,
            },
            K::Ld { .. },
        ) => Some(group(2, FKind::MadILd { d1, a1, b1, c1 })),
        (K::Ld { .. }, K::CvtIF { dst: d2, a: a2 }) => Some(group(2, FKind::LdCvt { d2, a2 })),
        (
            K::BinF {
                op: BinOp::Mul,
                dst: d1,
                a: a1,
                b: b1,
            },
            K::BinF {
                op: BinOp::Add,
                dst: d2,
                a: a2,
                b: b2,
            },
        ) => Some(group(
            2,
            FKind::MulAddF {
                d1,
                a1,
                b1,
                d2,
                a2,
                b2,
            },
        )),
        _ => None,
    }
}

/// Flat-array counters for the decoded hot loop: one add per event, no map
/// lookups. Converted to [`PerfCounters`] at the block/chunk boundary.
#[derive(Debug, Clone, Default)]
pub struct FlatCounters {
    /// Per-category counts, indexed by [`InstrCategory::index`].
    pub hist: [u64; 24],
    pub warp_instructions: u64,
    pub divergent_branches: u64,
    pub conditional_branches: u64,
    pub mem_transactions: u64,
    pub loads: u64,
    pub stores: u64,
    pub tex_accesses: u64,
    pub threads_retired: u64,
    pub blocks: u64,
}

impl FlatCounters {
    /// This counter set times `n` (every field, including
    /// `mem_transactions` — callers that scale replay counters substitute
    /// the replayed transaction sum afterwards).
    pub fn scaled(&self, n: u64) -> FlatCounters {
        let mut out = self.clone();
        for h in out.hist.iter_mut() {
            *h *= n;
        }
        out.warp_instructions *= n;
        out.divergent_branches *= n;
        out.conditional_branches *= n;
        out.mem_transactions *= n;
        out.loads *= n;
        out.stores *= n;
        out.tex_accesses *= n;
        out.threads_retired *= n;
        out.blocks *= n;
        out
    }

    /// Accumulate another counter set.
    pub fn merge(&mut self, o: &FlatCounters) {
        for i in 0..self.hist.len() {
            self.hist[i] += o.hist[i];
        }
        self.warp_instructions += o.warp_instructions;
        self.divergent_branches += o.divergent_branches;
        self.conditional_branches += o.conditional_branches;
        self.mem_transactions += o.mem_transactions;
        self.loads += o.loads;
        self.stores += o.stores;
        self.tex_accesses += o.tex_accesses;
        self.threads_retired += o.threads_retired;
        self.blocks += o.blocks;
    }

    /// Convert to the map-based [`PerfCounters`]. Zero entries are skipped:
    /// the reference histogram only ever contains executed categories, and
    /// `InstrHistogram` equality is map equality.
    pub fn to_perf(&self) -> PerfCounters {
        let mut histogram = isp_ir::InstrHistogram::new();
        for (i, cat) in InstrCategory::ALL.iter().enumerate() {
            if self.hist[i] != 0 {
                histogram.add(*cat, self.hist[i]);
            }
        }
        PerfCounters {
            histogram,
            warp_instructions: self.warp_instructions,
            divergent_branches: self.divergent_branches,
            conditional_branches: self.conditional_branches,
            mem_transactions: self.mem_transactions,
            loads: self.loads,
            stores: self.stores,
            tex_accesses: self.tex_accesses,
            threads_retired: self.threads_retired,
            blocks: self.blocks,
        }
    }
}

/// Per-warp execution state in the scratch arena.
#[derive(Debug, Clone, Copy, Default)]
struct DWarp {
    mask: u32,
    init_mask: u32,
    pos: u32,
    budget: u64,
    done: bool,
}

/// Scratch arena reused across every block a worker processes: register
/// file (vreg rows + immediate broadcast rows, per warp), shared memory,
/// per-thread `(tidX, tidY)` tables, warp states. After the first block of
/// a given (decoded kernel, block_dim), running another block performs no
/// heap allocation; switching to another kernel re-sizes the arena in place
/// (a memset while its capacity suffices, no new pages).
#[derive(Debug, Default)]
pub struct DecodedScratch {
    pub(crate) regs: Vec<u32>,
    pub(crate) shared: Vec<u32>,
    pub(crate) tidx: Vec<u32>,
    pub(crate) tidy: Vec<u32>,
    warps: Vec<DWarp>,
    /// `(decoded kernel id, block_dim)` of the last
    /// [`DecodedScratch::prepare`].
    prepared: Option<(u64, (u32, u32))>,
}

impl DecodedScratch {
    /// Fresh (empty) arena; sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the arena for `(dk, block_dim)` if it is not already: resize the
    /// register file, fill immediate broadcast rows, compute tid tables and
    /// initial lane masks. No-op when the key matches the previous call.
    pub(crate) fn prepare(&mut self, dk: &DecodedKernel, block_dim: (u32, u32)) {
        let key = (dk.id, block_dim);
        if self.prepared == Some(key) {
            return;
        }
        let threads = block_dim.0 as u64 * block_dim.1 as u64;
        let num_warps = threads.div_ceil(WARP as u64) as usize;
        let stride = dk.num_slots as usize * WARP;
        self.regs.clear();
        self.regs.resize(num_warps * stride, 0);
        for w in 0..num_warps {
            for (i, &bits) in dk.imms.iter().enumerate() {
                let base = w * stride + (dk.num_vregs as usize + i) * WARP;
                self.regs[base..base + WARP].fill(bits);
            }
        }
        self.shared.clear();
        self.shared.resize(dk.shared_elems as usize, 0);
        let tx = block_dim.0 as u64;
        self.tidx.clear();
        self.tidy.clear();
        for linear in 0..num_warps as u64 * WARP as u64 {
            self.tidx.push((linear % tx) as u32);
            self.tidy.push((linear / tx) as u32);
        }
        self.warps.clear();
        self.warps.resize(num_warps, DWarp::default());
        for w in 0..num_warps {
            let base = w as u64 * WARP as u64;
            let mut m = 0u32;
            for l in 0..WARP as u64 {
                if base + l < threads {
                    m |= 1 << l;
                }
            }
            self.warps[w].init_mask = m;
        }
        self.prepared = Some(key);
    }

    /// Per-block reset: zero the vreg rows that can observe pre-block state
    /// (see [`rows_needing_zero`] — rows always written before read in the
    /// same basic block are skipped; immediate rows survive), zero shared
    /// memory, rewind the warps. No allocation.
    pub(crate) fn reset(&mut self, dk: &DecodedKernel) {
        let stride = dk.num_slots as usize * WARP;
        for w in 0..self.warps.len() {
            let base = w * stride;
            for &row in &dk.zero_rows {
                let b = base + row as usize * WARP;
                self.regs[b..b + WARP].fill(0);
            }
        }
        self.shared.fill(0);
        for s in self.warps.iter_mut() {
            s.mask = s.init_mask;
            s.pos = 0;
            s.budget = MAX_WARP_INSTRUCTIONS;
            s.done = s.init_mask == 0;
        }
    }
}

/// Launch-invariant context for one decoded block (device parameters are
/// baked into the [`DecodedKernel`], so no device reference is needed).
#[derive(Clone, Copy)]
pub struct DecodedBlockCtx<'a> {
    /// Grid dimensions in blocks.
    pub grid: (u32, u32),
    /// Block dimensions in threads.
    pub block_dim: (u32, u32),
    /// This block's coordinates.
    pub block_idx: (u32, u32),
    /// Scalar parameter values.
    pub params: &'a [ParamValue],
    /// Device buffers (stores are journaled).
    pub buffers: &'a [DeviceBuffer],
}

/// Where a warp's phase ended (decoded mirror of the reference outcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DOutcome {
    Arrived(u32),
    Retired,
    Barrier(u32, u32),
}

/// Observer hooks for the decoded executor, used by the trace recorder in
/// [`crate::trace`]. `ACTIVE` is a const so the no-op impl folds every hook
/// (and the address materialisation feeding [`Tracer::mem`]) out of the hot
/// loop — [`run_decoded`] compiles to exactly the untraced code.
pub(crate) trait Tracer {
    const ACTIVE: bool;
    /// A live warp starts (or resumes after a barrier) its phase.
    fn warp_start(&mut self, _warp: u32) {}
    /// A non-global-memory instruction executed under `mask`. Fires *after*
    /// the op's effects, with the warp's register rows — so a recorder can
    /// read the op's concrete result (and its still-live operand rows) for
    /// value analysis.
    fn op(&mut self, _i: u32, _mask: u32, _regs: &[u32]) {}
    /// A conditional branch resolved: lanes of `mask` whose predicate was
    /// non-zero are in `m_true`.
    fn branch(&mut self, _pred: u32, _mask: u32, _m_true: u32) {}
    /// A global load/store executed: resolved element addresses per active
    /// lane and the charged transaction count.
    fn mem(&mut self, _i: u32, _mask: u32, _addrs: &[Option<i64>; WARP], _tx: u64) {}
}

/// The default no-op tracer: every hook is dead code.
pub(crate) struct NoTrace;

impl Tracer for NoTrace {
    const ACTIVE: bool = false;
}

/// Execute one block of decoded microcode, appending its global stores to
/// `writes`. Returns the block's counters and issue cycles. Observationally
/// identical to [`crate::interp::run_block`].
pub fn run_decoded(
    dk: &DecodedKernel,
    ctx: &DecodedBlockCtx<'_>,
    scratch: &mut DecodedScratch,
    writes: &mut Vec<(u32, usize, u32)>,
) -> Result<(FlatCounters, u64), SimError> {
    run_decoded_traced(dk, ctx, scratch, writes, &mut NoTrace)
}

/// [`run_decoded`] with tracer hooks. The tracer observes the complete warp
/// schedule — phase starts, executed ops with masks, branch outcomes,
/// resolved memory addresses — in exact execution order, which is what the
/// replay engine needs to reproduce the write journal byte-for-byte.
pub(crate) fn run_decoded_traced<T: Tracer>(
    dk: &DecodedKernel,
    ctx: &DecodedBlockCtx<'_>,
    scratch: &mut DecodedScratch,
    writes: &mut Vec<(u32, usize, u32)>,
    tracer: &mut T,
) -> Result<(FlatCounters, u64), SimError> {
    scratch.prepare(dk, ctx.block_dim);
    scratch.reset(dk);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if !T::ACTIVE
        && dk.fuse
        && crate::rows::simd_enabled()
        && !scratch.warps.is_empty()
        && scratch.warps.iter().all(|s| s.init_mask == u32::MAX)
    {
        // Optimistic warp-batched fast path: all warps execute the fused
        // dispatch stream in lockstep, so per-op decode and dispatch are
        // paid once per block instead of once per warp. Anything the
        // batch cannot prove equivalent — divergence, partial masks,
        // barriers, shared memory, texture fetches, out-of-bounds lanes,
        // budget exhaustion — abandons the attempt with no observable
        // effect (its counters and journal are private until success) and
        // the block re-runs from a fresh reset on the sequential path,
        // which also reproduces any error exactly.
        if let Some((counters, cycles)) = run_decoded_batched(dk, ctx, scratch, writes) {
            return Ok((counters, cycles));
        }
        scratch.reset(dk);
    }
    let mut counters = FlatCounters::default();
    let mut cycles = 0u64;
    let stride = dk.num_slots as usize * WARP;
    let DecodedScratch {
        regs,
        shared,
        tidx,
        tidy,
        warps,
        ..
    } = scratch;

    loop {
        let mut barrier: Option<u32> = None;
        let mut retired_this_phase = false;
        for w in 0..warps.len() {
            if warps[w].done {
                continue;
            }
            let (pos, mask) = (warps[w].pos, warps[w].mask);
            let mut budget = warps[w].budget;
            if T::ACTIVE {
                tracer.warp_start(w as u32);
            }
            let outcome = {
                let mut exec = DExec {
                    dk,
                    ctx,
                    warp_id: w as u32,
                    regs: &mut regs[w * stride..(w + 1) * stride],
                    shared,
                    tidx,
                    tidy,
                    counters: &mut counters,
                    cycles: &mut cycles,
                    writes,
                    budget: &mut budget,
                    tracer,
                };
                exec.exec_from(pos, mask, NO_BLOCK)?
            };
            warps[w].budget = budget;
            match outcome {
                DOutcome::Retired => {
                    warps[w].done = true;
                    retired_this_phase = true;
                }
                DOutcome::Barrier(bb, mask) => {
                    if mask != warps[w].init_mask {
                        return Err(SimError::BadLaunch(format!(
                            "barrier reached with a partial warp (mask {mask:#x} of {:#x}) in block ({},{}) — diverged threads may not sync",
                            warps[w].init_mask, ctx.block_idx.0, ctx.block_idx.1
                        )));
                    }
                    match barrier {
                        None => barrier = Some(bb),
                        Some(prev) if prev == bb => {}
                        Some(prev) => {
                            return Err(SimError::BadLaunch(format!(
                                "warps reached different barriers (BB{prev} vs BB{bb}) — deadlock"
                            )))
                        }
                    }
                    warps[w].pos = bb;
                    warps[w].mask = mask;
                }
                DOutcome::Arrived(_) => unreachable!("no stop block at top level"),
            }
        }
        let Some(bb) = barrier else { break };
        if retired_this_phase && warps.iter().any(|s| !s.done) {
            return Err(SimError::BadLaunch(
                "a warp retired while others wait at a barrier — deadlock".into(),
            ));
        }
        let next = match dk.blocks[bb as usize].term {
            DTerm::Br { target } => target,
            _ => unreachable!("validated: barrier blocks end in br"),
        };
        for s in warps.iter_mut().filter(|s| !s.done) {
            counters.hist[CAT_BAR2] += 1;
            counters.hist[CAT_BRA] += 1;
            counters.warp_instructions += 2;
            cycles += dk.cost_bar2 + dk.cost_bra;
            s.pos = next;
        }
    }
    counters.blocks = 1;
    Ok((counters, cycles))
}

/// [`run_decoded`] wrapped into the reference [`BlockRun`] shape (fresh
/// write journal, map-based counters) — for sampled launches and tests.
pub fn run_block_decoded(
    dk: &DecodedKernel,
    ctx: &DecodedBlockCtx<'_>,
    scratch: &mut DecodedScratch,
) -> Result<BlockRun, SimError> {
    let mut writes = Vec::new();
    let (counters, cycles) = run_decoded(dk, ctx, scratch, &mut writes)?;
    Ok(BlockRun {
        counters: counters.to_perf(),
        cycles,
        writes,
    })
}

/// Iterate the active lanes of `mask`. Full warps — the overwhelmingly
/// common case away from ragged edges and divergence — take an
/// unconditional loop the compiler can unswitch and vectorise; partial
/// masks fall back to the per-lane bit test. Both paths visit active lanes
/// in ascending order, so results are bit-identical.
macro_rules! lanes {
    ($mask:expr, $l:ident, $body:block) => {
        if $mask == u32::MAX {
            for $l in 0..WARP {
                $body
            }
        } else {
            for $l in 0..WARP {
                if $mask & (1 << $l) != 0 {
                    $body
                }
            }
        }
    };
}

/// Full-warp map over register rows: one input row into one output row.
/// Input rows are copied into fixed `[u32; WARP]` arrays (one bounds check
/// per row) so the map loop indexes check-free and vectorises; copy-first
/// keeps element-wise semantics identical even when `dst` aliases a source.
/// Partial masks take the per-lane in-place path.
macro_rules! warp_map1 {
    ($self:ident, $mask:expr, $d:expr, $a:expr, |$x:ident| $e:expr) => {{
        if $mask == u32::MAX {
            let xs = $self.row($a);
            let out = $self.row_mut($d);
            for l in 0..WARP {
                let $x = xs[l];
                out[l] = $e;
            }
        } else {
            for l in 0..WARP {
                if $mask & (1 << l) != 0 {
                    let $x = $self.regs[$a + l];
                    $self.regs[$d + l] = $e;
                }
            }
        }
    }};
}

/// Two input rows into one output row; see [`warp_map1`].
macro_rules! warp_map2 {
    ($self:ident, $mask:expr, $d:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {{
        if $mask == u32::MAX {
            let xs = $self.row($a);
            let ys = $self.row($b);
            let out = $self.row_mut($d);
            for l in 0..WARP {
                let $x = xs[l];
                let $y = ys[l];
                out[l] = $e;
            }
        } else {
            for l in 0..WARP {
                if $mask & (1 << l) != 0 {
                    let $x = $self.regs[$a + l];
                    let $y = $self.regs[$b + l];
                    $self.regs[$d + l] = $e;
                }
            }
        }
    }};
}

/// Three input rows into one output row; see [`warp_map1`].
macro_rules! warp_map3 {
    ($self:ident, $mask:expr, $d:expr, $a:expr, $b:expr, $c:expr,
     |$x:ident, $y:ident, $z:ident| $e:expr) => {{
        if $mask == u32::MAX {
            let xs = $self.row($a);
            let ys = $self.row($b);
            let zs = $self.row($c);
            let out = $self.row_mut($d);
            for l in 0..WARP {
                let $x = xs[l];
                let $y = ys[l];
                let $z = zs[l];
                out[l] = $e;
            }
        } else {
            for l in 0..WARP {
                if $mask & (1 << l) != 0 {
                    let $x = $self.regs[$a + l];
                    let $y = $self.regs[$b + l];
                    let $z = $self.regs[$c + l];
                    $self.regs[$d + l] = $e;
                }
            }
        }
    }};
}

/// Execute one non-memory, non-parameter data op on an executor exposing
/// `row`/`row_mut`/`regs`/`tidx`/`tidy`/`ctx`/`dk`/`warp_id`. Shared between
/// the decoded interpreter and trace replay so the two engines cannot drift:
/// a replayed arithmetic op is literally the same code as a decoded one.
/// Memory, parameter and barrier kinds are handled by each caller.
macro_rules! exec_pure_op {
    ($self:ident, $kind:expr, $mask:expr) => {
        match $kind {
            DOpKind::BinI { op, dst, a, b } => {
                let (d, a, b) = (dst as usize, a as usize, b as usize);
                if $mask == u32::MAX {
                    crate::rows::bin_i(op, $self.regs, d, a, b);
                } else {
                    warp_map2!($self, $mask, d, a, b, |x, y| crate::interp::eval_bin_i(
                        op, x as i32, y as i32
                    ) as u32);
                }
            }
            DOpKind::BinF { op, dst, a, b } => {
                let (d, a, b) = (dst as usize, a as usize, b as usize);
                if $mask == u32::MAX {
                    crate::rows::bin_f(op, $self.regs, d, a, b);
                } else {
                    warp_map2!($self, $mask, d, a, b, |x, y| crate::interp::eval_bin_f(
                        op,
                        f32::from_bits(x),
                        f32::from_bits(y)
                    )
                    .to_bits());
                }
            }
            DOpKind::BinP { op, dst, a, b } => {
                let (d, a, b) = (dst as usize, a as usize, b as usize);
                warp_map2!($self, $mask, d, a, b, |x, y| match op {
                    isp_ir::BinOp::And => (x & 1) & (y & 1),
                    isp_ir::BinOp::Or => (x & 1) | (y & 1),
                    isp_ir::BinOp::Xor => (x & 1) ^ (y & 1),
                    _ => unreachable!("validated IR"),
                });
            }
            DOpKind::MadI { dst, a, b, c } => {
                let (d, a, b, c) = (dst as usize, a as usize, b as usize, c as usize);
                if $mask == u32::MAX {
                    crate::rows::mad_i($self.regs, d, a, b, c);
                } else {
                    warp_map3!($self, $mask, d, a, b, c, |x, y, z| (x as i32)
                        .wrapping_mul(y as i32)
                        .wrapping_add(z as i32)
                        as u32);
                }
            }
            DOpKind::MadF { dst, a, b, c } => {
                let (d, a, b, c) = (dst as usize, a as usize, b as usize, c as usize);
                if $mask == u32::MAX {
                    crate::rows::mad_f($self.regs, d, a, b, c);
                } else {
                    warp_map3!($self, $mask, d, a, b, c, |x, y, z| (f32::from_bits(x)
                        * f32::from_bits(y)
                        + f32::from_bits(z))
                    .to_bits());
                }
            }
            DOpKind::Mov { dst, a } => {
                let (d, a) = (dst as usize, a as usize);
                warp_map1!($self, $mask, d, a, |x| x);
            }
            DOpKind::NotP { dst, a } => {
                let (d, a) = (dst as usize, a as usize);
                warp_map1!($self, $mask, d, a, |x| (x & 1) ^ 1);
            }
            DOpKind::NotB { dst, a } => {
                let (d, a) = (dst as usize, a as usize);
                warp_map1!($self, $mask, d, a, |x| !x);
            }
            DOpKind::NegI { dst, a } => {
                let (d, a) = (dst as usize, a as usize);
                warp_map1!($self, $mask, d, a, |x| (x as i32).wrapping_neg() as u32);
            }
            DOpKind::AbsI { dst, a } => {
                let (d, a) = (dst as usize, a as usize);
                warp_map1!($self, $mask, d, a, |x| (x as i32).wrapping_abs() as u32);
            }
            DOpKind::UnF { op, dst, a } => {
                let (d, a) = (dst as usize, a as usize);
                warp_map1!($self, $mask, d, a, |x| crate::interp::eval_un_f(
                    op,
                    f32::from_bits(x)
                )
                .to_bits());
            }
            DOpKind::CvtIF { dst, a } => {
                let (d, a) = (dst as usize, a as usize);
                if $mask == u32::MAX {
                    crate::rows::cvt_if($self.regs, d, a);
                } else {
                    warp_map1!($self, $mask, d, a, |x| (x as i32 as f32).to_bits());
                }
            }
            DOpKind::CvtFI { dst, a } => {
                let (d, a) = (dst as usize, a as usize);
                warp_map1!($self, $mask, d, a, |x| (f32::from_bits(x).round() as i32)
                    as u32);
            }
            DOpKind::SetPI { cmp, dst, a, b } => {
                let (d, a, b) = (dst as usize, a as usize, b as usize);
                if $mask == u32::MAX {
                    crate::rows::set_p_i(cmp, $self.regs, d, a, b);
                } else {
                    warp_map2!($self, $mask, d, a, b, |x, y| crate::interp::eval_cmp_i(
                        cmp, x as i32, y as i32
                    ) as u32);
                }
            }
            DOpKind::SetPF { cmp, dst, a, b } => {
                let (d, a, b) = (dst as usize, a as usize, b as usize);
                if $mask == u32::MAX {
                    crate::rows::set_p_f(cmp, $self.regs, d, a, b);
                } else {
                    warp_map2!($self, $mask, d, a, b, |x, y| crate::interp::eval_cmp_f(
                        cmp,
                        f32::from_bits(x),
                        f32::from_bits(y)
                    ) as u32);
                }
            }
            DOpKind::SelP { dst, a, b, pred } => {
                let (d, a, b, p) = (dst as usize, a as usize, b as usize, pred as usize);
                warp_map3!($self, $mask, d, a, b, p, |x, y, t| if t != 0 {
                    x
                } else {
                    y
                });
            }
            DOpKind::Sreg { dst, sreg } => {
                let d = dst as usize;
                let base = $self.warp_id as usize * WARP;
                match sreg {
                    isp_ir::SReg::TidX => {
                        lanes!($mask, l, {
                            $self.regs[d + l] = $self.tidx[base + l];
                        });
                    }
                    isp_ir::SReg::TidY => {
                        lanes!($mask, l, {
                            $self.regs[d + l] = $self.tidy[base + l];
                        });
                    }
                    isp_ir::SReg::LaneId => {
                        lanes!($mask, l, {
                            $self.regs[d + l] = l as u32;
                        });
                    }
                    isp_ir::SReg::WarpIdX => {
                        lanes!($mask, l, {
                            $self.regs[d + l] = $self.tidx[base + l] / $self.dk.warp_size;
                        });
                    }
                    _ => {
                        let bits = match sreg {
                            isp_ir::SReg::CtaIdX => $self.ctx.block_idx.0,
                            isp_ir::SReg::CtaIdY => $self.ctx.block_idx.1,
                            isp_ir::SReg::NTidX => $self.ctx.block_dim.0,
                            isp_ir::SReg::NTidY => $self.ctx.block_dim.1,
                            isp_ir::SReg::NCtaIdX => $self.ctx.grid.0,
                            isp_ir::SReg::NCtaIdY => $self.ctx.grid.1,
                            _ => unreachable!(),
                        };
                        lanes!($mask, l, {
                            $self.regs[d + l] = bits;
                        });
                    }
                }
            }
            _ => unreachable!("memory/param/barrier ops are handled by the caller"),
        }
    };
}

pub(crate) use {exec_pure_op, lanes, warp_map1, warp_map2, warp_map3};

/// Mutable execution view of one warp over decoded microcode.
struct DExec<'a, T: Tracer> {
    dk: &'a DecodedKernel,
    ctx: &'a DecodedBlockCtx<'a>,
    warp_id: u32,
    /// This warp's register rows: `num_slots * 32` raw bits.
    regs: &'a mut [u32],
    shared: &'a mut [u32],
    tidx: &'a [u32],
    tidy: &'a [u32],
    counters: &'a mut FlatCounters,
    cycles: &'a mut u64,
    writes: &'a mut Vec<(u32, usize, u32)>,
    budget: &'a mut u64,
    tracer: &'a mut T,
}

impl<'a, T: Tracer> DExec<'a, T> {
    #[inline]
    fn charge(&mut self, cat: usize, cost: u64) -> Result<(), SimError> {
        if *self.budget == 0 {
            return Err(SimError::RunawayBlock {
                block: self.ctx.block_idx,
                limit: MAX_WARP_INSTRUCTIONS,
            });
        }
        *self.budget -= 1;
        self.counters.hist[cat] += 1;
        self.counters.warp_instructions += 1;
        *self.cycles += cost;
        Ok(())
    }

    /// Copy of the register row at `base`: one bounds check, then the
    /// returned array indexes check-free in full-warp loops.
    #[inline(always)]
    fn row(&self, base: usize) -> [u32; WARP] {
        let mut out = [0u32; WARP];
        out.copy_from_slice(&self.regs[base..base + WARP]);
        out
    }

    /// Register row at `base` as a fixed-size array for check-free writes.
    #[inline(always)]
    fn row_mut(&mut self, base: usize) -> &mut [u32; WARP] {
        (&mut self.regs[base..base + WARP]).try_into().unwrap()
    }

    fn buffer(&self, buf: u32) -> Result<&'a DeviceBuffer, SimError> {
        self.ctx
            .buffers
            .get(buf as usize)
            .ok_or_else(|| SimError::BadLaunch(format!("missing buffer {buf}")))
    }

    fn oob(&self, buf: u32, addr: i64, len: usize, lane: usize, is_store: bool) -> SimError {
        let t = self.warp_id as usize * WARP + lane;
        SimError::OutOfBounds {
            buf,
            addr,
            len,
            thread: (
                self.ctx.block_idx.0 * self.ctx.block_dim.0 + self.tidx[t],
                self.ctx.block_idx.1 * self.ctx.block_dim.1 + self.tidy[t],
            ),
            block: self.ctx.block_idx,
            is_store,
        }
    }

    /// Validate a full warp's addresses (register row `ab`) against `len`
    /// and count 128-byte transactions. Matches
    /// [`transactions_for_warp_fixed`] exactly: distinct segments, with the
    /// sort skipped while the address stream is monotonically non-decreasing
    /// (every row-major stencil access).
    fn full_warp_tx(
        &self,
        ab: usize,
        len: usize,
        buf: u32,
        is_store: bool,
    ) -> Result<u64, SimError> {
        let mut addrs = [0i64; WARP];
        for l in 0..WARP {
            addrs[l] = self.regs[ab + l] as i32 as i64;
        }
        let mut bad = false;
        for l in 0..WARP {
            bad |= addrs[l] < 0 || addrs[l] >= len as i64;
        }
        if bad {
            for (l, &a) in addrs.iter().enumerate() {
                if a < 0 || a as usize >= len {
                    return Err(self.oob(buf, a, len, l, is_store));
                }
            }
        }
        Ok(segment_count_full(&addrs))
    }

    fn exec_from(
        &mut self,
        mut block: u32,
        mut mask: u32,
        stop: u32,
    ) -> Result<DOutcome, SimError> {
        loop {
            if block == stop {
                return Ok(DOutcome::Arrived(mask));
            }
            let db = self.dk.blocks[block as usize];
            if db.is_bar {
                if stop != NO_BLOCK {
                    return Err(SimError::BadLaunch(format!(
                        "barrier BB{block} reached under divergence in block ({},{})",
                        self.ctx.block_idx.0, self.ctx.block_idx.1
                    )));
                }
                return Ok(DOutcome::Barrier(block, mask));
            }
            if !T::ACTIVE && self.dk.fuse {
                // Fused dispatch stream. Recording must observe the unfused
                // op sequence, so any active tracer takes the op-at-a-time
                // path below.
                for fi in db.fstart..db.fend {
                    let f = self.dk.fops[fi as usize];
                    self.exec_fused(&f, mask)?;
                }
            } else {
                for i in db.start..db.end {
                    self.exec_op(i as usize, mask)?;
                }
            }
            match db.term {
                DTerm::Ret => {
                    self.charge(CAT_RET, self.dk.cost_ret)?;
                    self.counters.threads_retired += mask.count_ones() as u64;
                    return Ok(if stop != NO_BLOCK {
                        DOutcome::Arrived(0)
                    } else {
                        DOutcome::Retired
                    });
                }
                DTerm::Br { target } => {
                    self.charge(CAT_BRA, self.dk.cost_bra)?;
                    block = target;
                }
                DTerm::CondBr {
                    pred,
                    if_true,
                    if_false,
                    ipdom,
                } => {
                    self.charge(CAT_BRA, self.dk.cost_bra)?;
                    self.counters.conditional_branches += 1;
                    let p = pred as usize;
                    let mut m_true = 0u32;
                    for l in 0..WARP {
                        if mask & (1 << l) != 0 && self.regs[p + l] != 0 {
                            m_true |= 1 << l;
                        }
                    }
                    if T::ACTIVE {
                        self.tracer.branch(pred, mask, m_true);
                    }
                    let m_false = mask & !m_true;
                    if m_false == 0 {
                        block = if_true;
                    } else if m_true == 0 {
                        block = if_false;
                    } else {
                        self.counters.divergent_branches += 1;
                        let a = match self.exec_from(if_true, m_true, ipdom)? {
                            DOutcome::Arrived(m) => m,
                            DOutcome::Retired => 0,
                            DOutcome::Barrier(b, _) => {
                                return Err(SimError::BadLaunch(format!(
                                    "barrier BB{b} reached under divergence"
                                )))
                            }
                        };
                        let c = match self.exec_from(if_false, m_false, ipdom)? {
                            DOutcome::Arrived(m) => m,
                            DOutcome::Retired => 0,
                            DOutcome::Barrier(b, _) => {
                                return Err(SimError::BadLaunch(format!(
                                    "barrier BB{b} reached under divergence"
                                )))
                            }
                        };
                        if ipdom != NO_BLOCK {
                            mask = a | c;
                            if mask == 0 {
                                return Ok(if stop != NO_BLOCK {
                                    DOutcome::Arrived(0)
                                } else {
                                    DOutcome::Retired
                                });
                            }
                            block = ipdom;
                        } else {
                            debug_assert_eq!(a | c, 0);
                            return Ok(if stop != NO_BLOCK {
                                DOutcome::Arrived(0)
                            } else {
                                DOutcome::Retired
                            });
                        }
                    }
                }
            }
        }
    }

    /// Execute one fused dispatch unit: a single budget/counter update for
    /// the whole group, then the specialised (or generic) body. Counter
    /// attribution stays per-constituent (`cats`), so fusion is invisible
    /// to every observable: histogram, cycles, transactions, journal.
    fn exec_fused(&mut self, f: &FOp, mask: u32) -> Result<(), SimError> {
        let first = f.first as usize;
        let n = f.n as usize;
        if matches!(f.kind, FKind::Solo) {
            return self.exec_op(first, mask);
        }
        if *self.budget < n as u64 {
            // The budget runs out mid-group: only here is intermediate
            // counter state observable (the error aborts the launch at a
            // specific op). Sequential dispatch reproduces the unfused
            // engine's exact `RunawayBlock` point and partial effects.
            for i in first..first + n {
                self.exec_op(i, mask)?;
            }
            return Ok(());
        }
        *self.budget -= n as u64;
        for j in 0..n {
            self.counters.hist[f.cats[j] as usize] += 1;
        }
        self.counters.warp_instructions += n as u64;
        *self.cycles += f.cost as u64;
        if mask == u32::MAX {
            match f.kind {
                FKind::Mad2IMin {
                    d1,
                    a1,
                    b1,
                    c1,
                    d2,
                    a2,
                    b2,
                    c2,
                    d3,
                    a3,
                    b3,
                } => {
                    crate::rows::mad2_i_min(
                        self.regs,
                        d1 as usize,
                        a1 as usize,
                        b1 as usize,
                        c1 as usize,
                        d2 as usize,
                        a2 as usize,
                        b2 as usize,
                        c2 as usize,
                        d3 as usize,
                        a3 as usize,
                        b3 as usize,
                    );
                    return Ok(());
                }
                FKind::Mad2I {
                    d1,
                    a1,
                    b1,
                    c1,
                    d2,
                    a2,
                    b2,
                    c2,
                } => {
                    crate::rows::mad2_i(
                        self.regs,
                        d1 as usize,
                        a1 as usize,
                        b1 as usize,
                        c1 as usize,
                        d2 as usize,
                        a2 as usize,
                        b2 as usize,
                        c2 as usize,
                    );
                    return Ok(());
                }
                FKind::Mad2F {
                    d1,
                    a1,
                    b1,
                    c1,
                    d2,
                    a2,
                    b2,
                    c2,
                } => {
                    crate::rows::mad2_f(
                        self.regs,
                        d1 as usize,
                        a1 as usize,
                        b1 as usize,
                        c1 as usize,
                        d2 as usize,
                        a2 as usize,
                        b2 as usize,
                        c2 as usize,
                    );
                    return Ok(());
                }
                FKind::MadILd { d1, a1, b1, c1 } => {
                    crate::rows::mad_i(
                        self.regs,
                        d1 as usize,
                        a1 as usize,
                        b1 as usize,
                        c1 as usize,
                    );
                    let kind = self.dk.ops[first + 1].kind;
                    return self.exec_op_body(first + 1, kind, mask);
                }
                FKind::LdCvt { d2, a2 } => {
                    let kind = self.dk.ops[first].kind;
                    self.exec_op_body(first, kind, mask)?;
                    crate::rows::cvt_if(self.regs, d2 as usize, a2 as usize);
                    return Ok(());
                }
                FKind::MulAddF {
                    d1,
                    a1,
                    b1,
                    d2,
                    a2,
                    b2,
                } => {
                    crate::rows::mul_add_f(
                        self.regs,
                        d1 as usize,
                        a1 as usize,
                        b1 as usize,
                        d2 as usize,
                        a2 as usize,
                        b2 as usize,
                    );
                    return Ok(());
                }
                FKind::LdMulAddF {
                    d2,
                    a2,
                    b2,
                    d3,
                    a3,
                    b3,
                } => {
                    let kind = self.dk.ops[first].kind;
                    self.exec_op_body(first, kind, mask)?;
                    crate::rows::mul_add_f(
                        self.regs,
                        d2 as usize,
                        a2 as usize,
                        b2 as usize,
                        d3 as usize,
                        a3 as usize,
                        b3 as usize,
                    );
                    return Ok(());
                }
                FKind::Pair | FKind::Triple => {}
                FKind::Solo => unreachable!("dispatched above"),
            }
        }
        for i in first..first + n {
            let kind = self.dk.ops[i].kind;
            self.exec_op_body(i, kind, mask)?;
        }
        Ok(())
    }

    fn exec_op(&mut self, i: usize, mask: u32) -> Result<(), SimError> {
        let op = self.dk.ops[i];
        self.charge(op.cat as usize, op.cost as u64)?;
        self.exec_op_body(i, op.kind, mask)
    }

    /// The op body: effects only, no budget/counter charge (the caller —
    /// [`Self::exec_op`] or a fused group — has already charged).
    fn exec_op_body(&mut self, i: usize, kind: DOpKind, mask: u32) -> Result<(), SimError> {
        match kind {
            DOpKind::LdParam { dst, index } => {
                let bits = match self.ctx.params.get(index as usize) {
                    Some(ParamValue::I32(v)) => *v as u32,
                    Some(ParamValue::F32(v)) => v.to_bits(),
                    None => {
                        return Err(SimError::BadLaunch(format!(
                            "kernel '{}' reads parameter {index} but only {} were supplied",
                            self.dk.name,
                            self.ctx.params.len()
                        )))
                    }
                };
                let d = dst as usize;
                lanes!(mask, l, {
                    self.regs[d + l] = bits;
                });
            }
            DOpKind::Ld { dst, buf, addr } => {
                let buffer = self.buffer(buf)?;
                let len = buffer.len();
                let (d, ab) = (dst as usize, addr as usize);
                let tx = if mask == u32::MAX {
                    // Gather after validation. The address row is copied
                    // first, so a dst row aliasing it is still exact.
                    let addrs = self.row(ab);
                    let tx = match crate::rows::full_warp_tx_fast(&addrs, len) {
                        Some(tx) => tx,
                        None => self.full_warp_tx(ab, len, buf, false)?,
                    };
                    let out = self.row_mut(d);
                    // SAFETY: every lane's address was validated against
                    // `len` just above.
                    unsafe { crate::rows::gather_row(out, &addrs, buffer.bits()) };
                    if T::ACTIVE {
                        let resolved: [Option<i64>; WARP] =
                            std::array::from_fn(|l| Some(addrs[l] as i32 as i64));
                        self.tracer.mem(i as u32, mask, &resolved, tx);
                    }
                    tx
                } else {
                    let mut addrs: [Option<i64>; WARP] = [None; WARP];
                    for l in 0..WARP {
                        if mask & (1 << l) == 0 {
                            continue;
                        }
                        let a = self.regs[ab + l] as i32 as i64;
                        if a < 0 || a as usize >= len {
                            return Err(self.oob(buf, a, len, l, false));
                        }
                        addrs[l] = Some(a);
                    }
                    for l in 0..WARP {
                        if let Some(a) = addrs[l] {
                            // SAFETY: validated against `len` just above.
                            self.regs[d + l] = unsafe { buffer.load_bits_unchecked(a as usize) };
                        }
                    }
                    let tx = transactions_for_warp_fixed(&addrs);
                    if T::ACTIVE {
                        self.tracer.mem(i as u32, mask, &addrs, tx);
                    }
                    tx
                };
                self.counters.mem_transactions += tx;
                self.counters.loads += 1;
                *self.cycles += tx * self.dk.mem_cycles;
            }
            DOpKind::Tex { dst, buf, x, y } => {
                let buffer = self.buffer(buf)?;
                let desc = *buffer.texture().ok_or_else(|| {
                    SimError::BadLaunch(format!(
                        "kernel '{}' fetches buffer {buf} as a texture, but no texture is bound",
                        self.dk.name
                    ))
                })?;
                let (d, xb, yb) = (dst as usize, x as usize, y as usize);
                let mut addrs: [Option<i64>; WARP] = [None; WARP];
                let mut values: [u32; WARP] = [0; WARP];
                lanes!(mask, l, {
                    let cx = self.regs[xb + l] as i32 as i64;
                    let cy = self.regs[yb + l] as i32 as i64;
                    let rx = desc.mode.resolve(cx, desc.width);
                    let ry = desc.mode.resolve(cy, desc.height);
                    match (rx, ry) {
                        (Some(rx), Some(ry)) => {
                            let a = (ry * desc.width + rx) as i64;
                            addrs[l] = Some(a);
                            values[l] = buffer.load_bits(a as usize);
                        }
                        _ => {
                            values[l] = desc.mode.border_value().to_bits();
                        }
                    }
                });
                let tx = transactions_for_warp_fixed(&addrs);
                self.counters.mem_transactions += tx;
                self.counters.tex_accesses += 1;
                *self.cycles += tx * self.dk.mem_cycles;
                lanes!(mask, l, {
                    self.regs[d + l] = values[l];
                });
            }
            DOpKind::St { buf, addr, val } => {
                let len = self.buffer(buf)?.len();
                let (ab, vb) = (addr as usize, val as usize);
                let tx = if mask == u32::MAX {
                    let addrs = self.row(ab);
                    let tx = match crate::rows::full_warp_tx_fast(&addrs, len) {
                        Some(tx) => tx,
                        None => self.full_warp_tx(ab, len, buf, true)?,
                    };
                    let vals = self.row(vb);
                    self.writes
                        .extend((0..WARP).map(|l| (buf, addrs[l] as i32 as usize, vals[l])));
                    if T::ACTIVE {
                        let resolved: [Option<i64>; WARP] =
                            std::array::from_fn(|l| Some(addrs[l] as i32 as i64));
                        self.tracer.mem(i as u32, mask, &resolved, tx);
                    }
                    tx
                } else {
                    let mut addrs: [Option<i64>; WARP] = [None; WARP];
                    for l in 0..WARP {
                        if mask & (1 << l) == 0 {
                            continue;
                        }
                        let a = self.regs[ab + l] as i32 as i64;
                        if a < 0 || a as usize >= len {
                            return Err(self.oob(buf, a, len, l, true));
                        }
                        addrs[l] = Some(a);
                    }
                    for l in 0..WARP {
                        if let Some(a) = addrs[l] {
                            self.writes.push((buf, a as usize, self.regs[vb + l]));
                        }
                    }
                    let tx = transactions_for_warp_fixed(&addrs);
                    if T::ACTIVE {
                        self.tracer.mem(i as u32, mask, &addrs, tx);
                    }
                    tx
                };
                self.counters.mem_transactions += tx;
                self.counters.stores += 1;
                *self.cycles += tx * self.dk.mem_cycles;
            }
            DOpKind::Lds { dst, addr } => {
                let len = self.shared.len();
                let (d, ab) = (dst as usize, addr as usize);
                lanes!(mask, l, {
                    let a = self.regs[ab + l] as i32 as i64;
                    if a < 0 || a as usize >= len {
                        return Err(SimError::BadLaunch(format!(
                            "shared load out of bounds: [{a}] of {len} in block ({},{})",
                            self.ctx.block_idx.0, self.ctx.block_idx.1
                        )));
                    }
                    self.regs[d + l] = self.shared[a as usize];
                });
            }
            DOpKind::Sts { addr, val } => {
                let len = self.shared.len();
                let (ab, vb) = (addr as usize, val as usize);
                lanes!(mask, l, {
                    let a = self.regs[ab + l] as i32 as i64;
                    if a < 0 || a as usize >= len {
                        return Err(SimError::BadLaunch(format!(
                            "shared store out of bounds: [{a}] of {len} in block ({},{})",
                            self.ctx.block_idx.0, self.ctx.block_idx.1
                        )));
                    }
                    self.shared[a as usize] = self.regs[vb + l];
                });
            }
            DOpKind::Bar => {
                unreachable!("barrier blocks are intercepted before execution")
            }
            kind => exec_pure_op!(self, kind, mask),
        }
        if T::ACTIVE && !matches!(kind, DOpKind::Ld { .. } | DOpKind::St { .. }) {
            // Global loads/stores are traced from inside their arms (the
            // recorder needs the resolved addresses); everything else is an
            // opaque re-execute-on-replay event. Post-op so the recorder
            // sees the result rows.
            self.tracer.op(i as u32, mask, &*self.regs);
        }
        Ok(())
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
/// One warp's register view for [`exec_pure_op!`] inside the batched
/// executor — the same macro the sequential interpreter expands, so a
/// batched pure op is literally the same code as a sequential one.
struct WarpView<'a> {
    dk: &'a DecodedKernel,
    ctx: &'a DecodedBlockCtx<'a>,
    warp_id: u32,
    regs: &'a mut [u32],
    tidx: &'a [u32],
    tidy: &'a [u32],
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
impl WarpView<'_> {
    #[inline(always)]
    fn row(&self, base: usize) -> [u32; WARP] {
        let mut out = [0u32; WARP];
        out.copy_from_slice(&self.regs[base..base + WARP]);
        out
    }

    #[inline(always)]
    fn row_mut(&mut self, base: usize) -> &mut [u32; WARP] {
        (&mut self.regs[base..base + WARP]).try_into().unwrap()
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
/// Warp-batched execution of one block's fused dispatch stream: the op
/// stream is decoded once and each dispatch is applied to every warp in
/// lockstep. Valid only while all warps provably follow the same full-mask
/// control path; `None` abandons the attempt (the caller resets the scratch
/// and re-runs sequentially). All counter, cycle and journal state is
/// private until the block retires, so an abandoned attempt is invisible.
struct BExec<'a> {
    dk: &'a DecodedKernel,
    ctx: &'a DecodedBlockCtx<'a>,
    /// All warps' register rows (`nw * stride`).
    regs: &'a mut [u32],
    stride: usize,
    nw: usize,
    tidx: &'a [u32],
    tidy: &'a [u32],
    counters: FlatCounters,
    cycles: u64,
    /// Lockstep per-warp budget (every warp issues the same ops, so one
    /// scalar tracks all of them).
    budget: u64,
    /// Per-warp write journals, concatenated in warp order on success —
    /// exactly the order sequential warp-at-a-time execution produces.
    wwrites: Vec<WarpJournal>,
}

/// One warp's buffered write journal: `(buffer, element, bits)` per store.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
type WarpJournal = Vec<(u32, usize, u32)>;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
impl BExec<'_> {
    /// Per-op bulk charge: one budget tick per warp, mirrored counter
    /// attribution (`hist[cat] += nw` equals nw sequential `+= 1`s).
    #[inline]
    fn charge(&mut self, cat: usize, cost: u64) -> Option<()> {
        if self.budget == 0 {
            return None;
        }
        self.budget -= 1;
        let nw = self.nw as u64;
        self.counters.hist[cat] += nw;
        self.counters.warp_instructions += nw;
        self.cycles += cost * nw;
        Some(())
    }

    /// # Safety
    /// The host must support AVX2 (the caller checked `simd_enabled`).
    #[target_feature(enable = "avx2")]
    unsafe fn run(mut self) -> Option<(FlatCounters, u64, Vec<WarpJournal>)> {
        let mut block = 0u32;
        let nw = self.nw as u64;
        loop {
            let db = self.dk.blocks[block as usize];
            if db.is_bar {
                return None;
            }
            for fi in db.fstart..db.fend {
                let f = self.dk.fops[fi as usize];
                self.exec_fused(&f)?;
            }
            match db.term {
                DTerm::Ret => {
                    self.charge(CAT_RET, self.dk.cost_ret)?;
                    self.counters.threads_retired += WARP as u64 * nw;
                    self.counters.blocks = 1;
                    return Some((self.counters, self.cycles, self.wwrites));
                }
                DTerm::Br { target } => {
                    self.charge(CAT_BRA, self.dk.cost_bra)?;
                    block = target;
                }
                DTerm::CondBr {
                    pred,
                    if_true,
                    if_false,
                    ..
                } => {
                    self.charge(CAT_BRA, self.dk.cost_bra)?;
                    self.counters.conditional_branches += nw;
                    let p = pred as usize;
                    let mut target: Option<u32> = None;
                    for w in 0..self.nw {
                        let m_true =
                            crate::rows::avx2::pred_row_mask(self.regs, w * self.stride + p);
                        let t = if m_true == u32::MAX {
                            if_true
                        } else if m_true == 0 {
                            if_false
                        } else {
                            // Intra-warp divergence — sequential territory.
                            return None;
                        };
                        if *target.get_or_insert(t) != t {
                            // Warps disagree: control flow splits.
                            return None;
                        }
                    }
                    block = target.expect("at least one warp");
                }
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn exec_fused(&mut self, f: &FOp) -> Option<()> {
        let first = f.first as usize;
        let n = f.n as usize;
        if self.budget < n as u64 {
            return None;
        }
        self.budget -= n as u64;
        let nw = self.nw as u64;
        for j in 0..n {
            self.counters.hist[f.cats[j] as usize] += nw;
        }
        self.counters.warp_instructions += n as u64 * nw;
        self.cycles += f.cost as u64 * nw;
        let stride = self.stride;
        match f.kind {
            FKind::Mad2IMin {
                d1,
                a1,
                b1,
                c1,
                d2,
                a2,
                b2,
                c2,
                d3,
                a3,
                b3,
            } => {
                for w in 0..self.nw {
                    crate::rows::avx2::mad2_i_min(
                        &mut self.regs[w * stride..(w + 1) * stride],
                        d1 as usize,
                        a1 as usize,
                        b1 as usize,
                        c1 as usize,
                        d2 as usize,
                        a2 as usize,
                        b2 as usize,
                        c2 as usize,
                        d3 as usize,
                        a3 as usize,
                        b3 as usize,
                    );
                }
            }
            FKind::Mad2I {
                d1,
                a1,
                b1,
                c1,
                d2,
                a2,
                b2,
                c2,
            } => {
                for w in 0..self.nw {
                    crate::rows::avx2::mad2_i(
                        &mut self.regs[w * stride..(w + 1) * stride],
                        d1 as usize,
                        a1 as usize,
                        b1 as usize,
                        c1 as usize,
                        d2 as usize,
                        a2 as usize,
                        b2 as usize,
                        c2 as usize,
                    );
                }
            }
            FKind::Mad2F {
                d1,
                a1,
                b1,
                c1,
                d2,
                a2,
                b2,
                c2,
            } => {
                for w in 0..self.nw {
                    crate::rows::avx2::mad2_f(
                        &mut self.regs[w * stride..(w + 1) * stride],
                        d1 as usize,
                        a1 as usize,
                        b1 as usize,
                        c1 as usize,
                        d2 as usize,
                        a2 as usize,
                        b2 as usize,
                        c2 as usize,
                    );
                }
            }
            FKind::MulAddF {
                d1,
                a1,
                b1,
                d2,
                a2,
                b2,
            } => {
                for w in 0..self.nw {
                    crate::rows::avx2::mul_add_f(
                        &mut self.regs[w * stride..(w + 1) * stride],
                        d1 as usize,
                        a1 as usize,
                        b1 as usize,
                        d2 as usize,
                        a2 as usize,
                        b2 as usize,
                    );
                }
            }
            FKind::MadILd { d1, a1, b1, c1 } => {
                for w in 0..self.nw {
                    crate::rows::avx2::mad_i(
                        &mut self.regs[w * stride..(w + 1) * stride],
                        d1 as usize,
                        a1 as usize,
                        b1 as usize,
                        c1 as usize,
                    );
                }
                self.exec_op_batched(first + 1)?;
            }
            FKind::LdCvt { d2, a2 } => {
                self.exec_op_batched(first)?;
                for w in 0..self.nw {
                    crate::rows::avx2::cvt_if(
                        &mut self.regs[w * stride..(w + 1) * stride],
                        d2 as usize,
                        a2 as usize,
                    );
                }
            }
            FKind::LdMulAddF {
                d2,
                a2,
                b2,
                d3,
                a3,
                b3,
            } => {
                self.exec_op_batched(first)?;
                for w in 0..self.nw {
                    crate::rows::avx2::mul_add_f(
                        &mut self.regs[w * stride..(w + 1) * stride],
                        d2 as usize,
                        a2 as usize,
                        b2 as usize,
                        d3 as usize,
                        a3 as usize,
                        b3 as usize,
                    );
                }
            }
            FKind::Solo | FKind::Pair | FKind::Triple => {
                for i in first..first + n {
                    self.exec_op_batched(i)?;
                }
            }
        }
        Some(())
    }

    /// One op across all warps: memory/param kinds decode once here; pure
    /// data ops go through [`exec_pure_op!`] per warp — the identical code
    /// path the sequential interpreter takes.
    #[target_feature(enable = "avx2")]
    unsafe fn exec_op_batched(&mut self, i: usize) -> Option<()> {
        let kind = self.dk.ops[i].kind;
        let stride = self.stride;
        match kind {
            DOpKind::LdParam { dst, index } => {
                let bits = match self.ctx.params.get(index as usize) {
                    Some(ParamValue::I32(v)) => *v as u32,
                    Some(ParamValue::F32(v)) => v.to_bits(),
                    // Missing parameter: sequential raises the error.
                    None => return None,
                };
                let d = dst as usize;
                for w in 0..self.nw {
                    let base = w * stride + d;
                    self.regs[base..base + WARP].fill(bits);
                }
            }
            DOpKind::Ld { dst, buf, addr } => {
                let buffer = self.ctx.buffers.get(buf as usize)?;
                let len = buffer.len();
                let (d, ab) = (dst as usize, addr as usize);
                for w in 0..self.nw {
                    let base = w * stride;
                    let mut addrs = [0u32; WARP];
                    addrs.copy_from_slice(&self.regs[base + ab..base + ab + WARP]);
                    // `None` covers out-of-bounds lanes and non-monotonic
                    // rows — both need the sequential path's attribution.
                    let tx = crate::rows::avx2::full_warp_tx(&addrs, len)?;
                    let out: &mut [u32; WARP] = (&mut self.regs[base + d..base + d + WARP])
                        .try_into()
                        .unwrap();
                    // SAFETY: every lane validated against `len` just above.
                    crate::rows::avx2::gather(out, &addrs, buffer.bits());
                    self.counters.mem_transactions += tx;
                    self.counters.loads += 1;
                    self.cycles += tx * self.dk.mem_cycles;
                }
            }
            DOpKind::St { buf, addr, val } => {
                let buffer = self.ctx.buffers.get(buf as usize)?;
                let len = buffer.len();
                let (ab, vb) = (addr as usize, val as usize);
                for w in 0..self.nw {
                    let base = w * stride;
                    let mut addrs = [0u32; WARP];
                    addrs.copy_from_slice(&self.regs[base + ab..base + ab + WARP]);
                    let tx = crate::rows::avx2::full_warp_tx(&addrs, len)?;
                    let mut vals = [0u32; WARP];
                    vals.copy_from_slice(&self.regs[base + vb..base + vb + WARP]);
                    self.wwrites[w]
                        .extend((0..WARP).map(|l| (buf, addrs[l] as i32 as usize, vals[l])));
                    self.counters.mem_transactions += tx;
                    self.counters.stores += 1;
                    self.cycles += tx * self.dk.mem_cycles;
                }
            }
            DOpKind::Tex { .. } | DOpKind::Lds { .. } | DOpKind::Sts { .. } | DOpKind::Bar => {
                return None
            }
            kind => {
                for w in 0..self.nw {
                    let mut view = WarpView {
                        dk: self.dk,
                        ctx: self.ctx,
                        warp_id: w as u32,
                        regs: &mut self.regs[w * stride..(w + 1) * stride],
                        tidx: self.tidx,
                        tidy: self.tidy,
                    };
                    exec_pure_op!(view, kind, u32::MAX);
                }
            }
        }
        Some(())
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
/// Attempt a whole block warp-batched (see [`BExec`]). On success the
/// per-warp journals are appended to `writes` in warp order and the block's
/// counters returned; `None` leaves `writes` untouched.
fn run_decoded_batched(
    dk: &DecodedKernel,
    ctx: &DecodedBlockCtx<'_>,
    scratch: &mut DecodedScratch,
    writes: &mut Vec<(u32, usize, u32)>,
) -> Option<(FlatCounters, u64)> {
    let nw = scratch.warps.len();
    let stride = dk.num_slots as usize * WARP;
    let exec = BExec {
        dk,
        ctx,
        regs: &mut scratch.regs[..nw * stride],
        stride,
        nw,
        tidx: &scratch.tidx,
        tidy: &scratch.tidy,
        counters: FlatCounters::default(),
        cycles: 0,
        budget: MAX_WARP_INSTRUCTIONS,
        wwrites: vec![Vec::new(); nw],
    };
    // SAFETY: the caller gates the batched attempt on `simd_enabled`,
    // which is true only after AVX2 detection.
    let (counters, cycles, wwrites) = unsafe { exec.run() }?;
    for ws in wwrites {
        writes.extend(ws);
    }
    Some((counters, cycles))
}

// ---------------------------------------------------------------------------
// Artifact serialization: `DecodedKernel` <-> `isp_json::Json` for the
// persistent on-disk cache (`crate::artifact`). Only the semantic core is
// written; everything derivable is recomputed at load against the loading
// process's `DeviceSpec` — `fops` re-fused, `zero_rows` re-analysed, issue
// costs and device parameters re-baked — so a format change in a derived
// structure never invalidates cached files. Deserialization is defensive:
// every register-row base, block index, and branch target is validated
// before the kernel is allowed near an executor, and any structural problem
// returns `None` (the cache layer counts it as corrupt and recompiles).
// ---------------------------------------------------------------------------

use isp_json::Json;

fn json_u64s(items: &[u64]) -> Json {
    Json::Arr(items.iter().map(|&n| Json::U64(n)).collect())
}

fn unop_from(v: u64) -> Option<UnOp> {
    use UnOp::*;
    Some(match v {
        0 => Mov,
        1 => Neg,
        2 => Abs,
        3 => Not,
        4 => Exp,
        5 => Log,
        6 => Sqrt,
        7 => Rsqrt,
        8 => Floor,
        _ => return None,
    })
}

fn binop_from(v: u64) -> Option<BinOp> {
    use BinOp::*;
    Some(match v {
        0 => Add,
        1 => Sub,
        2 => Mul,
        3 => Div,
        4 => Rem,
        5 => Min,
        6 => Max,
        7 => And,
        8 => Or,
        9 => Xor,
        10 => Shl,
        11 => Shr,
        _ => return None,
    })
}

fn cmpop_from(v: u64) -> Option<CmpOp> {
    use CmpOp::*;
    Some(match v {
        0 => Eq,
        1 => Ne,
        2 => Lt,
        3 => Le,
        4 => Gt,
        5 => Ge,
        _ => return None,
    })
}

fn sreg_from(v: u64) -> Option<SReg> {
    use SReg::*;
    Some(match v {
        0 => TidX,
        1 => TidY,
        2 => CtaIdX,
        3 => CtaIdY,
        4 => NTidX,
        5 => NTidY,
        6 => NCtaIdX,
        7 => NCtaIdY,
        8 => LaneId,
        9 => WarpIdX,
        _ => return None,
    })
}

/// Compact tagged-array encoding of one [`DOpKind`].
pub(crate) fn dopkind_to_json(kind: &DOpKind) -> Json {
    match *kind {
        DOpKind::BinI { op, dst, a, b } => {
            json_u64s(&[0, op as u64, dst as u64, a as u64, b as u64])
        }
        DOpKind::BinF { op, dst, a, b } => {
            json_u64s(&[1, op as u64, dst as u64, a as u64, b as u64])
        }
        DOpKind::BinP { op, dst, a, b } => {
            json_u64s(&[2, op as u64, dst as u64, a as u64, b as u64])
        }
        DOpKind::MadI { dst, a, b, c } => json_u64s(&[3, dst as u64, a as u64, b as u64, c as u64]),
        DOpKind::MadF { dst, a, b, c } => json_u64s(&[4, dst as u64, a as u64, b as u64, c as u64]),
        DOpKind::Mov { dst, a } => json_u64s(&[5, dst as u64, a as u64]),
        DOpKind::NotP { dst, a } => json_u64s(&[6, dst as u64, a as u64]),
        DOpKind::NotB { dst, a } => json_u64s(&[7, dst as u64, a as u64]),
        DOpKind::NegI { dst, a } => json_u64s(&[8, dst as u64, a as u64]),
        DOpKind::AbsI { dst, a } => json_u64s(&[9, dst as u64, a as u64]),
        DOpKind::UnF { op, dst, a } => json_u64s(&[10, op as u64, dst as u64, a as u64]),
        DOpKind::CvtIF { dst, a } => json_u64s(&[11, dst as u64, a as u64]),
        DOpKind::CvtFI { dst, a } => json_u64s(&[12, dst as u64, a as u64]),
        DOpKind::SetPI { cmp, dst, a, b } => {
            json_u64s(&[13, cmp as u64, dst as u64, a as u64, b as u64])
        }
        DOpKind::SetPF { cmp, dst, a, b } => {
            json_u64s(&[14, cmp as u64, dst as u64, a as u64, b as u64])
        }
        DOpKind::SelP { dst, a, b, pred } => {
            json_u64s(&[15, dst as u64, a as u64, b as u64, pred as u64])
        }
        DOpKind::Sreg { dst, sreg } => json_u64s(&[16, dst as u64, sreg as u64]),
        DOpKind::LdParam { dst, index } => json_u64s(&[17, dst as u64, index as u64]),
        DOpKind::Ld { dst, buf, addr } => json_u64s(&[18, dst as u64, buf as u64, addr as u64]),
        DOpKind::Tex { dst, buf, x, y } => {
            json_u64s(&[19, dst as u64, buf as u64, x as u64, y as u64])
        }
        DOpKind::St { buf, addr, val } => json_u64s(&[20, buf as u64, addr as u64, val as u64]),
        DOpKind::Lds { dst, addr } => json_u64s(&[21, dst as u64, addr as u64]),
        DOpKind::Sts { addr, val } => json_u64s(&[22, addr as u64, val as u64]),
        DOpKind::Bar => json_u64s(&[23]),
    }
}

/// Decode one [`DOpKind`] from its tagged-array encoding.
pub(crate) fn dopkind_from_json(j: &Json) -> Option<DOpKind> {
    let v = j.as_arr()?;
    let n = |i: usize| -> Option<u64> { v.get(i)?.as_u64() };
    let u = |i: usize| -> Option<u32> { u32::try_from(n(i)?).ok() };
    Some(match n(0)? {
        0 => DOpKind::BinI {
            op: binop_from(n(1)?)?,
            dst: u(2)?,
            a: u(3)?,
            b: u(4)?,
        },
        1 => DOpKind::BinF {
            op: binop_from(n(1)?)?,
            dst: u(2)?,
            a: u(3)?,
            b: u(4)?,
        },
        2 => DOpKind::BinP {
            op: binop_from(n(1)?)?,
            dst: u(2)?,
            a: u(3)?,
            b: u(4)?,
        },
        3 => DOpKind::MadI {
            dst: u(1)?,
            a: u(2)?,
            b: u(3)?,
            c: u(4)?,
        },
        4 => DOpKind::MadF {
            dst: u(1)?,
            a: u(2)?,
            b: u(3)?,
            c: u(4)?,
        },
        5 => DOpKind::Mov {
            dst: u(1)?,
            a: u(2)?,
        },
        6 => DOpKind::NotP {
            dst: u(1)?,
            a: u(2)?,
        },
        7 => DOpKind::NotB {
            dst: u(1)?,
            a: u(2)?,
        },
        8 => DOpKind::NegI {
            dst: u(1)?,
            a: u(2)?,
        },
        9 => DOpKind::AbsI {
            dst: u(1)?,
            a: u(2)?,
        },
        10 => DOpKind::UnF {
            op: unop_from(n(1)?)?,
            dst: u(2)?,
            a: u(3)?,
        },
        11 => DOpKind::CvtIF {
            dst: u(1)?,
            a: u(2)?,
        },
        12 => DOpKind::CvtFI {
            dst: u(1)?,
            a: u(2)?,
        },
        13 => DOpKind::SetPI {
            cmp: cmpop_from(n(1)?)?,
            dst: u(2)?,
            a: u(3)?,
            b: u(4)?,
        },
        14 => DOpKind::SetPF {
            cmp: cmpop_from(n(1)?)?,
            dst: u(2)?,
            a: u(3)?,
            b: u(4)?,
        },
        15 => DOpKind::SelP {
            dst: u(1)?,
            a: u(2)?,
            b: u(3)?,
            pred: u(4)?,
        },
        16 => DOpKind::Sreg {
            dst: u(1)?,
            sreg: sreg_from(n(2)?)?,
        },
        17 => DOpKind::LdParam {
            dst: u(1)?,
            index: u(2)?,
        },
        18 => DOpKind::Ld {
            dst: u(1)?,
            buf: u(2)?,
            addr: u(3)?,
        },
        19 => DOpKind::Tex {
            dst: u(1)?,
            buf: u(2)?,
            x: u(3)?,
            y: u(4)?,
        },
        20 => DOpKind::St {
            buf: u(1)?,
            addr: u(2)?,
            val: u(3)?,
        },
        21 => DOpKind::Lds {
            dst: u(1)?,
            addr: u(2)?,
        },
        22 => DOpKind::Sts {
            addr: u(1)?,
            val: u(2)?,
        },
        23 => DOpKind::Bar,
        _ => return None,
    })
}

/// Whether every register-row base an op touches is a valid row of a
/// register file with `num_slots` rows. Loaded kernels must pass this for
/// every op before execution — the executors index unchecked by
/// construction.
pub(crate) fn dopkind_rows_valid(kind: &DOpKind, num_slots: u32) -> bool {
    let ok = |base: u32| base.is_multiple_of(W) && base / W < num_slots;
    match *kind {
        DOpKind::BinI { dst, a, b, .. }
        | DOpKind::BinF { dst, a, b, .. }
        | DOpKind::BinP { dst, a, b, .. }
        | DOpKind::SetPI { dst, a, b, .. }
        | DOpKind::SetPF { dst, a, b, .. } => ok(dst) && ok(a) && ok(b),
        DOpKind::MadI { dst, a, b, c } | DOpKind::MadF { dst, a, b, c } => {
            ok(dst) && ok(a) && ok(b) && ok(c)
        }
        DOpKind::Mov { dst, a }
        | DOpKind::NotP { dst, a }
        | DOpKind::NotB { dst, a }
        | DOpKind::NegI { dst, a }
        | DOpKind::AbsI { dst, a }
        | DOpKind::UnF { dst, a, .. }
        | DOpKind::CvtIF { dst, a }
        | DOpKind::CvtFI { dst, a } => ok(dst) && ok(a),
        DOpKind::SelP { dst, a, b, pred } => ok(dst) && ok(a) && ok(b) && ok(pred),
        DOpKind::Sreg { dst, .. } | DOpKind::LdParam { dst, .. } => ok(dst),
        DOpKind::Ld { dst, addr, .. } => ok(dst) && ok(addr),
        DOpKind::Tex { dst, x, y, .. } => ok(dst) && ok(x) && ok(y),
        DOpKind::St { addr, val, .. } => ok(addr) && ok(val),
        DOpKind::Lds { dst, addr } => ok(dst) && ok(addr),
        DOpKind::Sts { addr, val } => ok(addr) && ok(val),
        DOpKind::Bar => true,
    }
}

fn dterm_to_json(term: &DTerm) -> Json {
    match *term {
        DTerm::Ret => json_u64s(&[0]),
        DTerm::Br { target } => json_u64s(&[1, target as u64]),
        DTerm::CondBr {
            pred,
            if_true,
            if_false,
            ipdom,
        } => json_u64s(&[
            2,
            pred as u64,
            if_true as u64,
            if_false as u64,
            ipdom as u64,
        ]),
    }
}

fn dterm_from_json(j: &Json) -> Option<DTerm> {
    let v = j.as_arr()?;
    let n = |i: usize| -> Option<u64> { v.get(i)?.as_u64() };
    let u = |i: usize| -> Option<u32> { u32::try_from(n(i)?).ok() };
    Some(match n(0)? {
        0 => DTerm::Ret,
        1 => DTerm::Br { target: u(1)? },
        2 => DTerm::CondBr {
            pred: u(1)?,
            if_true: u(2)?,
            if_false: u(3)?,
            ipdom: u(4)?,
        },
        _ => return None,
    })
}

/// Serialize [`FlatCounters`] (the recorded block's counters embedded in a
/// trace).
pub(crate) fn counters_to_json(c: &FlatCounters) -> Json {
    Json::obj().set("hist", json_u64s(&c.hist)).set(
        "v",
        json_u64s(&[
            c.warp_instructions,
            c.divergent_branches,
            c.conditional_branches,
            c.mem_transactions,
            c.loads,
            c.stores,
            c.tex_accesses,
            c.threads_retired,
            c.blocks,
        ]),
    )
}

pub(crate) fn counters_from_json(j: &Json) -> Option<FlatCounters> {
    let hist_v = j.get("hist")?.as_arr()?;
    if hist_v.len() != 24 {
        return None;
    }
    let mut hist = [0u64; 24];
    for (slot, item) in hist.iter_mut().zip(hist_v) {
        *slot = item.as_u64()?;
    }
    let v = j.get("v")?.as_arr()?;
    if v.len() != 9 {
        return None;
    }
    let n = |i: usize| -> Option<u64> { v[i].as_u64() };
    Some(FlatCounters {
        hist,
        warp_instructions: n(0)?,
        divergent_branches: n(1)?,
        conditional_branches: n(2)?,
        mem_transactions: n(3)?,
        loads: n(4)?,
        stores: n(5)?,
        tex_accesses: n(6)?,
        threads_retired: n(7)?,
        blocks: n(8)?,
    })
}

/// Serialize a decoded kernel's semantic core.
pub(crate) fn decoded_to_json(dk: &DecodedKernel) -> Json {
    let ops = Json::Arr(
        dk.ops
            .iter()
            .map(|op| {
                Json::Arr(vec![
                    Json::U64(op.cost as u64),
                    Json::U64(op.cat as u64),
                    dopkind_to_json(&op.kind),
                ])
            })
            .collect(),
    );
    let blocks = Json::Arr(
        dk.blocks
            .iter()
            .map(|b| {
                Json::Arr(vec![
                    Json::U64(b.start as u64),
                    Json::U64(b.end as u64),
                    dterm_to_json(&b.term),
                    Json::Bool(b.is_bar),
                ])
            })
            .collect(),
    );
    Json::obj()
        .set("name", dk.name.as_str())
        .set("fingerprint", dk.fingerprint)
        .set("fuse", dk.fuse)
        .set("num_vregs", dk.num_vregs)
        .set("shared_elems", dk.shared_elems)
        .set(
            "imms",
            json_u64s(&dk.imms.iter().map(|&b| b as u64).collect::<Vec<_>>()),
        )
        .set("ops", ops)
        .set("blocks", blocks)
}

/// Reconstruct a [`DecodedKernel`] from its serialized core, re-deriving
/// everything else against `device` exactly as [`decode_with_fusion`] does.
/// Returns `None` on any structural problem.
pub(crate) fn decoded_from_json(j: &Json, device: &DeviceSpec) -> Option<DecodedKernel> {
    let name = j.get("name")?.as_str()?.to_string();
    let fingerprint = j.get("fingerprint")?.as_u64()?;
    let fuse = j.get("fuse")?.as_bool()?;
    let num_vregs = u32::try_from(j.get("num_vregs")?.as_u64()?).ok()?;
    let shared_elems = u32::try_from(j.get("shared_elems")?.as_u64()?).ok()?;
    let imms = j
        .get("imms")?
        .as_arr()?
        .iter()
        .map(|v| v.as_u64().and_then(|n| u32::try_from(n).ok()))
        .collect::<Option<Vec<u32>>>()?;
    let num_slots = num_vregs.checked_add(u32::try_from(imms.len()).ok()?)?;
    // Bound the register file so a corrupt header cannot trigger a huge
    // allocation at prepare time. Vreg numbering is sparse (the optimizer
    // does not compact ids), so real kernels can sit well above their op
    // count — bilateral13's ISP variant uses ~177k slots — hence a roomy
    // cap that still keeps the worst-case scratch claim in the hundreds
    // of megabytes rather than unbounded.
    if num_slots > 1 << 21 {
        return None;
    }

    let mut ops = Vec::new();
    for item in j.get("ops")?.as_arr()? {
        let f = item.as_arr()?;
        if f.len() != 3 {
            return None;
        }
        let cost = u32::try_from(f[0].as_u64()?).ok()?;
        let cat = u8::try_from(f[1].as_u64()?).ok()?;
        if (cat as usize) >= InstrCategory::ALL.len() {
            return None;
        }
        let kind = dopkind_from_json(&f[2])?;
        if !dopkind_rows_valid(&kind, num_slots) {
            return None;
        }
        ops.push(DOp { cost, cat, kind });
    }

    let mut blocks = Vec::new();
    let blocks_j = j.get("blocks")?.as_arr()?;
    let nblocks = u32::try_from(blocks_j.len()).ok()?;
    for item in blocks_j {
        let f = item.as_arr()?;
        if f.len() != 4 {
            return None;
        }
        let start = u32::try_from(f[0].as_u64()?).ok()?;
        let end = u32::try_from(f[1].as_u64()?).ok()?;
        if start > end || end as usize > ops.len() {
            return None;
        }
        let term = dterm_from_json(&f[2])?;
        let tgt_ok = |t: u32| t < nblocks;
        match term {
            DTerm::Ret => {}
            DTerm::Br { target } => {
                if !tgt_ok(target) {
                    return None;
                }
            }
            DTerm::CondBr {
                pred,
                if_true,
                if_false,
                ipdom,
            } => {
                if pred % W != 0
                    || pred / W >= num_slots
                    || !tgt_ok(if_true)
                    || !tgt_ok(if_false)
                    || (ipdom != NO_BLOCK && !tgt_ok(ipdom))
                {
                    return None;
                }
            }
        }
        blocks.push(DBlock {
            start,
            end,
            fstart: 0,
            fend: 0,
            term,
            is_bar: f[3].as_bool()?,
        });
    }
    if blocks.is_empty() {
        return None;
    }

    let fops = if fuse {
        fuse_blocks(&ops, &mut blocks)
    } else {
        Vec::new()
    };
    let zero_rows = rows_needing_zero(&ops, &blocks, num_vregs);
    Some(DecodedKernel {
        name,
        fingerprint,
        id: next_decode_id(),
        ops,
        blocks,
        fops,
        fuse,
        num_vregs,
        num_slots,
        imms,
        shared_elems,
        zero_rows,
        mem_cycles: device.mem_transaction_cycles,
        cost_bra: device.issue_cost(InstrCategory::Bra),
        cost_ret: device.issue_cost(InstrCategory::Ret),
        cost_bar2: device.issue_cost(InstrCategory::Bar2),
        warp_size: device.warp_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_block, BlockContext};
    use isp_ir::IrBuilder;

    /// Run a block through the reference interpreter and the decoded
    /// executor and assert the results are bit-identical — counters, cycles,
    /// write-journal order, or the exact same error.
    fn assert_matches_reference(
        kernel: &Kernel,
        device: &DeviceSpec,
        grid: (u32, u32),
        block_dim: (u32, u32),
        block_idx: (u32, u32),
        params: &[ParamValue],
        buffers: &[DeviceBuffer],
    ) -> Result<BlockRun, SimError> {
        let ipdom = Cfg::new(kernel).ipostdom();
        let reference = run_block(&BlockContext {
            kernel,
            ipdom: &ipdom,
            device,
            grid,
            block_dim,
            block_idx,
            params,
            buffers,
        });
        let dk = decode(kernel, device);
        let mut scratch = DecodedScratch::new();
        let decoded = run_block_decoded(
            &dk,
            &DecodedBlockCtx {
                grid,
                block_dim,
                block_idx,
                params,
                buffers,
            },
            &mut scratch,
        );
        match (&reference, &decoded) {
            (Ok(r), Ok(d)) => {
                assert_eq!(r.counters, d.counters, "counters ({})", kernel.name);
                assert_eq!(r.cycles, d.cycles, "cycles ({})", kernel.name);
                assert_eq!(r.writes, d.writes, "write journal ({})", kernel.name);
            }
            (Err(r), Err(d)) => assert_eq!(r, d, "errors ({})", kernel.name),
            (r, d) => panic!("outcome mismatch ({}): {r:?} vs {d:?}", kernel.name),
        }
        decoded
    }

    fn both_devices(
        kernel: &Kernel,
        grid: (u32, u32),
        block_dim: (u32, u32),
        block_idx: (u32, u32),
        params: &[ParamValue],
        buffers: &[DeviceBuffer],
    ) {
        for device in DeviceSpec::all() {
            assert_matches_reference(kernel, &device, grid, block_dim, block_idx, params, buffers)
                .ok();
        }
    }

    fn scale_kernel() -> Kernel {
        let mut b = IrBuilder::new("scale", 2);
        let x = b.sreg(SReg::TidX);
        let v = b.ld(Ty::F32, 0, x);
        let d = b.bin(BinOp::Mul, Ty::F32, v, 2.0f32);
        b.st(1, x, d);
        b.ret();
        b.finish()
    }

    #[test]
    fn scale_kernel_matches_reference() {
        let k = scale_kernel();
        let input: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let buffers = vec![DeviceBuffer::from_f32(&input), DeviceBuffer::zeroed(32)];
        both_devices(&k, (1, 1), (32, 1), (0, 0), &[], &buffers);
    }

    #[test]
    fn divergent_branch_matches_reference() {
        let mut b = IrBuilder::new("diverge", 1);
        let t = b.create_block("then");
        let e = b.create_block("else");
        let m = b.create_block("merge");
        let x = b.sreg(SReg::TidX);
        let p = b.setp(CmpOp::Lt, x, 16i32);
        b.cond_br(p, t, e);
        b.switch_to(t);
        let one = b.bin(BinOp::Add, Ty::F32, 0.5f32, 0.5f32);
        b.st(0, x, one);
        b.br(m);
        b.switch_to(e);
        let two = b.bin(BinOp::Add, Ty::F32, 1.0f32, 1.0f32);
        b.st(0, x, two);
        b.br(m);
        b.switch_to(m);
        let xf = b.cvt(Ty::F32, x);
        let off = b.bin(BinOp::Add, Ty::S32, x, 32i32);
        let w = b.bin(BinOp::Add, Ty::F32, xf, 10.0f32);
        b.st(0, off, w);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(64)];
        both_devices(&k, (1, 1), (32, 1), (0, 0), &[], &buffers);
    }

    #[test]
    fn two_dimensional_block_matches_reference() {
        let mut b = IrBuilder::new("tid2d", 1);
        let px = b.param("width", Ty::S32);
        let x = b.sreg(SReg::TidX);
        let y = b.sreg(SReg::TidY);
        let w = b.ld_param(px);
        let addr = b.mad(Ty::S32, y, w, x);
        let yf = b.cvt(Ty::F32, y);
        b.st(0, addr, yf);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(64)];
        both_devices(
            &k,
            (1, 1),
            (16, 4),
            (0, 0),
            &[ParamValue::I32(16)],
            &buffers,
        );
        // Partial warp: 24x1 leaves 8 lanes masked.
        let buffers = vec![DeviceBuffer::zeroed(32)];
        both_devices(
            &k,
            (1, 1),
            (24, 1),
            (0, 0),
            &[ParamValue::I32(24)],
            &buffers,
        );
    }

    #[test]
    fn sreg_coverage_matches_reference() {
        let mut b = IrBuilder::new("sregs", 1);
        let mut acc = b.mov(Ty::S32, 0i32);
        for sreg in [
            SReg::TidX,
            SReg::TidY,
            SReg::CtaIdX,
            SReg::CtaIdY,
            SReg::NTidX,
            SReg::NTidY,
            SReg::NCtaIdX,
            SReg::NCtaIdY,
            SReg::LaneId,
            SReg::WarpIdX,
        ] {
            let v = b.sreg(sreg);
            let shifted = b.bin(BinOp::Shl, Ty::S32, acc, 2i32);
            acc = b.bin(BinOp::Xor, Ty::S32, shifted, v);
        }
        let x = b.sreg(SReg::TidX);
        let y = b.sreg(SReg::TidY);
        let w = b.mov(Ty::S32, 64i32);
        let addr = b.mad(Ty::S32, y, w, x);
        b.st(0, addr, acc);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(64 * 2)];
        both_devices(&k, (3, 2), (64, 2), (2, 1), &[], &buffers);
    }

    #[test]
    fn predicate_ops_match_reference() {
        let mut b = IrBuilder::new("preds", 1);
        let x = b.sreg(SReg::TidX);
        let p1 = b.setp(CmpOp::Lt, x, 10i32);
        let p2 = b.setp(CmpOp::Ge, x, 4i32);
        let and = b.bin(BinOp::And, Ty::Pred, p1, p2);
        let or = b.bin(BinOp::Or, Ty::Pred, p1, p2);
        let xor = b.bin(BinOp::Xor, Ty::Pred, and, or);
        let not = b.un(UnOp::Not, Ty::Pred, xor);
        let sel = b.selp(Ty::S32, 100i32, 200i32, not);
        let neg = b.un(UnOp::Neg, Ty::S32, sel);
        let abs = b.un(UnOp::Abs, Ty::S32, neg);
        let nb = b.un(UnOp::Not, Ty::S32, abs);
        let fin = b.un(UnOp::Not, Ty::S32, nb);
        b.st(0, x, fin);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(32)];
        both_devices(&k, (1, 1), (32, 1), (0, 0), &[], &buffers);
    }

    #[test]
    fn float_unary_and_div_match_reference() {
        let mut b = IrBuilder::new("funops", 2);
        let x = b.sreg(SReg::TidX);
        let v = b.ld(Ty::F32, 0, x);
        let e = b.un(UnOp::Exp, Ty::F32, v);
        let lg = b.un(UnOp::Log, Ty::F32, e);
        let sq = b.un(UnOp::Sqrt, Ty::F32, lg);
        let rs = b.un(UnOp::Rsqrt, Ty::F32, sq);
        let fl = b.un(UnOp::Floor, Ty::F32, rs);
        let ng = b.un(UnOp::Neg, Ty::F32, fl);
        let ab = b.un(UnOp::Abs, Ty::F32, ng);
        let dv = b.bin(BinOp::Div, Ty::F32, ab, 3.0f32);
        let rm = b.bin(BinOp::Rem, Ty::F32, dv, 0.7f32);
        let mn = b.bin(BinOp::Min, Ty::F32, rm, 5.0f32);
        let mx = b.bin(BinOp::Max, Ty::F32, mn, -5.0f32);
        let md = b.mad(Ty::F32, mx, 2.0f32, 1.0f32);
        b.st(1, x, md);
        b.ret();
        let k = b.finish();
        let input: Vec<f32> = (0..32).map(|i| 0.25 * i as f32 + 0.1).collect();
        let buffers = vec![DeviceBuffer::from_f32(&input), DeviceBuffer::zeroed(32)];
        both_devices(&k, (1, 1), (32, 1), (0, 0), &[], &buffers);
    }

    #[test]
    fn integer_div_rem_by_zero_match_reference() {
        let mut b = IrBuilder::new("idiv", 1);
        let x = b.sreg(SReg::TidX);
        let sub = b.bin(BinOp::Sub, Ty::S32, x, 16i32); // crosses zero
        let d = b.bin(BinOp::Div, Ty::S32, 100i32, sub);
        let r = b.bin(BinOp::Rem, Ty::S32, 100i32, sub);
        let sum = b.bin(BinOp::Add, Ty::S32, d, r);
        let sh = b.bin(BinOp::Shr, Ty::S32, sum, x);
        b.st(0, x, sh);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(32)];
        both_devices(&k, (1, 1), (32, 1), (0, 0), &[], &buffers);
    }

    #[test]
    fn oob_and_missing_param_errors_match_reference() {
        let mut b = IrBuilder::new("oob", 1);
        let x = b.sreg(SReg::TidX);
        let bad = b.bin(BinOp::Sub, Ty::S32, x, 5i32);
        let v = b.ld(Ty::F32, 0, bad);
        b.st(0, x, v);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(32)];
        both_devices(&k, (1, 1), (32, 1), (0, 0), &[], &buffers);

        let mut b = IrBuilder::new("noparam", 1);
        let p = b.param("width", Ty::S32);
        let w = b.ld_param(p);
        b.st(0, w, 0.0f32);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(32)];
        both_devices(&k, (1, 1), (32, 1), (0, 0), &[], &buffers);
    }

    #[test]
    fn texture_fetch_matches_reference() {
        use crate::memory::{TexAddressMode, TexDesc};
        for mode in [
            TexAddressMode::Clamp,
            TexAddressMode::Wrap,
            TexAddressMode::Mirror,
            TexAddressMode::Border(0.5),
        ] {
            let mut b = IrBuilder::new("texread", 2);
            let x = b.sreg(SReg::TidX);
            let xm = b.bin(BinOp::Sub, Ty::S32, x, 4i32); // off both edges
            let v = b.tex(0, xm, xm);
            b.st(1, x, v);
            b.ret();
            let k = b.finish();
            let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
            let buffers = vec![
                DeviceBuffer::from_f32(&data).with_texture(TexDesc {
                    width: 8,
                    height: 8,
                    mode,
                }),
                DeviceBuffer::zeroed(32),
            ];
            both_devices(&k, (1, 1), (32, 1), (0, 0), &[], &buffers);
        }
        // Missing binding: identical error.
        let mut b = IrBuilder::new("texless", 2);
        let x = b.sreg(SReg::TidX);
        let v = b.tex(0, x, x);
        b.st(1, x, v);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(64), DeviceBuffer::zeroed(64)];
        both_devices(&k, (1, 1), (32, 1), (0, 0), &[], &buffers);
    }

    #[test]
    fn barrier_kernel_matches_reference() {
        const N: i32 = 64;
        let mut b = IrBuilder::new("reverse", 1);
        b.set_shared_elems(N as u32);
        let bar = b.create_block("bar");
        let after = b.create_block("after");
        let tx = b.sreg(SReg::TidX);
        let txf = b.cvt(Ty::F32, tx);
        b.sts(tx, txf);
        b.br(bar);
        b.switch_to(bar);
        b.bar();
        b.br(after);
        b.switch_to(after);
        let nm1 = b.mov(Ty::S32, N - 1);
        let rev = b.bin(BinOp::Sub, Ty::S32, nm1, tx);
        let v = b.lds(rev);
        b.st(0, tx, v);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(N as usize)];
        both_devices(&k, (1, 1), (N as u32, 1), (0, 0), &[], &buffers);
    }

    #[test]
    fn shared_oob_and_divergent_barrier_errors_match_reference() {
        let mut b = IrBuilder::new("oob_shared", 1);
        b.set_shared_elems(16);
        let tx = b.sreg(SReg::TidX);
        let f = b.cvt(Ty::F32, tx);
        b.sts(tx, f);
        b.st(0, tx, f);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(32)];
        both_devices(&k, (1, 1), (32, 1), (0, 0), &[], &buffers);

        let mut b = IrBuilder::new("divbar", 1);
        b.set_shared_elems(4);
        let bar = b.create_block("bar");
        let merge = b.create_block("merge");
        let tx = b.sreg(SReg::TidX);
        let p = b.setp(CmpOp::Lt, tx, 16i32);
        b.cond_br(p, bar, merge);
        b.switch_to(bar);
        b.bar();
        b.br(merge);
        b.switch_to(merge);
        b.st(0, tx, 1.0f32);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(32)];
        both_devices(&k, (1, 1), (32, 1), (0, 0), &[], &buffers);
    }

    #[test]
    fn runaway_loop_matches_reference() {
        let mut b = IrBuilder::new("spin", 1);
        let header = b.create_block("header");
        b.br(header);
        b.switch_to(header);
        let x = b.sreg(SReg::TidX);
        let p = b.setp(CmpOp::Ge, x, 0i32); // always true
        let exit = b.create_block("exit");
        b.cond_br(p, header, exit);
        b.switch_to(exit);
        b.ret();
        let k = b.finish();
        let buffers = vec![DeviceBuffer::zeroed(32)];
        let device = DeviceSpec::gtx680();
        let r = assert_matches_reference(&k, &device, (1, 1), (32, 1), (0, 0), &[], &buffers);
        assert!(matches!(r, Err(SimError::RunawayBlock { .. })), "{r:?}");
    }

    #[test]
    fn immediates_are_pooled_and_deduplicated() {
        let mut b = IrBuilder::new("imms", 1);
        let x = b.sreg(SReg::TidX);
        let xf = b.cvt(Ty::F32, x);
        let a = b.bin(BinOp::Add, Ty::F32, xf, 1.0f32);
        let c = b.bin(BinOp::Mul, Ty::F32, a, 1.0f32); // same bits as above
        let d = b.bin(BinOp::Add, Ty::S32, x, 1i32); // distinct bits (0x1)
        let e = b.cvt(Ty::F32, d);
        let f = b.bin(BinOp::Add, Ty::F32, c, e);
        b.st(0, x, f);
        b.ret();
        let k = b.finish();
        let dk = decode(&k, &DeviceSpec::gtx680());
        // 1.0f32 interned once, 1i32 separately.
        assert_eq!(dk.num_imms(), 2);
        assert_eq!(dk.num_ops(), k.static_len() - k.blocks.len());
    }

    #[test]
    fn scratch_survives_kernel_and_shape_switches() {
        let scale = scale_kernel();
        let mut b = IrBuilder::new("other", 1);
        let x = b.sreg(SReg::TidX);
        let y = b.sreg(SReg::TidY);
        let w = b.mov(Ty::S32, 16i32);
        let addr = b.mad(Ty::S32, y, w, x);
        let s = b.bin(BinOp::Add, Ty::S32, addr, 7i32);
        b.st(0, addr, s);
        b.ret();
        let other = b.finish();
        let device = DeviceSpec::gtx680();
        let dk_scale = decode(&scale, &device);
        let dk_other = decode(&other, &device);
        let input: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let scale_bufs = vec![DeviceBuffer::from_f32(&input), DeviceBuffer::zeroed(32)];
        let other_bufs = vec![DeviceBuffer::zeroed(64)];
        let scale_ctx = DecodedBlockCtx {
            grid: (1, 1),
            block_dim: (32, 1),
            block_idx: (0, 0),
            params: &[],
            buffers: &scale_bufs,
        };
        let other_ctx = DecodedBlockCtx {
            grid: (1, 1),
            block_dim: (16, 4),
            block_idx: (0, 0),
            params: &[],
            buffers: &other_bufs,
        };
        // Fresh-scratch baselines.
        let base_scale =
            run_block_decoded(&dk_scale, &scale_ctx, &mut DecodedScratch::new()).unwrap();
        let base_other =
            run_block_decoded(&dk_other, &other_ctx, &mut DecodedScratch::new()).unwrap();
        // One shared arena, alternating kernels and block shapes.
        let mut scratch = DecodedScratch::new();
        for _ in 0..3 {
            let r = run_block_decoded(&dk_scale, &scale_ctx, &mut scratch).unwrap();
            assert_eq!(r.counters, base_scale.counters);
            assert_eq!(r.writes, base_scale.writes);
            let r = run_block_decoded(&dk_other, &other_ctx, &mut scratch).unwrap();
            assert_eq!(r.counters, base_other.counters);
            assert_eq!(r.writes, base_other.writes);
        }
    }

    #[test]
    fn scratch_is_reprepared_for_another_decoding_of_the_same_kernel() {
        // Two decodings share a fingerprint but not their immediates (as a
        // disk-cache entry altered after it was written would): an arena
        // prepared for one must not serve the other's immediate rows.
        let scale = scale_kernel();
        let device = DeviceSpec::gtx680();
        let dk = decode(&scale, &device);
        let mut altered = decode(&scale, &device);
        assert_eq!(altered.fingerprint, dk.fingerprint);
        for bits in &mut altered.imms {
            *bits = (f32::from_bits(*bits) + 1.0).to_bits();
        }
        let input: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let bufs = vec![DeviceBuffer::from_f32(&input), DeviceBuffer::zeroed(32)];
        let ctx = DecodedBlockCtx {
            grid: (1, 1),
            block_dim: (32, 1),
            block_idx: (0, 0),
            params: &[],
            buffers: &bufs,
        };
        let base = run_block_decoded(&altered, &ctx, &mut DecodedScratch::new()).unwrap();
        let mut scratch = DecodedScratch::new();
        let first = run_block_decoded(&dk, &ctx, &mut scratch).unwrap();
        assert_ne!(first.writes, base.writes);
        let r = run_block_decoded(&altered, &ctx, &mut scratch).unwrap();
        assert_eq!(r.writes, base.writes);
    }

    #[test]
    fn fingerprint_distinguishes_kernels() {
        let scale = scale_kernel();
        assert_eq!(kernel_fingerprint(&scale), kernel_fingerprint(&scale));
        let mut b = IrBuilder::new("scale", 2);
        let x = b.sreg(SReg::TidX);
        let v = b.ld(Ty::F32, 0, x);
        let d = b.bin(BinOp::Mul, Ty::F32, v, 3.0f32); // different immediate
        b.st(1, x, d);
        b.ret();
        let other = b.finish();
        assert_ne!(kernel_fingerprint(&scale), kernel_fingerprint(&other));
    }
}
