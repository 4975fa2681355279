//! Superblock traces: straight-line op sequences formed at lower time.
//!
//! The trace engine executes whole *superblocks* instead of stepping one
//! lowered instruction at a time. A trace starts at a block head and
//! follows unconditional branches through fresh blocks, compiling every
//! instruction into a pre-decoded `TOp` with its timing cost resolved
//! up front (`Pc`). Formation cuts at anything that needs
//! whole-machine access or can reschedule the thread:
//!
//! * calls (`CallF`) and every builtin (`CallB`) — including
//!   `Heartbeat`, so heartbeat timestamps take the reference path;
//! * atomics and fences (they serialize against other threads);
//! * returns and `Unreachable`;
//! * a block already in the trace (loop back-edges), so traces are
//!   acyclic;
//! * a length cap, bounding the budget overshoot per trace entry.
//!
//! Conditional terminators (`CondBr`, `PtestBr`) are the trace's side
//! exits: they execute *in*-trace — same branch-site ids and mispredict
//! cascade as the reference interpreter — then end it, transferring
//! control via the regular edge/phi mechanism. An interrupted trace is
//! always at an instruction boundary (`Frame::ip` advances per op), so
//! per-instruction execution can resume anywhere inside one.
//!
//! The fault-injection window is handled by the *executor*, not here:
//! `Trace::writes` upper-bounds how many eligible (fault-injectable)
//! destination writes one entry can retire, and the machine refuses to
//! enter a trace whose window could contain the planned injection index,
//! falling back to per-instruction stepping where the flip logic lives.

use crate::lower::{LFunc, LInst, LKind, LOp, LTerm, VMeta, NO_DST};
use elzar_avx::LaneWidth;
use elzar_cpu::Cost;
use elzar_engine::kernels::{BinKernel, UnKernel};
use elzar_ir::{BinOp, CastOp, CmpPred};

/// Precomputed cost of one op: what the reference interpreter would
/// re-derive from its `InstClass` on every retire.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pc {
    /// Issue cost (latency, ports, occupancy, expansion).
    pub(crate) cost: Cost,
    /// Counts toward the AVX-instruction counter.
    pub(crate) avx: bool,
}

impl Pc {
    fn of(class: elzar_cpu::InstClass) -> Pc {
        Pc { cost: class.cost(), avx: class.is_avx() }
    }
}

/// One pre-decoded trace op. Operand/result semantics are exactly the
/// reference interpreter's handler for the same `LKind`; the vector
/// forms additionally carry a kernel-table index when the operand shape
/// is a full 256-bit register.
#[derive(Clone, Debug)]
pub(crate) enum TOp {
    /// Scalar binary op.
    SBin { op: BinOp, m: VMeta, pc: Pc, dst: u32, a: LOp, b: LOp },
    /// Scalar compare (unfused).
    SCmp { m: VMeta, pred: CmpPred, pc: Pc, dst: u32, a: LOp, b: LOp },
    /// Scalar compare macro-fused with the following branch: no retire.
    SCmpFused { m: VMeta, pred: CmpPred, dst: u32, a: LOp, b: LOp },
    /// Scalar-to-scalar cast.
    SCast { op: CastOp, from: VMeta, to: VMeta, pc: Pc, dst: u32, a: LOp },
    /// Address arithmetic.
    Gep { pc: Pc, dst: u32, base: LOp, index: LOp, scale: u32 },
    /// Select / blend (identical handling for scalar and vector shapes).
    Sel { m: VMeta, cond_scalar: bool, pc: Pc, dst: u32, cond: LOp, a: LOp, b: LOp },
    /// Memory load.
    Load { m: VMeta, pc: Pc, dst: u32, addr: LOp },
    /// Memory store.
    Store { m: VMeta, pc: Pc, val: LOp, addr: LOp },
    /// Hardened load: majority-vote the replicated address, load once,
    /// re-replicate (§VII-B). The hot memory op of ELZAR-mode code.
    Gather { m: VMeta, pc: Pc, dst: u32, addrs: LOp },
    /// Hardened store: majority-vote address and value, store once.
    Scatter { m: VMeta, pc: Pc, val: LOp, addrs: LOp },
    /// Stack allocation.
    Alloca { pc: Pc, dst: u32, elem_bytes: u32, count: LOp },
    /// Vector binary op with a full-register kernel.
    VBinK { k: BinKernel, m: VMeta, pc: Pc, dst: u32, a: LOp, b: LOp },
    /// Vector binary op, generic per-lane path (esoteric shapes, div).
    VBinL { op: BinOp, m: VMeta, pc: Pc, dst: u32, a: LOp, b: LOp },
    /// Vector compare with a full-register kernel.
    VCmpK { k: BinKernel, m: VMeta, pc: Pc, dst: u32, a: LOp, b: LOp },
    /// Vector compare, generic per-lane path.
    VCmpL { pred: CmpPred, m: VMeta, pc: Pc, dst: u32, a: LOp, b: LOp },
    /// Vector cast.
    VCast { op: CastOp, from: VMeta, to: VMeta, pc: Pc, dst: u32, a: LOp },
    /// Lane extract.
    Extract { m: VMeta, pc: Pc, dst: u32, vec: LOp, idx: LOp },
    /// Lane insert.
    Insert { m: VMeta, pc: Pc, dst: u32, vec: LOp, val: LOp, idx: LOp },
    /// Full-register rotate-by-one shuffle (the Figure-8 check pattern).
    ShufRot { k: UnKernel, m: VMeta, pc: Pc, dst: u32, a: LOp },
    /// Generic lane permutation.
    Shuf { m: VMeta, pc: Pc, dst: u32, a: LOp, mask: Box<[u8]> },
    /// Broadcast; `full` selects the whole-register fast path.
    Splat { m: VMeta, full: bool, pc: Pc, dst: u32, val: LOp },
    /// Mask fold to flags; `full` selects the whole-register fast path.
    Ptest { m: VMeta, full: bool, pc: Pc, dst: u32, mask: LOp },
    /// Followed unconditional branch (retires a jump, applies the edge).
    Jump { target: u32 },
    /// Side exit: two-way branch, ends the trace.
    CondBr { site: u64, cond: LOp, t: u32, f: u32 },
    /// Three-way ptest branch. Taking the `cont` target continues the
    /// trace (the following ops belong to it); any other exit ends it.
    PtestBr { site: u64, flags: LOp, m: Option<VMeta>, bbs: [u32; 3], cont: u32 },
    /// Fused §IV-B Figure-8 check ending a block — rotate, xor against
    /// the source, ptest, three-way branch — executed as one dispatch
    /// with the source register read once. Replays the unfused quad's
    /// exact retire sequence, slot writes and step count (weight 4).
    Check8Br {
        /// The rotate-by-one shuffle kernel.
        k: UnKernel,
        m: VMeta,
        pc_shuf: Pc,
        pc_xor: Pc,
        pc_ptest: Pc,
        /// Destinations of the three fused instructions, in order.
        d_shuf: u32,
        d_xor: u32,
        d_code: u32,
        /// Source slot (the checked replicated register).
        a: u32,
        site: u64,
        bbs: [u32; 3],
        cont: u32,
    },
    /// Fused compare-and-branch check: vector compare, ptest, three-way
    /// branch (weight 3). Same accounting contract as [`TOp::Check8Br`].
    CmpCheckBr {
        /// The full-register compare kernel.
        k: BinKernel,
        m: VMeta,
        pc_cmp: Pc,
        pc_ptest: Pc,
        d_mask: u32,
        d_code: u32,
        a: LOp,
        b: LOp,
        site: u64,
        bbs: [u32; 3],
        cont: u32,
    },
    /// Fused hardened load (§VII-B lowering): extract one replica of the
    /// address, scalar load, re-replicate (weight 3).
    ExtractLoadSplat {
        /// Extract shape (the replicated pointer register).
        em: VMeta,
        /// Scalar load shape.
        lm: VMeta,
        /// Splat shape plus its whole-register fast-path flag.
        sm: VMeta,
        full: bool,
        pc_ex: Pc,
        pc_ld: Pc,
        pc_sp: Pc,
        d_lane: u32,
        d_val: u32,
        d_vec: u32,
        vec: LOp,
        idx: LOp,
    },
    /// Fused hardened store: extract one replica of the address, scalar
    /// store (weight 2).
    ExtractStore {
        /// Extract shape.
        em: VMeta,
        /// Scalar store shape.
        sm: VMeta,
        pc_ex: Pc,
        pc_st: Pc,
        d_lane: u32,
        vec: LOp,
        idx: LOp,
        val: LOp,
    },
    /// Two dependent full-register binary ops fused into one dispatch:
    /// the second op reads the first's destination, which stays in a
    /// register (weight 2). `swapped` records whether the chained value
    /// is the second op's right operand (kernels are not commutative).
    VBin2K {
        k1: BinKernel,
        k2: BinKernel,
        m1: VMeta,
        m2: VMeta,
        pc1: Pc,
        pc2: Pc,
        d1: u32,
        d2: u32,
        a: LOp,
        b: LOp,
        /// The second op's non-chained operand.
        o: LOp,
        swapped: bool,
    },
    /// Bit-reinterpreting vector cast (`Bitcast`/`PtrToInt`/`IntToPtr`
    /// with a vector destination): the value passes through unchanged,
    /// so the generic cast dispatch is skipped.
    VCastId { m: VMeta, pc: Pc, dst: u32, a: LOp },
    /// Two chained bit-reinterpreting casts fused into one dispatch
    /// (weight 2): the pointer-arithmetic `IntToPtr; PtrToInt` sandwich
    /// hardened address computations end with. The value is read once
    /// and committed to both destination slots.
    VCast2Id { m1: VMeta, pc1: Pc, pc2: Pc, d1: u32, d2: u32, a: LOp },
    /// A bit-reinterpreting cast feeding one operand of a full-register
    /// binary op, fused into one dispatch (weight 2). `swapped` records
    /// whether the cast value is the binary op's right operand.
    CastBinK {
        k: BinKernel,
        /// Cast shape.
        cm: VMeta,
        /// Binary-op shape.
        bm: VMeta,
        pc_c: Pc,
        pc_b: Pc,
        d1: u32,
        d2: u32,
        a: LOp,
        /// The binary op's non-chained operand.
        o: LOp,
        swapped: bool,
    },
}

impl TOp {
    /// Does this op write a destination slot (and therefore count toward
    /// the eligible-instruction total when the function is hardened)?
    fn writes_dst(&self) -> bool {
        match self {
            TOp::SBin { dst, .. }
            | TOp::SCmp { dst, .. }
            | TOp::SCmpFused { dst, .. }
            | TOp::SCast { dst, .. }
            | TOp::Gep { dst, .. }
            | TOp::Sel { dst, .. }
            | TOp::Load { dst, .. }
            | TOp::Gather { dst, .. }
            | TOp::Alloca { dst, .. }
            | TOp::VBinK { dst, .. }
            | TOp::VBinL { dst, .. }
            | TOp::VCmpK { dst, .. }
            | TOp::VCmpL { dst, .. }
            | TOp::VCast { dst, .. }
            | TOp::Extract { dst, .. }
            | TOp::Insert { dst, .. }
            | TOp::ShufRot { dst, .. }
            | TOp::Shuf { dst, .. }
            | TOp::Splat { dst, .. }
            | TOp::Ptest { dst, .. } => *dst != NO_DST,
            TOp::Store { .. }
            | TOp::Scatter { .. }
            | TOp::Jump { .. }
            | TOp::CondBr { .. }
            | TOp::PtestBr { .. } => false,
            TOp::VCastId { dst, .. } => *dst != NO_DST,
            // Fused ops count via `TOp::writes`, never per-op.
            TOp::Check8Br { .. }
            | TOp::CmpCheckBr { .. }
            | TOp::ExtractLoadSplat { .. }
            | TOp::ExtractStore { .. }
            | TOp::VBin2K { .. }
            | TOp::VCast2Id { .. }
            | TOp::CastBinK { .. } => false,
        }
    }

    /// Reference-interpreter steps this op retires: 1, except for the
    /// fused patterns. The executor charges this many budget units and
    /// refuses to start an op it cannot finish within the quantum (the
    /// per-instruction path picks up the tail instead).
    pub(crate) fn weight(&self) -> usize {
        match self {
            TOp::Check8Br { .. } => 4,
            TOp::CmpCheckBr { .. } | TOp::ExtractLoadSplat { .. } => 3,
            TOp::ExtractStore { .. } | TOp::VBin2K { .. } | TOp::VCast2Id { .. } | TOp::CastBinK { .. } => 2,
            _ => 1,
        }
    }

    /// Eligible destination writes this op commits (the fault-window
    /// contribution).
    fn writes(&self) -> u64 {
        let fused_dsts: &[u32] = match self {
            TOp::Check8Br { d_shuf, d_xor, d_code, .. } => &[*d_shuf, *d_xor, *d_code],
            TOp::CmpCheckBr { d_mask, d_code, .. } => &[*d_mask, *d_code],
            TOp::ExtractLoadSplat { d_lane, d_val, d_vec, .. } => &[*d_lane, *d_val, *d_vec],
            TOp::ExtractStore { d_lane, .. } => &[*d_lane],
            TOp::VBin2K { d1, d2, .. } | TOp::VCast2Id { d1, d2, .. } | TOp::CastBinK { d1, d2, .. } => {
                &[*d1, *d2]
            }
            _ => return u64::from(self.writes_dst()),
        };
        fused_dsts.iter().filter(|d| **d != NO_DST).count() as u64
    }
}

/// A compiled superblock anchored at one `(function, block)` head.
/// Empty when the block's first instruction is untraceable.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The op sequence; at most one terminator, always last.
    pub(crate) ops: Vec<TOp>,
    /// Upper bound on eligible destination writes per entry — the
    /// fault-injection window the executor checks before entering.
    pub(crate) writes: u64,
    /// Whether writes in this trace are fault-eligible (§IV-B).
    pub(crate) hardened: bool,
}

/// "No continuation" sentinel for a trace-ending branch target.
pub(crate) const NO_CONT: u32 = u32::MAX;

/// Length cap per trace: bounds both compile-time explosion on long
/// `Br` chains and how far a single entry can overshoot into the
/// scheduler quantum's tail.
const MAX_OPS: usize = 160;

/// Build one trace per block of `lf` (function index `func` in the
/// program, used for stable branch-site ids).
pub(crate) fn build_traces(func: u32, lf: &LFunc) -> Vec<Trace> {
    (0..lf.blocks.len() as u32).map(|b| build_trace(func, lf, b)).collect()
}

fn build_trace(func: u32, lf: &LFunc, start: u32) -> Trace {
    let mut ops: Vec<TOp> = Vec::new();
    let mut visited = vec![start];
    let mut block = start;
    'form: loop {
        let lb = &lf.blocks[block as usize];
        for inst in &lb.insts {
            if ops.len() >= MAX_OPS {
                break 'form;
            }
            match compile(inst) {
                Some(op) => ops.push(op),
                None => break 'form,
            }
        }
        if ops.len() >= MAX_OPS {
            break;
        }
        let site = (u64::from(func) << 16) | u64::from(block);
        match &lb.term {
            LTerm::Br(t) => {
                // The jump executes in-trace either way; a back-edge
                // (or re-joined diamond) ends the trace after it, and
                // the target's own trace re-enters at `ip == 0`.
                ops.push(TOp::Jump { target: *t });
                if visited.contains(t) {
                    break;
                }
                visited.push(*t);
                block = *t;
            }
            LTerm::CondBr { cond, t, f } => {
                ops.push(TOp::CondBr { site, cond: *cond, t: *t, f: *f });
                break;
            }
            LTerm::PtestBr { flags, mask_meta, bbs } => {
                // Speculatively continue into the statically likely
                // target so superblocks span whole check regions. A
                // Figure-8 check merges its fault paths
                // (`bbs[1] == bbs[2]`) and in fault-free execution
                // always takes `bbs[0]`; a genuine three-way compare
                // check most often sees all replicas agree on *true*
                // (`bbs[1]`, e.g. a loop's continue edge). The executor
                // exits the trace whenever any other path is taken.
                let want = if bbs[1] == bbs[2] { bbs[0] } else { bbs[1] };
                let cont = if visited.contains(&want) { NO_CONT } else { want };
                ops.push(TOp::PtestBr { site, flags: *flags, m: *mask_meta, bbs: *bbs, cont });
                if cont == NO_CONT {
                    break;
                }
                visited.push(cont);
                block = cont;
            }
            LTerm::Ret(_) | LTerm::Unreachable => break,
        }
    }
    let ops = fuse(ops);
    let writes = ops.iter().map(TOp::writes).sum();
    Trace { ops, writes, hardened: lf.hardened }
}

/// Pattern-fuse the ELZAR check and hardened-memory idioms so the
/// executor pays one dispatch (and one source-register read) for what
/// the unfused trace handles as 2–4 separate ops. A fused op replays
/// the identical retire / slot-write / step accounting, so everything
/// observable stays bit-identical; any sequence not matching the exact
/// slot-chained shape is left unfused.
fn fuse(ops: Vec<TOp>) -> Vec<TOp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        match fuse_at(&ops[i..]) {
            Some((op, n)) => {
                out.push(op);
                i += n;
            }
            None => {
                out.push(ops[i].clone());
                i += 1;
            }
        }
    }
    out
}

/// Try to fuse a pattern starting at `w[0]`; returns the fused op and
/// how many ops it consumed. Longest patterns are tried first.
fn fuse_at(w: &[TOp]) -> Option<(TOp, usize)> {
    // Figure-8 check quad: `s1 = rot(x); s2 = x ^ s1; s3 = ptest(s2);
    // ptest_br(s3)`. The xor's operands may appear in either order —
    // xor is commutative and `issue` folds operand readiness with max.
    if let [TOp::ShufRot { k, m, pc: pc1, dst: d1, a: LOp::Slot(x) }, TOp::VBinK { k: BinKernel::Xor, pc: pc2, dst: d2, a, b, .. }, TOp::Ptest { full: true, pc: pc3, dst: d3, mask: LOp::Slot(mz), .. }, TOp::PtestBr { site, flags: LOp::Slot(fz), m: None, bbs, cont }, ..] =
        w
    {
        let chained = matches!((a, b), (LOp::Slot(p), LOp::Slot(q))
            if (p == x && q == d1) || (p == d1 && q == x));
        if chained && *mz == *d2 && *fz == *d3 && *d1 != *x && [*d1, *d2, *d3].iter().all(|d| *d != NO_DST) {
            return Some((
                TOp::Check8Br {
                    k: *k,
                    m: *m,
                    pc_shuf: *pc1,
                    pc_xor: *pc2,
                    pc_ptest: *pc3,
                    d_shuf: *d1,
                    d_xor: *d2,
                    d_code: *d3,
                    a: *x,
                    site: *site,
                    bbs: *bbs,
                    cont: *cont,
                },
                4,
            ));
        }
    }
    // Compare-check triple: `s1 = cmp(a, b); s2 = ptest(s1);
    // ptest_br(s2)` — the hardened conditional-branch lowering.
    if let [TOp::VCmpK { k, m, pc: pc1, dst: d1, a, b }, TOp::Ptest { full: true, pc: pc2, dst: d2, mask: LOp::Slot(mz), .. }, TOp::PtestBr { site, flags: LOp::Slot(fz), m: None, bbs, cont }, ..] =
        w
    {
        if *mz == *d1 && *fz == *d2 && *d1 != NO_DST && *d2 != NO_DST {
            return Some((
                TOp::CmpCheckBr {
                    k: *k,
                    m: *m,
                    pc_cmp: *pc1,
                    pc_ptest: *pc2,
                    d_mask: *d1,
                    d_code: *d2,
                    a: *a,
                    b: *b,
                    site: *site,
                    bbs: *bbs,
                    cont: *cont,
                },
                3,
            ));
        }
    }
    // Hardened load: `s1 = extract(vec, idx); s2 = load(s1);
    // s3 = splat(s2)`.
    if let [TOp::Extract { m: em, pc: pc1, dst: d1, vec, idx }, TOp::Load { m: lm, pc: pc2, dst: d2, addr: LOp::Slot(az) }, TOp::Splat { m: sm, full, pc: pc3, dst: d3, val: LOp::Slot(vz) }, ..] =
        w
    {
        if lm.scalar && *az == *d1 && *vz == *d2 && [*d1, *d2, *d3].iter().all(|d| *d != NO_DST) {
            return Some((
                TOp::ExtractLoadSplat {
                    em: *em,
                    lm: *lm,
                    sm: *sm,
                    full: *full,
                    pc_ex: *pc1,
                    pc_ld: *pc2,
                    pc_sp: *pc3,
                    d_lane: *d1,
                    d_val: *d2,
                    d_vec: *d3,
                    vec: *vec,
                    idx: *idx,
                },
                3,
            ));
        }
    }
    // Dependent binary pair: `s1 = op1(a, b); s2 = op2(s1, o)` (or the
    // chained operand on the right). The intermediate stays in a
    // register; its slot is still committed.
    if let [TOp::VBinK { k: k1, m: m1, pc: pc1, dst: d1, a, b }, TOp::VBinK { k: k2, m: m2, pc: pc2, dst: d2, a: a2, b: b2 }, ..] =
        w
    {
        let chained = |op: &LOp| matches!(op, LOp::Slot(s) if s == d1);
        let pick = match (chained(a2), chained(b2)) {
            (true, false) => Some((*b2, false)),
            (false, true) => Some((*a2, true)),
            _ => None,
        };
        if let Some((o, swapped)) = pick {
            if *d1 != NO_DST && *d2 != NO_DST {
                return Some((
                    TOp::VBin2K {
                        k1: *k1,
                        k2: *k2,
                        m1: *m1,
                        m2: *m2,
                        pc1: *pc1,
                        pc2: *pc2,
                        d1: *d1,
                        d2: *d2,
                        a: *a,
                        b: *b,
                        o,
                        swapped,
                    },
                    2,
                ));
            }
        }
    }
    // Hardened store: `s1 = extract(vec, idx); store(val, s1)`.
    if let [TOp::Extract { m: em, pc: pc1, dst: d1, vec, idx }, TOp::Store { m: sm, pc: pc2, val, addr: LOp::Slot(az) }, ..] =
        w
    {
        if sm.scalar && *az == *d1 && *d1 != NO_DST {
            return Some((
                TOp::ExtractStore {
                    em: *em,
                    sm: *sm,
                    pc_ex: *pc1,
                    pc_st: *pc2,
                    d_lane: *d1,
                    vec: *vec,
                    idx: *idx,
                    val: *val,
                },
                2,
            ));
        }
    }
    // Bit-reinterpreting cast feeding a binary op: `s1 = cast(a);
    // s2 = op(s1, o)` (or chained on the right) — the head of the
    // pointer-arithmetic idiom hardened address computations lower to.
    if let [TOp::VCast {
        op: CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr,
        from,
        to,
        pc: pc_c,
        dst: d1,
        a,
    }, TOp::VBinK { k, m, pc: pc_b, dst: d2, a: a2, b: b2 }, ..] = w
    {
        let chained = |op: &LOp| matches!(op, LOp::Slot(s) if s == d1);
        let pick = match (chained(a2), chained(b2)) {
            (true, false) => Some((*b2, false)),
            (false, true) => Some((*a2, true)),
            _ => None,
        };
        if let Some((o, swapped)) = pick {
            if !to.scalar && *d1 != NO_DST && *d2 != NO_DST {
                return Some((
                    TOp::CastBinK {
                        k: *k,
                        cm: *from,
                        bm: *m,
                        pc_c: *pc_c,
                        pc_b: *pc_b,
                        d1: *d1,
                        d2: *d2,
                        a: *a,
                        o,
                        swapped,
                    },
                    2,
                ));
            }
        }
    }
    // Chained pair of bit-reinterpreting casts: `s1 = cast(a);
    // s2 = cast(s1)` — the `IntToPtr; PtrToInt` sandwich tail.
    if let [TOp::VCast {
        op: CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr,
        from: f1,
        to: t1,
        pc: pc1,
        dst: d1,
        a,
    }, TOp::VCast {
        op: CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr,
        // The second cast's source shape is irrelevant: a register
        // value passes through `v()` untouched.
        from: _,
        to: t2,
        pc: pc2,
        dst: d2,
        a: LOp::Slot(az),
    }, ..] = w
    {
        if !t1.scalar && !t2.scalar && *az == *d1 && *d1 != NO_DST && *d2 != NO_DST {
            return Some((TOp::VCast2Id { m1: *f1, pc1: *pc1, pc2: *pc2, d1: *d1, d2: *d2, a: *a }, 2));
        }
    }
    // Bit-reinterpreting vector cast: the value is passed through
    // unchanged (`vec_cast` returns `V(va.v(from))` for these ops), so
    // the generic cast dispatch is skipped.
    if let [TOp::VCast { op: CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr, from, to, pc, dst, a }, ..] =
        w
    {
        if !to.scalar {
            return Some((TOp::VCastId { m: *from, pc: *pc, dst: *dst, a: *a }, 1));
        }
    }
    None
}

/// Full-register shape: every storage lane of the YMM register is a
/// live element at its full logical width. Hardened code is almost
/// entirely full-register (§III widens scalars to whole YMM registers),
/// which is what lets kernels run without per-lane masking.
fn full_register(m: &VMeta) -> bool {
    !m.scalar && m.lanes as usize == m.width.capacity() && u32::from(m.bits) == m.width.bits()
}

/// Kernel for a full-register binary op, if the table has one.
/// Integer division stays per-lane (it traps); 8-bit multiplies and
/// sub-32-bit shifts/min/max have no kernel either.
fn bin_kernel(op: BinOp, m: &VMeta) -> Option<BinKernel> {
    use BinKernel as K;
    use LaneWidth as W;
    if !full_register(m) {
        return None;
    }
    if m.float {
        let k = match (op, m.width) {
            (BinOp::FAdd, W::B32) => K::FAdd32,
            (BinOp::FSub, W::B32) => K::FSub32,
            (BinOp::FMul, W::B32) => K::FMul32,
            (BinOp::FDiv, W::B32) => K::FDiv32,
            (BinOp::FMin, W::B32) => K::FMin32,
            (BinOp::FMax, W::B32) => K::FMax32,
            (BinOp::FAdd, W::B64) => K::FAdd64,
            (BinOp::FSub, W::B64) => K::FSub64,
            (BinOp::FMul, W::B64) => K::FMul64,
            (BinOp::FDiv, W::B64) => K::FDiv64,
            (BinOp::FMin, W::B64) => K::FMin64,
            (BinOp::FMax, W::B64) => K::FMax64,
            _ => return None,
        };
        return Some(k);
    }
    let k = match (op, m.width) {
        (BinOp::And, _) => K::And,
        (BinOp::Or, _) => K::Or,
        (BinOp::Xor, _) => K::Xor,
        (BinOp::Add, W::B8) => K::Add8,
        (BinOp::Add, W::B16) => K::Add16,
        (BinOp::Add, W::B32) => K::Add32,
        (BinOp::Add, W::B64) => K::Add64,
        (BinOp::Sub, W::B8) => K::Sub8,
        (BinOp::Sub, W::B16) => K::Sub16,
        (BinOp::Sub, W::B32) => K::Sub32,
        (BinOp::Sub, W::B64) => K::Sub64,
        (BinOp::Mul, W::B16) => K::Mul16,
        (BinOp::Mul, W::B32) => K::Mul32,
        (BinOp::Mul, W::B64) => K::Mul64,
        (BinOp::Shl, W::B32) => K::Shl32,
        (BinOp::Shl, W::B64) => K::Shl64,
        (BinOp::LShr, W::B32) => K::Lshr32,
        (BinOp::LShr, W::B64) => K::Lshr64,
        (BinOp::AShr, W::B32) => K::AShr32,
        (BinOp::AShr, W::B64) => K::AShr64,
        (BinOp::UMin, W::B32) => K::UMin32,
        (BinOp::UMax, W::B32) => K::UMax32,
        (BinOp::SMin, W::B32) => K::SMin32,
        (BinOp::SMax, W::B32) => K::SMax32,
        (BinOp::UMin, W::B64) => K::UMin64,
        (BinOp::UMax, W::B64) => K::UMax64,
        (BinOp::SMin, W::B64) => K::SMin64,
        (BinOp::SMax, W::B64) => K::SMax64,
        _ => return None,
    };
    Some(k)
}

/// Kernel for a full-register compare, if the table has one.
fn cmp_kernel(pred: CmpPred, m: &VMeta) -> Option<BinKernel> {
    use BinKernel as K;
    use LaneWidth as W;
    if !full_register(m) {
        return None;
    }
    if m.float {
        let k = match (pred, m.width) {
            (CmpPred::FOeq, W::B32) => K::FOeq32,
            (CmpPred::FOne, W::B32) => K::FOne32,
            (CmpPred::FOlt, W::B32) => K::FOlt32,
            (CmpPred::FOle, W::B32) => K::FOle32,
            (CmpPred::FOgt, W::B32) => K::FOgt32,
            (CmpPred::FOge, W::B32) => K::FOge32,
            (CmpPred::FOeq, W::B64) => K::FOeq64,
            (CmpPred::FOne, W::B64) => K::FOne64,
            (CmpPred::FOlt, W::B64) => K::FOlt64,
            (CmpPred::FOle, W::B64) => K::FOle64,
            (CmpPred::FOgt, W::B64) => K::FOgt64,
            (CmpPred::FOge, W::B64) => K::FOge64,
            _ => return None,
        };
        return Some(k);
    }
    let k = match (pred, m.width) {
        (CmpPred::Eq, W::B8) => K::Eq8,
        (CmpPred::Ne, W::B8) => K::Ne8,
        (CmpPred::Eq, W::B16) => K::Eq16,
        (CmpPred::Ne, W::B16) => K::Ne16,
        (CmpPred::Eq, W::B32) => K::Eq32,
        (CmpPred::Ne, W::B32) => K::Ne32,
        (CmpPred::Ult, W::B32) => K::Ult32,
        (CmpPred::Ule, W::B32) => K::Ule32,
        (CmpPred::Ugt, W::B32) => K::Ugt32,
        (CmpPred::Uge, W::B32) => K::Uge32,
        (CmpPred::Slt, W::B32) => K::Slt32,
        (CmpPred::Sle, W::B32) => K::Sle32,
        (CmpPred::Sgt, W::B32) => K::Sgt32,
        (CmpPred::Sge, W::B32) => K::Sge32,
        (CmpPred::Eq, W::B64) => K::Eq64,
        (CmpPred::Ne, W::B64) => K::Ne64,
        (CmpPred::Ult, W::B64) => K::Ult64,
        (CmpPred::Ule, W::B64) => K::Ule64,
        (CmpPred::Ugt, W::B64) => K::Ugt64,
        (CmpPred::Uge, W::B64) => K::Uge64,
        (CmpPred::Slt, W::B64) => K::Slt64,
        (CmpPred::Sle, W::B64) => K::Sle64,
        (CmpPred::Sgt, W::B64) => K::Sgt64,
        (CmpPred::Sge, W::B64) => K::Sge64,
        _ => return None,
    };
    Some(k)
}

/// One-lane-rotate shuffle mask (`mask[i] == (i+1) % lanes`) over a
/// full register — the Figure-8 check's permutation.
fn rot_mask(mask: &[u8], m: &VMeta) -> Option<UnKernel> {
    if !full_register(m) || mask.len() != m.lanes as usize {
        return None;
    }
    let lanes = m.lanes as usize;
    if !mask.iter().enumerate().all(|(i, &s)| s as usize == (i + 1) % lanes) {
        return None;
    }
    Some(match m.width {
        LaneWidth::B8 => UnKernel::Rot8,
        LaneWidth::B16 => UnKernel::Rot16,
        LaneWidth::B32 => UnKernel::Rot32,
        LaneWidth::B64 => UnKernel::Rot64,
    })
}

/// Compile one lowered instruction into a trace op, or `None` when it
/// cuts the trace (calls, builtins, atomics, gather/scatter, fences).
fn compile(inst: &LInst) -> Option<TOp> {
    let pc = Pc::of(inst.class);
    Some(match &inst.kind {
        LKind::Bin { op, m, dst, a, b } if m.scalar => {
            TOp::SBin { op: *op, m: *m, pc, dst: *dst, a: *a, b: *b }
        }
        LKind::Bin { op, m, dst, a, b } => match bin_kernel(*op, m) {
            Some(k) => TOp::VBinK { k, m: *m, pc, dst: *dst, a: *a, b: *b },
            None => TOp::VBinL { op: *op, m: *m, pc, dst: *dst, a: *a, b: *b },
        },
        LKind::Cmp { pred, m, dst, a, b, fused } if m.scalar => {
            if *fused {
                TOp::SCmpFused { m: *m, pred: *pred, dst: *dst, a: *a, b: *b }
            } else {
                TOp::SCmp { m: *m, pred: *pred, pc, dst: *dst, a: *a, b: *b }
            }
        }
        LKind::Cmp { pred, m, dst, a, b, .. } => match cmp_kernel(*pred, m) {
            Some(k) => TOp::VCmpK { k, m: *m, pc, dst: *dst, a: *a, b: *b },
            None => TOp::VCmpL { pred: *pred, m: *m, pc, dst: *dst, a: *a, b: *b },
        },
        LKind::Cast { op, from, to, dst, a } => {
            if from.scalar && to.scalar {
                TOp::SCast { op: *op, from: *from, to: *to, pc, dst: *dst, a: *a }
            } else {
                TOp::VCast { op: *op, from: *from, to: *to, pc, dst: *dst, a: *a }
            }
        }
        LKind::Select { m, cond_scalar, dst, cond, a, b } => {
            TOp::Sel { m: *m, cond_scalar: *cond_scalar, pc, dst: *dst, cond: *cond, a: *a, b: *b }
        }
        LKind::Gep { dst, base, index, scale } => {
            TOp::Gep { pc, dst: *dst, base: *base, index: *index, scale: *scale }
        }
        LKind::Load { m, dst, addr } => TOp::Load { m: *m, pc, dst: *dst, addr: *addr },
        LKind::Store { m, val, addr } => TOp::Store { m: *m, pc, val: *val, addr: *addr },
        LKind::Alloca { dst, elem_bytes, count } => {
            TOp::Alloca { pc, dst: *dst, elem_bytes: *elem_bytes, count: *count }
        }
        LKind::Extract { m, dst, vec, idx } => TOp::Extract { m: *m, pc, dst: *dst, vec: *vec, idx: *idx },
        LKind::Insert { m, dst, vec, val, idx } => {
            TOp::Insert { m: *m, pc, dst: *dst, vec: *vec, val: *val, idx: *idx }
        }
        LKind::Shuffle { m, dst, a, mask } => match rot_mask(mask, m) {
            Some(k) => TOp::ShufRot { k, m: *m, pc, dst: *dst, a: *a },
            None => TOp::Shuf { m: *m, pc, dst: *dst, a: *a, mask: mask.clone().into_boxed_slice() },
        },
        LKind::Splat { m, dst, val } => {
            TOp::Splat { m: *m, full: full_register(m), pc, dst: *dst, val: *val }
        }
        LKind::Ptest { m, dst, mask } => {
            TOp::Ptest { m: *m, full: full_register(m), pc, dst: *dst, mask: *mask }
        }
        LKind::Gather { m, dst, addrs } => TOp::Gather { m: *m, pc, dst: *dst, addrs: *addrs },
        LKind::Scatter { m, val, addrs } => TOp::Scatter { m: *m, pc, val: *val, addrs: *addrs },
        LKind::CallF { .. }
        | LKind::CallB { .. }
        | LKind::AtomicRmw { .. }
        | LKind::CmpXchg { .. }
        | LKind::Fence => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::Program;
    use elzar_avx::Ymm;
    use elzar_ir::builder::{c64, FuncBuilder};
    use elzar_ir::{Builtin, Module, Ty};
    use elzar_rng::DetRng;

    #[test]
    fn straight_line_code_forms_one_trace_ending_at_ret() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let x = b.add(c64(40), c64(2));
        let y = b.mul(x, c64(3));
        b.ret(y);
        m.add_func(b.finish());
        let p = Program::lower(&m);
        let tr = &p.traces[0][0];
        // Two ALU ops, no terminator (Ret cuts), both write slots.
        assert_eq!(tr.ops.len(), 2);
        assert_eq!(tr.writes, 2);
        assert!(matches!(tr.ops[0], TOp::SBin { op: BinOp::Add, .. }));
        assert!(matches!(tr.ops[1], TOp::SBin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn builtins_cut_and_backedges_stay_out() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let n = b.call_builtin(Builtin::InputLen, vec![], Ty::I64).unwrap();
        b.counted_loop(c64(0), n, |b, i| {
            let _ = b.add(i, c64(1));
        });
        b.ret(c64(0));
        m.add_func(b.finish());
        let p = Program::lower(&m);
        // Entry block starts with a builtin: empty trace.
        assert!(p.traces[0][0].ops.is_empty());
        // Every trace is acyclic: jump targets are visited at most once.
        for tr in &p.traces[0] {
            let mut seen = vec![];
            for op in &tr.ops {
                if let TOp::Jump { target } = op {
                    assert!(!seen.contains(target), "trace revisits block {target}");
                    seen.push(*target);
                }
            }
        }
    }

    #[test]
    fn conditional_terminators_end_the_trace() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let c = b.icmp(elzar_ir::CmpPred::Ult, c64(1), c64(2));
        let t = b.block("t");
        let f = b.block("f");
        b.cond_br(c, t, f);
        b.switch_to(t);
        b.ret(c64(1));
        b.switch_to(f);
        b.ret(c64(0));
        m.add_func(b.finish());
        let p = Program::lower(&m);
        let tr = &p.traces[0][0];
        assert!(matches!(tr.ops.last(), Some(TOp::CondBr { .. })));
        // The fused compare carries no retire cost.
        assert!(matches!(tr.ops[0], TOp::SCmpFused { .. }));
    }

    #[test]
    fn full_register_vector_ops_pick_kernels() {
        let m4 = VMeta::new(false, false, 64, LaneWidth::B64, 4);
        assert!(full_register(&m4));
        assert_eq!(bin_kernel(BinOp::Add, &m4), Some(BinKernel::Add64));
        assert_eq!(bin_kernel(BinOp::UDiv, &m4), None, "div traps: per-lane");
        assert_eq!(cmp_kernel(CmpPred::Slt, &m4), Some(BinKernel::Slt64));
        assert_eq!(rot_mask(&[1, 2, 3, 0], &m4), Some(UnKernel::Rot64));
        assert_eq!(rot_mask(&[0, 1, 2, 3], &m4), None);
        // Esoteric width: i9 lives in 16-bit lanes but is not full-width.
        let m9 = VMeta::new(false, false, 9, LaneWidth::B16, 16);
        assert!(!full_register(&m9));
        assert_eq!(bin_kernel(BinOp::Add, &m9), None);
        let f8 = VMeta::new(false, true, 32, LaneWidth::B32, 8);
        assert_eq!(bin_kernel(BinOp::FMul, &f8), Some(BinKernel::FMul32));
        assert_eq!(cmp_kernel(CmpPred::FOlt, &f8), Some(BinKernel::FOlt32));
    }

    /// Inputs for kernels of lane width `w`: splats and mixes of lane
    /// specials (zero, all-ones, sign boundaries, shift amounts at and
    /// past the lane width, the IEEE specials of the width's float type)
    /// plus seeded random registers.
    fn kernel_inputs(w: LaneWidth, rng: &mut DetRng) -> Vec<Ymm> {
        let (b, n) = (u64::from(w.bits()), w.capacity());
        let sign = 1u64 << (b - 1);
        let mut lanes = vec![0, 1, w.ones(), sign, sign - 1, b - 1, b, b + 1, 2 * b + 1];
        match w {
            LaneWidth::B32 => lanes.extend(
                [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, 1.5, -2.25]
                    .map(|x| u64::from(x.to_bits())),
            ),
            LaneWidth::B64 => lanes.extend(
                [0.0f64, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1.5, -2.25]
                    .map(f64::to_bits),
            ),
            LaneWidth::B8 | LaneWidth::B16 => {}
        }
        let mut regs: Vec<Ymm> = lanes.iter().map(|&v| Ymm::splat(w, n, v)).collect();
        for offset in [0, 3] {
            let mut y = Ymm::ZERO;
            for i in 0..n {
                y.set_lane(w, i, lanes[(i + offset) % lanes.len()]);
            }
            regs.push(y);
        }
        regs.extend((0..12).map(|_| Ymm::from_limbs([0; 4].map(|_: u64| rng.next_u64()))));
        regs
    }

    fn is_nan(m: &VMeta, x: u64) -> bool {
        if m.bits == 32 {
            f32::from_bits(x as u32).is_nan()
        } else {
            f64::from_bits(x).is_nan()
        }
    }

    #[test]
    fn every_kernel_matches_the_interpreter_lane_path() {
        use crate::machine::{scalar_bin, scalar_cmp};
        use elzar_engine::kernels::{BIN, UN};
        use BinOp as B;
        use CmpPred as P;
        #[rustfmt::skip]
        let ops = [
            B::Add, B::Sub, B::Mul, B::UDiv, B::SDiv, B::URem, B::SRem, B::And, B::Or, B::Xor, B::Shl, B::LShr,
            B::AShr, B::FAdd, B::FSub, B::FMul, B::FDiv, B::UMin, B::UMax, B::SMin, B::SMax, B::FMin, B::FMax,
        ];
        #[rustfmt::skip]
        let preds = [
            P::Eq, P::Ne, P::Ult, P::Ule, P::Ugt, P::Uge, P::Slt, P::Sle, P::Sgt, P::Sge,
            P::FOeq, P::FOne, P::FOlt, P::FOle, P::FOgt, P::FOge,
        ];
        let (mut bin_hit, mut un_hit) = ([false; BinKernel::COUNT], [false; UnKernel::COUNT]);
        let mut rng = DetRng::seed_from_u64(0x7E57);
        for w in [LaneWidth::B8, LaneWidth::B16, LaneWidth::B32, LaneWidth::B64] {
            let n = w.capacity();
            let regs = kernel_inputs(w, &mut rng);
            let pairs = || regs.iter().flat_map(|a| regs.iter().map(move |b| (a, b)));
            for float in [false, true] {
                let m = VMeta::new(false, float, w.bits() as u8, w, n as u8);
                for op in ops {
                    let Some(k) = bin_kernel(op, &m) else { continue };
                    bin_hit[k as usize] = true;
                    for (a, b) in pairs() {
                        let mut got = Ymm::from_limbs(BIN[k as usize](a.limbs_ref(), b.limbs_ref()));
                        let mut want = Ymm::ZERO;
                        for i in 0..n {
                            let lane = scalar_bin(op, &m, a.lane(w, i), b.lane(w, i));
                            want.set_lane(w, i, lane.expect("kernel ops never trap"));
                            // Rust leaves the payload of a NaN computed
                            // from two NaN operands unspecified: such
                            // lanes compare only as "is NaN".
                            if float && [a, b, &got, &want].iter().all(|y| is_nan(&m, y.lane(w, i))) {
                                got.set_lane(w, i, w.ones());
                                want.set_lane(w, i, w.ones());
                            }
                        }
                        assert_eq!(got, want, "{k:?} for {op:?}/{w:?}/float={float} on {a} {b}");
                    }
                }
                for pred in preds {
                    let Some(k) = cmp_kernel(pred, &m) else { continue };
                    bin_hit[k as usize] = true;
                    for (a, b) in pairs() {
                        let want = a.cmp_mask(b, w, n, |x, y| scalar_cmp(pred, &m, x, y));
                        let got = Ymm::from_limbs(BIN[k as usize](a.limbs_ref(), b.limbs_ref()));
                        assert_eq!(got, want, "{k:?} for {pred:?}/{w:?}/float={float} on {a} {b}");
                    }
                }
            }
            // The reference `Shuffle` handler with the Figure-8 mask.
            let mask: Vec<u8> = (0..n).map(|i| ((i + 1) % n) as u8).collect();
            let k = rot_mask(&mask, &VMeta::new(false, false, w.bits() as u8, w, n as u8))
                .expect("rotate kernel");
            un_hit[k as usize] = true;
            for a in &regs {
                assert_eq!(
                    Ymm::from_limbs(UN[k as usize](a.limbs_ref())),
                    a.shuffle(w, &mask),
                    "{k:?} on {a}"
                );
            }
        }
        let dead: Vec<_> = BinKernel::ALL.into_iter().filter(|&k| !bin_hit[k as usize]).collect();
        assert!(dead.is_empty(), "no selector reaches {dead:?}");
        let dead: Vec<_> = UnKernel::ALL.into_iter().filter(|&k| !un_hit[k as usize]).collect();
        assert!(dead.is_empty(), "no selector reaches {dead:?}");
    }
}
