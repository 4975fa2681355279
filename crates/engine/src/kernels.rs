//! The table of 256-bit register kernels over `[u64; 4]` limbs.
//!
//! Kernels implement the reference interpreter's per-lane semantics for
//! *full-register* vector shapes only — lane count equals the width's
//! capacity and the logical bit width equals the lane width (or the
//! lanes are floats). That is exactly the shape every ELZAR-hardened
//! value has (scalars are widened to whole YMM registers), so the trace
//! builder can select kernels for the hot TMR ops and leave esoteric
//! shapes (masked sub-width integers, partial registers) to the generic
//! per-lane path.
//!
//! Every kernel is portable Rust. The AVX of the paper is the ISA of the
//! *simulated* machine, whose costs live in `elzar_cpu`; the host's SIMD
//! unit never enters the model, and host intrinsics measured no faster
//! on whole workloads (the trace engine's cost is dispatch, not lane
//! arithmetic).

/// Binary kernel: two 256-bit registers in, one out.
pub type BinFn = fn(&[u64; 4], &[u64; 4]) -> [u64; 4];
/// Unary kernel: one 256-bit register in, one out.
pub type UnFn = fn(&[u64; 4]) -> [u64; 4];

// ---------------------------------------------------------------------------
// Lane helpers (little-endian limbs, same layout as `elzar_avx::Ymm`).
// ---------------------------------------------------------------------------

#[inline(always)]
fn map64(a: &[u64; 4], b: &[u64; 4], f: impl Fn(u64, u64) -> u64) -> [u64; 4] {
    [f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])]
}

#[inline(always)]
fn map32(a: &[u64; 4], b: &[u64; 4], f: impl Fn(u32, u32) -> u32) -> [u64; 4] {
    map64(a, b, |x, y| {
        let lo = u64::from(f(x as u32, y as u32));
        let hi = u64::from(f((x >> 32) as u32, (y >> 32) as u32));
        lo | (hi << 32)
    })
}

#[inline(always)]
fn map16(a: &[u64; 4], b: &[u64; 4], f: impl Fn(u16, u16) -> u16) -> [u64; 4] {
    map64(a, b, |x, y| {
        let mut r = 0u64;
        for k in 0..4 {
            let v = f((x >> (16 * k)) as u16, (y >> (16 * k)) as u16);
            r |= u64::from(v) << (16 * k);
        }
        r
    })
}

#[inline(always)]
fn map8(a: &[u64; 4], b: &[u64; 4], f: impl Fn(u8, u8) -> u8) -> [u64; 4] {
    map64(a, b, |x, y| {
        let mut r = 0u64;
        for k in 0..8 {
            let v = f((x >> (8 * k)) as u8, (y >> (8 * k)) as u8);
            r |= u64::from(v) << (8 * k);
        }
        r
    })
}

#[inline(always)]
fn mapf64(a: &[u64; 4], b: &[u64; 4], f: impl Fn(f64, f64) -> f64) -> [u64; 4] {
    map64(a, b, |x, y| f(f64::from_bits(x), f64::from_bits(y)).to_bits())
}

#[inline(always)]
fn mapf32(a: &[u64; 4], b: &[u64; 4], f: impl Fn(f32, f32) -> f32) -> [u64; 4] {
    map32(a, b, |x, y| f(f32::from_bits(x), f32::from_bits(y)).to_bits())
}

#[inline(always)]
fn m8(t: bool) -> u8 {
    if t {
        u8::MAX
    } else {
        0
    }
}

#[inline(always)]
fn m16(t: bool) -> u16 {
    if t {
        u16::MAX
    } else {
        0
    }
}

#[inline(always)]
fn m32(t: bool) -> u32 {
    if t {
        u32::MAX
    } else {
        0
    }
}

#[inline(always)]
fn m64(t: bool) -> u64 {
    if t {
        u64::MAX
    } else {
        0
    }
}

/// Rotate the whole 256-bit register down by `K` bits (the lane-rotate
/// shuffle of the Figure-8 check, for lane width `K`).
#[inline(always)]
fn rot_bits<const K: u32>(a: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for i in 0..4 {
        out[i] = (a[i] >> K) | (a[(i + 1) & 3] << (64 - K));
    }
    out
}

// ---------------------------------------------------------------------------
// Kernel index enums and the tables. Each kernel is one table row
// `(variant, lane mapper, lane closure)`, so variant order and table
// order are aligned by construction.
// ---------------------------------------------------------------------------

macro_rules! bin_kernels {
    ($(($variant:ident, $map:ident, $f:expr)),+ $(,)?) => {
        /// Index of a binary kernel in [`BIN`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        #[allow(missing_docs)]
        pub enum BinKernel { $($variant),+ }

        impl BinKernel {
            /// Number of binary kernels.
            pub const COUNT: usize = [$(BinKernel::$variant),+].len();
            /// Every kernel index, in table order.
            pub const ALL: [BinKernel; BinKernel::COUNT] = [$(BinKernel::$variant),+];
        }

        /// Binary kernels, indexed by `BinKernel as usize`.
        pub static BIN: [BinFn; BinKernel::COUNT] = [$(|a, b| $map(a, b, $f)),+];
    };
}

macro_rules! un_kernels {
    ($(($variant:ident, $kernel:expr)),+ $(,)?) => {
        /// Index of a unary kernel in [`UN`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        #[allow(missing_docs)]
        pub enum UnKernel { $($variant),+ }

        impl UnKernel {
            /// Number of unary kernels.
            pub const COUNT: usize = [$(UnKernel::$variant),+].len();
            /// Every kernel index, in table order.
            pub const ALL: [UnKernel; UnKernel::COUNT] = [$(UnKernel::$variant),+];
        }

        /// Unary kernels, indexed by `UnKernel as usize`.
        pub static UN: [UnFn; UnKernel::COUNT] = [$($kernel),+];
    };
}

bin_kernels! {
    (And, map64, |x, y| x & y),
    (Or, map64, |x, y| x | y),
    (Xor, map64, |x, y| x ^ y),
    (Add8, map8, u8::wrapping_add),
    (Add16, map16, u16::wrapping_add),
    (Add32, map32, u32::wrapping_add),
    (Add64, map64, u64::wrapping_add),
    (Sub8, map8, u8::wrapping_sub),
    (Sub16, map16, u16::wrapping_sub),
    (Sub32, map32, u32::wrapping_sub),
    (Sub64, map64, u64::wrapping_sub),
    (Mul16, map16, u16::wrapping_mul),
    (Mul32, map32, u32::wrapping_mul),
    (Mul64, map64, u64::wrapping_mul),
    // Shift amounts follow the interpreter: amount modulo the lane width
    // (`wrapping_shl`/`wrapping_shr` mask by the operand width).
    (Shl32, map32, u32::wrapping_shl),
    (Shl64, map64, |x, y| x.wrapping_shl(y as u32)),
    (Lshr32, map32, u32::wrapping_shr),
    (Lshr64, map64, |x, y| x.wrapping_shr(y as u32)),
    (AShr32, map32, |x, y| (x as i32).wrapping_shr(y) as u32),
    (AShr64, map64, |x, y| (x as i64).wrapping_shr(y as u32) as u64),
    (UMin32, map32, |x, y| x.min(y)),
    (UMax32, map32, |x, y| x.max(y)),
    (SMin32, map32, |x, y| (x as i32).min(y as i32) as u32),
    (SMax32, map32, |x, y| (x as i32).max(y as i32) as u32),
    (UMin64, map64, |x, y| x.min(y)),
    (UMax64, map64, |x, y| x.max(y)),
    (SMin64, map64, |x, y| (x as i64).min(y as i64) as u64),
    (SMax64, map64, |x, y| (x as i64).max(y as i64) as u64),
    (FAdd32, mapf32, |x, y| x + y),
    (FSub32, mapf32, |x, y| x - y),
    (FMul32, mapf32, |x, y| x * y),
    (FDiv32, mapf32, |x, y| x / y),
    (FMin32, mapf32, f32::min),
    (FMax32, mapf32, f32::max),
    (FAdd64, mapf64, |x, y| x + y),
    (FSub64, mapf64, |x, y| x - y),
    (FMul64, mapf64, |x, y| x * y),
    (FDiv64, mapf64, |x, y| x / y),
    (FMin64, mapf64, f64::min),
    (FMax64, mapf64, f64::max),
    (Eq8, map8, |x, y| m8(x == y)),
    (Ne8, map8, |x, y| m8(x != y)),
    (Eq16, map16, |x, y| m16(x == y)),
    (Ne16, map16, |x, y| m16(x != y)),
    (Eq32, map32, |x, y| m32(x == y)),
    (Ne32, map32, |x, y| m32(x != y)),
    (Ult32, map32, |x, y| m32(x < y)),
    (Ule32, map32, |x, y| m32(x <= y)),
    (Ugt32, map32, |x, y| m32(x > y)),
    (Uge32, map32, |x, y| m32(x >= y)),
    (Slt32, map32, |x, y| m32((x as i32) < (y as i32))),
    (Sle32, map32, |x, y| m32((x as i32) <= (y as i32))),
    (Sgt32, map32, |x, y| m32((x as i32) > (y as i32))),
    (Sge32, map32, |x, y| m32((x as i32) >= (y as i32))),
    (Eq64, map64, |x, y| m64(x == y)),
    (Ne64, map64, |x, y| m64(x != y)),
    (Ult64, map64, |x, y| m64(x < y)),
    (Ule64, map64, |x, y| m64(x <= y)),
    (Ugt64, map64, |x, y| m64(x > y)),
    (Uge64, map64, |x, y| m64(x >= y)),
    (Slt64, map64, |x, y| m64((x as i64) < (y as i64))),
    (Sle64, map64, |x, y| m64((x as i64) <= (y as i64))),
    (Sgt64, map64, |x, y| m64((x as i64) > (y as i64))),
    (Sge64, map64, |x, y| m64((x as i64) >= (y as i64))),
    // Float compares follow the interpreter: f32 lanes are promoted to f64
    // before the (ordered) predicate — exact and order-preserving, so the
    // result equals a direct f32 compare.
    (FOeq32, map32, |x, y| m32(f64::from(f32::from_bits(x)) == f64::from(f32::from_bits(y)))),
    (FOne32, map32, |x, y| {
        let (x, y) = (f32::from_bits(x), f32::from_bits(y));
        m32(x != y && !x.is_nan() && !y.is_nan())
    }),
    (FOlt32, map32, |x, y| m32(f32::from_bits(x) < f32::from_bits(y))),
    (FOle32, map32, |x, y| m32(f32::from_bits(x) <= f32::from_bits(y))),
    (FOgt32, map32, |x, y| m32(f32::from_bits(x) > f32::from_bits(y))),
    (FOge32, map32, |x, y| m32(f32::from_bits(x) >= f32::from_bits(y))),
    (FOeq64, map64, |x, y| m64(f64::from_bits(x) == f64::from_bits(y))),
    (FOne64, map64, |x, y| {
        let (x, y) = (f64::from_bits(x), f64::from_bits(y));
        m64(x != y && !x.is_nan() && !y.is_nan())
    }),
    (FOlt64, map64, |x, y| m64(f64::from_bits(x) < f64::from_bits(y))),
    (FOle64, map64, |x, y| m64(f64::from_bits(x) <= f64::from_bits(y))),
    (FOgt64, map64, |x, y| m64(f64::from_bits(x) > f64::from_bits(y))),
    (FOge64, map64, |x, y| m64(f64::from_bits(x) >= f64::from_bits(y))),
}

un_kernels! {
    (Rot8, rot_bits::<8>),
    (Rot16, rot_bits::<16>),
    (Rot32, rot_bits::<32>),
    (Rot64, |a| [a[1], a[2], a[3], a[0]]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use elzar_avx::{LaneWidth, Ymm};
    use elzar_rng::DetRng;

    /// Each rotate kernel with the lane width it rotates.
    const ROTS: [(UnKernel, LaneWidth); UnKernel::COUNT] = [
        (UnKernel::Rot8, LaneWidth::B8),
        (UnKernel::Rot16, LaneWidth::B16),
        (UnKernel::Rot32, LaneWidth::B32),
        (UnKernel::Rot64, LaneWidth::B64),
    ];

    fn rand_reg(rng: &mut DetRng) -> [u64; 4] {
        // Mix raw randomness with degenerate patterns (equal lanes,
        // all-ones, zeros, sign boundaries) so compares and shifts see
        // their edge cases.
        match rng.below(5) {
            0 => [0; 4],
            1 => [u64::MAX; 4],
            2 => {
                let x = rng.next_u64();
                [x; 4]
            }
            3 => {
                let x = rng.next_u64();
                [x, x ^ 1, x, x.wrapping_neg()]
            }
            _ => [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()],
        }
    }

    /// Lane width of a binary kernel (the bitwise ops are width-agnostic).
    fn width(k: BinKernel) -> LaneWidth {
        use BinKernel::*;
        match k {
            Add8 | Sub8 | Eq8 | Ne8 => LaneWidth::B8,
            Add16 | Sub16 | Mul16 | Eq16 | Ne16 => LaneWidth::B16,
            Add32 | Sub32 | Mul32 | Shl32 | Lshr32 | AShr32 | UMin32 | UMax32 | SMin32 | SMax32 | FAdd32
            | FSub32 | FMul32 | FDiv32 | FMin32 | FMax32 | Eq32 | Ne32 | Ult32 | Ule32 | Ugt32 | Uge32
            | Slt32 | Sle32 | Sgt32 | Sge32 | FOeq32 | FOne32 | FOlt32 | FOle32 | FOgt32 | FOge32 => {
                LaneWidth::B32
            }
            _ => LaneWidth::B64,
        }
    }

    /// A binary kernel's spec in `elzar_avx::Ymm` lane ops, written
    /// independently of the kernel bodies.
    fn spec(k: BinKernel, a: &Ymm, b: &Ymm) -> Ymm {
        use BinKernel::*;
        let w = width(k);
        let bits = u64::from(w.bits());
        let map = |f: &dyn Fn(u64, u64) -> u64| a.map2(b, w, w.capacity(), |x, y| f(x, y) & w.ones());
        let cmp = |f: &dyn Fn(u64, u64) -> bool| a.cmp_mask(b, w, w.capacity(), f);
        let sx = |x: u64| ((x << (64 - bits)) as i64) >> (64 - bits);
        // Float compares see f32 lanes promoted to f64 (exact).
        let fl = |x: u64| if bits == 32 { f64::from(f32::from_bits(x as u32)) } else { f64::from_bits(x) };
        macro_rules! fop {
            (|$x:ident, $y:ident| $e:expr) => {
                if bits == 32 {
                    map(&|x, y| {
                        let ($x, $y) = (f32::from_bits(x as u32), f32::from_bits(y as u32));
                        u64::from(($e).to_bits())
                    })
                } else {
                    map(&|x, y| {
                        let ($x, $y) = (f64::from_bits(x), f64::from_bits(y));
                        ($e).to_bits()
                    })
                }
            };
        }
        match k {
            And => map(&|x, y| x & y),
            Or => map(&|x, y| x | y),
            Xor => map(&|x, y| x ^ y),
            Add8 | Add16 | Add32 | Add64 => map(&u64::wrapping_add),
            Sub8 | Sub16 | Sub32 | Sub64 => map(&u64::wrapping_sub),
            Mul16 | Mul32 | Mul64 => map(&u64::wrapping_mul),
            Shl32 | Shl64 => map(&|x, y| x << (y % bits)),
            Lshr32 | Lshr64 => map(&|x, y| x >> (y % bits)),
            AShr32 | AShr64 => map(&|x, y| (sx(x) >> (y % bits)) as u64),
            UMin32 | UMin64 => map(&|x, y| x.min(y)),
            UMax32 | UMax64 => map(&|x, y| x.max(y)),
            SMin32 | SMin64 => map(&|x, y| if sx(x) <= sx(y) { x } else { y }),
            SMax32 | SMax64 => map(&|x, y| if sx(x) >= sx(y) { x } else { y }),
            FAdd32 | FAdd64 => fop!(|x, y| x + y),
            FSub32 | FSub64 => fop!(|x, y| x - y),
            FMul32 | FMul64 => fop!(|x, y| x * y),
            FDiv32 | FDiv64 => fop!(|x, y| x / y),
            FMin32 | FMin64 => fop!(|x, y| x.min(y)),
            FMax32 | FMax64 => fop!(|x, y| x.max(y)),
            Eq8 | Eq16 | Eq32 | Eq64 => cmp(&|x, y| x == y),
            Ne8 | Ne16 | Ne32 | Ne64 => cmp(&|x, y| x != y),
            Ult32 | Ult64 => cmp(&|x, y| x < y),
            Ule32 | Ule64 => cmp(&|x, y| x <= y),
            Ugt32 | Ugt64 => cmp(&|x, y| x > y),
            Uge32 | Uge64 => cmp(&|x, y| x >= y),
            Slt32 | Slt64 => cmp(&|x, y| sx(x) < sx(y)),
            Sle32 | Sle64 => cmp(&|x, y| sx(x) <= sx(y)),
            Sgt32 | Sgt64 => cmp(&|x, y| sx(x) > sx(y)),
            Sge32 | Sge64 => cmp(&|x, y| sx(x) >= sx(y)),
            FOeq32 | FOeq64 => cmp(&|x, y| fl(x) == fl(y)),
            FOne32 | FOne64 => cmp(&|x, y| fl(x) != fl(y) && !fl(x).is_nan() && !fl(y).is_nan()),
            FOlt32 | FOlt64 => cmp(&|x, y| fl(x) < fl(y)),
            FOle32 | FOle64 => cmp(&|x, y| fl(x) <= fl(y)),
            FOgt32 | FOgt64 => cmp(&|x, y| fl(x) > fl(y)),
            FOge32 | FOge64 => cmp(&|x, y| fl(x) >= fl(y)),
        }
    }

    /// Rust leaves the payload of a NaN computed from two NaN operands
    /// unspecified (LLVM may commute a float op one way in a kernel and
    /// the other way in its spec), so float-arithmetic lanes whose
    /// operands are both NaN compare only as "is NaN".
    fn erase_nan_pairs(k: BinKernel, a: &Ymm, b: &Ymm, mut r: Ymm) -> Ymm {
        use BinKernel::*;
        let w = width(k);
        let nan = |x: u64| {
            if w == LaneWidth::B32 {
                f32::from_bits(x as u32).is_nan()
            } else {
                f64::from_bits(x).is_nan()
            }
        };
        if matches!(
            k,
            FAdd32
                | FSub32
                | FMul32
                | FDiv32
                | FMin32
                | FMax32
                | FAdd64
                | FSub64
                | FMul64
                | FDiv64
                | FMin64
                | FMax64
        ) {
            for i in 0..w.capacity() {
                if nan(a.lane(w, i)) && nan(b.lane(w, i)) && nan(r.lane(w, i)) {
                    r.set_lane(w, i, w.ones());
                }
            }
        }
        r
    }

    /// Every kernel of the table against its `Ymm` spec on `a`, `b`.
    fn check_all(a: &[u64; 4], b: &[u64; 4]) {
        let (ya, yb) = (Ymm::from_limbs(*a), Ymm::from_limbs(*b));
        for k in BinKernel::ALL {
            let got = erase_nan_pairs(k, &ya, &yb, Ymm::from_limbs(BIN[k as usize](a, b)));
            let want = erase_nan_pairs(k, &ya, &yb, spec(k, &ya, &yb));
            assert_eq!(got, want, "kernel {k:?} on {a:x?} {b:x?}");
        }
        for (k, w) in ROTS {
            let got = Ymm::from_limbs(UN[k as usize](a));
            assert_eq!(got, ya.rotate_lanes(w, w.capacity()), "kernel {k:?} on {a:x?}");
        }
    }

    #[test]
    fn simd_table_matches_scalar_table() {
        // (Named for the deleted AVX2 twin of the table.) Every binary
        // and unary kernel against its spec on random registers.
        assert_eq!(ROTS.map(|(k, _)| k), UnKernel::ALL);
        let mut rng = DetRng::seed_from_u64(0xE17A);
        for _ in 0..400 {
            check_all(&rand_reg(&mut rng), &rand_reg(&mut rng));
        }
    }

    #[test]
    fn scalar_kernels_match_ymm_spec() {
        // Hand-written lane ops for a sample of kernels, independent of
        // `spec` above.
        type Case = (BinKernel, LaneWidth, fn(u64, u64) -> u64);
        let mut rng = DetRng::seed_from_u64(0x5EED);
        for _ in 0..200 {
            let (al, bl) = (rand_reg(&mut rng), rand_reg(&mut rng));
            let (a, b) = (Ymm::from_limbs(al), Ymm::from_limbs(bl));
            let cases: [Case; 8] = [
                (BinKernel::Add64, LaneWidth::B64, u64::wrapping_add),
                (BinKernel::Xor, LaneWidth::B64, |x, y| x ^ y),
                (BinKernel::Mul32, LaneWidth::B32, |x, y| u64::from((x as u32).wrapping_mul(y as u32))),
                (BinKernel::Sub16, LaneWidth::B16, |x, y| u64::from((x as u16).wrapping_sub(y as u16))),
                (BinKernel::Add8, LaneWidth::B8, |x, y| u64::from((x as u8).wrapping_add(y as u8))),
                (BinKernel::Shl64, LaneWidth::B64, |x, y| x.wrapping_shl((y % 64) as u32)),
                (BinKernel::AShr32, LaneWidth::B32, |x, y| ((x as u32 as i32) >> (y % 32)) as u32 as u64),
                (BinKernel::FMul64, LaneWidth::B64, |x, y| (f64::from_bits(x) * f64::from_bits(y)).to_bits()),
            ];
            for (k, w, f) in cases {
                let got = Ymm::from_limbs(BIN[k as usize](&al, &bl));
                let want = a.map2(&b, w, w.capacity(), f);
                assert_eq!(got, want, "kernel {k:?}");
            }
            // Compares produce canonical AVX masks.
            let got = Ymm::from_limbs(BIN[BinKernel::Ult64 as usize](&al, &bl));
            let want = a.cmp_mask(&b, LaneWidth::B64, 4, |x, y| x < y);
            assert_eq!(got, want, "Ult64 mask");
            let got = Ymm::from_limbs(BIN[BinKernel::Sgt32 as usize](&al, &bl));
            let want = a.cmp_mask(&b, LaneWidth::B32, 8, |x, y| (x as u32 as i32) > (y as u32 as i32));
            assert_eq!(got, want, "Sgt32 mask");
            // Rotates are the Figure-8 shuffle at full register width.
            for (k, w) in ROTS {
                let got = Ymm::from_limbs(UN[k as usize](&al));
                let want = a.rotate_lanes(w, w.capacity());
                assert_eq!(got, want, "kernel {k:?}");
            }
        }
    }

    #[test]
    fn float_edge_cases_agree_across_tables() {
        // (Named for the deleted AVX2 twin of the table.) Every kernel
        // against its spec on splatted IEEE specials, as f64 lanes and
        // as pairs of f32 lanes.
        let f64s = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1.5, -2.25];
        let f32s = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, 1.5, -2.25];
        let lanes: Vec<u64> = f64s
            .iter()
            .map(|x| x.to_bits())
            .chain(f32s.iter().map(|x| u64::from(x.to_bits()) * 0x1_0000_0001))
            .collect();
        for &x in &lanes {
            for &y in &lanes {
                check_all(&[x; 4], &[y; 4]);
            }
        }
    }
}
