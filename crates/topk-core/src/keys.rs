//! Order-preserving radix key mappings and digit extraction.
//!
//! Radix selection needs keys whose *unsigned bit order* matches their
//! numeric order. IEEE-754 floats don't have that property (negative
//! floats compare reversed, and the sign bit puts them above the
//! positives), so radix top-K implementations apply the classic
//! monotone transform first:
//!
//! * positive floats: set the sign bit;
//! * negative floats: flip all bits.
//!
//! The transform is a bijection, so candidates can be carried through
//! passes in either representation; we convert on load and invert only
//! when materialising outputs.
//!
//! Both 32-bit keys (`f32`/`u32`/`i32` → `u32` bits, 3 passes of
//! 11-bit digits) and 64-bit keys (`f64`/`u64`/`i64` → `u64` bits, 6
//! passes) are supported, via the [`OrderedBits`] width abstraction —
//! mirroring RAFT's dtype-templated `select_k`.

use gpu_sim::memory::DeviceScalar;

/// An unsigned bit-string type that radix passes can be run over, and
/// that device buffers can hold.
pub trait OrderedBits:
    DeviceScalar + Ord + Eq + Default + std::fmt::Debug + std::hash::Hash
{
    /// Width in bits (32 or 64).
    const BITS: u32;
    /// The all-zero value.
    const ZERO: Self;
    /// The all-ones value (useful as a +∞-like sentinel).
    const MAX: Self;

    /// Logical shift right.
    fn shr(self, n: u32) -> Self;
    /// Widen to `u64` (lossless for both widths).
    fn to_u64(self) -> u64;
    /// Truncating conversion from `u64`.
    fn from_u64(v: u64) -> Self;
}

impl OrderedBits for u32 {
    const BITS: u32 = 32;
    const ZERO: Self = 0;
    const MAX: Self = u32::MAX;

    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        self >> n
    }
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_u64(v: u64) -> Self {
        v as u32
    }
}

impl OrderedBits for u64 {
    const BITS: u32 = 64;
    const ZERO: Self = 0;
    const MAX: Self = u64::MAX;

    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        self >> n
    }
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_u64(v: u64) -> Self {
        v
    }
}

/// A key type usable by the radix top-K algorithms.
///
/// `to_ordered` maps the value to unsigned bits whose order equals the
/// key's total order (for floats: the IEEE-754 total order on non-NaN
/// values, with `-0.0 < +0.0`). `from_ordered` inverts it.
pub trait RadixKey: DeviceScalar + PartialOrd {
    /// The order-preserving bit representation (`u32` or `u64`).
    type Ordered: OrderedBits;

    /// Map to order-preserving bits.
    fn to_ordered(self) -> Self::Ordered;
    /// Inverse of [`RadixKey::to_ordered`].
    fn from_ordered(bits: Self::Ordered) -> Self;
}

impl RadixKey for f32 {
    type Ordered = u32;

    #[inline(always)]
    fn to_ordered(self) -> u32 {
        // Negative: flip every bit; otherwise set the sign bit. As a
        // mask, so scans over keys stay branch-free.
        let b = self.to_bits();
        b ^ (((b as i32 >> 31) as u32) | 0x8000_0000)
    }

    #[inline(always)]
    fn from_ordered(bits: u32) -> f32 {
        let b = if bits & 0x8000_0000 != 0 {
            bits & 0x7fff_ffff
        } else {
            !bits
        };
        f32::from_bits(b)
    }
}

impl RadixKey for u32 {
    type Ordered = u32;

    #[inline(always)]
    fn to_ordered(self) -> u32 {
        self
    }

    #[inline(always)]
    fn from_ordered(bits: u32) -> u32 {
        bits
    }
}

impl RadixKey for i32 {
    type Ordered = u32;

    #[inline(always)]
    fn to_ordered(self) -> u32 {
        (self as u32) ^ 0x8000_0000
    }

    #[inline(always)]
    fn from_ordered(bits: u32) -> i32 {
        (bits ^ 0x8000_0000) as i32
    }
}

impl RadixKey for f64 {
    type Ordered = u64;

    #[inline(always)]
    fn to_ordered(self) -> u64 {
        let b = self.to_bits();
        b ^ (((b as i64 >> 63) as u64) | 0x8000_0000_0000_0000)
    }

    #[inline(always)]
    fn from_ordered(bits: u64) -> f64 {
        let b = if bits & 0x8000_0000_0000_0000 != 0 {
            bits & 0x7fff_ffff_ffff_ffff
        } else {
            !bits
        };
        f64::from_bits(b)
    }
}

impl RadixKey for u64 {
    type Ordered = u64;

    #[inline(always)]
    fn to_ordered(self) -> u64 {
        self
    }

    #[inline(always)]
    fn from_ordered(bits: u64) -> u64 {
        bits
    }
}

impl RadixKey for i64 {
    type Ordered = u64;

    #[inline(always)]
    fn to_ordered(self) -> u64 {
        (self as u64) ^ 0x8000_0000_0000_0000
    }

    #[inline(always)]
    fn from_ordered(bits: u64) -> i64 {
        (bits ^ 0x8000_0000_0000_0000) as i64
    }
}

/// Key width of a 32-bit key (kept for the f32-centric call sites).
pub const KEY_BITS: u32 = 32;

/// Number of radix passes needed for `bits_per_pass`-wide digits over
/// an `O`-wide key: 3 for 32-bit keys with b = 11, 6 for 64-bit.
#[inline]
pub fn num_passes_of<O: OrderedBits>(bits_per_pass: u32) -> u32 {
    O::BITS.div_ceil(bits_per_pass)
}

/// [`num_passes_of`] for 32-bit keys (the paper's configuration).
#[inline]
pub const fn num_passes(bits_per_pass: u32) -> u32 {
    KEY_BITS.div_ceil(bits_per_pass)
}

/// Width of the digit processed in `pass` (0-based, MSD first) for an
/// `O`-wide key. All passes use `bits_per_pass` bits except possibly
/// the last, e.g. 11-bit digits split 32 bits as 11 + 11 + 10.
#[inline]
pub fn digit_width_of<O: OrderedBits>(pass: u32, bits_per_pass: u32) -> u32 {
    let used = pass * bits_per_pass;
    let remaining = O::BITS - used;
    remaining.min(bits_per_pass)
}

/// [`digit_width_of`] for 32-bit keys.
#[inline]
pub const fn digit_width(pass: u32, bits_per_pass: u32) -> u32 {
    let used = pass * bits_per_pass;
    let remaining = KEY_BITS - used;
    if remaining < bits_per_pass {
        remaining
    } else {
        bits_per_pass
    }
}

/// Extract the digit of `bits` for `pass` (0-based, most significant
/// digit first). Digits are at most 16 bits, so `u32` holds them for
/// both key widths.
#[inline(always)]
pub fn digit_of<O: OrderedBits>(bits: O, pass: u32, bits_per_pass: u32) -> u32 {
    let width = digit_width_of::<O>(pass, bits_per_pass);
    let shift = O::BITS - pass * bits_per_pass - width;
    (bits.shr(shift).to_u64() & ((1u64 << width) - 1)) as u32
}

/// [`digit_of`] for 32-bit keys (the hot f32 path keeps the direct
/// u32 arithmetic).
#[inline(always)]
pub fn digit(bits: u32, pass: u32, bits_per_pass: u32) -> u32 {
    let width = digit_width(pass, bits_per_pass);
    let shift = KEY_BITS - pass * bits_per_pass - width;
    (bits >> shift) & (((1u64 << width) - 1) as u32)
}

/// Extract an arbitrary-position digit: the `width` bits of `bits`
/// starting `offset` bits from the most-significant end. Unlike
/// [`digit_of`], the field is not tied to a fixed pass grid — this is
/// what RadiK-style *adaptive digit ordering* needs, where each pass's
/// bit window starts wherever the previous pass's surviving candidates
/// stopped sharing a prefix.
#[inline(always)]
pub fn digit_at<O: OrderedBits>(bits: O, offset: u32, width: u32) -> u32 {
    debug_assert!(offset + width <= O::BITS, "digit window out of range");
    debug_assert!((1..=16).contains(&width), "digit width out of range");
    (bits.shr(O::BITS - offset - width).to_u64() & ((1u64 << width) - 1)) as u32
}

/// Length of the common most-significant-bit prefix of two keys:
/// `O::BITS` when they are equal. Two radix-adversarial keys sharing
/// their top `m` bits return at least `m` — the quantity a
/// skew-resistant selector uses to skip degenerate passes.
#[inline(always)]
pub fn common_prefix_len_of<O: OrderedBits>(a: O, b: O) -> u32 {
    let x = a.to_u64() ^ b.to_u64();
    if x == 0 {
        O::BITS
    } else {
        x.leading_zeros() - (64 - O::BITS)
    }
}

/// The high `n` bits of `bits` (the accumulated prefix after `n` bits
/// have been processed), widened to `u64`. `prefix_of(bits, 0) == 0`.
#[inline(always)]
pub fn prefix_of<O: OrderedBits>(bits: O, n: u32) -> u64 {
    if n == 0 {
        0
    } else {
        bits.shr(O::BITS - n).to_u64()
    }
}

/// [`prefix_of`] for 32-bit keys.
#[inline(always)]
pub fn prefix(bits: u32, n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        bits >> (KEY_BITS - n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ordered_respects<T: RadixKey + Copy>(a: T, b: T) {
        assert_eq!(
            a.partial_cmp(&b).unwrap(),
            a.to_ordered().cmp(&b.to_ordered()),
            "ordering mismatch"
        );
    }

    #[test]
    fn float_mask_mapping_equals_the_sign_branch() {
        // The textbook form: flip a negative key, set a positive key's
        // sign bit. Sweep bit patterns with a stride coprime to 2^32,
        // plus both signs of NaN/inf/zero/subnormal.
        let edges32 = [0, 1, 0x007f_ffff, 0x7f80_0000, 0x7f80_0001, 0x7fc0_1234];
        let sweep32 = (0..1u64 << 32).step_by(0x9e37).map(|b| b as u32);
        for b in sweep32
            .chain(edges32)
            .chain(edges32.map(|b| b | 0x8000_0000))
        {
            let want = if b & 0x8000_0000 != 0 {
                !b
            } else {
                b | 0x8000_0000
            };
            assert_eq!(f32::from_bits(b).to_ordered(), want, "{b:#x}");
        }
        let edges64 = [0, 1, 0x7ff0_0000_0000_0000, 0x7ff8_0000_dead_beef];
        let sweep64 = (0..1u64 << 20).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for b in sweep64.chain(edges64).chain(edges64.map(|b| b | 1 << 63)) {
            let want = if b & 1 << 63 != 0 { !b } else { b | 1 << 63 };
            assert_eq!(f64::from_bits(b).to_ordered(), want, "{b:#x}");
        }
    }

    #[test]
    fn f32_ordered_is_monotone() {
        let samples = [
            f32::NEG_INFINITY,
            -1e30,
            -2.5,
            -1.0,
            -f32::MIN_POSITIVE,
            0.0,
            f32::MIN_POSITIVE,
            0.5,
            1.0,
            1.00049,
            3.5e12,
            f32::INFINITY,
        ];
        for w in samples.windows(2) {
            ordered_respects(w[0], w[1]);
        }
    }

    #[test]
    fn f64_ordered_is_monotone_and_roundtrips() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            assert!(w[0].to_ordered() < w[1].to_ordered());
        }
        for &v in &samples {
            assert_eq!(f64::from_ordered(v.to_ordered()).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn f32_negative_zero_sorts_below_positive_zero() {
        assert!((-0.0f32).to_ordered() < 0.0f32.to_ordered());
        assert!((-0.0f64).to_ordered() < 0.0f64.to_ordered());
    }

    #[test]
    fn f32_roundtrip_bit_exact() {
        for v in [
            0.0f32,
            -0.0,
            1.5,
            -3.25,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-42, // subnormal
        ] {
            assert_eq!(f32::from_ordered(v.to_ordered()).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn integer_keys_are_monotone_and_roundtrip() {
        let s32 = [i32::MIN, -100, -1, 0, 1, 100, i32::MAX];
        for w in s32.windows(2) {
            ordered_respects(w[0], w[1]);
        }
        for &v in &s32 {
            assert_eq!(i32::from_ordered(v.to_ordered()), v);
        }
        let s64 = [i64::MIN, -1_000_000_000_000, -1, 0, 1, i64::MAX];
        for w in s64.windows(2) {
            assert!(w[0].to_ordered() < w[1].to_ordered());
        }
        for &v in &s64 {
            assert_eq!(i64::from_ordered(v.to_ordered()), v);
        }
        assert_eq!(7u32.to_ordered(), 7);
        assert_eq!(u64::from_ordered(7), 7);
    }

    #[test]
    fn pass_arithmetic_for_11_bit_digits() {
        assert_eq!(num_passes(11), 3);
        assert_eq!(digit_width(0, 11), 11);
        assert_eq!(digit_width(1, 11), 11);
        assert_eq!(digit_width(2, 11), 10);
        assert_eq!(num_passes(8), 4);
        for p in 0..4 {
            assert_eq!(digit_width(p, 8), 8);
        }
    }

    #[test]
    fn pass_arithmetic_for_64_bit_keys() {
        assert_eq!(num_passes_of::<u64>(11), 6);
        assert_eq!(num_passes_of::<u64>(8), 8);
        assert_eq!(num_passes_of::<u32>(11), 3);
        assert_eq!(digit_width_of::<u64>(0, 11), 11);
        assert_eq!(digit_width_of::<u64>(5, 11), 9); // 64 - 55
    }

    #[test]
    fn digits_reassemble_the_key() {
        for bits in [0u32, 0xdead_beef, u32::MAX, 0x8000_0001] {
            for b in [8u32, 11] {
                let mut acc: u64 = 0;
                for p in 0..num_passes(b) {
                    acc = (acc << digit_width(p, b)) | digit(bits, p, b) as u64;
                }
                assert_eq!(acc as u32, bits, "b = {b}");
            }
        }
    }

    #[test]
    fn digits_reassemble_64_bit_keys() {
        for bits in [0u64, 0xdead_beef_cafe_f00d, u64::MAX, 1u64 << 63] {
            for b in [8u32, 11] {
                let mut acc: u128 = 0;
                for p in 0..num_passes_of::<u64>(b) {
                    acc =
                        (acc << digit_width_of::<u64>(p, b)) | digit_of::<u64>(bits, p, b) as u128;
                }
                assert_eq!(acc as u64, bits, "b = {b}");
            }
        }
    }

    #[test]
    fn generic_digit_agrees_with_u32_fast_path() {
        for bits in [0u32, 0x1234_5678, u32::MAX] {
            for b in [8u32, 11] {
                for p in 0..num_passes(b) {
                    assert_eq!(digit(bits, p, b), digit_of::<u32>(bits, p, b));
                }
            }
        }
    }

    #[test]
    fn digit_matches_figure_1_example() {
        // Fig. 1: 4-bit elements, 2-bit digits. Element 0b0111 has first
        // digit 01 and second digit 11. Our keys are 32-bit; emulate by
        // placing the nibble at the top.
        let bits = 0b0111u32 << 28;
        assert_eq!(digit(bits, 0, 2), 0b01);
        assert_eq!(digit(bits, 1, 2), 0b11);
    }

    #[test]
    fn digit_at_reads_arbitrary_windows() {
        let bits = 0xABCD_1234u32;
        // Aligned windows agree with the pass-grid extraction.
        for b in [8u32, 11] {
            for p in 0..num_passes(b) {
                let off = p * b;
                let w = digit_width(p, b);
                assert_eq!(digit_at::<u32>(bits, off, w), digit(bits, p, b));
            }
        }
        // Unaligned windows: bits 4..12 of 0xABCD_1234 are 0xBC.
        assert_eq!(digit_at::<u32>(bits, 4, 8), 0xBC);
        assert_eq!(digit_at::<u64>(0xABCD_0000_0000_0000u64, 4, 8), 0xBC);
    }

    #[test]
    fn common_prefix_len_counts_shared_top_bits() {
        assert_eq!(common_prefix_len_of::<u32>(0, 0), 32);
        assert_eq!(common_prefix_len_of::<u32>(u32::MAX, u32::MAX), 32);
        assert_eq!(common_prefix_len_of::<u32>(0, 1 << 31), 0);
        assert_eq!(common_prefix_len_of::<u32>(0xFF00_0000, 0xFF80_0000), 8);
        assert_eq!(common_prefix_len_of::<u64>(0, 1), 63);
        // §3.2 adversarial floats: top 20 ordered bits shared.
        let a = 1.0f32.to_ordered();
        let b = f32::from_bits(0x3F80_0FFF).to_ordered();
        assert!(common_prefix_len_of::<u32>(a, b) >= 20);
    }

    #[test]
    fn prefix_extraction() {
        let bits = 0xABCD_1234u32;
        assert_eq!(prefix(bits, 0), 0);
        assert_eq!(prefix(bits, 4), 0xA);
        assert_eq!(prefix(bits, 16), 0xABCD);
        assert_eq!(prefix(bits, 32), bits);
        // Generic form agrees and extends to 64-bit.
        assert_eq!(prefix_of::<u32>(bits, 16), 0xABCD);
        assert_eq!(prefix_of::<u64>(0xABCD_0000_0000_0000u64, 16), 0xABCD);
        assert_eq!(prefix_of::<u64>(u64::MAX, 0), 0);
    }

    #[test]
    fn adversarial_floats_share_ordered_prefix() {
        // §3.2's example: floats with bits in [0x3F800000, 0x3F800FFF]
        // (≈ [1.0, 1.00049]) share their first 20 bits — and the
        // ordered mapping must preserve that.
        let a = 1.0f32.to_ordered();
        let b = f32::from_bits(0x3F80_0FFF).to_ordered();
        assert_eq!(prefix(a, 20), prefix(b, 20));
        assert_ne!(prefix(a, 32), prefix(b, 32));
    }
}
