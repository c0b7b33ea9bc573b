//! Arithmetic modulo the Ed25519 group order
//! ℓ = 2^252 + 27742317777372353535851937790883648493.

/// ℓ as four little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// A scalar in the range `[0, ℓ)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Scalar(pub(crate) [u64; 4]);

/// Compares two 4-limb little-endian values.
fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a -= b`, assuming `a >= b`.
fn sub_in_place(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 || b2) as u64;
    }
    debug_assert_eq!(borrow, 0, "sub_in_place underflow");
}

impl Scalar {
    /// The scalar 0.
    pub const ZERO: Scalar = Scalar([0; 4]);
    /// The scalar 1.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Builds a scalar from a small integer.
    #[must_use]
    pub fn from_u64(x: u64) -> Scalar {
        Scalar([x, 0, 0, 0])
    }

    /// Parses 32 little-endian bytes and reduces modulo ℓ.
    #[must_use]
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            *limb = u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        }
        // Value < 2^256 < 16·ℓ, so a few conditional subtractions suffice.
        while geq(&limbs, &L) {
            sub_in_place(&mut limbs, &L);
        }
        Scalar(limbs)
    }

    /// Parses 32 little-endian bytes, requiring the canonical range
    /// `[0, ℓ)` (RFC 8032 verification rejects non-canonical `S`).
    #[must_use]
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            *limb = u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        }
        if geq(&limbs, &L) {
            None
        } else {
            Some(Scalar(limbs))
        }
    }

    /// Reduces a 64-byte little-endian value modulo ℓ (for SHA-512
    /// outputs, RFC 8032).
    #[must_use]
    pub fn from_bytes_mod_order_wide(bytes: &[u8; 64]) -> Scalar {
        let mut wide = [0u64; 8];
        for (i, limb) in wide.iter_mut().enumerate() {
            *limb = u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        }
        Scalar(reduce_wide(wide))
    }

    /// Serializes to 32 little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Addition modulo ℓ.
    #[must_use]
    pub fn add(&self, rhs: &Scalar) -> Scalar {
        let mut limbs = [0u64; 4];
        let mut carry = 0u64;
        for (i, slot) in limbs.iter_mut().enumerate() {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            *slot = s2;
            carry = (c1 || c2) as u64;
        }
        debug_assert_eq!(carry, 0, "both operands < l, sum < 2^253 < 2^256");
        if geq(&limbs, &L) {
            sub_in_place(&mut limbs, &L);
        }
        Scalar(limbs)
    }

    /// Multiplication modulo ℓ.
    #[must_use]
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let v = wide[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                wide[i + j] = v as u64;
                carry = v >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        Scalar(reduce_wide(wide))
    }

    /// `self * a + b mod ℓ` (the Ed25519 `S = r + k·s` computation).
    #[must_use]
    pub fn mul_add(&self, a: &Scalar, b: &Scalar) -> Scalar {
        self.mul(a).add(b)
    }

    /// Iterates the scalar's bits from most significant (bit 255) to least.
    pub fn bits_msb_first(&self) -> impl Iterator<Item = bool> + '_ {
        (0..256)
            .rev()
            .map(move |i| (self.0[i / 64] >> (i % 64)) & 1 == 1)
    }
}

/// ⌊2^512 / ℓ⌋ as five little-endian limbs: the Barrett constant.
const MU: [u64; 5] = [
    0xed9c_e5a3_0a2c_131b,
    0x2106_215d_0863_29a7,
    0xffff_ffff_ffff_ffeb,
    0xffff_ffff_ffff_ffff,
    0x0000_0000_0000_000f,
];

/// Schoolbook product of little-endian limb strings (`a.len() +
/// b.len() <= 10`).
fn mul_limbs(a: &[u64], b: &[u64]) -> [u64; 10] {
    let mut out = [0u64; 10];
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let v = out[i + j] as u128 + (ai as u128) * (bj as u128) + carry;
            out[i + j] = v as u64;
            carry = v >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
    out
}

/// Reduces a 512-bit little-endian value modulo ℓ by Barrett reduction
/// (Handbook of Applied Cryptography, Algorithm 14.42, with base 2^64
/// and k = 4 limbs): `q` underestimates `⌊x / ℓ⌋` by at most 2, so
/// `x − q·ℓ` needs at most two final subtractions.
fn reduce_wide(x: [u64; 8]) -> [u64; 4] {
    let q2 = mul_limbs(&x[3..], &MU);
    let q3 = &q2[5..];
    let ql = mul_limbs(q3, &L);
    // r = (x − q3·ℓ) mod 2^320; the true difference is below 3ℓ.
    let mut r = [0u64; 5];
    let mut borrow = 0u64;
    for i in 0..5 {
        let (d1, b1) = x[i].overflowing_sub(ql[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        r[i] = d2;
        borrow = u64::from(b1 || b2);
    }
    let l5 = [L[0], L[1], L[2], L[3], 0];
    while r[4] != 0 || geq(&[r[0], r[1], r[2], r[3]], &L) {
        let mut borrow = 0u64;
        for i in 0..5 {
            let (d1, b1) = r[i].overflowing_sub(l5[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            r[i] = d2;
            borrow = u64::from(b1 || b2);
        }
    }
    [r[0], r[1], r[2], r[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: binary long division, one bit of quotient per step.
    fn reduce_wide_slow(mut x: [u64; 8]) -> [u64; 4] {
        // For shift = 259 down to 0, subtract (ℓ << shift) when possible.
        // 2^252 <= ℓ < 2^253 and x < 2^512, so shifts above 512 - 252 = 260
        // can never fit.
        for shift in (0..=259).rev() {
            let shifted = shl_512(&L, shift);
            if geq8(&x, &shifted) {
                sub8_in_place(&mut x, &shifted);
            }
        }
        debug_assert!(x[4..].iter().all(|&w| w == 0));
        [x[0], x[1], x[2], x[3]]
    }

    /// `value << shift` as a 512-bit number (drops bits above 2^512, which
    /// cannot occur for ℓ << 259).
    fn shl_512(value: &[u64; 4], shift: usize) -> [u64; 8] {
        let mut out = [0u64; 8];
        let limb_shift = shift / 64;
        let bit_shift = shift % 64;
        for (i, &limb) in value.iter().enumerate() {
            let target = i + limb_shift;
            if target < 8 {
                out[target] |= limb << bit_shift;
            }
            if bit_shift != 0 && target + 1 < 8 {
                out[target + 1] |= limb >> (64 - bit_shift);
            }
        }
        out
    }

    fn geq8(a: &[u64; 8], b: &[u64; 8]) -> bool {
        for i in (0..8).rev() {
            if a[i] != b[i] {
                return a[i] > b[i];
            }
        }
        true
    }

    fn sub8_in_place(a: &mut [u64; 8], b: &[u64; 8]) {
        let mut borrow = 0u64;
        for i in 0..8 {
            let (d1, b1) = a[i].overflowing_sub(b[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            a[i] = d2;
            borrow = (b1 || b2) as u64;
        }
        debug_assert_eq!(borrow, 0, "sub8_in_place underflow");
    }

    #[test]
    fn barrett_matches_long_division() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(252);
        let mut inputs: Vec<[u64; 8]> = (0..500)
            .map(|_| std::array::from_fn(|_| rng.random::<u64>()))
            .collect();
        inputs.push([u64::MAX; 8]);
        inputs.push([0; 8]);
        inputs.push([L[0], L[1], L[2], L[3], 0, 0, 0, 0]);
        let mut l_minus_1 = [L[0] - 1, L[1], L[2], L[3], 0, 0, 0, 0];
        inputs.push(l_minus_1);
        l_minus_1[4] = 1;
        inputs.push(l_minus_1);
        for x in inputs {
            assert_eq!(reduce_wide(x), reduce_wide_slow(x), "x = {x:x?}");
        }
    }

    #[test]
    fn ell_minus_one_plus_one_is_zero() {
        let mut l_minus_1 = L;
        l_minus_1[0] -= 1;
        let s = Scalar(l_minus_1);
        assert_eq!(s.add(&Scalar::ONE), Scalar::ZERO);
    }

    #[test]
    fn ell_reduces_to_zero() {
        let mut bytes = [0u8; 32];
        for (i, limb) in L.iter().enumerate() {
            bytes[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert_eq!(Scalar::from_bytes_mod_order(&bytes), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&bytes).is_none());
        bytes[0] -= 1; // l - 1 is canonical
        assert!(Scalar::from_canonical_bytes(&bytes).is_some());
    }

    #[test]
    fn small_multiplication() {
        let a = Scalar::from_u64(1_000_003);
        let b = Scalar::from_u64(999_983);
        let prod = a.mul(&b);
        assert_eq!(prod, Scalar::from_u64(1_000_003 * 999_983));
    }

    #[test]
    fn wide_reduction_matches_narrow() {
        // A value < l must be unchanged by wide reduction.
        let mut wide = [0u8; 64];
        wide[0] = 42;
        assert_eq!(
            Scalar::from_bytes_mod_order_wide(&wide),
            Scalar::from_u64(42)
        );
        // 2^256 mod l computed two ways: wide reduction of 2^256, and
        // (2^128 mod l)^2 mod l.
        let mut w = [0u8; 64];
        w[32] = 1; // 2^256
        let direct = Scalar::from_bytes_mod_order_wide(&w);
        let mut half = [0u8; 32];
        half[16] = 1; // 2^128 (< l, canonical)
        let h = Scalar::from_canonical_bytes(&half).expect("canonical");
        assert_eq!(direct, h.mul(&h));
    }

    #[test]
    fn ring_axioms_random() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut random_scalar = || -> Scalar {
            let b: [u8; 32] = rng.random();
            Scalar::from_bytes_mod_order(&b)
        };
        for _ in 0..25 {
            let a = random_scalar();
            let b = random_scalar();
            let c = random_scalar();
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.add(&b), b.add(&a));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.mul(&Scalar::ONE), a);
            assert_eq!(a.add(&Scalar::ZERO), a);
        }
    }

    #[test]
    fn to_bytes_roundtrip() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for _ in 0..20 {
            let b: [u8; 32] = rng.random();
            let s = Scalar::from_bytes_mod_order(&b);
            assert_eq!(Scalar::from_bytes_mod_order(&s.to_bytes()), s);
        }
    }

    #[test]
    fn bits_iterate_msb_first() {
        let s = Scalar::from_u64(0b1011);
        let bits: Vec<bool> = s.bits_msb_first().collect();
        assert_eq!(bits.len(), 256);
        assert!(bits[..252].iter().all(|&b| !b));
        assert_eq!(&bits[252..], &[true, false, true, true]);
    }
}
