//! The twisted Edwards curve −x² + y² = 1 + d·x²y² over GF(2^255 − 19)
//! (the Ed25519 group), in extended homogeneous coordinates.

use std::sync::OnceLock;

use super::field::FieldElement;
use super::scalar::Scalar;
use crate::CryptoError;

/// The curve constant d = −121665/121666.
fn d() -> &'static FieldElement {
    static D: OnceLock<FieldElement> = OnceLock::new();
    D.get_or_init(|| {
        FieldElement::from_u64(121665)
            .neg()
            .mul(&FieldElement::from_u64(121666).invert())
    })
}

/// 2d, used by the unified addition law.
fn d2() -> &'static FieldElement {
    static D2: OnceLock<FieldElement> = OnceLock::new();
    D2.get_or_init(|| {
        let d = d();
        d.add(d)
    })
}

/// A precomputed point in affine Niels form (y + x, y − x, 2d·x·y):
/// adding one to an extended point takes 7 field multiplications
/// instead of the unified law's 9.
#[derive(Clone, Copy, Debug)]
struct NielsPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    xy2d: FieldElement,
}

/// The radix-16 fixed-base table: `table[i][j]` = (j + 1) · 16^i · B
/// for the 64 nibble positions of a 256-bit scalar (960 points,
/// ~115 KiB, built once per process with one batched inversion).
fn base_table() -> &'static [[NielsPoint; 15]] {
    static TABLE: OnceLock<Vec<[NielsPoint; 15]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut points = Vec::with_capacity(64 * 15);
        let mut base = EdwardsPoint::basepoint(); // 16^i · B
        for _ in 0..64 {
            let mut multiple = base;
            for _ in 0..15 {
                points.push(multiple);
                multiple = multiple.add(&base);
            }
            base = multiple;
        }
        // Montgomery's trick: invert every Z with a single inversion.
        let mut prefix = Vec::with_capacity(points.len());
        let mut running = FieldElement::ONE;
        for p in &points {
            prefix.push(running);
            running = running.mul(&p.z);
        }
        let mut inv = running.invert();
        let mut niels = vec![None; points.len()];
        for i in (0..points.len()).rev() {
            let zinv = inv.mul(&prefix[i]);
            inv = inv.mul(&points[i].z);
            let x = points[i].x.mul(&zinv);
            let y = points[i].y.mul(&zinv);
            niels[i] = Some(NielsPoint {
                y_plus_x: y.add(&x),
                y_minus_x: y.sub(&x),
                xy2d: x.mul(&y).mul(d2()),
            });
        }
        niels
            .chunks_exact(15)
            .map(|row| std::array::from_fn(|j| row[j].expect("every point converted")))
            .collect()
    })
}

/// A point on the Ed25519 curve in extended coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z.
#[derive(Clone, Copy, Debug)]
pub struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

impl EdwardsPoint {
    /// The group identity (0, 1).
    #[must_use]
    pub fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The Ed25519 base point B with y = 4/5 and even x.
    #[must_use]
    pub fn basepoint() -> EdwardsPoint {
        static B: OnceLock<EdwardsPoint> = OnceLock::new();
        *B.get_or_init(|| {
            let y = FieldElement::from_u64(4).mul(&FieldElement::from_u64(5).invert());
            let mut encoded = y.to_bytes();
            encoded[31] &= 0x7f; // sign bit 0: the even-x root
            EdwardsPoint::decompress(&encoded).expect("4/5 decompresses to the base point")
        })
    }

    /// Unified point addition (add-2008-hwcd-3 for a = −1); also valid for
    /// doubling.
    #[must_use]
    pub fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let c = self.t.mul(d2()).mul(&other.t);
        let dd = self.z.mul(&other.z);
        let dd = dd.add(&dd);
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Mixed addition of an affine Niels point (Z = 1, so `2·Z1·Z2` is
    /// a doubling and `T2·2d` is precomputed).
    fn add_niels(&self, q: &NielsPoint) -> EdwardsPoint {
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = self.t.mul(&q.xy2d);
        let dd = self.z.add(&self.z);
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Point doubling (via the unified law, which is complete on this
    /// curve).
    #[must_use]
    pub fn double(&self) -> EdwardsPoint {
        self.add(self)
    }

    /// Point negation.
    #[must_use]
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication (MSB-first double-and-add; variable time,
    /// acceptable under the paper's threat model).
    #[must_use]
    pub fn mul_scalar(&self, scalar: &Scalar) -> EdwardsPoint {
        let mut acc = EdwardsPoint::identity();
        for bit in scalar.bits_msb_first() {
            acc = acc.double();
            if bit {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// `scalar * B` for the base point B, from the radix-16 fixed-base
    /// table: one addition per nonzero nibble of the scalar and no
    /// doublings (variable time, like [`mul_scalar`](Self::mul_scalar)).
    #[must_use]
    pub fn mul_base(scalar: &Scalar) -> EdwardsPoint {
        let table = base_table();
        let mut acc = EdwardsPoint::identity();
        for (i, byte) in scalar.to_bytes().into_iter().enumerate() {
            for (row, nibble) in [(2 * i, byte & 15), (2 * i + 1, byte >> 4)] {
                if nibble != 0 {
                    acc = acc.add_niels(&table[row][usize::from(nibble) - 1]);
                }
            }
        }
        acc
    }

    /// Compresses to the 32-byte encoding: little-endian y with the sign
    /// of x in the top bit.
    #[must_use]
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] if the y-coordinate does
    /// not correspond to a curve point or the sign bit asks for the zero
    /// x-coordinate's negation.
    pub fn decompress(bytes: &[u8; 32]) -> Result<EdwardsPoint, CryptoError> {
        let sign = bytes[31] >> 7 == 1;
        let y = FieldElement::from_bytes(bytes);
        // x^2 = (y^2 - 1) / (d y^2 + 1)
        let yy = y.square();
        let u = yy.sub(&FieldElement::ONE);
        let v = yy.mul(d()).add(&FieldElement::ONE);
        let mut x = FieldElement::sqrt_ratio(&u, &v).ok_or(CryptoError::InvalidEncoding)?;
        if sign {
            if x.is_zero() {
                return Err(CryptoError::InvalidEncoding);
            }
            x = x.neg();
        }
        Ok(EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(&y),
        })
    }

    /// Whether this is the group identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        // x/z == 0 and y/z == 1  <=>  x == 0 and y == z.
        self.x.is_zero() && self.y.ct_equals(&self.z)
    }

    /// Checks the curve equation in extended coordinates (used by tests
    /// and point validation).
    #[must_use]
    pub fn is_on_curve(&self) -> bool {
        // (-X^2 + Y^2) Z^2 == Z^4 + d X^2 Y^2  and  T Z == X Y.
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let lhs = yy.sub(&xx).mul(&zz);
        let rhs = zz.square().add(&d().mul(&xx).mul(&yy));
        lhs.ct_equals(&rhs) && self.t.mul(&self.z).ct_equals(&self.x.mul(&self.y))
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        // Projective equality: X1 Z2 == X2 Z1 and Y1 Z2 == Y2 Z1.
        self.x.mul(&other.z).ct_equals(&other.x.mul(&self.z))
            && self.y.mul(&other.z).ct_equals(&other.y.mul(&self.z))
    }
}

impl Eq for EdwardsPoint {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basepoint_is_on_curve() {
        assert!(EdwardsPoint::basepoint().is_on_curve());
        assert!(EdwardsPoint::identity().is_on_curve());
    }

    #[test]
    fn identity_laws() {
        let b = EdwardsPoint::basepoint();
        let id = EdwardsPoint::identity();
        assert_eq!(b.add(&id), b);
        assert_eq!(id.add(&b), b);
        assert_eq!(b.add(&b.neg()), id);
        assert!(id.is_identity());
        assert!(!b.is_identity());
    }

    #[test]
    fn addition_is_commutative_and_associative() {
        let b = EdwardsPoint::basepoint();
        let p2 = b.double();
        let p3 = p2.add(&b);
        assert_eq!(b.add(&p2), p2.add(&b));
        assert_eq!(b.add(&p2).add(&p3), b.add(&p2.add(&p3)));
        assert!(p2.is_on_curve());
        assert!(p3.is_on_curve());
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let b = EdwardsPoint::basepoint();
        let mut acc = EdwardsPoint::identity();
        for k in 0u64..8 {
            assert_eq!(b.mul_scalar(&Scalar::from_u64(k)), acc, "k = {k}");
            acc = acc.add(&b);
        }
    }

    #[test]
    fn basepoint_has_order_ell() {
        // l * B == identity, (l - 1) * B == -B.
        let b = EdwardsPoint::basepoint();
        let l_minus_1 = Scalar::ZERO.add(&Scalar::ONE).mul(&Scalar::ZERO).add(
            // l - 1 = -1 mod l: build it as 0 - 1 via from_bytes_mod_order
            // of l - 1's encoding. Simpler: compute below.
            &Scalar::ZERO,
        );
        let _ = l_minus_1;
        // -1 mod l: l - 1. Construct via wide reduction of (l - 1).
        let minus_one = {
            let mut wide = [0u8; 64];
            // l - 1 little-endian
            let l_bytes: [u64; 4] = [
                0x5812_631a_5cf5_d3ec,
                0x14de_f9de_a2f7_9cd6,
                0,
                0x1000_0000_0000_0000,
            ];
            for (i, limb) in l_bytes.iter().enumerate() {
                wide[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
            }
            Scalar::from_bytes_mod_order_wide(&wide)
        };
        assert_eq!(b.mul_scalar(&minus_one), b.neg());
        assert_eq!(b.mul_scalar(&minus_one).add(&b), EdwardsPoint::identity());
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let b = EdwardsPoint::basepoint();
        for k in [1u64, 2, 3, 7, 1000, 123_456_789] {
            let p = b.mul_scalar(&Scalar::from_u64(k));
            let enc = p.compress();
            let q = EdwardsPoint::decompress(&enc).expect("valid encoding");
            assert_eq!(p, q, "k = {k}");
            assert_eq!(q.compress(), enc);
        }
    }

    #[test]
    fn known_basepoint_encoding() {
        // The standard Ed25519 basepoint compresses to 0x58666666...66
        // (y = 4/5 = 0x6666...6658 little-endian, sign bit 0).
        let enc = EdwardsPoint::basepoint().compress();
        assert_eq!(enc[0], 0x58);
        assert!(enc[1..31].iter().all(|&b| b == 0x66));
        assert_eq!(enc[31], 0x66);
    }

    #[test]
    fn decompress_rejects_invalid() {
        // y = 2 gives x^2 = 3/(4d+1); craft a y that is not on the curve.
        // Try a few small ys and count failures — at least one must fail
        // (about half of all ys are invalid).
        let mut failures = 0;
        for y in 0u64..16 {
            let mut enc = FieldElement::from_u64(y).to_bytes();
            enc[31] &= 0x7f;
            if EdwardsPoint::decompress(&enc).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "no invalid encodings among small ys");
    }

    #[test]
    fn fixed_base_table_matches_double_and_add() {
        use rand::{RngExt, SeedableRng};
        let b = EdwardsPoint::basepoint();
        let mut rng = rand::rngs::StdRng::seed_from_u64(25519);
        let mut scalars: Vec<Scalar> = (0..24)
            .map(|_| Scalar::from_bytes_mod_order_wide(&rng.random()))
            .collect();
        scalars.extend([0u64, 1, 15, 16, 17, 255, 256].map(Scalar::from_u64));
        for s in scalars {
            let fast = EdwardsPoint::mul_base(&s);
            assert_eq!(fast, b.mul_scalar(&s), "scalar {:?}", s.to_bytes());
            assert!(fast.is_on_curve());
        }
    }

    #[test]
    fn scalar_mul_distributes_over_add() {
        let b = EdwardsPoint::basepoint();
        let a = Scalar::from_u64(123_456);
        let c = Scalar::from_u64(654_321);
        let lhs = b.mul_scalar(&a.add(&c));
        let rhs = b.mul_scalar(&a).add(&b.mul_scalar(&c));
        assert_eq!(lhs, rhs);
    }
}
