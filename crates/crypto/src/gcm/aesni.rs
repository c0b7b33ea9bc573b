//! The hardware GCM backend: AES-NI rounds, PCLMULQDQ GHASH, SSSE3
//! byte shuffles (x86_64 only).
//!
//! This is the crate's only module with `unsafe` code, and it keeps
//! that code to two kinds of operation:
//!
//! * unaligned 16-byte loads and stores through references to
//!   `[u8; 16]`;
//! * calls into `#[target_feature]` functions. [`Key::new`] is the only
//!   constructor of [`Key`] and runs the CPU feature detection first,
//!   so every `#[target_feature]` function is reachable only through a
//!   `Key` method, after detection has succeeded.
//!
//! **Representation.** GHASH works on byte-reversed blocks, so a
//! register holds `u128::from_be_bytes(block)`: the same bit-reflected
//! field element the portable backend multiplies. The carry-less
//! product of two reflected operands is the reflected product shifted
//! right by one bit, so [`reduce`] shifts it back before folding it
//! modulo x¹²⁸ + x⁷ + x² + x + 1. This is Algorithm 5 of Gueron and
//! Kounavis, "Intel Carry-Less Multiplication Instruction and its Usage
//! for Computing the GCM Mode". Because the shift and the fold are
//! linear, eight products can be summed unreduced and reduced once.
//! That is the aggregated reduction over H, H², …, H⁸ in
//! [`Key::ghash_blocks`].
//!
//! **Layout.** CTR runs eight counter blocks per 128-byte stripe so
//! the AES rounds of independent blocks overlap in the pipeline. Seal
//! stitches CTR and GHASH per stripe. Open hashes the whole ciphertext
//! and checks the tag before it decrypts any byte.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_clmulepi64_si128,
    _mm_loadu_si128, _mm_or_si128, _mm_set_epi32, _mm_set_epi64x, _mm_set_epi8, _mm_setzero_si128,
    _mm_shuffle_epi8, _mm_slli_epi32, _mm_slli_si128, _mm_srli_epi32, _mm_srli_si128,
    _mm_storeu_si128, _mm_xor_si128,
};

use crate::aes::{Aes, BLOCK_LEN};
use crate::ct::ct_eq;
use crate::CryptoError;

/// Blocks per CTR/GHASH stripe (128 bytes).
const STRIPE: usize = 8;

type Block = [u8; BLOCK_LEN];

/// An AES-GCM key in hardware form: the round keys and the first eight
/// powers of the hash subkey, 368 bytes in all.
#[derive(Clone, Copy)]
pub(super) struct Key {
    /// Round keys `0..=rounds`; AES-128 leaves the last four unused.
    rk: [__m128i; 15],
    rounds: usize,
    /// `h[i]` = H^(i+1), byte-reversed.
    h: [__m128i; STRIPE],
}

impl Key {
    /// Builds the hardware key for `aes`, or `None` when this CPU lacks
    /// AES-NI, PCLMULQDQ or SSSE3.
    pub(super) fn new(aes: &Aes) -> Option<Key> {
        if !(is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3"))
        {
            return None;
        }
        // SAFETY: the three features `expand` enables were detected
        // just above.
        Some(unsafe { Key::expand(aes) })
    }

    /// Encrypts `data` in place under counter block `j0` and returns
    /// the tag.
    pub(super) fn seal(&self, j0: &Block, aad: &[u8], data: &mut [u8]) -> Block {
        // SAFETY: a `Key` exists only after `Key::new` detected every
        // feature `seal_hw` enables.
        unsafe { self.seal_hw(j0, aad, data) }
    }

    /// Verifies `tag` and only then decrypts `data` in place; on
    /// failure `data` is untouched.
    pub(super) fn open(
        &self,
        j0: &Block,
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        // SAFETY: as in `seal`, holding a `Key` proves detection.
        unsafe { self.open_hw(j0, aad, data, tag) }
    }

    /// `x · H` on byte-reversed field elements (the unit-test hook
    /// for the multiplier).
    #[cfg(test)]
    pub(super) fn mul_h(&self, x: u128) -> u128 {
        let mut bytes = x.to_le_bytes();
        // SAFETY: holding a `Key` proves pclmulqdq was detected.
        let product = unsafe { gf_mul(load(&bytes), self.h[0]) };
        store(&mut bytes, product);
        u128::from_le_bytes(bytes)
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn expand(aes: &Aes) -> Key {
        let rounds = aes.rounds();
        let mut rk = [_mm_setzero_si128(); 15];
        for (round, slot) in rk.iter_mut().enumerate().take(rounds + 1) {
            *slot = load(&aes.round_key_bytes(round));
        }
        let mut key = Key {
            rk,
            rounds,
            h: [_mm_setzero_si128(); STRIPE],
        };
        let h = bswap(key.encrypt1(_mm_setzero_si128()));
        key.h[0] = h;
        for i in 1..STRIPE {
            key.h[i] = gf_mul(key.h[i - 1], h);
        }
        key
    }

    #[target_feature(enable = "aes")]
    fn encrypt1(&self, block: __m128i) -> __m128i {
        let mut s = _mm_xor_si128(block, self.rk[0]);
        for k in &self.rk[1..self.rounds] {
            s = _mm_aesenc_si128(s, *k);
        }
        _mm_aesenclast_si128(s, self.rk[self.rounds])
    }

    #[target_feature(enable = "aes")]
    fn encrypt8(&self, mut b: [__m128i; STRIPE]) -> [__m128i; STRIPE] {
        for x in &mut b {
            *x = _mm_xor_si128(*x, self.rk[0]);
        }
        for k in &self.rk[1..self.rounds] {
            for x in &mut b {
                *x = _mm_aesenc_si128(*x, *k);
            }
        }
        let last = self.rk[self.rounds];
        for x in &mut b {
            *x = _mm_aesenclast_si128(*x, last);
        }
        b
    }

    /// XORs keystream into up to [`STRIPE`] blocks. `ctr` is the
    /// byte-reversed counter block; its low 32-bit lane is GCM's
    /// big-endian counter, so `_mm_add_epi32` is exactly `inc32`.
    #[target_feature(enable = "aes,ssse3")]
    fn ctr_blocks(&self, ctr: &mut __m128i, blocks: &mut [Block]) {
        debug_assert!(blocks.len() <= STRIPE);
        let one = _mm_set_epi32(0, 0, 0, 1);
        let mut counters = [_mm_setzero_si128(); STRIPE];
        for c in &mut counters[..blocks.len()] {
            *ctr = _mm_add_epi32(*ctr, one);
            *c = bswap(*ctr);
        }
        let keystream = self.encrypt8(counters);
        for (block, k) in blocks.iter_mut().zip(keystream) {
            store(block, _mm_xor_si128(load(block), k));
        }
    }

    /// CTR over any length, continuing from `ctr`.
    #[target_feature(enable = "aes,ssse3")]
    fn ctr_xor(&self, mut ctr: __m128i, data: &mut [u8]) {
        let (blocks, tail) = data.as_chunks_mut::<BLOCK_LEN>();
        for stripe in blocks.chunks_mut(STRIPE) {
            self.ctr_blocks(&mut ctr, stripe);
        }
        self.ctr_tail(&mut ctr, tail);
    }

    /// CTR over a final partial block.
    #[target_feature(enable = "aes,ssse3")]
    fn ctr_tail(&self, ctr: &mut __m128i, tail: &mut [u8]) {
        if tail.is_empty() {
            return;
        }
        let mut last = [[0u8; BLOCK_LEN]];
        last[0][..tail.len()].copy_from_slice(tail);
        self.ctr_blocks(ctr, &mut last);
        tail.copy_from_slice(&last[0][..tail.len()]);
    }

    /// Absorbs whole blocks into the GHASH accumulator, eight at a time
    /// with one reduction per stripe.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn ghash_blocks(&self, mut acc: __m128i, blocks: &[Block]) -> __m128i {
        for stripe in blocks.chunks(STRIPE) {
            let n = stripe.len();
            let (mut lo, mut hi) = (_mm_setzero_si128(), _mm_setzero_si128());
            for (i, block) in stripe.iter().enumerate() {
                let mut x = bswap(load(block));
                if i == 0 {
                    x = _mm_xor_si128(x, acc);
                }
                let (l, h) = clmul(x, self.h[n - 1 - i]);
                lo = _mm_xor_si128(lo, l);
                hi = _mm_xor_si128(hi, h);
            }
            acc = reduce(lo, hi);
        }
        acc
    }

    /// Absorbs `bytes`, zero-padding the final partial block.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn ghash_update(&self, acc: __m128i, bytes: &[u8]) -> __m128i {
        let (blocks, tail) = bytes.as_chunks::<BLOCK_LEN>();
        let acc = self.ghash_blocks(acc, blocks);
        if tail.is_empty() {
            return acc;
        }
        let mut last = [0u8; BLOCK_LEN];
        last[..tail.len()].copy_from_slice(tail);
        self.ghash_blocks(acc, &[last])
    }

    /// Folds in the length block and masks with E(K, J0).
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn tag(&self, j0: __m128i, acc: __m128i, aad_len: usize, ct_len: usize) -> Block {
        let lengths = _mm_set_epi64x((aad_len as u64 * 8) as i64, (ct_len as u64 * 8) as i64);
        let s = gf_mul(_mm_xor_si128(acc, lengths), self.h[0]);
        let mut tag = [0u8; BLOCK_LEN];
        store(&mut tag, _mm_xor_si128(bswap(s), self.encrypt1(j0)));
        tag
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn seal_hw(&self, j0: &Block, aad: &[u8], data: &mut [u8]) -> Block {
        let j0 = load(j0);
        let mut ctr = bswap(j0);
        let mut acc = self.ghash_update(_mm_setzero_si128(), aad);
        let ct_len = data.len();
        let (blocks, tail) = data.as_chunks_mut::<BLOCK_LEN>();
        for stripe in blocks.chunks_mut(STRIPE) {
            self.ctr_blocks(&mut ctr, stripe);
            acc = self.ghash_blocks(acc, stripe);
        }
        self.ctr_tail(&mut ctr, tail);
        acc = self.ghash_update(acc, tail);
        self.tag(j0, acc, aad.len(), ct_len)
    }

    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    fn open_hw(
        &self,
        j0: &Block,
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        let j0 = load(j0);
        let acc = self.ghash_update(self.ghash_update(_mm_setzero_si128(), aad), data);
        let expected = self.tag(j0, acc, aad.len(), data.len());
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::AeadAuthenticationFailed);
        }
        self.ctr_xor(bswap(j0), data);
        Ok(())
    }
}

#[inline(always)]
fn load(block: &Block) -> __m128i {
    // SAFETY: `block` is 16 readable bytes, and `loadu` has no
    // alignment requirement (SSE2 is part of the x86_64 baseline).
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

#[inline(always)]
fn store(block: &mut Block, v: __m128i) {
    // SAFETY: `block` is 16 writable bytes, and `storeu` has no
    // alignment requirement (SSE2 is part of the x86_64 baseline).
    unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), v) }
}

/// Reverses the 16 bytes of a block.
#[target_feature(enable = "ssse3")]
fn bswap(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        v,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

/// The 256-bit carry-less product `a · b` as (low, high) halves.
#[target_feature(enable = "pclmulqdq")]
fn clmul(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
    let lo = _mm_clmulepi64_si128::<0x00>(a, b);
    let hi = _mm_clmulepi64_si128::<0x11>(a, b);
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(a, b),
        _mm_clmulepi64_si128::<0x01>(a, b),
    );
    (
        _mm_xor_si128(lo, _mm_slli_si128::<8>(mid)),
        _mm_xor_si128(hi, _mm_srli_si128::<8>(mid)),
    )
}

/// Shifts a reflected 256-bit product left one bit and reduces it
/// modulo the GCM polynomial.
#[target_feature(enable = "sse2")]
fn reduce(lo: __m128i, hi: __m128i) -> __m128i {
    // Shift left by one across all 256 bits: each 32-bit lane moves
    // its top bit into the next lane up, and the top bit of `lo` moves
    // into `hi`.
    let lo_carry = _mm_srli_epi32::<31>(lo);
    let hi_carry = _mm_srli_epi32::<31>(hi);
    let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(lo_carry));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(hi_carry)),
        _mm_srli_si128::<12>(lo_carry),
    );
    // First phase: multiply the low half by x^63 + x^62 + x^57.
    let a = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let spill = _mm_srli_si128::<4>(a);
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(a));
    // Second phase: fold by x + x^2 + x^7 and add into the high half.
    let b = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_srli_epi32::<7>(lo),
    );
    let lo = _mm_xor_si128(lo, _mm_xor_si128(b, spill));
    _mm_xor_si128(hi, lo)
}

/// Field multiplication on byte-reversed elements.
#[target_feature(enable = "pclmulqdq")]
fn gf_mul(a: __m128i, b: __m128i) -> __m128i {
    let (lo, hi) = clmul(a, b);
    reduce(lo, hi)
}
