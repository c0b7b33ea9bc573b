//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! One [`Gcm`] type, two backends, chosen once per key in [`Gcm::new`]:
//!
//! * **Hardware** (x86_64 with AES-NI, PCLMULQDQ and SSSE3, detected at
//!   run time): AES-NI rounds over eight interleaved counter blocks,
//!   and GHASH by carry-less multiplication with one reduction per
//!   eight blocks. The key holds only round keys and H…H⁸ (368 bytes).
//!   This is the AES-NI-class GCM that the paper's OpenSSL and SGX SDK
//!   ran on.
//! * **Portable**: T-table AES plus GHASH with per-key byte tables.
//!   Multiplication by the hash subkey `H` is GF(2)-linear, so the
//!   product decomposes into 16 table lookups (one per byte position)
//!   in tables built once per key, 64 KiB in all. This is the fallback on
//!   other CPUs and the test oracle for the hardware path
//!   ([`Gcm::new_portable`]).
//!
//! Both backends produce byte-identical output; the tests and the
//! crate's property tests check that over every length class.

use crate::aes::{Aes, BLOCK_LEN};
use crate::ct::ct_eq;
use crate::CryptoError;

#[cfg(target_arch = "x86_64")]
mod aesni;

/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;
/// The only IV length this implementation accepts (the GCM fast path).
pub const IV_LEN: usize = 12;

/// Bit-serial multiplication in GF(2^128) with the GCM reduction
/// polynomial. Blocks are interpreted big-endian, bit 0 = MSB (the GCM
/// "reflected" convention folded into the u128 representation).
///
/// The hot paths use the per-key tables or carry-less multiplication;
/// this reference implementation remains as the test oracle for both.
#[cfg_attr(not(test), allow(dead_code))]
fn gf_mul_slow(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// A GCM key, in the form of the backend chosen for this CPU.
#[derive(Clone)]
pub struct Gcm {
    backend: Backend,
}

#[derive(Clone)]
// The hardware key is held inline: a per-key allocation would cost more
// than the moves of the larger variant.
#[allow(clippy::large_enum_variant)]
enum Backend {
    #[cfg(target_arch = "x86_64")]
    AesNi(aesni::Key),
    Portable(Portable),
}

impl std::fmt::Debug for Gcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Gcm")
            .field("backend", &self.backend_name())
            .finish()
    }
}

impl Gcm {
    /// Creates a GCM instance from a raw AES key (16, 24, or 32 bytes),
    /// on the hardware backend when this CPU has one.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] for other key lengths.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        let aes = Aes::new(key)?;
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = aesni::Key::new(&aes) {
            return Ok(Gcm {
                backend: Backend::AesNi(hw),
            });
        }
        Ok(Gcm {
            backend: Backend::Portable(Portable::new(aes)),
        })
    }

    /// Creates a GCM instance on the portable backend whatever the CPU:
    /// the reference the hardware backend is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] for key lengths other
    /// than 16, 24, or 32 bytes.
    pub fn new_portable(key: &[u8]) -> Result<Self, CryptoError> {
        Ok(Gcm {
            backend: Backend::Portable(Portable::new(Aes::new(key)?)),
        })
    }

    /// The backend this key runs on: `"aes-ni"` or `"portable"`.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(_) => "aes-ni",
            Backend::Portable(_) => "portable",
        }
    }

    fn j0(iv: &[u8; IV_LEN]) -> [u8; BLOCK_LEN] {
        let mut j0 = [0u8; BLOCK_LEN];
        j0[..IV_LEN].copy_from_slice(iv);
        j0[15] = 1;
        j0
    }

    fn seal_raw(&self, iv: &[u8; IV_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let j0 = Self::j0(iv);
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(key) => key.seal(&j0, aad, data),
            Backend::Portable(p) => p.seal(&j0, aad, data),
        }
    }

    fn open_raw(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        let j0 = Self::j0(iv);
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(key) => key.open(&j0, aad, data, tag),
            Backend::Portable(p) => p.open(&j0, aad, data, tag),
        }
    }

    /// Encrypts `plaintext` in place and returns the authentication tag.
    pub fn seal_in_place(&self, iv: &[u8; IV_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let _prof = seg_obs::prof::phase("crypto_gcm");
        self.seal_raw(iv, aad, data)
    }

    /// Verifies `tag` and decrypts `data` in place.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AeadAuthenticationFailed`] on tag mismatch;
    /// in that case `data` is left *encrypted* (never releases unverified
    /// plaintext).
    pub fn open_in_place(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        let _prof = seg_obs::prof::phase("crypto_gcm");
        self.open_raw(iv, aad, data, tag)
    }

    /// Convenience: encrypts `plaintext`, returning `ciphertext || tag`.
    #[must_use]
    pub fn seal(&self, iv: &[u8; IV_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let _prof = seg_obs::prof::phase("crypto_gcm");
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_raw(iv, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Convenience: verifies and decrypts `ciphertext || tag`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::AeadAuthenticationFailed`] if the input is
    /// shorter than a tag or fails authentication.
    pub fn open(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let _prof = seg_obs::prof::phase("crypto_gcm");
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::AeadAuthenticationFailed);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let mut data = ct.to_vec();
        self.open_raw(iv, aad, &mut data, tag)?;
        Ok(data)
    }
}

/// The portable backend: the expanded AES key plus GHASH byte tables.
#[derive(Clone)]
struct Portable {
    aes: Aes,
    /// `htable[pos][b]` = `(b << 8*pos) * H` in GF(2^128).
    ///
    /// Built incrementally: the product for a single operand bit is a
    /// shift-reduce of `H` (multiplication by the field's `X` is linear),
    /// and each byte entry is the XOR of its bits' products — so key
    /// setup needs 128 shift-reduces plus XORs, no generic multiplies.
    htable: Box<[[u128; 256]; 16]>,
}

impl Portable {
    fn new(aes: Aes) -> Portable {
        let h = u128::from_be_bytes(aes.encrypt_block([0u8; BLOCK_LEN]));
        // basis[j] = (1 << j) * H: u128 bit j is the coefficient of
        // X^(127-j), and multiplying by X is a right-shift with
        // reduction, so walk from the top bit down.
        const R: u128 = 0xe1 << 120;
        let mut basis = [0u128; 128];
        let mut v = h; // (1 << 127) * H = X^0 * H = H
        for j in (0..128).rev() {
            basis[j] = v;
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        let mut htable = Box::new([[0u128; 256]; 16]);
        for pos in 0..16 {
            for b in 1usize..256 {
                let low_bit = b.trailing_zeros() as usize;
                htable[pos][b] = htable[pos][b & (b - 1)] ^ basis[8 * pos + low_bit];
            }
        }
        Portable { aes, htable }
    }

    /// Table-driven multiplication by the hash subkey.
    fn mul_h(&self, x: u128) -> u128 {
        let mut z = 0u128;
        for pos in 0..16 {
            z ^= self.htable[pos][((x >> (8 * pos)) & 0xff) as usize];
        }
        z
    }

    fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; BLOCK_LEN] {
        let mut y = 0u128;
        for part in [aad, ciphertext] {
            for chunk in part.chunks(BLOCK_LEN) {
                let mut block = [0u8; BLOCK_LEN];
                block[..chunk.len()].copy_from_slice(chunk);
                y = self.mul_h(y ^ u128::from_be_bytes(block));
            }
        }
        let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
        y = self.mul_h(y ^ lengths);
        y.to_be_bytes()
    }

    /// CTR-mode keystream application starting at counter block `ctr`.
    fn ctr_xor(&self, mut ctr: [u8; BLOCK_LEN], data: &mut [u8]) {
        for chunk in data.chunks_mut(BLOCK_LEN) {
            inc32(&mut ctr);
            let keystream = self.aes.encrypt_block(ctr);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
        }
    }

    fn tag(&self, j0: [u8; BLOCK_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let s = self.ghash(aad, ciphertext);
        let ekj0 = self.aes.encrypt_block(j0);
        let mut tag = [0u8; TAG_LEN];
        for i in 0..TAG_LEN {
            tag[i] = s[i] ^ ekj0[i];
        }
        tag
    }

    fn seal(&self, j0: &[u8; BLOCK_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        self.ctr_xor(*j0, data);
        self.tag(*j0, aad, data)
    }

    fn open(
        &self,
        j0: &[u8; BLOCK_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        if !ct_eq(&self.tag(*j0, aad, data), tag) {
            return Err(CryptoError::AeadAuthenticationFailed);
        }
        self.ctr_xor(*j0, data);
        Ok(())
    }
}

/// Increments the low 32 bits of a counter block (GCM `inc32`).
fn inc32(block: &mut [u8; BLOCK_LEN]) {
    let mut ctr = u32::from_be_bytes(block[12..16].try_into().expect("4 bytes"));
    ctr = ctr.wrapping_add(1);
    block[12..16].copy_from_slice(&ctr.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn iv12(s: &str) -> [u8; 12] {
        unhex(s).try_into().expect("12-byte iv")
    }

    /// The hardware key for `key`, or `None` on a CPU without AES-NI,
    /// PCLMULQDQ and SSSE3 (the hardware-only tests then pass
    /// vacuously; the portable path is still covered).
    fn hardware(key: &[u8]) -> Option<Gcm> {
        let gcm = Gcm::new(key).expect("valid key");
        (gcm.backend_name() == "aes-ni").then_some(gcm)
    }

    /// Every backend this CPU can run, portable first.
    fn backends(key: &[u8]) -> Vec<Gcm> {
        let mut all = vec![Gcm::new_portable(key).expect("valid key")];
        all.extend(hardware(key));
        all
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn new_selects_hardware_exactly_when_the_cpu_has_it() {
        let detected = is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3");
        let gcm = Gcm::new(&[0u8; 16]).expect("valid key");
        assert_eq!(gcm.backend_name() == "aes-ni", detected);
        assert_eq!(
            Gcm::new_portable(&[0u8; 16]).unwrap().backend_name(),
            "portable"
        );
        assert!(!format!("{gcm:?}").contains("rk"), "Debug leaks no key");
    }

    // NIST GCM test case 1: zero key, zero IV, empty everything.
    #[test]
    fn nist_case_1() {
        for gcm in backends(&[0u8; 16]) {
            let sealed = gcm.seal(&[0u8; 12], b"", b"");
            assert_eq!(hex(&sealed), "58e2fccefa7e3061367f1d57a4e7455a");
        }
    }

    // NIST GCM test case 2: zero key/IV, one zero block.
    #[test]
    fn nist_case_2() {
        for gcm in backends(&[0u8; 16]) {
            let sealed = gcm.seal(&[0u8; 12], b"", &[0u8; 16]);
            assert_eq!(
                hex(&sealed),
                "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
            );
            let opened = gcm.open(&[0u8; 12], b"", &sealed).expect("authentic");
            assert_eq!(opened, [0u8; 16]);
        }
    }

    // NIST GCM test case 3: 4-block plaintext, no AAD.
    #[test]
    fn nist_case_3() {
        for gcm in backends(&unhex("feffe9928665731c6d6a8f9467308308")) {
            let iv = iv12("cafebabefacedbaddecaf888");
            let pt = unhex(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            );
            let sealed = gcm.seal(&iv, b"", &pt);
            assert_eq!(
                hex(&sealed[..64]),
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            );
            assert_eq!(hex(&sealed[64..]), "4d5c2af327cd64a62cf35abd2ba6fab4");
            assert_eq!(gcm.open(&iv, b"", &sealed).expect("authentic"), pt);
        }
    }

    // NIST GCM test case 4: partial final block plus AAD.
    #[test]
    fn nist_case_4() {
        for gcm in backends(&unhex("feffe9928665731c6d6a8f9467308308")) {
            let iv = iv12("cafebabefacedbaddecaf888");
            let pt = unhex(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            );
            let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
            let sealed = gcm.seal(&iv, &aad, &pt);
            assert_eq!(
                hex(&sealed[..pt.len()]),
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            );
            assert_eq!(hex(&sealed[pt.len()..]), "5bc94fbc3221a5db94fae95ae7121a47");
            assert_eq!(gcm.open(&iv, &aad, &sealed).expect("authentic"), pt);
        }
    }

    /// Seals with both backends, requires identical bytes, and opens
    /// each output with the other backend.
    fn assert_backends_agree(portable: &Gcm, hw: &Gcm, len: usize, aad_len: usize) {
        let iv: [u8; 12] = std::array::from_fn(|i| (len + 3 * i) as u8);
        let aad: Vec<u8> = (0..aad_len).map(|i| (i * 31 + 7) as u8).collect();
        let pt: Vec<u8> = (0..len).map(|i| (i * 13 + aad_len) as u8).collect();
        let a = portable.seal(&iv, &aad, &pt);
        let b = hw.seal(&iv, &aad, &pt);
        assert!(a == b, "backends differ at len {len}, aad {aad_len}");
        assert_eq!(hw.open(&iv, &aad, &a).expect("authentic"), pt);
        assert_eq!(portable.open(&iv, &aad, &b).expect("authentic"), pt);
    }

    #[test]
    fn backends_agree_on_every_length_class() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + key_len) as u8).collect();
            let Some(hw) = hardware(&key) else { return };
            let portable = Gcm::new_portable(&key).expect("valid key");
            // Every length up to 600 (all stripe/tail splits), a full and
            // an overfull PFS node, each with an AAD length cycling
            // through 0..=70.
            for len in (0..=600).chain([4068, 4096]) {
                assert_backends_agree(&portable, &hw, len, (len * 7) % 71);
            }
            // Every AAD length against the block-boundary data lengths.
            for aad_len in 0..=70 {
                for len in [0, 1, 16, 17, 127, 128, 129] {
                    assert_backends_agree(&portable, &hw, len, aad_len);
                }
            }
            assert_backends_agree(&portable, &hw, (1 << 20) + 3, 13);
        }
    }

    #[test]
    fn unaligned_buffers_match_the_oracle() {
        let Some(hw) = hardware(&[5u8; 16]) else {
            return;
        };
        let portable = Gcm::new_portable(&[5u8; 16]).expect("valid key");
        let iv = [9u8; 12];
        for offset in [1usize, 7, 12] {
            let mut a: Vec<u8> = (0..offset + 300).map(|i| i as u8).collect();
            let mut b = a.clone();
            let tag_a = hw.seal_in_place(&iv, b"ad", &mut a[offset..]);
            let tag_b = portable.seal_in_place(&iv, b"ad", &mut b[offset..]);
            assert_eq!((a.clone(), tag_a), (b, tag_b), "offset {offset}");
            hw.open_in_place(&iv, b"ad", &mut a[offset..], &tag_a)
                .expect("authentic");
            assert!(a[offset..]
                .iter()
                .enumerate()
                .all(|(i, &x)| x == (i + offset) as u8));
        }
    }

    #[test]
    fn hardware_rejects_every_single_bit_flip() {
        let Some(gcm) = hardware(&[1u8; 16]) else {
            return;
        };
        let iv = [2u8; 12];
        let aad = b"associated";
        let pt: Vec<u8> = (0..150u8).collect();
        let sealed = gcm.seal(&iv, aad, &pt);
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let (ct, tag) = bad.split_at_mut(pt.len());
            let before = ct.to_vec();
            assert_eq!(
                gcm.open_in_place(&iv, aad, ct, tag),
                Err(CryptoError::AeadAuthenticationFailed),
                "flip of bit {bit} not detected"
            );
            assert_eq!(ct, &before[..], "failed open altered the buffer");
        }
        for bit in 0..aad.len() * 8 {
            let mut bad_aad = aad.to_vec();
            bad_aad[bit / 8] ^= 1 << (bit % 8);
            assert!(gcm.open(&iv, &bad_aad, &sealed).is_err(), "aad bit {bit}");
        }
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        for gcm in backends(&[1u8; 16]) {
            let iv = [2u8; 12];
            let mut sealed = gcm.seal(&iv, b"aad", b"hello world");
            for i in 0..sealed.len() {
                let mut bad = sealed.clone();
                bad[i] ^= 0x80;
                assert_eq!(
                    gcm.open(&iv, b"aad", &bad).unwrap_err(),
                    CryptoError::AeadAuthenticationFailed,
                    "flip at byte {i} not detected"
                );
            }
            // Wrong AAD, wrong IV, truncation.
            assert!(gcm.open(&iv, b"aad2", &sealed).is_err());
            assert!(gcm.open(&[3u8; 12], b"aad", &sealed).is_err());
            assert!(gcm.open(&iv, b"aad", &sealed[..10]).is_err());
            sealed.truncate(TAG_LEN - 1);
            assert!(gcm.open(&iv, b"aad", &sealed).is_err());
        }
    }

    #[test]
    fn gf_mul_commutes_and_distributes() {
        let a = 0x0123456789abcdef0011223344556677u128;
        let b = 0xfedcba98765432100aa0bb0cc0dd0ee0u128;
        let c = 0xdeadbeefcafebabe1234567890abcdefu128;
        assert_eq!(gf_mul_slow(a, b), gf_mul_slow(b, a));
        assert_eq!(gf_mul_slow(a ^ b, c), gf_mul_slow(a, c) ^ gf_mul_slow(b, c));
        // 1 (the GCM "reflected one": MSB set) is the identity.
        let one = 1u128 << 127;
        assert_eq!(gf_mul_slow(a, one), a);
    }

    const MUL_SAMPLES: [u128; 6] = [
        0,
        1,
        1 << 127,
        0x0123456789abcdef0011223344556677,
        0xe100_0000_0000_0000_0000_0000_0000_0001,
        u128::MAX,
    ];

    #[test]
    fn table_mul_matches_slow_mul() {
        let aes = Aes::new(&[9u8; 16]).expect("valid key");
        let h = u128::from_be_bytes(aes.encrypt_block([0u8; 16]));
        let portable = Portable::new(aes);
        for x in MUL_SAMPLES {
            assert_eq!(portable.mul_h(x), gf_mul_slow(x, h));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_matches_slow_mul() {
        let aes = Aes::new(&[9u8; 16]).expect("valid key");
        let h = u128::from_be_bytes(aes.encrypt_block([0u8; 16]));
        let Some(key) = aesni::Key::new(&aes) else {
            return;
        };
        for x in MUL_SAMPLES {
            assert_eq!(key.mul_h(x), gf_mul_slow(x, h), "x = {x:#x}");
        }
    }

    #[test]
    fn roundtrip_various_lengths() {
        for gcm in backends(&[7u8; 32]) {
            let iv = [1u8; 12];
            for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 4096] {
                let pt: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
                let sealed = gcm.seal(&iv, b"ctx", &pt);
                assert_eq!(sealed.len(), len + TAG_LEN);
                assert_eq!(gcm.open(&iv, b"ctx", &sealed).expect("authentic"), pt);
            }
        }
    }

    #[test]
    fn inc32_wraps_only_low_word() {
        let mut block = [0xffu8; 16];
        inc32(&mut block);
        assert_eq!(&block[..12], &[0xff; 12]);
        assert_eq!(&block[12..], &[0, 0, 0, 0]);
    }
}
