//! Property-based tests over the cryptographic substrate.

use proptest::prelude::*;
use seg_crypto::ct::ct_eq;
use seg_crypto::curve25519::{EdwardsPoint, Scalar};
use seg_crypto::ed25519::SecretKey;
use seg_crypto::gcm::Gcm;
use seg_crypto::hkdf;
use seg_crypto::hmac::Hmac;
use seg_crypto::mset::{MsetHash, MsetKey};
use seg_crypto::pae::{pae_dec, pae_enc, PaeKey, PAE_OVERHEAD};
use seg_crypto::rng::DeterministicRng;
use seg_crypto::sha256::Sha256;
use seg_crypto::sha512::Sha512;
use seg_crypto::x25519;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha512_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha512::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha512::digest(&data));
    }

    #[test]
    fn hmac_key_and_data_sensitivity(
        key in proptest::collection::vec(any::<u8>(), 1..128),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        flip in any::<u8>(),
    ) {
        let tag = Hmac::<Sha256>::mac(&key, &data);
        prop_assert!(Hmac::<Sha256>::verify(&key, &data, &tag));
        // Flipping any key bit changes the tag.
        let mut key2 = key.clone();
        let idx = (flip as usize) % key2.len();
        key2[idx] ^= 1;
        prop_assert_ne!(Hmac::<Sha256>::mac(&key2, &data), tag);
    }

    #[test]
    fn hkdf_output_prefix_consistency(
        ikm in proptest::collection::vec(any::<u8>(), 1..64),
        info in proptest::collection::vec(any::<u8>(), 0..32),
        len_a in 1usize..200,
        len_b in 1usize..200,
    ) {
        let (short, long) = if len_a < len_b { (len_a, len_b) } else { (len_b, len_a) };
        let okm_long = hkdf::hkdf::<Sha256>(b"salt", &ikm, &info, long);
        let okm_short = hkdf::hkdf::<Sha256>(b"salt", &ikm, &info, short);
        prop_assert_eq!(&okm_long[..short], &okm_short[..]);
    }

    #[test]
    fn gcm_roundtrip(
        key in proptest::array::uniform16(any::<u8>()),
        iv in proptest::array::uniform12(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        pt in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let gcm = Gcm::new(&key).expect("valid key");
        let sealed = gcm.seal(&iv, &aad, &pt);
        prop_assert_eq!(gcm.open(&iv, &aad, &sealed).expect("authentic"), pt);
    }

    #[test]
    fn gcm_matches_the_portable_oracle(
        key in proptest::array::uniform32(any::<u8>()),
        key_size in 0usize..3,
        iv in proptest::array::uniform12(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..80),
        pt in proptest::collection::vec(any::<u8>(), 0..1100),
    ) {
        // Whichever backend `new` picks on this CPU must agree byte for
        // byte with the portable one, and each must open the other's
        // output.
        let key = &key[..16 + 8 * key_size];
        let gcm = Gcm::new(key).expect("valid key");
        let oracle = Gcm::new_portable(key).expect("valid key");
        let sealed = gcm.seal(&iv, &aad, &pt);
        prop_assert_eq!(&sealed, &oracle.seal(&iv, &aad, &pt));
        prop_assert_eq!(oracle.open(&iv, &aad, &sealed).expect("authentic"), pt.clone());
        let mut data = pt.clone();
        let tag = oracle.seal_in_place(&iv, &aad, &mut data);
        gcm.open_in_place(&iv, &aad, &mut data, &tag).expect("authentic");
        prop_assert_eq!(data, pt);
    }

    #[test]
    fn gcm_detects_any_single_bit_flip(
        key in proptest::array::uniform16(any::<u8>()),
        pt in proptest::collection::vec(any::<u8>(), 1..128),
        byte_idx in any::<u16>(),
        bit in 0u8..8,
    ) {
        let gcm = Gcm::new(&key).expect("valid key");
        let iv = [1u8; 12];
        let mut sealed = gcm.seal(&iv, b"", &pt);
        let idx = (byte_idx as usize) % sealed.len();
        sealed[idx] ^= 1 << bit;
        prop_assert!(gcm.open(&iv, b"", &sealed).is_err());
    }

    #[test]
    fn pae_roundtrip_and_overhead(
        key in proptest::array::uniform16(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        pt in proptest::collection::vec(any::<u8>(), 0..512),
        seed in any::<u64>(),
    ) {
        let key = PaeKey::from_bytes(&key);
        let mut rng = DeterministicRng::seeded(seed);
        let c = pae_enc(&key, &pt, &aad, &mut rng);
        prop_assert_eq!(c.len(), pt.len() + PAE_OVERHEAD);
        prop_assert_eq!(pae_dec(&key, &c, &aad).expect("authentic"), pt);
    }

    #[test]
    fn mset_hash_is_order_independent(
        elements in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 0..12),
        seed in any::<u64>(),
    ) {
        let key = MsetKey::from_bytes([3u8; 32]);
        let mut forward = MsetHash::empty();
        for e in &elements {
            forward.add(&key, e);
        }
        // Shuffle deterministically by sorting with a keyed comparator.
        let mut shuffled = elements.clone();
        shuffled.sort_by_key(|e| seg_crypto::hmac::hmac_sha256(&seed.to_le_bytes(), e));
        let mut reordered = MsetHash::empty();
        for e in &shuffled {
            reordered.add(&key, e);
        }
        prop_assert_eq!(forward, reordered);
        prop_assert_eq!(forward.count(), elements.len() as u64);
        let _ = seed;
    }

    #[test]
    fn mset_incremental_update_equals_rebuild(
        base in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..8), 1..8),
        replacement in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let key = MsetKey::from_bytes([4u8; 32]);
        let mut incremental = MsetHash::empty();
        for e in &base {
            incremental.add(&key, e);
        }
        incremental.replace(&key, &base[0], &replacement);

        let mut rebuilt = MsetHash::empty();
        rebuilt.add(&key, &replacement);
        for e in &base[1..] {
            rebuilt.add(&key, e);
        }
        prop_assert_eq!(incremental, rebuilt);
    }

    #[test]
    fn ed25519_sign_verify(seed in proptest::array::uniform32(any::<u8>()), msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let sk = SecretKey::from_seed(&seed);
        let sig = sk.sign(&msg);
        prop_assert!(sk.public_key().verify(&msg, &sig).is_ok());
    }

    #[test]
    fn ed25519_rejects_cross_messages(
        seed in proptest::array::uniform32(any::<u8>()),
        msg1 in proptest::collection::vec(any::<u8>(), 0..64),
        msg2 in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assume!(msg1 != msg2);
        let sk = SecretKey::from_seed(&seed);
        let sig = sk.sign(&msg1);
        prop_assert!(sk.public_key().verify(&msg2, &sig).is_err());
    }

    #[test]
    fn x25519_dh_agreement(seed in any::<u64>()) {
        let mut rng = DeterministicRng::seeded(seed);
        let a = x25519::EphemeralKeyPair::generate(&mut rng);
        let b = x25519::EphemeralKeyPair::generate(&mut rng);
        prop_assert_eq!(
            a.diffie_hellman(b.public()).expect("strong"),
            b.diffie_hellman(a.public()).expect("strong")
        );
    }

    #[test]
    fn scalar_point_homomorphism(a in any::<u64>(), b in any::<u64>()) {
        // (a + b) * B == a*B + b*B
        let sa = Scalar::from_u64(a);
        let sb = Scalar::from_u64(b);
        let lhs = EdwardsPoint::mul_base(&sa.add(&sb));
        let rhs = EdwardsPoint::mul_base(&sa).add(&EdwardsPoint::mul_base(&sb));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn ct_eq_matches_plain_equality(a in proptest::collection::vec(any::<u8>(), 0..64), b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }
}
