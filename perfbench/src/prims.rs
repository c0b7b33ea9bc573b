//! The primitive table: single-threaded timings of direct calls into
//! `seg_crypto` and `seg_sgx::pfs`. These rows explain end-to-end
//! movements; none of them enters an end-to-end metric.

use std::hint::black_box;
use std::time::Instant;

use seg_crypto::ed25519::SecretKey;
use seg_crypto::gcm::Gcm;
use seg_crypto::hkdf::derive_key_128;
use seg_crypto::hmac::hmac_sha256;
use seg_crypto::mset::{MsetHash, MsetKey};
use seg_crypto::rng::DeterministicRng;
use seg_crypto::sha256::Sha256;
use seg_crypto::x25519;
use seg_sgx::pfs::{pfs_decrypt, pfs_encrypt};

/// Median over `batches` batches of the mean µs per call of `f`.
fn per_call_us(iters: u32, batches: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut v: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// `(metric name, value)` rows, in the order `BENCHMARK.json` lists them.
pub fn table() -> Vec<(&'static str, f64)> {
    let key = [7u8; 16];
    let iv = [9u8; 12];
    let gcm = Gcm::new(&key).expect("16-byte key");
    let mib = vec![0x5Au8; 1 << 20];
    let page = vec![0xA5u8; 4096];
    let small = [0x3Cu8; 64];
    let root = [1u8; 32];
    let mkey = MsetKey::from_bytes([2u8; 32]);
    let sk = SecretKey::from_seed(&[3u8; 32]);
    let pk = sk.public_key();
    let sig = sk.sign(&small);
    let scalar = x25519::clamp([4u8; 32]);
    let peer = x25519::base_mult(&x25519::clamp([5u8; 32]));
    let mut rng = DeterministicRng::seeded(11);
    let blob = pfs_encrypt(&key, &page, &mut rng).expect("16-byte key");
    let mut acc = MsetHash::empty();

    let seal_1m_us = per_call_us(2, 5, || {
        black_box(gcm.seal(&iv, b"", black_box(&mib)));
    });
    let sha_1m_us = per_call_us(2, 5, || {
        black_box(Sha256::digest(black_box(&mib)));
    });
    vec![
        (
            "crypto.x25519_us",
            per_call_us(20, 5, || {
                black_box(x25519::scalar_mult(black_box(&scalar), &peer));
            }),
        ),
        (
            "crypto.ed25519_sign_us",
            per_call_us(20, 5, || {
                black_box(sk.sign(black_box(&small)));
            }),
        ),
        (
            "crypto.ed25519_verify_us",
            per_call_us(20, 5, || {
                black_box(pk.verify(black_box(&small), &sig)).expect("valid signature");
            }),
        ),
        ("crypto.gcm_seal_1m_mib_s", 1e6 / seal_1m_us),
        (
            "crypto.gcm_seal_4k_us",
            per_call_us(200, 5, || {
                black_box(gcm.seal(&iv, b"", black_box(&page)));
            }),
        ),
        (
            "crypto.gcm_key_setup_us",
            per_call_us(200, 5, || {
                black_box(Gcm::new(black_box(&key)).expect("16-byte key"));
            }),
        ),
        (
            "crypto.hmac_64b_us",
            per_call_us(2000, 5, || {
                black_box(hmac_sha256(&root, black_box(&small)));
            }),
        ),
        ("crypto.sha256_mib_s", 1e6 / sha_1m_us),
        (
            "crypto.mset_add_us",
            per_call_us(2000, 5, || {
                acc.add(&mkey, black_box(&small));
            }),
        ),
        (
            "crypto.hkdf_us",
            per_call_us(2000, 5, || {
                black_box(derive_key_128(&root, "bench", black_box(&small)));
            }),
        ),
        (
            "pfs.seal_4k_us",
            per_call_us(200, 5, || {
                black_box(pfs_encrypt(&key, black_box(&page), &mut rng).expect("16-byte key"));
            }),
        ),
        (
            "pfs.open_4k_us",
            per_call_us(200, 5, || {
                black_box(pfs_decrypt(&key, black_box(&blob)).expect("intact blob"));
            }),
        ),
    ]
}
