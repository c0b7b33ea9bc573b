//! The host reference kernel. Frozen: it depends on no workspace crate
//! and must never change, so a shift in `host.ref_kernel_ms` between
//! two runs shows host drift (another tenant, a frequency change) and
//! not a code change. Editing it invalidates every earlier reading.

use std::hint::black_box;
use std::time::Instant;

/// Median wall time in ms of five passes of a fixed integer kernel:
/// a 4 MiB multiply-xor mix followed by sorting 256 Ki generated words.
pub fn ref_kernel_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(pass(black_box(0x5EED)));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

fn pass(seed: u64) -> u64 {
    let mut state = seed;
    let mut words: Vec<u64> = (0..(1u64 << 18))
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    let mut h = 0u64;
    for _ in 0..2 {
        for w in &words {
            h = (h ^ w).wrapping_mul(0x100_0000_01B3).rotate_left(23);
        }
    }
    words.sort_unstable();
    h ^ words[words.len() / 2]
}
