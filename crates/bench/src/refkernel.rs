//! The frozen host reference kernel that calibrates `perf_gate`.
//!
//! A gate that divides by the code under test cannot see that code
//! get faster or slower: scaling by this repository's own GCM turned a
//! GCM speedup into an equal "regression" on every workload. This
//! kernel depends on no workspace crate, so its time moves only with
//! the host (another tenant, a frequency change, a slower runner),
//! never with a change to the code. `perf_gate` scales every wall-clock
//! mean by `baseline ref_ms / current ref_ms` before comparing.
//!
//! Frozen: changing the kernel invalidates every recorded baseline;
//! re-baseline in the same change if it ever must change.

use std::hint::black_box;
use std::time::Instant;

/// Words in the kernel's working set (2 MiB of `u64`).
const WORDS: usize = 1 << 18;

/// Median wall time in ms of five kernel passes.
#[must_use]
pub fn ref_kernel_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(pass(black_box(0x9E37_79B9_7F4A_7C15)));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// One pass: fill with a xorshift stream, two multiply-rotate mixing
/// sweeps (integer ALU + streaming loads), then an unstable sort
/// (branches + data-dependent memory traffic).
fn pass(seed: u64) -> u64 {
    let mut x = seed;
    let mut words: Vec<u64> = (0..WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut h = seed;
    for _ in 0..2 {
        for w in &mut words {
            h = (h ^ *w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
            *w ^= h >> 11;
        }
    }
    words.sort_unstable();
    h ^ words[WORDS / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_is_deterministic() {
        assert_eq!(pass(1), pass(1));
        assert_ne!(pass(1), pass(2));
    }
}
