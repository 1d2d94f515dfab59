//! The reference reading: a fixed kernel that calls no program code, timed
//! at the start and at the end of every run and printed beside the
//! host-time metrics. On a shared virtual machine the speed of the CPU
//! itself drifts; the reading shows how fast the machine was while a run
//! measured. Host-time metrics are not scaled by it (see the README).

use std::time::Instant;

/// Words in the kernel's working set (512 KiB, about a core's L2 cache).
const WORDS: usize = 1 << 16;
/// Steps per slice (about 1 ms on the machine the README's figures come
/// from).
const STEPS: usize = 40_000;
/// Slices per reading.
const SLICES: usize = 25;

/// The median time of one kernel slice, in milliseconds, over a reading.
pub fn reading_ms() -> f64 {
    let mut table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let mut x = 1u64;
    let mut slices = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        let start = Instant::now();
        // A dependent random walk over the table with a little arithmetic
        // and one small allocation per 64 steps.
        let mut boxes = Vec::new();
        for step in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (WORDS - 1);
            table[slot] = table[slot].wrapping_add(x).rotate_left(5);
            x ^= table[(table[slot] as usize) & (WORDS - 1)];
            if step % 64 == 0 {
                boxes.push(vec![x; 8]);
            }
        }
        x |= 1;
        std::hint::black_box(&boxes);
        slices.push(start.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&slices).unwrap_or(f64::NAN)
}
