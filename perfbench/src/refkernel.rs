//! The reference kernel: a fixed amount of sort, float, hash and
//! streaming work in the benchmark's own code, calling nothing from the
//! workspace. Its time, taken between requests on the same pinned CPU as
//! the daemon, measures how fast the machine happens to run at that
//! moment; every reported timing is divided by it (see
//! [`crate::stats::Normaliser`]).
//!
//! Measured on a shared 2-vCPU guest, replaying one seed in eight fresh
//! processes: the sort part alone tracked `simulate-paper` in proportion
//! but moved half as much as `plan-road-800`; a streaming pass over
//! 2 MiB tracked the road workload but not the simulator; their sum
//! narrowed the spread of both. A dependent walk over 4 MiB tracked
//! neither.

use crate::workloads::splitmix;
use std::hint::black_box;
use std::time::Instant;

/// Median kernel time, in ms, on the machine the benchmark's bounds were
/// set on (a 2-vCPU KVM guest). Only the ratio to it matters; a change
/// to the kernel must re-measure this constant.
pub const REF_NOMINAL_MS: f64 = 1.6;

const SORT_KEYS: usize = 32_768;
/// 2 MiB of `u64`, written then read: bandwidth past the private caches.
const STREAM_WORDS: usize = 1 << 18;

/// One unit of reference work; returns a checksum so the work cannot be
/// optimised away.
pub fn work() -> u64 {
    let mut state = 0x005e_ed0f_be11_c4a5_u64;
    let mut keys: Vec<u64> = (0..SORT_KEYS).map(|_| splitmix(&mut state)).collect();
    keys.sort_unstable();
    let mut acc = 0.0f64;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (i, &k) in keys.iter().enumerate() {
        acc += ((k >> 11) as f64 * 1e-9).sqrt() / (1.0 + i as f64);
        hash = (hash ^ k).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut stream: Vec<u64> = Vec::with_capacity(STREAM_WORDS);
    for i in 0..STREAM_WORDS as u64 {
        stream.push(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    hash ^ acc.to_bits() ^ stream.iter().fold(0, |h, &x| h ^ x)
}

/// Times one [`work`] call, in ms.
pub fn time_once() -> f64 {
    let t = Instant::now();
    black_box(work());
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(super::work(), super::work());
    }
}
