//! The harness-owned reference kernel.
//!
//! Every round of every workload is divided by the wall time of the two
//! calls of this kernel that surround it, so a core that runs slower for a
//! while (a busy sibling, a neighbour on the host) slows numerator and
//! denominator alike.  The mix follows what the engine does to a document:
//! a skipping scan over parallel `u32` columns (staircase join), a hash
//! build and probe (equi-join), a gather (projection through a row map), a
//! sort (row numbering) and integer formatting (serialization).
//!
//! A change that claims a gain never edits this file: the numbers of two
//! commits are comparable only while the denominator is the same program.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;

use crate::stats::SplitMix64;

/// Rows per column.  Four `u32` columns of this length are 32 MB, and with
/// the keys, the hash table and the sort buffers one call touches 40 MB:
/// the order of what the engine touches in a pass over the scale-2 document
/// (85 MB resident).  A quarter of the rows four times over, 10 MB, took
/// the same time and followed a loud box less far: where a neighbour slowed
/// `cold_oneshot`'s round from 130 to 200 ms, the ratio to that kernel rose
/// 21 % and the ratio to this one 3 %, and over eight runs `theta_warm`'s
/// spread was 3.0 % against 1.6 %.
pub const ROWS: usize = 2 * 1024 * 1024;

const SEED: u64 = 0x5EED_0F7E_57A1;

/// A fixed multiplicative hash of the `u32` keys.  The default hasher is
/// keyed at random per process, which alone moved the kernel's time by
/// several percent from one process to the next.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the kernel hashes u32 keys only");
    }

    fn write_u32(&mut self, key: u32) {
        let h = (u64::from(key) ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        self.0 = h ^ (h >> 32);
    }
}

pub struct RefKernel {
    pre: Vec<u32>,
    size: Vec<u32>,
    level: Vec<u32>,
    kind: Vec<u32>,
    keys: Vec<u32>,
    sort_input: Vec<u64>,
    sort_buf: Vec<u64>,
    text: String,
}

impl RefKernel {
    pub fn new() -> Self {
        let mut rng = SplitMix64::new(SEED);
        let n = ROWS;
        RefKernel {
            pre: (0..n as u32).collect(),
            size: (0..n).map(|_| rng.below(6) as u32).collect(),
            level: (0..n).map(|_| rng.below(12) as u32).collect(),
            kind: (0..n).map(|_| rng.below(4) as u32).collect(),
            keys: (0..n / 8).map(|_| rng.below(n as u64) as u32).collect(),
            sort_input: (0..n / 8).map(|_| rng.next_u64()).collect(),
            sort_buf: Vec::with_capacity(n / 8),
            text: String::new(),
        }
    }

    /// One call: the same work on the same data every time, about 23 ms on
    /// the box the benchmark was defined on.  Returns a checksum so nothing
    /// can be optimized away.
    pub fn run(&mut self) -> u64 {
        black_box(self.mix())
    }

    fn mix(&mut self) -> u64 {
        let n = ROWS;
        let mut sum = 0u64;

        // Scan with data-dependent skips over four columns.
        let mut i = 0;
        while i < n {
            if self.kind[i] == 1 && self.level[i] > 2 {
                sum += u64::from(self.pre[i]);
                i += 1;
            } else {
                i += 1 + (self.size[i] & 1) as usize;
            }
        }

        // Hash build, then probe.
        let mut index: HashMap<u32, u32, BuildHasherDefault<KeyHasher>> =
            HashMap::with_capacity_and_hasher(n / 8, BuildHasherDefault::default());
        for (row, &key) in self.keys.iter().enumerate() {
            index.insert(key, row as u32);
        }
        for &key in &self.keys {
            if let Some(&row) = index.get(&(key ^ 1)) {
                sum += u64::from(row);
            }
        }

        // Gather through a row map.
        for &key in &self.keys {
            sum += u64::from(self.level[key as usize]) + u64::from(self.size[key as usize]);
        }

        // Sort.
        self.sort_buf.clear();
        self.sort_buf.extend_from_slice(&self.sort_input);
        self.sort_buf.sort_unstable();
        sum ^= self.sort_buf[n / 16];

        // Format integers.
        self.text.clear();
        for &v in &self.sort_input[..n / 32] {
            let _ = write!(self.text, "{} ", v >> 20);
        }
        sum + self.text.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_on_every_call() {
        let mut a = RefKernel::new();
        let mut b = RefKernel::new();
        let first = a.run();
        assert_eq!(first, a.run());
        assert_eq!(first, b.run());
    }
}
