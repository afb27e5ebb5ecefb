//! A fixed piece of host work, independent of the simulator's code,
//! timed between the measured repeats to tell how fast the shared host
//! is running at that moment.
//!
//! The host the benchmark was tuned on switches between a fast state
//! and one about 1.7x slower, for seconds to minutes at a time. Simple
//! compute loops and cache-latency chases barely notice; a loop of
//! unpredictable branches over a table just larger than L1 slows about
//! as much as the simulator does, so it is the probe.

use std::hint::black_box;
use std::time::Instant;

/// Table size: more than a typical 48 KiB L1 data cache.
const TABLE_BYTES: usize = 64 * 1024;
/// Timed passes over the table per sample (about 2 ms).
const PASSES: u8 = 40;

/// The probe's table of seeded bytes, held inline rather than on the
/// heap: a heap block allocated before the measured runs shifted the
/// allocator's layout enough to raise `mix8-fig`'s peak RSS by 6 MB.
#[derive(Debug)]
pub struct HostProbe {
    table: [u8; TABLE_BYTES],
}

impl Default for HostProbe {
    fn default() -> Self {
        let mut x = 7_u64;
        let table = std::array::from_fn(|_| {
            x = crate::workload::mix64(x);
            x.to_le_bytes()[0]
        });
        Self { table }
    }
}

impl HostProbe {
    /// One untimed pass (the table is cold after a repeat), then the
    /// nanoseconds [`PASSES`] timed passes take.
    pub fn sample_ns(&self) -> u64 {
        self.passes(1);
        let t0 = Instant::now();
        self.passes(PASSES);
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn passes(&self, n: u8) {
        let mut acc = 0_u64;
        for pass in 0..n {
            for &v in black_box(&self.table) {
                // Random bytes against a threshold: the branch is taken
                // about 40% of the time, unpredictably.
                if v ^ pass < 100 {
                    acc = acc.wrapping_add(u64::from(v));
                } else {
                    acc ^= u64::from(v) << 3;
                }
            }
        }
        black_box(acc);
    }
}
