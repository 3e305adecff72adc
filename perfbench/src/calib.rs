//! Host-speed calibration. On shared hosts the same round runs up to 1.7x
//! slower in some stretches of time than in others, and the slow stretches
//! last longer than a run. A fixed kernel that uses no code of the program
//! (ordered-map lookups and a memory stream, the simulator's two dominant
//! access patterns) is timed before and after every round; the round's
//! host times are scaled by the kernel's nominal time over its measured
//! time. A program change moves the round but not the kernel, so it shows
//! in the scaled times; a slow stretch of the host moves both and cancels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the host the benchmark was sized on (2 cores),
/// seconds. Scaled times read as seconds on that host.
pub const NOMINAL_S: f64 = 0.065;

/// The kernel's data, built once per process.
pub struct Calibration {
    map: BTreeMap<u64, u64>,
    stream: Vec<u64>,
}

impl Calibration {
    /// Builds the kernel's data: a 131,072-entry ordered map and a 4 MiB
    /// stream.
    pub fn new() -> Self {
        Calibration {
            map: (0..131_072u64)
                .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i))
                .collect(),
            stream: (0..524_288u64).collect(),
        }
    }

    /// Host seconds of one pass of the kernel.
    pub fn measure(&self) -> f64 {
        let start = Instant::now();
        let mut x = 1u64;
        let mut acc = 0u64;
        for _ in 0..300_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            acc = acc.wrapping_add(self.map.range(x..).next().map_or(0, |(_, v)| *v));
        }
        for _ in 0..8 {
            acc = acc.wrapping_add(self.stream.iter().sum::<u64>());
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}
