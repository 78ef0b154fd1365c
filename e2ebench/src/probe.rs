//! Host-side steadiness instrumentation: the reference probe the host
//! metrics are drift-corrected against, hypervisor steal, and peak
//! resident memory.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::content::mix;

/// Entries in the probe's table (the warm-read population's size).
const ENTRIES: u64 = 2000;
/// Lookups per probe quantum.
const LOOKUPS: u64 = 8192;
/// Bytes the cache sweep copies, and entries of its pointer cycle
/// (16 MB of `u32`s: beyond the last-level cache).
const SWEEP_COPY: usize = 1 << 20;
const SWEEP_CHASE: usize = 4 << 20;
/// Dependent loads per sweep.
const SWEEP_STEPS: usize = 16 << 10;

/// The reference probe: a fixed quantum of work shaped like the server's
/// fast path, written independently of it.  It looks keys up in a hash
/// table with skewed popularity and copies each value (256 B – 8.4 KB)
/// into a fresh allocation.  Co-tenant interference slows this kind of
/// work (hashing, allocation, small copies) the way it slows the
/// benchmark's own calls; a pure memory-bandwidth probe tracked them
/// poorly.  The table uses a fixed hasher, so every run probes the same
/// layout.
///
/// After the timed quantum an untimed cache sweep (block copies and a
/// dependent pointer chase through 16 MB) leaves the caches in the same
/// state before every slice of steps.
pub struct RefProbe {
    table: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>>,
    keys: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
    chase: Vec<u32>,
    at: u32,
}

impl Default for RefProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl RefProbe {
    /// Builds the probe's table and key sequence.
    pub fn new() -> RefProbe {
        let table = (0..ENTRIES)
            .map(|i| {
                (
                    mix(i ^ 0x7ab1e),
                    vec![i as u8; 256 + (mix(i) % 8192) as usize],
                )
            })
            .collect();
        // Cubing a uniform draw skews popularity towards low ranks.
        let keys = (0..LOOKUPS)
            .map(|j| {
                let u = (mix(j ^ 0x5eed) % 1000) as f64 / 1000.0;
                mix(((u * u * u) * ENTRIES as f64) as u64 ^ 0x7ab1e)
            })
            .collect();
        // Sattolo's algorithm: one cycle through every slot.
        let mut chase: Vec<u32> = (0..SWEEP_CHASE as u32).collect();
        for i in (1..SWEEP_CHASE).rev() {
            chase.swap(i, (mix(i as u64 ^ 0xc4a5e) % i as u64) as usize);
        }
        RefProbe {
            table,
            keys,
            src: (0..SWEEP_COPY).map(|i| mix(i as u64) as u8).collect(),
            dst: vec![0; SWEEP_COPY],
            chase,
            at: 0,
        }
    }

    /// Runs one probe quantum, then the cache sweep; returns the
    /// quantum's host time in ns.
    pub fn run(&mut self) -> u64 {
        let t0 = Instant::now();
        let mut bytes = 0usize;
        for k in &self.keys {
            let copy = self.table[k].clone();
            bytes += black_box(copy).len();
        }
        black_box(bytes);
        let ns = t0.elapsed().as_nanos() as u64;
        for _ in 0..2 {
            self.dst.copy_from_slice(black_box(&self.src));
            black_box(&mut self.dst);
        }
        let mut at = self.at;
        for _ in 0..SWEEP_STEPS {
            at = self.chase[at as usize];
        }
        self.at = black_box(at);
        ns
    }
}

/// Cumulative CPU jiffies from `/proc/stat`: `(steal, total)`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *v.get(7)?;
    Some((steal, v.iter().take(8).sum()))
}

/// Steal share (percent) between two [`cpu_jiffies`] readings.
pub fn steal_pct(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
