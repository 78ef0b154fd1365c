//! The three seeded workloads and their operation generator.

use amoeba_sim::DetRng;

use crate::stack::Shape;

/// The workloads the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 2's fast path: Zipf reads of a cache-resident population.
    WarmRead,
    /// C2/C4: uniform whole-file reads of 1 MB files, 4× the cache, with
    /// delete + re-create churn.
    ColdLarge,
    /// The deployed service: two shards, group-commit log, archive tier,
    /// inline maintenance, half reads and half delete + re-create.
    SmallChurn,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::WarmRead, Kind::ColdLarge, Kind::SmallChurn];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmRead => "warm-read",
            Kind::ColdLarge => "cold-large",
            Kind::SmallChurn => "small-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// How file sizes are drawn.  Sizes are stratified: file `i` of `n`
/// always draws from the `i`-th of `n` equal-probability strata of the
/// distribution, jittered inside it by the seed (and re-jittered by each
/// re-create).  Every seed thus gets the same shape of population with
/// different exact sizes, which keeps the figures steady across seeds.
#[derive(Debug, Clone, Copy)]
pub enum Sizes {
    /// Log-normal, median 1 KB, 99 % below 64 KB (Mullender & Tanenbaum
    /// 1984, the paper's \[1\]).  The top quarter of the range below
    /// `max` saturates smoothly towards `max` instead of clamping, so the
    /// largest files differ in size (a clamp would make the read tail a
    /// run of identical latencies).
    Unix1984 {
        /// Saturation point.
        max: u64,
    },
    /// Uniform in `(bytes - jitter, bytes]`.
    Near {
        /// Largest size.
        bytes: u64,
        /// Width of the range.
        jitter: u64,
    },
}

impl Sizes {
    /// The size of a file in stratum `i` of `n`, at position `u` in
    /// `[0, 1)` inside the stratum.
    pub fn size(self, i: usize, n: usize, u: f64) -> usize {
        let q = (i as f64 + u) / n as f64;
        match self {
            Sizes::Unix1984 { max } => {
                let z99 = 2.326_347_874_040_841; // Φ⁻¹(0.99)
                let mu = 1024f64.ln();
                let sigma = (65_536f64.ln() - mu) / z99;
                let s = (mu + sigma * inverse_normal_cdf(q.clamp(1e-9, 1.0 - 1e-9))).exp();
                let knee = 0.75 * max as f64;
                let s = if s > knee {
                    let w = max as f64 - knee;
                    knee + w * (1.0 - (-(s - knee) / w).exp())
                } else {
                    s
                };
                (s as u64).clamp(1, max) as usize
            }
            Sizes::Near { bytes, jitter } => (bytes - (u * jitter as f64) as u64) as usize,
        }
    }
}

/// Φ⁻¹, the standard normal quantile (Acklam's rational approximation,
/// relative error below 1.2e-9).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < 0.024_25 {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - 0.024_25 {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// Everything that defines one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Deployment geometry.
    pub shape: Shape,
    /// Live files (constant: churn deletes one and re-creates it).
    pub files: usize,
    /// File sizes.
    pub sizes: Sizes,
    /// Zipf exponent of read popularity; `None` = uniform.
    pub zipf: Option<f64>,
    /// Share of steps that are reads; the rest delete + re-create.
    pub read_share: f64,
    /// Steps of the fixed sequence the simulated-time metrics come from.
    pub fixed_steps: usize,
    /// Steps per host-time slice between reference-probe slices.
    pub slice_steps: usize,
    /// A maintenance step (compaction/tiering ticks) every this many
    /// steps; 0 = none.
    pub maint_every: usize,
    /// Maintenance ticks per shard in one maintenance step.
    pub maint_ticks: usize,
    /// An aging round every this many maintenance steps.
    pub age_every: usize,
}

impl Spec {
    /// Whether the step sequence creates files.
    pub fn creates_in_steps(&self) -> bool {
        self.read_share < 1.0
    }

    /// The workload's definition.
    pub fn of(kind: Kind) -> Spec {
        match kind {
            Kind::WarmRead => Spec {
                kind,
                shape: Shape {
                    shards: 1,
                    disk_blocks: 32_768,
                    min_inodes: 4096,
                    cache_bytes: 12 << 20,
                    log_blocks: 0,
                    archive_blocks: 0,
                    high_water_pct: 75,
                },
                files: 2000,
                sizes: Sizes::Unix1984 { max: 64 << 10 },
                zipf: Some(0.99),
                read_share: 1.0,
                fixed_steps: 100_000,
                slice_steps: 8000,
                maint_every: 0,
                maint_ticks: 0,
                age_every: 0,
            },
            Kind::ColdLarge => Spec {
                kind,
                shape: Shape {
                    shards: 1,
                    disk_blocks: 65_536,
                    min_inodes: 256,
                    cache_bytes: 12 << 20,
                    log_blocks: 0,
                    archive_blocks: 0,
                    high_water_pct: 75,
                },
                files: 48,
                sizes: Sizes::Near {
                    bytes: 1 << 20,
                    jitter: 64 << 10,
                },
                zipf: None,
                read_share: 0.9,
                fixed_steps: 3000,
                slice_steps: 40,
                maint_every: 0,
                maint_ticks: 0,
                age_every: 0,
            },
            Kind::SmallChurn => Spec {
                kind,
                shape: Shape {
                    shards: 2,
                    disk_blocks: 8192,
                    min_inodes: 4096,
                    cache_bytes: 3 << 20,
                    log_blocks: 1024,
                    archive_blocks: 32_768,
                    high_water_pct: 50,
                },
                files: 2000,
                sizes: Sizes::Unix1984 { max: 64 << 10 },
                zipf: Some(0.99),
                read_share: 0.5,
                fixed_steps: 100_000,
                slice_steps: 800,
                maint_every: 32,
                maint_ticks: 2,
                age_every: 16,
            },
        }
    }
}

/// Read popularity: Zipf over ranks (rank `k` with probability
/// ∝ 1/(k+1)^θ) or uniform.  Rank `k` is file `perm[k]`, where `perm`
/// orders the files by the golden-ratio sequence `frac(k·φ)`: the
/// popular head spans every size stratum the same way for every seed.
#[derive(Debug, Clone)]
pub struct Popularity {
    rng: DetRng,
    cdf: Option<Vec<f64>>,
    perm: Vec<usize>,
}

impl Popularity {
    /// Over `n` files; `theta = None` is uniform.
    pub fn new(seed: u64, n: usize, theta: Option<f64>) -> Popularity {
        let golden = |k: usize| (k as f64 * 0.618_033_988_749_895).fract();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| golden(a).total_cmp(&golden(b)));
        let mut perm = vec![0; n];
        for (stratum, &rank) in order.iter().enumerate() {
            perm[rank] = stratum;
        }
        let cdf = theta.map(|t| {
            let w: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(t)).collect();
            let total: f64 = w.iter().sum();
            let mut acc = 0.0;
            w.iter()
                .map(|x| {
                    acc += x / total;
                    acc
                })
                .collect()
        });
        Popularity {
            rng: DetRng::new(seed),
            cdf,
            perm,
        }
    }

    /// The `k` most popular files.
    pub fn head(&self, k: usize) -> &[usize] {
        &self.perm[..k.min(self.perm.len())]
    }

    /// One file index.
    pub fn pick(&mut self) -> usize {
        let u = self.rng.next_f64();
        let rank = match &self.cdf {
            Some(cdf) => cdf.partition_point(|&c| c < u).min(cdf.len() - 1),
            None => ((u * self.perm.len() as f64) as usize).min(self.perm.len() - 1),
        };
        self.perm[rank]
    }
}

/// One step of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Whole-file read of a file.
    Read(usize),
    /// Delete a file and re-create it (next generation) at a new size
    /// from the same stratum.
    Churn(usize, usize),
    /// Inline maintenance: compaction/tiering ticks, with an aging round
    /// when the flag is set.
    Maint(bool),
}

/// The seeded, endless step sequence of one workload.
#[derive(Debug, Clone)]
pub struct StepGen {
    spec: Spec,
    rng: DetRng,
    reads: Popularity,
    issued: u64,
    maint_steps: u64,
}

impl StepGen {
    /// The sequence for `spec` under `seed`.
    pub fn new(spec: Spec, seed: u64) -> StepGen {
        StepGen {
            spec,
            rng: DetRng::new(seed ^ 0x5e9_0001),
            reads: Popularity::new(seed ^ 0x5e9_0002, spec.files, spec.zipf),
            issued: 0,
            maint_steps: 0,
        }
    }

    /// Sizes of the initial population.
    pub fn population(spec: &Spec, seed: u64) -> Vec<usize> {
        let mut rng = DetRng::new(seed ^ 0x909);
        (0..spec.files)
            .map(|i| spec.sizes.size(i, spec.files, rng.next_f64()))
            .collect()
    }

    /// The read-popularity model.
    pub fn popularity(&self) -> &Popularity {
        &self.reads
    }

    /// The next step.
    pub fn next_step(&mut self) -> Step {
        self.issued += 1;
        let every = self.spec.maint_every as u64;
        if every > 0 && self.issued.is_multiple_of(every + 1) {
            self.maint_steps += 1;
            return Step::Maint(
                self.maint_steps
                    .is_multiple_of(self.spec.age_every.max(1) as u64),
            );
        }
        if self.rng.next_f64() < self.spec.read_share {
            Step::Read(self.reads.pick())
        } else {
            let n = self.spec.files;
            let i = (self.rng.next_below(n as u64)) as usize;
            Step::Churn(i, self.spec.sizes.size(i, n, self.rng.next_f64()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_repeat_per_seed() {
        let spec = Spec::of(Kind::SmallChurn);
        let a: Vec<Step> = {
            let mut g = StepGen::new(spec, 9);
            (0..2000).map(|_| g.next_step()).collect()
        };
        let mut g = StepGen::new(spec, 9);
        assert!(a.iter().all(|s| *s == g.next_step()));
        let mut h = StepGen::new(spec, 10);
        assert!(a.iter().any(|s| *s != h.next_step()));
        assert!(a.iter().any(|s| matches!(s, Step::Maint(true))));
    }

    #[test]
    fn golden_popularity_is_a_permutation() {
        let p = Popularity::new(1, 2000, Some(0.99));
        let mut seen = p.perm.clone();
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &f)| i == f));
    }

    #[test]
    fn stratified_sizes_match_the_cited_quantiles() {
        let s = Sizes::Unix1984 { max: 1 << 30 };
        assert!((s.size(500, 1000, 0.0) as i64 - 1024).abs() <= 1);
        assert!((s.size(990, 1000, 0.0) as i64 - 65_536).abs() <= 64);
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-6);
    }

    #[test]
    fn warm_population_fits_the_cache() {
        for seed in 0..20 {
            let spec = Spec::of(Kind::WarmRead);
            let total: usize = StepGen::population(&spec, seed).iter().sum();
            assert!(total < 11 << 20, "seed {seed}: {total} bytes");
        }
    }
}
