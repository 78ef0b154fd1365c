//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer split).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amoeba_sim::DetRng;

use crate::client::{Client, OpKind, Sample};
use crate::probe::{cpu_jiffies, rss_peak_mb, steal_pct, RefProbe};
use crate::report::{median, quantile, ratio, Outcome};
use crate::stack::Instrument;
use crate::traced::run_traced;
use crate::workload::{Kind, Spec};

/// The reference probe's host time on an undisturbed run of the
/// benchmark's reference host (2-vCPU x86-64 VM); corrected host metrics
/// read as "on that host, undisturbed".
pub const REF_PROBE_NS: f64 = 2_000_000.0;

/// Set-ups per untraced run (the median is `setup_s`); the last
/// `HOST_DEPLOYMENTS + 1` carry the fixed sequence and the host phase.
pub const SETUPS: usize = 7;

/// Fresh deployments the untraced host phase is split over.
const HOST_DEPLOYMENTS: usize = 3;

/// Crash → recover cycles whose mean is `sim_recover_ms`.
const RECOVERY_CYCLES: usize = 64;

/// Half-width, in slices, of the window whose median probe corrects a
/// slice.
const PROBE_WINDOW: usize = 4;

/// What one run does.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload.
    pub kind: Kind,
    /// Seed of every input.
    pub seed: u64,
    /// Host-time measurement window.
    pub seconds: f64,
    /// Traced (per-layer) instead of untraced (end-to-end).
    pub trace: bool,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
    /// Overrides the workload's fixed-sequence length (self-tests).
    pub fixed_steps: Option<usize>,
    /// Set-ups per untraced run.
    pub setups: usize,
    /// Self-test fault: flip a byte in every read longer than four blocks
    /// once the set-up is done.
    pub corrupt: bool,
}

impl Opts {
    /// Default options for `kind` under `seed`.
    pub fn new(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Opts {
        Opts {
            kind,
            seed,
            seconds,
            trace,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
            fixed_steps: None,
            setups: SETUPS,
            corrupt: false,
        }
    }

    pub(crate) fn spec(&self) -> Spec {
        let mut spec = Spec::of(self.kind);
        if let Some(n) = self.fixed_steps {
            spec.fixed_steps = n;
        }
        spec
    }
}

/// Runs one benchmark invocation.
pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// A timed call tagged with the host-time slice it ran in.
#[derive(Clone, Copy)]
pub(crate) struct Timed {
    pub(crate) sample: Sample,
    pub(crate) slice: usize,
}

/// Drift factor per slice: the reference value over the median probe of
/// the surrounding window (`probes[i]` ran just before slice `i`).
pub(crate) fn slice_factors(probes: &[u64], slices: usize) -> Vec<f64> {
    (0..slices)
        .map(|i| {
            let lo = i.saturating_sub(PROBE_WINDOW);
            let hi = (i + 1 + PROBE_WINDOW).min(probes.len());
            let w: Vec<f64> = probes[lo..hi].iter().map(|&p| p as f64).collect();
            REF_PROBE_NS / median(&w)
        })
        .collect()
}

/// Host-time figures of one phase.
pub(crate) struct HostFigures {
    pub(crate) read_p50_us: f64,
    pub(crate) read_p99_us: f64,
    pub(crate) create_p50_us: f64,
    pub(crate) us_per_op: f64,
    pub(crate) raw_read_p50_us: f64,
    pub(crate) raw_create_p50_us: f64,
    pub(crate) raw_us_per_op: f64,
}

pub(crate) fn host_figures(timed: &[Timed], factors: &[f64]) -> HostFigures {
    let pick = |kind: OpKind, fix: bool| -> Vec<f64> {
        timed
            .iter()
            .filter(|t| t.sample.kind == kind)
            .map(|t| {
                if fix {
                    t.sample.host_ns as f64 * factors[t.slice] / 1e3
                } else {
                    t.sample.host_ns as f64 / 1e3
                }
            })
            .collect()
    };
    // Per slice: (corrected, raw) host time of every call, maintenance
    // included, and the client operations among them.
    let mut slices = vec![(0f64, 0f64, 0u64); factors.len()];
    for t in timed {
        let s = &mut slices[t.slice];
        s.0 += t.sample.host_ns as f64 * factors[t.slice];
        s.1 += t.sample.host_ns as f64;
        s.2 += u64::from(t.sample.kind != OpKind::Maint);
    }
    let per_op = |raw: bool| -> Vec<f64> {
        slices
            .iter()
            .filter(|s| s.2 > 0)
            .map(|s| if raw { s.1 } else { s.0 } / 1e3 / s.2 as f64)
            .collect()
    };
    let reads = pick(OpKind::Read, true);
    HostFigures {
        read_p50_us: median(&reads),
        read_p99_us: quantile(&reads, 0.99),
        create_p50_us: median(&pick(OpKind::Create, true)),
        us_per_op: median(&per_op(false)),
        raw_read_p50_us: median(&pick(OpKind::Read, false)),
        raw_create_p50_us: median(&pick(OpKind::Create, false)),
        raw_us_per_op: median(&per_op(true)),
    }
}

/// Runs `client` in probe-interleaved slices for `seconds`, then returns
/// the timed calls and the probes (`probes[i]` ran just before slice
/// `i`).  Slices are numbered from `first_slice`.
fn host_phase(
    client: &mut Client,
    probe: &mut RefProbe,
    seconds: f64,
    first_slice: usize,
) -> (Vec<Timed>, Vec<u64>) {
    let mut timed = Vec::new();
    let mut probes = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        probes.push(probe.run());
        if Instant::now() >= deadline {
            break;
        }
        let slice = first_slice + probes.len() - 1;
        for _ in 0..client.spec.slice_steps {
            client.step(&mut |sample| timed.push(Timed { sample, slice }));
        }
    }
    (timed, probes)
}

fn run_untraced(opts: &Opts) -> Outcome {
    let spec = opts.spec();
    let mut out = Outcome::default();
    let mut probe = RefProbe::new();
    let jiffies = cpu_jiffies();
    let armed = Arc::new(AtomicBool::new(false));
    let inst = Instrument {
        traced: false,
        flip: opts.corrupt.then(|| armed.clone()),
    };
    let setups = opts.setups.max(HOST_DEPLOYMENTS + 1);
    let fixed_at = setups - HOST_DEPLOYMENTS - 1;
    let mut setup_s = Vec::new();
    // Population create latencies (the same in every set-up).
    let mut population_ms = Vec::new();
    let (mut timed, mut factors) = (Vec::new(), Vec::new());
    let mut probes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    for k in 0..setups {
        let p0 = probe.run();
        let t0 = Instant::now();
        let mut d = Client::new(spec, opts.seed, &inst);
        let mut pop = Vec::new();
        d.setup(&mut |s| {
            if s.kind == OpKind::Create {
                pop.push(s.sim_ns as f64 / 1e6);
            }
        });
        if k == 0 {
            population_ms = pop;
        }
        let dt = t0.elapsed().as_secs_f64();
        let p1 = probe.run();
        setup_s.push(dt * REF_PROBE_NS / ((p0 + p1) as f64 / 2.0));
        armed.store(opts.corrupt, Ordering::Relaxed);
        if k == fixed_at {
            fixed_phase(&mut d, &mut out);
            out.put("rss_peak_mb", "MB", rss_peak_mb());
        } else if k > fixed_at {
            // The host phase is split over several fresh deployments, so
            // no one deployment's memory placement decides the figures.
            let share = opts.seconds / HOST_DEPLOYMENTS as f64;
            let (t, p) = host_phase(&mut d, &mut probe, share, factors.len());
            factors.extend(slice_factors(&p, p.len()));
            timed.extend(t);
            probes.extend(p);
            d.sweep("post-host-run");
        } else {
            continue;
        }
        attempted += d.attempted;
        failed += d.failed;
        errors.extend(d.errors.iter().cloned());
    }
    // The host figures repeat too loosely between runs to gate on (see
    // README.md, "Drift correction"); the traced run reports them per
    // layer, and this run prints them for the record.
    let h = host_figures(&timed, &factors);
    let pv: Vec<f64> = probes.iter().map(|&p| p as f64).collect();
    eprintln!(
        "host phase: {} slices, probe p50 {:.0} ns (p10 {:.0}, p90 {:.0}), steal {:.2} %; \
         read p50 {:.4} us (raw {:.4}), create p50 {:.4} us (raw {:.4}), {:.4} us/op (raw {:.4})",
        probes.len(),
        median(&pv),
        quantile(&pv, 0.1),
        quantile(&pv, 0.9),
        steal_pct(jiffies, cpu_jiffies()),
        h.read_p50_us,
        h.raw_read_p50_us,
        h.create_p50_us,
        h.raw_create_p50_us,
        h.us_per_op,
        h.raw_us_per_op,
    );
    if !spec.creates_in_steps() {
        out.put("sim_create_p50_ms", "ms", median(&population_ms));
        out.put("sim_create_p99_ms", "ms", quantile(&population_ms, 0.99));
    }
    out.put("setup_s", "s", median(&setup_s));
    finish(out, attempted, failed, errors)
}

/// Runs the workload's fixed step sequence and reports the simulated
/// metrics, then sweeps, crashes, recovers and sweeps again.
fn fixed_phase(d: &mut Client, out: &mut Outcome) {
    let mut samples = Vec::new();
    let t0 = d.stack.clock.now();
    for _ in 0..d.spec.fixed_steps {
        d.step(&mut |s| samples.push(s));
    }
    let elapsed = (d.stack.clock.now() - t0).as_secs_f64();
    let sim_ms = |kind: OpKind| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.sim_ns as f64 / 1e6)
            .collect()
    };
    let reads = sim_ms(OpKind::Read);
    let creates = sim_ms(OpKind::Create);
    let (bytes, secs) = samples
        .iter()
        .filter(|s| s.kind == OpKind::Read)
        .fold((0u64, 0f64), |(b, t), s| {
            (b + s.bytes, t + s.sim_ns as f64 / 1e9)
        });
    out.put("sim_read_p50_ms", "ms", median(&reads));
    out.put("sim_read_p99_ms", "ms", quantile(&reads, 0.99));
    if !creates.is_empty() {
        out.put("sim_create_p50_ms", "ms", median(&creates));
        out.put("sim_create_p99_ms", "ms", quantile(&creates, 0.99));
    }
    out.put("sim_read_MBps", "MB/s", ratio(bytes as f64 / 1e6, secs));
    out.put("sim_ops_per_s", "1/s", ratio(d.client_ops as f64, elapsed));
    out.put("space_amp", "ratio", d.space_amp());
    d.sweep("post-run");
    // Recovery time depends on where the crash left the disk arms, so
    // it is the mean over several crashes, each after a few checked
    // reads of random files have moved the arms.
    let mut rng = DetRng::new(d.seed ^ 0xc0a5);
    let mut recover_ms = Vec::new();
    for _ in 0..RECOVERY_CYCLES {
        match d.stack.crash_and_recover() {
            Ok(dt) => recover_ms.push(dt.as_ms_f64()),
            Err(e) => {
                d.attempted += 1;
                d.failed += 1;
                d.errors.push(e);
                break;
            }
        }
        for _ in 0..4 {
            d.read(rng.next_below(d.slots.len() as u64) as usize);
        }
    }
    eprintln!(
        "recovery: {} rounds, {:.3}..{:.3} sim ms",
        recover_ms.len(),
        recover_ms.iter().copied().fold(f64::INFINITY, f64::min),
        recover_ms.iter().copied().fold(0.0, f64::max)
    );
    out.put(
        "sim_recover_ms",
        "ms",
        recover_ms.iter().sum::<f64>() / recover_ms.len().max(1) as f64,
    );
    d.sweep("post-recovery");
}

pub(crate) fn finish(
    mut out: Outcome,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
) -> Outcome {
    out.attempted = attempted;
    out.failed = failed;
    out.correct = failed == 0;
    out.errors = errors;
    out
}
