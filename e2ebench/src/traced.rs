//! The traced run (`--trace 1`): the per-layer split of one workload.
//!
//! Two deployments are built from the same seed.  One is plain; the
//! other runs the program's simulated-clock tracer and the benchmark's
//! host-time wrappers.  Both run the same set-up and step sequence, the
//! steps in alternating probe-interleaved slices.  Every call on the
//! traced deployment, set-up included, is folded into [`Layers`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amoeba_cap::{CheckScheme, MacScheme, Rights};
use amoeba_sim::{SpanRecord, Tracer};
use bullet_core::ArchiveDevice;

use crate::client::{Client, OpKind, Sample};
use crate::probe::{cpu_jiffies, steal_pct, RefProbe};
use crate::report::{median, ratio, Outcome};
use crate::run::{finish, host_figures, slice_factors, Opts, Timed};
use crate::stack::{Instrument, Sinks, Stack};
use crate::wrap::union_ns;

/// Leaf spans reported as shares of simulated root time.  Leaves are
/// named by the program's tracer; every workload reports every name (0
/// where the leaf never occurs), and any other leaf counts as `other`.
pub const SIM_LEAVES: &[&str] = &[
    "cpu.request",
    "cpu.memcpy",
    "memcpy",
    "disk.read",
    "disk.read_low",
    "disk.replica_write",
    "wire_send",
    "wire_recv",
    "archive_read",
    "archive_write",
    "rpc.request_wire",
    "rpc.reply_wire",
    "rpc.locate",
];

/// Spans of the first calls kept for the span file.
const KEPT_SPANS: usize = 4000;

/// Per-layer accumulators of the traced deployment.
#[derive(Default)]
struct Layers {
    /// Calls per kind (`read`, `create`, `delete`, `maint`).
    calls: BTreeMap<&'static str, u64>,
    /// Host time of client calls.
    client_ns: f64,
    /// Client call − top-level handler.
    rpc_self_ns: f64,
    /// Router − shard handler.
    shard_self_ns: f64,
    /// Shard handler − device wall time, per call kind.
    core_self_ns: BTreeMap<&'static str, f64>,
    /// Outer − inner disk wrapper time.
    sched_wait_ns: f64,
    /// Inner disk wrapper time.
    dev_ns: f64,
    /// Payload bytes read and created.
    user_bytes: u64,
    /// Reads served (at least partly) by the archive device.
    archive_reads: u64,
    /// Simulated time per leaf name.
    leaf_ns: BTreeMap<&'static str, u64>,
    /// Simulated root time, and how much of it no leaf covers.
    root_ns: u64,
    uncovered_ns: u64,
    roots: u64,
    /// Roots whose leaves cover less than 99 % of them, and the worst.
    roots_short: u64,
    coverage_min: f64,
    kept_spans: Vec<SpanRecord>,
}

impl Layers {
    fn add(
        &mut self,
        s: &Sample,
        t: &crate::stack::SinkTake,
        sharded: bool,
        spans: Vec<SpanRecord>,
        archive_read: bool,
    ) {
        let kind = match s.kind {
            OpKind::Read => "read",
            OpKind::Create => "create",
            OpKind::Delete => "delete",
            OpKind::Maint => "maint",
        };
        *self.calls.entry(kind).or_insert(0) += 1;
        self.user_bytes += s.bytes;
        if s.kind != OpKind::Maint {
            let top = if sharded { t.top.ns } else { t.shard.ns };
            self.client_ns += s.host_ns as f64;
            self.rpc_self_ns += s.host_ns.saturating_sub(top) as f64;
            if sharded {
                self.shard_self_ns += t.top.ns.saturating_sub(t.shard.ns) as f64;
            }
            *self.core_self_ns.entry(kind).or_insert(0.0) +=
                t.shard.ns.saturating_sub(t.outer.wall_ns) as f64;
        }
        self.sched_wait_ns += t.outer.ns.saturating_sub(t.inner.ns) as f64;
        self.dev_ns += t.inner.ns as f64;
        self.archive_reads += u64::from(archive_read);

        // Instants (zero-length events such as lock acquisitions) are not
        // leaves: a span whose only children are instants is itself one.
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, sp) in spans.iter().enumerate() {
            if let (Some(p), true) = (sp.parent, sp.duration().as_ns() > 0) {
                children.entry(p).or_default().push(i);
            }
        }
        for (i, root) in spans
            .iter()
            .enumerate()
            .filter(|(_, sp)| sp.parent.is_none())
        {
            let dur = root.duration().as_ns();
            if dur == 0 {
                continue;
            }
            let mut leaves = Vec::new();
            let mut stack = vec![i];
            while let Some(j) = stack.pop() {
                match children.get(&spans[j].id) {
                    Some(c) => stack.extend(c.iter().copied()),
                    None => leaves.push(j),
                }
            }
            let mut iv: Vec<(u64, u64)> = leaves
                .iter()
                .map(|&j| (spans[j].start.as_ns(), spans[j].end.as_ns()))
                .collect();
            for &j in &leaves {
                let name = SIM_LEAVES
                    .iter()
                    .find(|&&n| n == spans[j].name)
                    .copied()
                    .unwrap_or("other");
                *self.leaf_ns.entry(name).or_insert(0) += spans[j].duration().as_ns();
            }
            let covered = union_ns(&mut iv).min(dur);
            let cov = covered as f64 / dur as f64;
            self.roots += 1;
            self.root_ns += dur;
            self.uncovered_ns += dur - covered;
            self.roots_short += u64::from(cov < 0.99);
            if self.roots == 1 || cov < self.coverage_min {
                self.coverage_min = cov;
            }
        }
        if self.kept_spans.len() < KEPT_SPANS {
            self.kept_spans.extend(spans);
        }
    }

    fn count(&self, kind: &str) -> f64 {
        self.calls.get(kind).copied().unwrap_or(0) as f64
    }

    /// Client calls (reads, creates, deletes).
    fn ops(&self) -> f64 {
        self.count("read") + self.count("create") + self.count("delete")
    }

    /// Mean core self time of one `kind` call, µs.
    fn self_us(&self, kind: &str) -> f64 {
        ratio(
            self.core_self_ns.get(kind).copied().unwrap_or(0.0) / 1e3,
            self.count(kind),
        )
    }
}

/// Folds each call on the traced deployment into [`Layers`].
struct Recorder {
    sinks: Sinks,
    tracer: Tracer,
    sharded: bool,
    archives: Vec<Arc<ArchiveDevice>>,
    archive_reads: u64,
    layers: Layers,
}

impl Recorder {
    fn archive_reads(&self) -> u64 {
        self.archives
            .iter()
            .map(|a| a.inner().stats().get("disk_reads"))
            .sum()
    }

    fn call(&mut self, s: Sample) {
        let take = self.sinks.take();
        let spans = self.tracer.snapshot();
        self.tracer.clear();
        let now = self.archive_reads();
        let archive_read = s.kind == OpKind::Read && now > self.archive_reads;
        self.archive_reads = now;
        self.layers
            .add(&s, &take, self.sharded, spans, archive_read);
    }
}

/// Counters summed over the deployment's layers, keyed `layer:name`
/// (the scheduler's depth high-water mark is a maximum, not a sum).
fn counters(stack: &Stack) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    let mut add = |k: String, v: u64| *m.entry(k).or_insert(0) += v;
    for s in &stack.servers {
        for (k, v) in s.stats().snapshot().into_iter().chain(s.cache_stats()) {
            add(format!("core:{k}"), v);
        }
        for (k, v) in s.lock_stats() {
            add(format!("lock:{k}"), v);
        }
    }
    for d in &stack.sched {
        for (k, v) in d.stats().snapshot() {
            if k == "disk_queue_depth_max" {
                let e = m.entry(format!("disk:{k}")).or_insert(0);
                *e = (*e).max(v);
            } else {
                *m.entry(format!("disk:{k}")).or_insert(0) += v;
            }
        }
    }
    for (k, v) in stack.dispatcher.net().stats().snapshot() {
        m.insert(format!("net:{k}"), v);
    }
    m
}

/// Times `CheckScheme::mint`/`verify` on capabilities of the workload's
/// shape (its port and object numbers, all rights); returns the median
/// ns per call of five batches, (mint, verify).
fn cap_costs(d: &Client) -> (f64, f64) {
    let scheme = MacScheme::from_seed(d.stack.cfgs[0].scheme_seed);
    let port = d.stack.cfgs[0].port;
    let objs: Vec<_> = d.slots.iter().map(|s| s.cap.object).collect();
    let n = 100_000;
    let (mut mint, mut verify) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let caps: Vec<_> = (0..n)
            .map(|i| scheme.mint(port, objs[i % objs.len()], Rights::ALL, i as u64))
            .collect();
        mint.push(t0.elapsed().as_nanos() as f64 / n as f64);
        let t0 = Instant::now();
        let ok = caps
            .iter()
            .enumerate()
            .filter(|(i, c)| scheme.verify(c, *i as u64).is_ok())
            .count();
        verify.push(t0.elapsed().as_nanos() as f64 / n as f64);
        assert_eq!(ok, n, "freshly minted capabilities verify");
    }
    (median(&mint), median(&verify))
}

/// Runs the traced workload and reports every per-layer metric.
pub fn run_traced(opts: &Opts) -> Outcome {
    let spec = opts.spec();
    let mut out = Outcome::default();
    let mut probe = RefProbe::new();
    let jiffies = cpu_jiffies();

    let mut u = Client::new(spec, opts.seed, &Instrument::default());
    let mut u_creates = Vec::new();
    u.setup(&mut |s| {
        if s.kind == OpKind::Create {
            u_creates.push(s.host_ns as f64 / 1e3);
        }
    });
    let mut t = Client::new(
        spec,
        opts.seed,
        &Instrument {
            traced: true,
            flip: None,
        },
    );
    let mut rec = Recorder {
        sinks: t.stack.sinks.take().expect("traced deployment has sinks"),
        tracer: t.stack.tracer.clone(),
        sharded: t.stack.router.is_some(),
        archives: t
            .stack
            .servers
            .iter()
            .filter_map(|s| s.archive_device())
            .collect(),
        archive_reads: 0,
        layers: Layers::default(),
    };
    // Formatting I/O belongs to no call.
    rec.sinks.take();
    rec.tracer.clear();
    let before = counters(&t.stack);
    t.setup(&mut |s| rec.call(s));

    let mut u_timed = Vec::new();
    let mut probes = Vec::new();
    let (mut u_ns, mut t_ns) = (0f64, 0f64);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut steps = 0;
    loop {
        probes.push(probe.run());
        if Instant::now() >= deadline && steps >= spec.fixed_steps {
            break;
        }
        let slice = probes.len() - 1;
        // Alternate which deployment runs first after the probe, so
        // neither always pays the probe's cache pollution.
        for half in [slice % 2, 1 - slice % 2] {
            for _ in 0..spec.slice_steps {
                if half == 0 {
                    u.step(&mut |sample| {
                        u_ns += sample.host_ns as f64;
                        u_timed.push(Timed { sample, slice });
                    });
                } else {
                    t.step(&mut |s| {
                        t_ns += s.host_ns as f64;
                        rec.call(s);
                    });
                }
            }
        }
        steps += spec.slice_steps;
    }
    t.sweep("post-traced-run");
    u.sweep("post-untraced-run");

    let after = counters(&t.stack);
    let delta = |k: &str| -> f64 {
        let a = after.get(k).copied().unwrap_or(0);
        a.saturating_sub(before.get(k).copied().unwrap_or(0)) as f64
    };
    let l = &rec.layers;
    let ops = l.ops();
    let h = host_figures(&u_timed, &slice_factors(&probes, probes.len()));
    // Warm-read's steps never create: its create figures are the plain
    // deployment's population creates, which no probe brackets.
    let (create_us, raw_create_us) = if spec.creates_in_steps() {
        (h.create_p50_us, h.raw_create_p50_us)
    } else {
        (median(&u_creates), median(&u_creates))
    };
    let (mint_ns, verify_ns) = cap_costs(&t);

    // RPC and routing.
    out.put("rpc.self_us", "us", ratio(l.rpc_self_ns / 1e3, ops));
    out.put(
        "rpc.msgs_per_op",
        "count",
        ratio(delta("net:net_messages"), ops),
    );
    out.put(
        "rpc.wire_bytes_per_op",
        "B",
        ratio(delta("net:net_bytes"), ops),
    );
    out.put(
        "shard.self_share",
        "ratio",
        ratio(l.shard_self_ns, l.client_ns),
    );
    let imbalance = t.stack.router.as_ref().map_or(1.0, |r| {
        let routed: Vec<f64> = (0..r.shard_count() as usize)
            .map(|i| r.routed(i) as f64)
            .collect();
        let mean = routed.iter().sum::<f64>() / routed.len() as f64;
        ratio(routed.iter().copied().fold(0.0, f64::max), mean)
    });
    out.put("shard.imbalance", "ratio", imbalance);
    // Capabilities.
    out.put("cap.verify_ns", "ns", verify_ns);
    out.put("cap.mint_ns", "ns", mint_ns);
    out.put(
        "cap.share_of_read",
        "ratio",
        ratio(verify_ns / 1e3, h.raw_read_p50_us),
    );
    // Server core.
    out.put("core.read_self_us", "us", l.self_us("read"));
    out.put("core.create_self_us", "us", l.self_us("create"));
    out.put(
        "core.delete_self_share",
        "ratio",
        ratio(
            l.core_self_ns.get("delete").copied().unwrap_or(0.0),
            l.client_ns,
        ),
    );
    let (mut locks, mut contended) = (0.0, 0.0);
    for k in after.keys().filter(|k| k.starts_with("lock:")) {
        if k.contains("contended") {
            contended += delta(k);
        } else {
            locks += delta(k);
        }
    }
    out.put("core.locks_per_op", "count", ratio(locks, ops));
    out.put(
        "core.lock_contended_ratio",
        "ratio",
        ratio(contended, locks),
    );
    out.put(
        "core.copied_bytes_per_byte",
        "ratio",
        ratio(delta("core:payload_bytes_copied"), l.user_bytes as f64),
    );
    // Cache.
    let (hits, misses) = (delta("core:cache_hits"), delta("core:cache_misses"));
    out.put("cache.hit_ratio", "ratio", ratio(hits, hits + misses));
    out.put(
        "cache.evictions_per_op",
        "count",
        ratio(delta("core:cache_evictions"), ops),
    );
    // Allocator, at the end of the run.
    let (mut hole, mut free, mut holes) = (0.0, 0.0, 0.0);
    for s in &t.stack.servers {
        let f = s.disk_frag_report();
        hole += f.largest_hole as f64;
        free += f.free as f64;
        holes += f.hole_count as f64;
    }
    out.put("alloc.largest_hole_ratio", "ratio", ratio(hole, free));
    out.put("alloc.free_extents", "count", holes);
    // Group-commit log.
    let creates = l.count("create");
    out.put(
        "log.files_per_flush",
        "count",
        ratio(
            delta("core:log_batch_files"),
            delta("core:group_commit_flushes"),
        ),
    );
    out.put(
        "log.appends_per_create",
        "count",
        ratio(delta("core:log_appends"), creates),
    );
    out.put(
        "log.migrations_per_create",
        "count",
        ratio(delta("core:log_migrations"), creates),
    );
    // Maintenance and tiering.
    out.put(
        "maint.ticks_run_ratio",
        "ratio",
        ratio(t.ticks.1 as f64, t.ticks.0 as f64),
    );
    out.put(
        "tier.demotions_per_kop",
        "count",
        ratio(delta("core:tier_demotions") * 1e3, ops),
    );
    out.put(
        "tier.recalls_per_kop",
        "count",
        ratio(delta("core:tier_promotions") * 1e3, ops),
    );
    out.put(
        "tier.archive_read_share",
        "ratio",
        ratio(l.archive_reads as f64, l.count("read")),
    );
    // Disks.
    let ios = delta("disk:disk_reads") + delta("disk:disk_writes");
    out.put(
        "disk.sched_wait_us",
        "us",
        ratio(l.sched_wait_ns / 1e3, ops),
    );
    out.put("disk.dev_us", "us", ratio(l.dev_ns / 1e3, ops));
    out.put(
        "disk.seek_blocks_per_io",
        "count",
        ratio(delta("disk:disk_seek_blocks"), ios),
    );
    out.put(
        "disk.coalesced_ratio",
        "ratio",
        ratio(delta("disk:disk_coalesced_ios"), ios),
    );
    out.put(
        "disk.queue_depth_max",
        "count",
        after.get("disk:disk_queue_depth_max").copied().unwrap_or(0) as f64,
    );
    out.put(
        "disk.reads_per_op",
        "count",
        ratio(delta("disk:disk_reads"), ops),
    );
    out.put(
        "disk.writes_per_op",
        "count",
        ratio(delta("disk:disk_writes"), ops),
    );
    out.put(
        "disk.write_amp",
        "ratio",
        ratio(
            delta("disk:disk_bytes_written"),
            delta("core:bytes_created"),
        ),
    );
    // Simulated time, leaf by leaf.
    out.put(
        "sim.root_ms_per_op",
        "ms",
        ratio(l.root_ns as f64 / 1e6, ops),
    );
    for leaf in SIM_LEAVES.iter().chain(&["other"]) {
        let ns = l.leaf_ns.get(leaf).copied().unwrap_or(0) as f64;
        out.put(
            format!("sim.{leaf}.share"),
            "ratio",
            ratio(ns, l.root_ns as f64),
        );
    }
    out.put(
        "sim.untraced.share",
        "ratio",
        ratio(l.uncovered_ns as f64, l.root_ns as f64),
    );
    // Host diagnostics.
    let pv: Vec<f64> = probes.iter().map(|&p| p as f64).collect();
    out.put("host.ref_probe_ns", "ns", median(&pv));
    out.put("host.read_p50_us", "us", h.read_p50_us);
    out.put("host.create_p50_us", "us", create_us);
    out.put("host.us_per_op", "us", h.us_per_op);
    out.put("host.read_p99_us", "us", h.read_p99_us);
    out.put("host.raw.read_p50_us", "us", h.raw_read_p50_us);
    out.put("host.raw.create_p50_us", "us", raw_create_us);
    out.put("host.raw.us_per_op", "us", h.raw_us_per_op);
    out.put("host.steal_pct", "%", steal_pct(jiffies, cpu_jiffies()));
    out.put(
        "trace.overhead_pct",
        "%",
        ratio((t_ns - u_ns) * 100.0, u_ns),
    );
    out.put("trace.leaf_coverage_min", "ratio", l.coverage_min);
    out.put(
        "trace.short_roots_per_kop",
        "count",
        ratio(l.roots_short as f64 * 1e3, ops),
    );

    // Leaf coverage is trace hygiene, not program output: a short root
    // is reported (here and in the metrics above), not counted as a
    // failed operation.
    if l.roots_short > 0 {
        eprintln!(
            "trace: {} of {} roots have leaves covering under 99 % (worst {:.4}); {:.4} of root time untraced",
            l.roots_short,
            l.roots,
            l.coverage_min,
            ratio(l.uncovered_ns as f64, l.root_ns as f64)
        );
    }
    let mut errors: Vec<String> = t.errors.iter().chain(&u.errors).cloned().collect();
    if let Err(e) = write_spans(opts, l) {
        errors.push(format!("span file: {e}"));
    }
    finish(out, t.attempted + u.attempted, t.failed + u.failed, errors)
}

/// Writes the first spans of the traced run and the per-leaf totals as
/// JSON Lines to `<out_dir>/spans-<workload>-<seed>.jsonl`.
fn write_spans(opts: &Opts, layers: &Layers) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts
        .out_dir
        .join(format!("spans-{}-{}.jsonl", opts.kind.name(), opts.seed));
    let mut text = String::new();
    for s in &layers.kept_spans {
        text.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start.as_ns(),
            s.end.as_ns()
        ));
    }
    for (name, ns) in &layers.leaf_ns {
        text.push_str(&format!("{{\"leaf\": \"{name}\", \"total_ns\": {ns}}}\n"));
    }
    std::fs::write(path, text)
}
