//! Assembly of the real stack the benchmark drives:
//! `BulletClient` → `Dispatcher` → [`ShardRouter` →] `BulletRpcServer` →
//! `BulletServer` → `MirroredDisk` of `SchedDisk<RamDisk>` replicas.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use amoeba_cap::Port;
use amoeba_disk::{BlockDevice, MirroredDisk, RamDisk, SchedConfig, SchedDisk};
use amoeba_net::SimEthernet;
use amoeba_rpc::{Dispatcher, RpcClient, RpcServer, ShardRouter};
use amoeba_sim::{HwProfile, Nanos, SimClock, TraceConfig, Tracer};
use bullet_core::{BulletClient, BulletConfig, BulletRpcServer, BulletServer, ShardSlot};

use crate::wrap::{FlipDisk, IoTake, IoTimes, TimedDisk, TimedRpc};

/// Block size of every device in the benchmark (the rig's 1 KB sectors).
pub const BLOCK: u32 = 1024;

/// The geometry and tier/log settings of one deployment.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Shards behind the router (1 = no router).
    pub shards: u32,
    /// Blocks per replica disk.
    pub disk_blocks: u64,
    /// Inode slots per shard.
    pub min_inodes: u32,
    /// RAM cache per shard, bytes.
    pub cache_bytes: u64,
    /// Group-commit log window per shard, blocks (0 = off).
    pub log_blocks: u64,
    /// WORM archive tier per shard, blocks (0 = off).
    pub archive_blocks: u64,
    /// Fast-tier occupancy above which demotion engages.
    pub high_water_pct: u32,
}

/// Which of the benchmark's own probes a stack carries.
#[derive(Debug, Clone, Default)]
pub struct Instrument {
    /// Simulated-clock span tracing plus the host-time wrappers.
    pub traced: bool,
    /// Self-test corruption: a byte-flipping device under replica 0.
    pub flip: Option<Arc<AtomicBool>>,
}

/// Host-time sinks of the traced stack's wrappers.
#[derive(Debug)]
pub struct Sinks {
    /// Around the top-level RPC server (the router when sharded).
    pub top: Arc<IoTimes>,
    /// Around each `BulletRpcServer` (all shards share it).
    pub shard: Arc<IoTimes>,
    /// Outside each `SchedDisk` (interval union: mirrored writes overlap).
    pub outer: Arc<IoTimes>,
    /// Inside each `SchedDisk`, around the `RamDisk`.
    pub inner: Arc<IoTimes>,
}

/// One drained reading of every sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct SinkTake {
    /// Top-level handler.
    pub top: IoTake,
    /// Shard handler.
    pub shard: IoTake,
    /// Outer disk wrapper.
    pub outer: IoTake,
    /// Inner disk wrapper.
    pub inner: IoTake,
}

impl Sinks {
    /// Drains every sink.
    pub fn take(&self) -> SinkTake {
        SinkTake {
            top: self.top.take(),
            shard: self.shard.take(),
            outer: self.outer.take(),
            inner: self.inner.take(),
        }
    }
}

/// A running deployment.
pub struct Stack {
    /// The one simulated clock every layer charges.
    pub clock: SimClock,
    /// The span tracer (disabled unless traced).
    pub tracer: Tracer,
    /// Per-shard configurations (recovery reuses them).
    pub cfgs: Vec<BulletConfig>,
    /// The shard servers.
    pub servers: Vec<Arc<BulletServer>>,
    /// Every replica's scheduler, shard-major.
    pub sched: Vec<Arc<SchedDisk<Arc<dyn BlockDevice>>>>,
    /// The router, when sharded.
    pub router: Option<Arc<ShardRouter>>,
    /// The RPC fabric.
    pub dispatcher: Arc<Dispatcher>,
    /// The benchmark's one client.
    pub client: BulletClient,
    /// Wrapper sinks (traced stacks only).
    pub sinks: Option<Sinks>,
    port: Port,
}

fn config(
    shape: &Shape,
    clock: &SimClock,
    hw: &HwProfile,
    shard: u32,
    trace: &TraceConfig,
) -> BulletConfig {
    let mut cfg = BulletConfig::small_test();
    cfg.port = Port::from_u64(0xb1e7);
    cfg.min_inodes = shape.min_inodes;
    cfg.cache_capacity = shape.cache_bytes;
    cfg.rnode_slots = shape.min_inodes as usize;
    cfg.block_size = BLOCK;
    cfg.disk_blocks = shape.disk_blocks;
    cfg.clock = clock.clone();
    cfg.cpu = hw.cpu;
    cfg.scheme_seed = 0x5eed;
    cfg.rng_seed = 0xfee1 + shard as u64;
    // Files never age out: the aging rounds only mark files cold for the
    // demotion job, so no live file disappears under the client.
    cfg.max_age = 1_000_000;
    cfg.trace = trace.clone();
    cfg.log_blocks = shape.log_blocks;
    cfg.archive_blocks = shape.archive_blocks;
    cfg.tier_high_water_pct = shape.high_water_pct;
    cfg.tier_cold_age = 2;
    // Maintenance runs inline at fixed points of the op sequence, so the
    // idleness gate must not turn it away.
    cfg.maint_idle_request_delta = u64::MAX;
    cfg.maint_moves_per_tick = 1;
    cfg.shard = if shape.shards > 1 {
        ShardSlot::new(shard, shape.shards)
    } else {
        ShardSlot::solo()
    };
    cfg
}

/// A RAM disk whose every page has been written once.  `RamDisk`
/// allocates lazily zeroed memory, so without this the first write to
/// each page pays a host page fault — a host artefact a real drive does
/// not have, and a noisy one.
fn prefaulted(blocks: u64) -> RamDisk {
    let disk = RamDisk::new(BLOCK, blocks);
    let chunk = 1024u64;
    let zeros = vec![0u8; (chunk * BLOCK as u64) as usize];
    for first in (0..blocks).step_by(chunk as usize) {
        let n = chunk.min(blocks - first) as usize * BLOCK as usize;
        disk.write_blocks(first, &zeros[..n]).expect("in range");
    }
    disk
}

impl Stack {
    /// Formats a fresh deployment of `shape`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (a benchmark bug).
    pub fn build(shape: &Shape, inst: &Instrument) -> Stack {
        let clock = SimClock::new();
        let hw = HwProfile::amoeba_1989();
        let trace = if inst.traced {
            TraceConfig::enabled(clock.clone())
        } else {
            TraceConfig::off()
        };
        let tracer = trace.tracer().clone();
        let base = Instant::now();
        let sinks = inst.traced.then(|| Sinks {
            top: IoTimes::new(base, false),
            shard: IoTimes::new(base, false),
            outer: IoTimes::new(base, true),
            inner: IoTimes::new(base, false),
        });
        let mut cfgs = Vec::new();
        let mut servers = Vec::new();
        let mut sched = Vec::new();
        for s in 0..shape.shards {
            let mut replicas: Vec<Arc<dyn BlockDevice>> = Vec::new();
            for r in 0..2 {
                let mut dev: Arc<dyn BlockDevice> = Arc::new(prefaulted(shape.disk_blocks));
                if let Some(sk) = &sinks {
                    dev = Arc::new(TimedDisk::new(dev, sk.inner.clone()));
                }
                if let (Some(armed), 0, 0) = (&inst.flip, s, r) {
                    dev = Arc::new(FlipDisk::new(dev, armed.clone()));
                }
                let sd = Arc::new(SchedDisk::new(
                    dev,
                    clock.clone(),
                    hw.disk,
                    SchedConfig::default(),
                ));
                sd.set_tracer(tracer.clone());
                sched.push(sd.clone());
                replicas.push(match &sinks {
                    Some(sk) => Arc::new(TimedDisk::new(sd, sk.outer.clone())),
                    None => sd,
                });
            }
            let storage = MirroredDisk::new(replicas).expect("replica set is valid");
            let cfg = config(shape, &clock, &hw, s, &trace);
            servers.push(Arc::new(
                BulletServer::format_on(cfg.clone(), storage).expect("format"),
            ));
            cfgs.push(cfg);
        }
        let net = SimEthernet::with_load(clock.clone(), hw.net, 1.0);
        let dispatcher = Dispatcher::new(net);
        dispatcher.set_tracer(tracer.clone());
        let port = servers[0].port();
        let client = BulletClient::new(RpcClient::new(dispatcher.clone()), port);
        let mut stack = Stack {
            clock,
            tracer,
            cfgs,
            servers,
            sched,
            router: None,
            dispatcher,
            client,
            sinks,
            port,
        };
        stack.mount();
        stack
    }

    /// Registers the RPC front (wrappers, router) for the current servers.
    fn mount(&mut self) {
        let wrap = |inner: Arc<dyn RpcServer>, sink: Option<&Arc<IoTimes>>| -> Arc<dyn RpcServer> {
            match sink {
                Some(s) => TimedRpc::new(inner, s.clone()),
                None => inner,
            }
        };
        let shard_sink = self.sinks.as_ref().map(|s| &s.shard);
        let fronts: Vec<Arc<dyn RpcServer>> = self
            .servers
            .iter()
            .map(|s| wrap(BulletRpcServer::new(s.clone()), shard_sink))
            .collect();
        let top: Arc<dyn RpcServer> = if fronts.len() > 1 {
            let router = Arc::new(ShardRouter::new(fronts));
            self.router = Some(router.clone());
            wrap(router, self.sinks.as_ref().map(|s| &s.top))
        } else {
            fronts.into_iter().next().expect("one shard")
        };
        self.dispatcher.register(top);
    }

    /// Crashes every shard (volatile state lost, disks and the WORM
    /// platters survive) and recovers it, `recover_with_archive` where a
    /// tier exists.  Returns the simulated time recovery took.
    ///
    /// # Errors
    ///
    /// The recovery error, as text.
    pub fn crash_and_recover(&mut self) -> Result<Nanos, String> {
        self.dispatcher.unregister(self.port);
        self.router = None;
        let t0 = self.clock.now();
        let servers = std::mem::take(&mut self.servers);
        for (server, cfg) in servers.into_iter().zip(&self.cfgs) {
            let server =
                Arc::try_unwrap(server).map_err(|_| "server still shared at crash".to_string())?;
            let archive = server.archive_device();
            let storage = server.crash();
            let back = match archive {
                Some(a) => BulletServer::recover_with_archive(cfg.clone(), storage, a),
                None => BulletServer::recover(cfg.clone(), storage),
            }
            .map_err(|e| format!("recovery failed: {e}"))?;
            self.servers.push(Arc::new(back));
        }
        let dt = self.clock.now() - t0;
        self.mount();
        Ok(dt)
    }
}
