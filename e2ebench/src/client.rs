//! One client driving one deployment through a workload's step sequence,
//! checking every reply.

use std::collections::BTreeSet;
use std::time::Instant;

use bytes::Bytes;

use amoeba_cap::{shard_of, Capability};
use bullet_core::CompactTick;

use crate::content::{contents, file_key, fingerprint};
use crate::stack::{Instrument, Stack};
use crate::workload::{Kind, Spec, Step, StepGen};

/// Deleted capabilities kept for the post-recovery "must still fail"
/// check.
const DEAD_KEPT: usize = 64;

/// Maintenance ticks per shard that age small-churn's population into
/// its tiers during set-up.
const SETUP_TICKS: usize = 256;

/// What a timed call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `BULLET.READ`.
    Read,
    /// `BULLET.CREATE`.
    Create,
    /// `BULLET.DELETE`.
    Delete,
    /// Inline maintenance (not a client operation).
    Maint,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// What ran.
    pub kind: OpKind,
    /// Simulated time it took.
    pub sim_ns: u64,
    /// Host time it took.
    pub host_ns: u64,
    /// Payload bytes moved (file size for reads and creates).
    pub bytes: u64,
}

/// One live file as the client knows it.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Its capability.
    pub cap: Capability,
    /// Generation: bumped by every delete + re-create.
    pub generation: u32,
    /// Length in bytes.
    pub len: usize,
    /// Fingerprint of its contents.
    pub fp: u64,
}

/// A deployment plus the client's view of it.
pub struct Client {
    /// The workload.
    pub spec: Spec,
    /// The seed everything derives from.
    pub seed: u64,
    /// The deployment.
    pub stack: Stack,
    /// The step sequence.
    pub steps: StepGen,
    /// Every live file.
    pub slots: Vec<Slot>,
    /// Recently deleted capabilities.
    pub dead: Vec<Capability>,
    /// Checked operations (client calls, maintenance calls, sweep reads).
    pub attempted: u64,
    /// Of which failed or returned wrong bytes.
    pub failed: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
    /// Client operations issued in steps.
    pub client_ops: u64,
    /// Maintenance ticks attempted / that did a job increment.
    pub ticks: (u64, u64),
    read_since_age: BTreeSet<usize>,
}

impl Client {
    /// Formats a fresh deployment for `spec`; [`setup`](Self::setup)
    /// then brings it to the workload's starting state.
    pub fn new(spec: Spec, seed: u64, inst: &Instrument) -> Client {
        Client {
            spec,
            seed,
            stack: Stack::build(&spec.shape, inst),
            steps: StepGen::new(spec, seed),
            slots: Vec::with_capacity(spec.files),
            dead: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            client_ops: 0,
            ticks: (0, 0),
            read_since_age: BTreeSet::new(),
        }
    }

    /// Populates through the client, then warms (warm-read) or ages the
    /// population into its tiers (small-churn), handing every timed call
    /// to `out`.
    ///
    /// # Panics
    ///
    /// Panics if a population create or a set-up maintenance call fails
    /// (the deployment is sized so they cannot).
    pub fn setup(&mut self, out: &mut impl FnMut(Sample)) {
        let spec = self.spec;
        for (i, len) in StepGen::population(&spec, self.seed)
            .into_iter()
            .enumerate()
        {
            match self.create(i, 0, len) {
                Ok((slot, s)) => {
                    self.slots.push(slot);
                    out(s);
                }
                Err(e) => panic!("population create {i} failed: {e}"),
            }
        }
        match spec.kind {
            Kind::WarmRead => {
                for i in 0..self.slots.len() {
                    out(self.read(i));
                }
            }
            Kind::ColdLarge => {}
            Kind::SmallChurn => {
                let ((), sim_ns, host_ns) = self.timed(Client::age_into_tiers);
                out(Sample {
                    kind: OpKind::Maint,
                    sim_ns,
                    host_ns,
                    bytes: 0,
                });
            }
        }
        self.client_ops = 0;
        self.read_since_age.clear();
    }

    /// Ages the population into its tiers: two aging rounds make every
    /// file cold, touching the popular quarter keeps it hot, then a fixed
    /// number of maintenance ticks demote the cold tail and pack.  The
    /// ranked scheduler rarely reports idle here, so the tick count is
    /// fixed rather than run to idle.
    fn age_into_tiers(&mut self) {
        for server in &self.stack.servers {
            for _ in 0..2 {
                server.age_all().expect("aging round");
            }
        }
        let shards = self.stack.servers.len() as u32;
        for &i in self.steps.popularity().head(self.spec.files / 4) {
            let cap = self.slots[i].cap;
            let s = shard_of(cap.object.value(), shards) as usize;
            self.stack.servers[s].touch(&cap).expect("hot touch");
        }
        for server in &self.stack.servers {
            for _ in 0..SETUP_TICKS {
                if let CompactTick::Idle = server.compact_tick().expect("maintenance tick") {
                    break;
                }
            }
        }
    }

    /// Runs `f`, returning its result with its simulated and host time
    /// in ns.
    fn timed<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, u64, u64) {
        let clock = self.stack.clock.clone();
        let (s0, t0) = (clock.now(), Instant::now());
        let out = f(self);
        let host_ns = t0.elapsed().as_nanos() as u64;
        (out, (clock.now() - s0).as_ns(), host_ns)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Creates generation `generation` of file `i`, timed.
    fn create(&mut self, i: usize, generation: u32, len: usize) -> Result<(Slot, Sample), String> {
        let data = contents(file_key(self.seed, i, generation), len);
        let fp = fingerprint(&data);
        let data = Bytes::from(data);
        let (r, sim_ns, host_ns) = self.timed(|d| d.stack.client.create(data, 2));
        self.attempted += 1;
        let cap = r.map_err(|e| format!("create file {i} gen {generation}: {e:?}"))?;
        Ok((
            Slot {
                cap,
                generation,
                len,
                fp,
            },
            Sample {
                kind: OpKind::Create,
                sim_ns,
                host_ns,
                bytes: len as u64,
            },
        ))
    }

    /// Reads file `i`, checks length and fingerprint, returns the timing.
    pub fn read(&mut self, i: usize) -> Sample {
        let slot = self.slots[i];
        let (r, sim_ns, host_ns) = self.timed(|d| d.stack.client.read(&slot.cap));
        self.attempted += 1;
        match r {
            Ok(d) if d.len() == slot.len && fingerprint(&d) == slot.fp => {}
            Ok(d) => self.fail(format!(
                "read file {i} gen {}: {} bytes, want {}, fingerprint {}",
                slot.generation,
                d.len(),
                slot.len,
                if fingerprint(&d) == slot.fp {
                    "ok"
                } else {
                    "wrong"
                }
            )),
            Err(e) => self.fail(format!("read file {i}: {e:?}")),
        }
        Sample {
            kind: OpKind::Read,
            sim_ns,
            host_ns,
            bytes: slot.len as u64,
        }
    }

    /// Runs one step, handing each timed call to `out`.
    pub fn step(&mut self, out: &mut impl FnMut(Sample)) {
        match self.steps.next_step() {
            Step::Read(i) => {
                self.client_ops += 1;
                self.read_since_age.insert(i);
                out(self.read(i));
            }
            Step::Churn(i, len) => {
                self.client_ops += 2;
                let old = self.slots[i];
                let (r, sim_ns, host_ns) = self.timed(|d| d.stack.client.delete(&old.cap));
                self.attempted += 1;
                out(Sample {
                    kind: OpKind::Delete,
                    sim_ns,
                    host_ns,
                    bytes: 0,
                });
                if let Err(e) = r {
                    self.fail(format!("delete file {i}: {e:?}"));
                    return;
                }
                if self.dead.len() == DEAD_KEPT {
                    self.dead.remove(0);
                }
                self.dead.push(old.cap);
                match self.create(i, old.generation + 1, len) {
                    Ok((slot, s)) => {
                        self.slots[i] = slot;
                        out(s);
                    }
                    // The slot keeps the deleted capability, so later reads
                    // of this file fail too.
                    Err(e) => self.fail(e),
                }
            }
            Step::Maint(age) => {
                let ((), sim_ns, host_ns) = self.timed(|d| d.maintain(age));
                out(Sample {
                    kind: OpKind::Maint,
                    sim_ns,
                    host_ns,
                    bytes: 0,
                });
            }
        }
    }

    /// Inline maintenance: the aging daemon's round (touch what was read,
    /// then age) when `age`, and a few compaction/tiering ticks per shard.
    fn maintain(&mut self, age: bool) {
        let shards = self.stack.servers.len() as u32;
        if age {
            for i in std::mem::take(&mut self.read_since_age) {
                let cap = self.slots[i].cap;
                let s = shard_of(cap.object.value(), shards) as usize;
                self.attempted += 1;
                if let Err(e) = self.stack.servers[s].touch(&cap) {
                    self.fail(format!("touch file {i}: {e}"));
                }
            }
            for s in 0..self.stack.servers.len() {
                self.attempted += 1;
                if let Err(e) = self.stack.servers[s].age_all() {
                    self.fail(format!("aging round on shard {s}: {e}"));
                }
            }
        }
        for s in 0..self.stack.servers.len() {
            for _ in 0..self.spec.maint_ticks {
                self.attempted += 1;
                self.ticks.0 += 1;
                match self.stack.servers[s].compact_tick() {
                    Ok(CompactTick::Moved { .. }) => self.ticks.1 += 1,
                    Ok(CompactTick::Idle) => break,
                    Ok(CompactTick::Preempted) => {}
                    Err(e) => {
                        self.fail(format!("maintenance tick on shard {s}: {e}"));
                        break;
                    }
                }
            }
        }
    }

    /// Byte-exact sweep: every live file reads back exactly, and every
    /// kept deleted capability is refused.
    pub fn sweep(&mut self, phase: &str) {
        for i in 0..self.slots.len() {
            let slot = self.slots[i];
            self.attempted += 1;
            let want = contents(file_key(self.seed, i, slot.generation), slot.len);
            match self.stack.client.read(&slot.cap) {
                Ok(d) if d[..] == want[..] => {}
                Ok(d) => self.fail(format!(
                    "{phase} sweep: file {i} differs ({} bytes)",
                    d.len()
                )),
                Err(e) => self.fail(format!("{phase} sweep: file {i}: {e:?}")),
            }
        }
        for k in 0..self.dead.len() {
            let cap = self.dead[k];
            self.attempted += 1;
            if self.stack.client.read(&cap).is_ok() {
                self.fail(format!("{phase} sweep: deleted capability {k} still reads"));
            }
        }
    }

    /// Live user bytes.
    pub fn live_bytes(&self) -> u64 {
        self.slots.iter().map(|s| s.len as u64).sum()
    }

    /// Blocks in use per replica on the fast tier (allocator-held extents
    /// plus log-resident files) and on the archive tier (burned blocks,
    /// dead ones included: WORM media never reclaims), ÷ live user bytes.
    pub fn space_amp(&self) -> f64 {
        let mut blocks = 0u64;
        for s in &self.stack.servers {
            let (desc, rows) = s.describe_layout();
            let f = s.disk_frag_report();
            let log_start = desc.data_start() + f.total;
            blocks += f.total - f.free;
            blocks += rows
                .iter()
                .filter(|r| (log_start..desc.data_end()).contains(&(r.start_block as u64)))
                .map(|r| r.blocks)
                .sum::<u64>();
            if let Some(a) = s.archive_device() {
                blocks += a.append_pos();
            }
        }
        blocks as f64 * crate::stack::BLOCK as f64 / self.live_bytes().max(1) as f64
    }
}
