//! The benchmark's own instrumentation: wrappers around the program's
//! public interfaces (`BlockDevice`, `RpcServer`) that time each call on
//! the host clock.  The program itself carries no tracing for this.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use amoeba_cap::Port;
use amoeba_disk::{BlockDevice, DiskError};
use amoeba_rpc::{Reply, Request, RpcServer, StreamWire};

/// Host-time totals one wrapper layer collected since the last [`take`].
///
/// [`take`]: IoTimes::take
#[derive(Debug)]
pub struct IoTimes {
    base: Instant,
    ns: AtomicU64,
    /// `(start, end)` of every call, in ns since `base`, when intervals
    /// are kept (mirrored writes overlap, so their wall time is a union).
    spans: Option<Mutex<Vec<(u64, u64)>>>,
}

/// What [`IoTimes::take`] hands back.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoTake {
    /// Summed call time.
    pub ns: u64,
    /// Wall time covered by the calls (their interval union); equals
    /// `ns` when intervals are not kept.
    pub wall_ns: u64,
}

impl IoTimes {
    /// A fresh sink; `intervals` keeps per-call spans for a union.
    pub fn new(base: Instant, intervals: bool) -> Arc<IoTimes> {
        Arc::new(IoTimes {
            base,
            ns: AtomicU64::new(0),
            spans: intervals.then(|| Mutex::new(Vec::new())),
        })
    }

    fn record(&self, t0: Instant, t1: Instant) {
        let d = (t1 - t0).as_nanos() as u64;
        self.ns.fetch_add(d, Ordering::Relaxed);
        if let Some(spans) = &self.spans {
            let s = (t0 - self.base).as_nanos() as u64;
            spans.lock().expect("span list").push((s, s + d));
        }
    }

    /// Drains the totals accumulated since the previous call.
    pub fn take(&self) -> IoTake {
        let ns = self.ns.swap(0, Ordering::Relaxed);
        let wall_ns = match &self.spans {
            Some(spans) => union_ns(&mut std::mem::take(&mut *spans.lock().expect("span list"))),
            None => ns,
        };
        IoTake { ns, wall_ns }
    }
}

/// Length of the union of `[start, end)` intervals.
pub fn union_ns(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let (mut covered, mut cursor) = (0u64, 0u64);
    for &(s, e) in iv.iter() {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
        }
        cursor = cursor.max(e);
    }
    covered
}

/// A `BlockDevice` that times every read and write into an [`IoTimes`].
pub struct TimedDisk<D> {
    inner: D,
    sink: Arc<IoTimes>,
}

impl<D: BlockDevice> TimedDisk<D> {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: D, sink: Arc<IoTimes>) -> TimedDisk<D> {
        TimedDisk { inner, sink }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.sink.record(t0, Instant::now());
        out
    }
}

impl<D: BlockDevice> BlockDevice for TimedDisk<D> {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.timed(|| self.inner.read_blocks(first_block, buf))
    }

    fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.timed(|| self.inner.write_blocks(first_block, data))
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.inner.sync()
    }

    fn read_blocks_low(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.timed(|| self.inner.read_blocks_low(first_block, buf))
    }
}

/// A faulty `BlockDevice` for the benchmark's self-test: once armed, it
/// flips the last byte of every read longer than four blocks — silent
/// corruption the correctness checks must catch.
pub struct FlipDisk<D> {
    inner: D,
    armed: Arc<AtomicBool>,
}

impl<D: BlockDevice> FlipDisk<D> {
    /// Wraps `inner`; corruption starts when `armed` is set.
    pub fn new(inner: D, armed: Arc<AtomicBool>) -> FlipDisk<D> {
        FlipDisk { inner, armed }
    }
}

impl<D: BlockDevice> BlockDevice for FlipDisk<D> {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.inner.read_blocks(first_block, buf)?;
        if self.armed.load(Ordering::Relaxed) && buf.len() > 4 * self.block_size() as usize {
            let last = buf.len() - 1;
            buf[last] ^= 0x20;
        }
        Ok(())
    }

    fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.inner.write_blocks(first_block, data)
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.inner.sync()
    }
}

/// An `RpcServer` that times every request its inner server handles.
pub struct TimedRpc {
    inner: Arc<dyn RpcServer>,
    sink: Arc<IoTimes>,
}

impl TimedRpc {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: Arc<dyn RpcServer>, sink: Arc<IoTimes>) -> Arc<TimedRpc> {
        Arc::new(TimedRpc { inner, sink })
    }
}

impl RpcServer for TimedRpc {
    fn port(&self) -> Port {
        self.inner.port()
    }

    fn handle(&self, req: Request) -> Reply {
        let t0 = Instant::now();
        let reply = self.inner.handle(req);
        self.sink.record(t0, Instant::now());
        reply
    }

    fn handle_streamed(&self, req: Request, wire: &StreamWire) -> Reply {
        let t0 = Instant::now();
        let reply = self.inner.handle_streamed(req, wire);
        self.sink.record(t0, Instant::now());
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(&mut [(0, 10), (2, 3)]), 10);
        assert_eq!(union_ns(&mut []), 0);
    }
}
