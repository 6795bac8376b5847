//! Measurement taken from outside the simulator: observe-only timing
//! wrappers around the public layer traits, `/proc` readers for thread
//! scheduling and memory, and a fixed reference kernel for host drift.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use wsdf_sim::{
    Arrival, Injector, PacketHeader, RouteChoice, RouteOracle, SplitMix64, TraceRec,
    TrafficPattern, WorkloadDriver,
};

/// Call count and summed duration of one wrapped layer entry point.
///
/// Atomic so that the wrappers stay `Sync` and correct when two partitions
/// call them from two threads. The counters publish no other data, hence
/// `Relaxed`.
#[derive(Default)]
pub struct Acc {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Acc {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.nanos.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        r
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Seconds spent inside the wrapped calls.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Relaxed) as f64 * 1e-9
    }
}

/// Times [`RouteOracle::route`]; every other oracle call passes through.
pub struct TimedOracle<'a, O> {
    pub inner: O,
    pub acc: &'a Acc,
}

impl<O: RouteOracle> RouteOracle for TimedOracle<'_, O> {
    fn route(
        &self,
        router: u32,
        in_port: u8,
        in_vc: u8,
        pkt: &PacketHeader,
        rng: &mut SplitMix64,
    ) -> RouteChoice {
        self.acc
            .time(|| self.inner.route(router, in_port, in_vc, pkt, rng))
    }
    fn initial_vc(&self, pkt: &PacketHeader) -> u8 {
        self.inner.initial_vc(pkt)
    }
    fn num_vcs(&self) -> u8 {
        self.inner.num_vcs()
    }
    fn tag_packet(&self, pkt: &mut PacketHeader, rng: &mut SplitMix64) {
        self.inner.tag_packet(pkt, rng)
    }
}

/// Times [`TrafficPattern::dest`]; `rate` and `active_fraction` pass
/// through unchanged.
pub struct TimedPattern<'a, P> {
    pub inner: &'a P,
    pub acc: &'a Acc,
}

impl<P: TrafficPattern> TrafficPattern for TimedPattern<'_, P> {
    fn rate(&self, src: u32) -> f64 {
        self.inner.rate(src)
    }
    fn dest(&self, src: u32, seq: u64, rng: &mut SplitMix64) -> Option<u32> {
        self.acc.time(|| self.inner.dest(src, seq, rng))
    }
    fn active_fraction(&self) -> f64 {
        self.inner.active_fraction()
    }
}

/// Times every [`WorkloadDriver`] hook the engine calls.
pub struct TimedDriver<'a, W> {
    pub inner: W,
    pub acc: &'a Acc,
}

impl<W: WorkloadDriver> WorkloadDriver for TimedDriver<'_, W> {
    fn pre_cycle(&mut self, now: u64, inj: &mut Injector<'_>) {
        let acc = self.acc;
        acc.time(|| self.inner.pre_cycle(now, inj))
    }
    fn on_arrivals(&mut self, now: u64, arrivals: &[Arrival]) {
        let acc = self.acc;
        acc.time(|| self.inner.on_arrivals(now, arrivals))
    }
    fn done(&self) -> bool {
        self.acc.time(|| self.inner.done())
    }
    fn next_release(&self) -> Option<u64> {
        self.acc.time(|| self.inner.next_release())
    }
    fn drain_trace(&mut self, out: &mut Vec<TraceRec>) {
        self.inner.drain_trace(out)
    }
}

/// On-CPU and run-queue nanoseconds from one `schedstat` file.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub cpu_ns: u64,
    pub runq_ns: u64,
}

impl Sched {
    fn read(path: &std::path::Path) -> Option<Sched> {
        let text = std::fs::read_to_string(path).ok()?;
        let mut f = text.split_whitespace().map(|x| x.parse::<u64>().ok());
        Some(Sched {
            cpu_ns: f.next()??,
            runq_ns: f.next()??,
        })
    }

    /// The calling thread.
    pub fn thread() -> Sched {
        Sched::read("/proc/thread-self/schedstat".as_ref()).unwrap_or_default()
    }

    /// Summed over every live thread of this process.
    pub fn process() -> Sched {
        let mut total = Sched::default();
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return total;
        };
        for task in dir.flatten() {
            if let Some(s) = Sched::read(&task.path().join("schedstat")) {
                total.cpu_ns += s.cpu_ns;
                total.runq_ns += s.runq_ns;
            }
        }
        total
    }

    /// `(on-CPU, run-queue)` seconds elapsed since `earlier`.
    pub fn since(self, earlier: Sched) -> (f64, f64) {
        (
            self.cpu_ns.saturating_sub(earlier.cpu_ns) as f64 * 1e-9,
            self.runq_ns.saturating_sub(earlier.runq_ns) as f64 * 1e-9,
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed kernel of dependent random reads over an 8 MiB table, timed at
/// the start and the end of a run. The simulator's working set is of that
/// size, so the kernel slows down with it when other tenants of the host
/// contend for the shared cache or the CPU. It shares no code with the
/// simulator, and its table is allocated once and kept for the whole run
/// so that it never changes how the simulator's memory is allocated.
pub struct HostRef {
    table: Vec<u64>,
}

impl HostRef {
    const WORDS: usize = 1 << 20;

    pub fn new() -> Self {
        HostRef {
            table: (0..Self::WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44)
                .collect(),
        }
    }

    /// Size of the table, which the process's resident set includes.
    pub fn mb(&self) -> f64 {
        (self.table.len() * 8) as f64 / (1024.0 * 1024.0)
    }

    /// Seconds for one pass of the kernel (median of three).
    pub fn secs(&self) -> f64 {
        let mut t: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                let mut x = std::hint::black_box(0x5EED_u64);
                let mut acc = 0u64;
                for _ in 0..std::hint::black_box(1_000_000u64) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    acc = acc.wrapping_add(self.table[(x ^ acc) as usize % Self::WORDS]);
                }
                std::hint::black_box(acc);
                start.elapsed().as_secs_f64()
            })
            .collect();
        t.sort_by(f64::total_cmp);
        t[1]
    }
}
