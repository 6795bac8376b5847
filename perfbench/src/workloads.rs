//! The four benchmark workloads, built and run through the public API of
//! each layer crate. Every run setting is pinned here and nothing is read
//! from the `WSDF_*` environment: event stepping, an explicit partition
//! count, the locality partitioner, and an explicit `BspPool`.
//!
//! One repetition ("rep") builds everything from scratch and runs it once:
//! fabric (`wsdf-topo`) → oracle (`wsdf-routing`) → partition map
//! (`wsdf-topo`) → traffic or collective DAG (`wsdf-traffic` /
//! `wsdf-workload`) → engine compile and cycle loop (`wsdf-sim`) on the
//! pool (`wsdf-exec`). A traced rep swaps in the observe-only wrappers of
//! [`crate::probe`]; it must produce exactly the same model outputs.

use crate::probe::{Acc, Sched, TimedDriver, TimedOracle, TimedPattern};
use std::sync::Arc;
use std::time::Instant;
use wsdf_exec::BspPool;
use wsdf_routing::{RouteMode, SlOracle, SwOracle, VcScheme};
use wsdf_sim::{
    Metrics, NetworkDesc, RouteOracle, SimConfig, SimError, Simulation, SplitMix64, TrafficPattern,
};
use wsdf_topo::{SlParams, SwParams, SwitchFabric, SwitchlessFabric};
use wsdf_traffic::{Scope, UniformPattern};
use wsdf_workload::{ClosedLoop, Workload};

/// Which fabric a workload runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fabric {
    /// Switch-less radix-16, [`SL_WGROUPS`] W-group: 224 routers,
    /// 128 endpoints in 32 chips of 4.
    Switchless,
    /// Switch-based radix-16, [`SW_GROUPS`] groups: 24 switches with
    /// 16 VCs, 96 endpoints.
    Switchbased,
}

/// Fabric sizes. At these sizes the simulator's working set stays near the
/// size of one core's L2 cache. Larger fabrics spill into the L3 cache that
/// the host shares with other tenants, and their host time then follows
/// those tenants' memory traffic (see `perfbench/README.md`).
const SL_WGROUPS: u32 = 1;
const SW_GROUPS: u32 = 3;

/// What a workload asks of the fabric.
#[derive(Clone, Copy, PartialEq)]
enum Load {
    /// Open-loop uniform random traffic at this rate in flits/cycle/chip,
    /// below or above the fabric's saturation point.
    Uniform { per_chip: f64, saturated: bool },
    /// Closed-loop ring allreduce, one participant per chip, with this
    /// much payload per participant.
    RingAllreduce { data_flits: u64 },
}

/// A named benchmark workload.
pub struct Spec {
    pub name: &'static str,
    fabric: Fabric,
    load: Load,
    /// Locality partitions of the router graph.
    pub partitions: usize,
    /// Pool slots asked for; the pool never gets more than `nproc`.
    pub workers: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "sl_uniform",
        fabric: Fabric::Switchless,
        load: Load::Uniform {
            per_chip: 0.9,
            saturated: false,
        },
        partitions: 1,
        workers: 1,
    },
    Spec {
        name: "sl_allreduce",
        fabric: Fabric::Switchless,
        load: Load::RingAllreduce { data_flits: 320 },
        partitions: 1,
        workers: 1,
    },
    Spec {
        name: "sw_uniform_sat",
        fabric: Fabric::Switchbased,
        load: Load::Uniform {
            per_chip: 1.2,
            saturated: true,
        },
        partitions: 1,
        workers: 1,
    },
    Spec {
        name: "sl_uniform_p2",
        fabric: Fabric::Switchless,
        load: Load::Uniform {
            per_chip: 0.9,
            saturated: false,
        },
        partitions: 2,
        workers: 2,
    },
];

/// Open-loop measurement windows (cycles). The drain window is an upper
/// bound: the engine stops as soon as the network is empty.
const WARMUP: u64 = 500;
const MEASURE: u64 = 1_500;
const DRAIN: u64 = 20_000;

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// The same workload on one partition: the reference a partitioned run
    /// must match bit for bit.
    pub fn single_partition(&self) -> Spec {
        Spec {
            name: self.name,
            fabric: self.fabric,
            load: self.load,
            partitions: 1,
            workers: 1,
        }
    }

    pub fn stepping(&self) -> &'static str {
        "event"
    }

    pub fn partitioner(&self) -> &'static str {
        if self.partitions > 1 {
            "locality"
        } else {
            "none"
        }
    }
}

/// Host seconds of each layer call of one rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub build: f64,
    pub oracle: f64,
    pub partition: f64,
    pub dag: f64,
    pub compile: f64,
    pub run: f64,
}

impl Phases {
    /// Everything before the cycle loop.
    pub fn setup(&self) -> f64 {
        self.build + self.oracle + self.partition + self.dag + self.compile
    }
}

/// Every exact output of a run. Two runs of the same inputs must agree on
/// all of it, whatever the tracing, partitioning or worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    pub packets_created: u64,
    pub packets_ejected: u64,
    pub flits_ejected: u64,
    pub latency_sum: u64,
    pub latency_max: u64,
    pub p99_latency: u64,
    pub flit_hops: u64,
    pub cycles_run: u64,
    pub busy_cycles: u64,
    pub skipped_cycles: u64,
    pub measure_cycles: u64,
    /// Open loop: `cycles_run`. Closed loop: the cycle the last message
    /// fully arrived.
    pub completion_cycles: u64,
}

/// Counters read from the wrappers of a traced rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub route: (u64, f64),
    pub dest: (u64, f64),
    pub driver: (u64, f64),
}

/// Scheduling of the cycle loop, from `/proc`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopSched {
    /// On-CPU seconds of the calling thread.
    pub caller_cpu: f64,
    /// Run-queue seconds of the calling thread (host contention).
    pub caller_runq: f64,
    /// On-CPU seconds summed over all threads.
    pub proc_cpu: f64,
}

/// One finished rep.
pub struct Rep {
    pub traced: bool,
    pub phases: Phases,
    /// Wall time from the start of the fabric build to the end of the loop.
    pub wall: f64,
    pub out: Outputs,
    pub accepted_per_chip: f64,
    pub routers: u64,
    pub calls: Calls,
    pub sched: LoopSched,
    pub exchange_msgs: u64,
    pub cut_channels: u64,
    pub messages: u64,
}

/// Why a rep counts as failed.
pub type RepError = String;

enum BuiltOracle {
    Sl(SlOracle),
    Sw(SwOracle),
}

/// Everything a rep builds before the engine compiles.
struct Built {
    net: NetworkDesc,
    oracle: BuiltOracle,
    cfg: SimConfig,
    chips: f64,
    pattern: Option<UniformPattern>,
    dag: Option<Workload>,
    phases: Phases,
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Seed of the simulator's own random streams for a workload seed.
fn sim_seed(seed: u64) -> u64 {
    SplitMix64::new(seed ^ 0x0BE4_C4A1).next_u64()
}

fn build(spec: &Spec, seed: u64) -> Built {
    let mut ph = Phases::default();
    let sl = SlParams::radix16().with_wgroups(SL_WGROUPS);
    let sw = SwParams::radix16().with_groups(SW_GROUPS);
    let t = Instant::now();
    let net = match spec.fabric {
        Fabric::Switchless => SwitchlessFabric::build(&sl).net,
        Fabric::Switchbased => SwitchFabric::build(&sw).net,
    };
    ph.build = secs_since(t);

    let t = Instant::now();
    let oracle = match spec.fabric {
        Fabric::Switchless => {
            BuiltOracle::Sl(SlOracle::new(&sl, RouteMode::Minimal, VcScheme::Baseline))
        }
        Fabric::Switchbased => BuiltOracle::Sw(SwOracle::minimal(&sw)),
    };
    ph.oracle = secs_since(t);

    let t = Instant::now();
    let partition_map = (spec.partitions > 1)
        .then(|| Arc::new(wsdf_topo::locality_partition(&net, spec.partitions, None)));
    ph.partition = secs_since(t);

    let chips = match spec.fabric {
        Fabric::Switchless => net.num_endpoints() as f64 / sl.nodes_per_chip,
        Fabric::Switchbased => net.num_endpoints() as f64,
    };
    let t = Instant::now();
    let (pattern, dag) = match spec.load {
        Load::Uniform { per_chip, .. } => {
            let per_node = per_chip * chips / net.num_endpoints() as f64;
            (
                Some(UniformPattern::new(net.num_endpoints() as u32, per_node)),
                None,
            )
        }
        Load::RingAllreduce { data_flits } => {
            let scope = match spec.fabric {
                Fabric::Switchless => Scope::switchless(&sl),
                Fabric::Switchbased => Scope::switchbased(&sw),
            };
            // The seed picks which node of each chip takes part; the ring
            // itself follows chip order, so every seed costs the same.
            let mut rng = SplitMix64::new(seed);
            let participants: Vec<u32> = (0..scope.num_chips())
                .map(|c| scope.node_of(c, rng.next_below(scope.nodes_per_chip as u64) as u32))
                .collect();
            let wl = Workload::ring_allreduce(&participants, data_flits);
            wl.validate(net.num_endpoints() as u32)
                .expect("ring allreduce over distinct chips is a valid DAG");
            (None, Some(wl))
        }
    };
    ph.dag = secs_since(t);

    let num_vcs = match &oracle {
        BuiltOracle::Sl(o) => o.num_vcs(),
        BuiltOracle::Sw(o) => o.num_vcs(),
    };
    let cfg = SimConfig {
        packet_len: 4,
        buffer_flits: 32,
        num_vcs,
        measure_cycles: MEASURE,
        warmup_cycles: WARMUP,
        drain_cycles: DRAIN,
        watchdog_cycles: 2_000,
        seed: sim_seed(seed),
        partitions: spec.partitions,
        partition_map,
        per_endpoint_stats: false,
        per_channel_stats: false,
        event_driven: true,
    };
    Built {
        net,
        oracle,
        cfg,
        chips,
        pattern,
        dag,
        phases: ph,
    }
}

/// What the engine returned, before any check.
struct Ran {
    compile: f64,
    /// Building the closed-loop driver from the DAG (workload layer).
    driver_new: f64,
    run: f64,
    metrics: Metrics,
    completion: Option<u64>,
    incomplete: usize,
    exchange_msgs: u64,
    sched: LoopSched,
}

fn timed_loop<T>(f: impl FnOnce() -> T) -> (T, f64, LoopSched) {
    let (th0, pr0) = (Sched::thread(), Sched::process());
    let t = Instant::now();
    let r = f();
    let run = secs_since(t);
    let (caller_cpu, caller_runq) = Sched::thread().since(th0);
    let (proc_cpu, _) = Sched::process().since(pr0);
    let sched = LoopSched {
        caller_cpu,
        caller_runq,
        proc_cpu,
    };
    (r, run, sched)
}

fn exchange_msgs<O: RouteOracle>(sim: &Simulation<O>) -> u64 {
    sim.exchange_edges().iter().map(|e| e.written).sum()
}

fn run_open<O: RouteOracle, P: TrafficPattern>(
    b: &Built,
    oracle: O,
    pattern: &P,
    pool: &BspPool,
) -> Result<Ran, SimError> {
    let t = Instant::now();
    let mut sim = Simulation::new(&b.net, &b.cfg, oracle)?;
    let compile = secs_since(t);
    let (metrics, run, sched) = timed_loop(|| sim.run_on(pool, pattern));
    Ok(Ran {
        compile,
        driver_new: 0.0,
        run,
        metrics: metrics?,
        completion: None,
        incomplete: 0,
        exchange_msgs: exchange_msgs(&sim),
        sched,
    })
}

/// The closed-loop counterpart of [`run_open`]; `wrap` decides whether the
/// driver is observed through a [`TimedDriver`].
fn run_closed<O: RouteOracle>(
    b: &Built,
    oracle: O,
    wl: &Workload,
    pool: &BspPool,
    driver_acc: Option<&Acc>,
) -> Result<Ran, SimError> {
    let t = Instant::now();
    let mut sim = Simulation::new(&b.net, &b.cfg, oracle)?;
    let compile = secs_since(t);
    let t = Instant::now();
    let driver = ClosedLoop::new(wl, b.cfg.packet_len);
    let driver_new = secs_since(t);
    let (metrics, run, sched, driver) = match driver_acc {
        None => {
            let mut d = driver;
            let (m, run, sched) = timed_loop(|| sim.run_closed_loop_on(pool, &mut d));
            (m, run, sched, d)
        }
        Some(acc) => {
            let mut d = TimedDriver { inner: driver, acc };
            let (m, run, sched) = timed_loop(|| sim.run_closed_loop_on(pool, &mut d));
            (m, run, sched, d.inner)
        }
    };
    let metrics = metrics?;
    let incomplete = wl.len() - driver.completed();
    let completion =
        (incomplete == 0).then(|| driver.into_outcome(metrics.clone()).completion_cycles);
    Ok(Ran {
        compile,
        driver_new,
        run,
        metrics,
        completion,
        incomplete,
        exchange_msgs: exchange_msgs(&sim),
        sched,
    })
}

fn dispatch<O: RouteOracle>(
    b: &Built,
    oracle: &O,
    pool: &BspPool,
    accs: Option<&[Acc; 3]>,
) -> Result<Ran, SimError> {
    match (&b.pattern, &b.dag, accs) {
        (Some(p), _, None) => run_open(b, oracle, p, pool),
        (Some(p), _, Some([route, dest, _])) => run_open(
            b,
            TimedOracle {
                inner: oracle,
                acc: route,
            },
            &TimedPattern {
                inner: p,
                acc: dest,
            },
            pool,
        ),
        (None, Some(wl), None) => run_closed(b, oracle, wl, pool, None),
        (None, Some(wl), Some([route, _, driver])) => run_closed(
            b,
            TimedOracle {
                inner: oracle,
                acc: route,
            },
            wl,
            pool,
            Some(driver),
        ),
        (None, None, _) => unreachable!("every workload has a pattern or a DAG"),
    }
}

/// Build and run `spec` once. `traced` swaps in the timing wrappers.
pub fn rep(spec: &Spec, seed: u64, pool: &BspPool, traced: bool) -> Result<Rep, RepError> {
    let t0 = Instant::now();
    let b = build(spec, seed);
    let accs: [Acc; 3] = Default::default();
    let accs_ref = traced.then_some(&accs);
    let ran = match &b.oracle {
        BuiltOracle::Sl(o) => dispatch(&b, o, pool, accs_ref),
        BuiltOracle::Sw(o) => dispatch(&b, o, pool, accs_ref),
    };
    let wall = secs_since(t0);
    let ran = ran.map_err(|e| format!("simulation error: {e}"))?;
    let m = &ran.metrics;

    if m.deadlocked {
        return Err("deadlock watchdog fired".into());
    }
    if m.packets_created != m.packets_ejected {
        return Err(format!(
            "{} packets created but {} ejected after the drain",
            m.packets_created, m.packets_ejected
        ));
    }
    if ran.incomplete > 0 {
        return Err(format!("{} messages incomplete at the end", ran.incomplete));
    }
    let p99 = m
        .latency_hist
        .p99()
        .ok_or_else(|| "no packet was measured".to_string())?;
    let out = Outputs {
        packets_created: m.packets_created,
        packets_ejected: m.packets_ejected,
        flits_ejected: m.flits_ejected_measured,
        latency_sum: m.latency_sum,
        latency_max: m.latency_max,
        p99_latency: p99,
        flit_hops: m.class_hops.total(),
        cycles_run: m.cycles_run,
        busy_cycles: m.busy_cycles,
        skipped_cycles: m.skipped_cycles,
        measure_cycles: m.measure_cycles,
        completion_cycles: ran.completion.unwrap_or(m.cycles_run),
    };
    let accepted_per_chip =
        m.flits_ejected_measured as f64 / (m.measure_cycles.max(1) as f64 * b.chips);
    // Below saturation the fabric accepts what is offered; above it, less.
    if let Load::Uniform {
        per_chip,
        saturated,
    } = spec.load
    {
        let ratio = accepted_per_chip / per_chip;
        if saturated != (ratio < 0.97) || ratio > 1.03 {
            return Err(format!(
                "accepted {accepted_per_chip} flits/cycle/chip at an offered {per_chip} \
                 (expected {} saturation)",
                if saturated { "above" } else { "below" }
            ));
        }
    }
    let cut_channels = b
        .cfg
        .partition_map
        .as_ref()
        .map_or(0, |map| wsdf_topo::cut_channels(&b.net, map, None) as u64);
    let mut phases = b.phases;
    phases.compile = ran.compile;
    phases.dag += ran.driver_new;
    phases.run = ran.run;
    let calls = Calls {
        route: (accs[0].calls(), accs[0].secs()),
        dest: (accs[1].calls(), accs[1].secs()),
        driver: (accs[2].calls(), accs[2].secs()),
    };
    Ok(Rep {
        traced,
        phases,
        wall,
        out,
        accepted_per_chip,
        routers: b.net.num_routers() as u64,
        calls,
        sched: ran.sched,
        exchange_msgs: ran.exchange_msgs,
        cut_channels,
        messages: b.dag.as_ref().map_or(0, |wl| wl.len() as u64),
    })
}
