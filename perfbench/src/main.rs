//! Host-time benchmark of the wsdf simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sl_uniform --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. One run builds and simulates the chosen
//! workload again and again for `--seconds` (after one warm-up rep that is
//! not counted) and reports medians over the reps. `--trace 0` prints the
//! end-to-end metrics, all from untraced reps. `--trace 1` alternates
//! untraced and traced reps and prints the per-layer metrics; its spans are
//! kept in memory and written to `perfbench/out/` when the run ends.
//!
//! Every rep is checked: no simulation error or deadlock, every created
//! packet ejected after the drain, every collective message complete, and
//! every exact output equal to the first rep's (traced or not). The
//! partitioned workload must also match its single-partition run bit for
//! bit. The last line of standard output is the JSON result; the line
//! before it records the run's context and host diagnostics.

mod probe;
mod workloads;

use probe::Sched;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{Outputs, Rep, Spec, SPECS};
use wsdf_exec::BspPool;

/// Timed reps per run even when `--seconds` has run out.
const MIN_REPS: usize = 5;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(err: &str) -> ! {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    eprintln!("perfbench: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n ≥ 1> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<u64>().ok().filter(|&s| s >= 1),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        spec: Spec::by_name(&name).unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
        seed: seed.unwrap_or_else(|| usage("--seed must be an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be an integer ≥ 1")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median of one field over a set of reps.
fn med<'a>(reps: impl IntoIterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.into_iter().map(f).collect::<Vec<_>>())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (all digits of the `f64`); non-finite as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The commit of the checkout when it is a git repository, read from
/// `.git` without running git.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-64 over the paths and bytes of the simulator sources, so a result
/// names the code it measured even in a checkout without git.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "shims", "perfbench/src"] {
        walk(d.as_ref(), &mut files);
    }
    files.push("Cargo.toml".into());
    files.push("perfbench/Cargo.toml".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("fnv64:{h:016x}")
}

/// Tally of simulations attempted and failed, with the first failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {why}");
        self.first_error.get_or_insert(why);
    }

    /// Run one rep and check it against `reference` (the first good
    /// outputs); returns it when it passed.
    fn rep(
        &mut self,
        spec: &Spec,
        seed: u64,
        pool: &BspPool,
        traced: bool,
        reference: &mut Option<Outputs>,
    ) -> Option<Rep> {
        self.attempted += 1;
        match workloads::rep(spec, seed, pool, traced) {
            Err(e) => {
                self.fail(e);
                None
            }
            Ok(r) => match reference {
                Some(want) if *want != r.out => {
                    self.fail(format!(
                        "outputs differ between reps (traced: {traced}, partitions: {}): {:?} vs {:?}",
                        spec.partitions, r.out, want
                    ));
                    None
                }
                _ => {
                    reference.get_or_insert(r.out);
                    Some(r)
                }
            },
        }
    }
}

type Metric = (&'static str, f64, &'static str);

/// The fastest loop time over a set of reps. Every rep of a run does exactly
/// the same work, and the host can only add time to it (other tenants
/// contend for the core and the shared cache in level shifts lasting seconds
/// to minutes), so the minimum over many short reps is the estimate least
/// moved by the host. See `perfbench/README.md` for the measurements.
fn fastest_loop(reps: &[&Rep]) -> f64 {
    reps.iter()
        .map(|r| r.phases.run)
        .fold(f64::INFINITY, f64::min)
}

fn end_to_end(reps: &[&Rep], rss_mb: f64) -> Vec<Metric> {
    let run_s = fastest_loop(reps);
    let first = reps[0];
    let router_cycles = (first.routers * first.out.cycles_run) as f64;
    vec![
        ("run_s", run_s, "s"),
        (
            "setup_s",
            med(reps.iter().copied(), |r| r.phases.setup()),
            "s",
        ),
        ("router_cycles_per_s", router_cycles / run_s, "1/s"),
        ("peak_rss_mb", rss_mb, "MB"),
        (
            "model.accepted_per_chip",
            first.accepted_per_chip,
            "flits/cycle/chip",
        ),
        (
            "model.p99_latency_cycles",
            first.out.p99_latency as f64,
            "cycles",
        ),
        (
            "model.completion_cycles",
            first.out.completion_cycles as f64,
            "cycles",
        ),
    ]
}

fn per_layer(
    traced: &[&Rep],
    plain: &[&Rep],
    workers: usize,
    host_ref: f64,
    runq: f64,
) -> Vec<Metric> {
    let t = traced.iter().copied();
    let m = |f: &dyn Fn(&Rep) -> f64| med(t.clone(), f);
    let first = traced[0];
    let o = first.out;
    let loop_s = m(&|r| r.phases.run);
    let plain_loop_s = med(plain.iter().copied(), |r| r.phases.run);
    let nested = |r: &Rep| r.calls.route.1 + r.calls.dest.1 + r.calls.driver.1;
    let engine_self_s = m(&|r| r.phases.run - nested(r));
    // Per unit of work, on the same footing as `run_s`.
    let fastest = fastest_loop(plain);
    let ns = |count: u64| fastest * 1e9 / count.max(1) as f64;
    vec![
        ("topo.build_s", m(&|r| r.phases.build), "s"),
        ("topo.partition_s", m(&|r| r.phases.partition), "s"),
        ("topo.cut_channels", first.cut_channels as f64, "count"),
        (
            "topo.self_s",
            m(&|r| r.phases.build + r.phases.partition),
            "s",
        ),
        ("routing.oracle_build_s", m(&|r| r.phases.oracle), "s"),
        ("routing.route_calls", first.calls.route.0 as f64, "count"),
        ("routing.route_s", m(&|r| r.calls.route.1), "s"),
        (
            "routing.self_s",
            m(&|r| r.phases.oracle + r.calls.route.1),
            "s",
        ),
        ("traffic.dest_calls", first.calls.dest.0 as f64, "count"),
        ("traffic.dest_s", m(&|r| r.calls.dest.1), "s"),
        ("workload.dag_build_s", m(&|r| r.phases.dag), "s"),
        ("workload.messages", first.messages as f64, "count"),
        (
            "workload.driver_calls",
            first.calls.driver.0 as f64,
            "count",
        ),
        ("workload.driver_s", m(&|r| r.calls.driver.1), "s"),
        (
            "workload.self_s",
            m(&|r| r.phases.dag + r.calls.driver.1),
            "s",
        ),
        ("sim.compile_s", m(&|r| r.phases.compile), "s"),
        ("sim.loop_s", loop_s, "s"),
        ("sim.engine_self_s", engine_self_s, "s"),
        (
            "sim.self_s",
            m(&|r| r.phases.compile + r.phases.run - nested(r)),
            "s",
        ),
        ("sim.cycles_run", o.cycles_run as f64, "count"),
        ("sim.busy_cycles", o.busy_cycles as f64, "count"),
        ("sim.skipped_cycles", o.skipped_cycles as f64, "count"),
        ("sim.flit_hops", o.flit_hops as f64, "count"),
        ("sim.packets_ejected", o.packets_ejected as f64, "count"),
        (
            "sim.ns_per_router_cycle",
            ns(first.routers * o.cycles_run),
            "ns",
        ),
        ("sim.ns_per_flit_hop", ns(o.flit_hops), "ns"),
        ("sim.ns_per_busy_cycle", ns(o.busy_cycles), "ns"),
        ("sim.exchange_msgs", first.exchange_msgs as f64, "count"),
        (
            "exec.caller_wait_s",
            m(&|r| (r.phases.run - r.sched.caller_cpu - r.sched.caller_runq).max(0.0)),
            "s",
        ),
        ("exec.cpu_s", m(&|r| r.sched.proc_cpu), "s"),
        (
            "exec.parallel_efficiency",
            m(&|r| r.sched.proc_cpu / (workers as f64 * r.phases.run)),
            "ratio",
        ),
        ("trace.overhead_s", loop_s - plain_loop_s, "s"),
        (
            "trace.span_coverage",
            m(&|r| (r.phases.setup() + r.phases.run) / r.wall),
            "ratio",
        ),
        ("proc.runq_wait_s", runq, "s"),
        ("host.ref_s", host_ref, "s"),
    ]
}

/// The spans of every traced rep, as one JSON document. Each layer call is a
/// child span of its rep; they ran one after another in the order listed,
/// and the gaps between them are what `trace.span_coverage` leaves out. The
/// wrapped calls inside the loop are aggregated per rep (count and summed
/// duration) as children of the loop span.
fn spans_json(args: &Args, reps: &[&Rep]) -> String {
    let mut s = format!(
        "{{\"workload\": {}, \"seed\": {}, \"reps\": [",
        json_str(args.spec.name),
        args.seed
    );
    for (i, r) in reps.iter().enumerate() {
        let p = &r.phases;
        let mut spans: Vec<String> = [
            ("topo.build", p.build),
            ("routing.oracle_build", p.oracle),
            ("topo.partition", p.partition),
            ("workload.dag_build", p.dag),
            ("sim.compile", p.compile),
            ("sim.loop", p.run),
        ]
        .iter()
        .map(|(name, d)| {
            format!(
                "{{\"name\": \"{name}\", \"parent\": \"rep\", \"dur_s\": {}}}",
                json_num(*d)
            )
        })
        .collect();
        for (name, (calls, d)) in [
            ("routing.route", r.calls.route),
            ("traffic.dest", r.calls.dest),
            ("workload.driver", r.calls.driver),
        ] {
            spans.push(format!(
                "{{\"name\": \"{name}\", \"parent\": \"sim.loop\", \"calls\": {calls}, \"dur_s\": {}}}",
                json_num(d)
            ));
        }
        let _ = write!(
            s,
            "{}{{\"rep\": {i}, \"wall_s\": {}, \"spans\": [{}]}}",
            if i > 0 { ", " } else { "" },
            json_num(r.wall),
            spans.join(", ")
        );
    }
    s.push_str("]}\n");
    s
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = parse_args();
    let spec = args.spec;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = spec.workers.min(nproc).max(1);
    let pool = BspPool::new(workers);

    let host = probe::HostRef::new();
    let ref_start = host.secs();
    let proc0 = Sched::process();
    let mut tally = Tally::default();
    let mut reference = None;

    // Warm-up: fills allocator pools and caches; checked but not timed.
    tally.rep(spec, args.seed, &pool, false, &mut reference);
    if spec.partitions > 1 {
        // Partition-count invariance: the single-partition run of the same
        // inputs must give exactly the same outputs.
        let one = spec.single_partition();
        tally.rep(&one, args.seed, &pool, false, &mut reference);
    }

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps = Vec::new();
    let min_reps = if args.trace { 2 * MIN_REPS } else { MIN_REPS };
    let mut i = 0usize;
    while Instant::now() < deadline || i < min_reps {
        let traced = args.trace && i % 2 == 1;
        if let Some(r) = tally.rep(spec, args.seed, &pool, traced, &mut reference) {
            reps.push(r);
        }
        i += 1;
    }
    let (_, runq) = Sched::process().since(proc0);
    let ref_end = host.secs();
    let host_ref = (ref_start + ref_end) / 2.0;
    // The reference kernel's table is resident for the whole run.
    let rss_mb = probe::peak_rss_mb() - host.mb();

    let plain: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let counts = |r: &Rep| (r.calls.route.0, r.calls.dest.0, r.calls.driver.0);
    if traced.windows(2).any(|w| counts(w[0]) != counts(w[1])) {
        tally.fail("wrapped call counts differ between traced reps".into());
    }

    let mut ctx = String::new();
    let _ = write!(
        ctx,
        "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"pool_workers\": {workers}, \"partitions\": {}, \
         \"stepping\": \"{}\", \"partitioner\": \"{}\", \"git_rev\": {}, \"src_digest\": \"{}\", \
         \"reps_untraced\": {}, \"reps_traced\": {}, \
         \"host_ref_start_s\": {}, \"host_ref_end_s\": {}, \"proc_runq_wait_s\": {}, \
         \"run_s_reps\": [{}], \"first_error\": {}}}}}",
        json_str(spec.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.partitions,
        spec.stepping(),
        spec.partitioner(),
        json_str(&git_rev()),
        source_digest(),
        plain.len(),
        traced.len(),
        json_num(ref_start),
        json_num(ref_end),
        json_num(runq),
        plain
            .iter()
            .map(|r| json_num(r.phases.run))
            .collect::<Vec<_>>()
            .join(", "),
        tally.first_error.as_deref().map_or("null".into(), json_str),
    );
    println!("{ctx}");

    let metrics = if plain.is_empty() || (args.trace && traced.is_empty()) {
        Vec::new()
    } else if args.trace {
        let doc = spans_json(&args, &traced);
        let path = format!("perfbench/out/trace-{}-seed{}.json", spec.name, args.seed);
        if let Err(e) =
            std::fs::create_dir_all("perfbench/out").and_then(|_| std::fs::write(&path, doc))
        {
            eprintln!("perfbench: could not write {path}: {e}");
        }
        per_layer(&traced, &plain, workers, host_ref, runq)
    } else {
        end_to_end(&plain, rss_mb)
    };
    let correct = tally.failed == 0 && !metrics.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
}
