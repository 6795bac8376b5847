//! The unified run frontend: one builder for every run kind, with
//! optional streaming telemetry.
//!
//! Every run kind — raw metrics, fixed-grid and adaptive sweeps,
//! collectives, serving, resilience, scenarios — starts here:
//!
//! ```no_run
//! use wsdf::{AdaptiveConfig, Bench, PatternSpec, Session};
//!
//! let bench = Bench::single_mesh(4, 2, 1);
//! let out = Session::bench(&bench)
//!     .adaptive(&AdaptiveConfig::default(), PatternSpec::Uniform)
//!     .unwrap();
//! println!("saturation {:.2} flits/cycle/chip", out.report.sat_chip);
//! ```
//!
//! A session is built from either a [`Bench`] (pick a run kind:
//! [`Session::metrics`], [`Session::sweep`], [`Session::adaptive`],
//! [`Session::workload`], [`Session::serving`], [`Session::resilience`])
//! or a [`Scenario`] ([`Session::run`] dispatches on the scenario's run
//! section). Every run kind returns a typed [`Outcome`] carrying the
//! kind's report plus, when telemetry was attached, a [`TraceOutcome`].
//!
//! # Telemetry
//!
//! [`Session::trace`] buffers the JSONL stream in memory and returns it
//! (with its digest) in the outcome; [`Session::trace_to_path`] streams
//! to a file; [`Session::trace_to_writer`] streams to any `Write + Send`
//! sink. Telemetry is observe-only: reports are bit-identical with and
//! without it, and the trace byte stream itself is deterministic across
//! partition counts, worker counts and stepping modes (see
//! `wsdf_sim::telemetry`).
//!
//! # Stepping and partitioning
//!
//! A session adds no run option of its own: stepping and partitioning
//! come from the [`SimConfig`] fields (`event_driven`, `partitions`,
//! `partition_map`) of a bench session, or from the scenario's
//! `stepping`/`partitioning` sections. A parallel run without an
//! explicit map gets the locality map. The only environment input a run
//! reads is `WSDF_THREADS`, which sizes the process-wide pool
//! ([`wsdf_exec::configured_threads`]) and never changes a result.

use crate::bench::{Bench, PatternSpec};
use crate::collective::{run_workload_impl, WorkloadReport, WorkloadUnits};
use crate::resilience::{resilience_impl, ResilienceConfig, ResilienceReport};
use crate::scenario::{Scenario, ScenarioOutcome};
use crate::serving::{run_serving_impl, ServingReport};
use crate::sweep::{
    adaptive_impl, sweep_impl, AdaptiveConfig, SaturationReport, SweepConfig, SweepPoint,
};
use std::io::Write;
use std::path::PathBuf;
use wsdf_exec::BspPool;
use wsdf_sim::{
    json, Metrics, SharedBuf, SimConfig, TraceConfig, TraceGuard, Tracer, TrafficPattern,
};
use wsdf_workload::tenancy::ServingSpec;
use wsdf_workload::Workload;

/// Where a session's trace stream went, and (for in-memory captures) the
/// stream itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOutcome {
    /// FNV-1a digest of the JSONL stream (`fnv64:` + 16 hex digits).
    /// `Some` for in-memory captures ([`Session::trace`]), `None` when
    /// the stream went to a file or external writer.
    pub digest: Option<String>,
    /// The captured JSONL stream (in-memory captures only).
    pub jsonl: Option<String>,
    /// Destination file ([`Session::trace_to_path`] captures only).
    pub path: Option<PathBuf>,
}

/// Result of one session run: the run kind's report plus the trace
/// outcome when telemetry was attached.
#[derive(Debug)]
pub struct Outcome<T> {
    /// The run kind's report (e.g. [`Metrics`], [`SaturationReport`],
    /// [`ScenarioOutcome`]).
    pub report: T,
    /// Trace capture summary; `None` when telemetry was not configured.
    pub trace: Option<TraceOutcome>,
}

/// What the session runs on.
#[derive(Clone, Copy)]
enum Source<'a> {
    Bench(&'a Bench),
    Scenario(&'a Scenario),
}

/// Where the trace stream goes.
enum SinkSpec {
    /// In-memory capture; the outcome carries the stream and its digest.
    Buffer,
    /// Stream to a file created at run start.
    Path(PathBuf),
    /// Stream to a caller-supplied writer.
    Writer(Box<dyn Write + Send>),
}

/// A live trace pipeline during a run.
struct ActiveTrace {
    tracer: Tracer,
    guard: TraceGuard,
    buf: Option<SharedBuf>,
    path: Option<PathBuf>,
}

/// The unified run builder. See the module docs for the design; every
/// run-kind method consumes the session (one build, one run).
pub struct Session<'a> {
    source: Source<'a>,
    sim: Option<SimConfig>,
    pool: Option<&'a BspPool>,
    trace: Option<(TraceConfig, SinkSpec)>,
}

impl<'a> Session<'a> {
    fn new(source: Source<'a>) -> Session<'a> {
        Session {
            source,
            sim: None,
            pool: None,
            trace: None,
        }
    }

    /// A session over a built [`Bench`]; pick a run kind to execute.
    pub fn bench(bench: &'a Bench) -> Session<'a> {
        Session::new(Source::Bench(bench))
    }

    /// A session over a declarative [`Scenario`]; [`Session::run`]
    /// dispatches on its run section. The scenario's own `telemetry`
    /// section (if any) is honored unless a `trace*` builder method
    /// overrides it.
    pub fn scenario(scenario: &'a Scenario) -> Session<'a> {
        Session::new(Source::Scenario(scenario))
    }

    /// Simulation config template (windows, seed, buffering). Bench
    /// sessions default to [`SimConfig::default`]; for kind configs that
    /// embed their own template ([`SweepConfig::sim`],
    /// [`ResilienceConfig::sim`]) this replaces it. Scenario sessions
    /// take their sim section from the scenario instead and ignore this.
    pub fn sim(mut self, cfg: SimConfig) -> Session<'a> {
        self.sim = Some(cfg);
        self
    }

    /// Run on an explicit executor instead of the process-wide pool.
    /// Results are bit-identical for any pool size.
    pub fn pool(mut self, pool: &'a BspPool) -> Session<'a> {
        self.pool = Some(pool);
        self
    }

    /// Attach streaming telemetry, capturing the JSONL stream in memory.
    /// The outcome's [`TraceOutcome`] carries the stream and its digest.
    pub fn trace(mut self, cfg: TraceConfig) -> Session<'a> {
        self.trace = Some((cfg, SinkSpec::Buffer));
        self
    }

    /// Attach streaming telemetry writing JSONL to `path` (created at
    /// run start, flushed and closed before the run returns).
    pub fn trace_to_path(mut self, cfg: TraceConfig, path: impl Into<PathBuf>) -> Session<'a> {
        self.trace = Some((cfg, SinkSpec::Path(path.into())));
        self
    }

    /// Attach streaming telemetry writing JSONL to a caller-supplied
    /// sink (e.g. a [`SharedBuf`] clone, a socket, a compressor).
    pub fn trace_to_writer(mut self, cfg: TraceConfig, sink: Box<dyn Write + Send>) -> Session<'a> {
        self.trace = Some((cfg, SinkSpec::Writer(sink)));
        self
    }

    /// The sim template for bench sessions: the builder's
    /// [`Session::sim`] config, else `base` (the kind config's template,
    /// or the default).
    fn sim_or(&self, base: &SimConfig) -> SimConfig {
        self.sim.clone().unwrap_or_else(|| base.clone())
    }

    /// The bench source, or a uniform error for scenario sessions.
    fn need_bench(&self, kind: &str) -> Result<&'a Bench, String> {
        match self.source {
            Source::Bench(b) => Ok(b),
            Source::Scenario(_) => Err(format!(
                "Session::{kind}: scenario sessions dispatch via Session::run(); \
                 run kinds are picked by bench sessions"
            )),
        }
    }

    /// Spin up the trace pipeline (if configured).
    fn start_trace(trace: Option<(TraceConfig, SinkSpec)>) -> Result<Option<ActiveTrace>, String> {
        let Some((cfg, sink)) = trace else {
            return Ok(None);
        };
        let (buf, path, sink): (Option<SharedBuf>, Option<PathBuf>, Box<dyn Write + Send>) =
            match sink {
                SinkSpec::Buffer => {
                    let b = SharedBuf::new();
                    (Some(b.clone()), None, Box::new(b))
                }
                SinkSpec::Path(p) => {
                    let f = std::fs::File::create(&p)
                        .map_err(|e| format!("trace file {}: {e}", p.display()))?;
                    (None, Some(p), Box::new(f))
                }
                SinkSpec::Writer(w) => (None, None, w),
            };
        let (tracer, guard) = Tracer::new(cfg, sink);
        Ok(Some(ActiveTrace {
            tracer,
            guard,
            buf,
            path,
        }))
    }

    /// Join the writer and summarize where the stream went.
    fn finish_trace(active: Option<ActiveTrace>) -> Result<Option<TraceOutcome>, String> {
        let Some(ActiveTrace {
            tracer,
            guard,
            buf,
            path,
        }) = active
        else {
            return Ok(None);
        };
        drop(tracer);
        guard.finish()?;
        let (digest, jsonl) = match buf {
            None => (None, None),
            Some(b) => {
                let text = String::from_utf8(b.contents())
                    .map_err(|e| format!("trace stream is not UTF-8: {e}"))?;
                (Some(json::digest_hex(&text)), Some(text))
            }
        };
        Ok(Some(TraceOutcome {
            digest,
            jsonl,
            path,
        }))
    }

    /// Run one open-loop simulation and return its raw [`Metrics`].
    pub fn metrics(self, pattern: &dyn TrafficPattern) -> Result<Outcome<Metrics>, String> {
        let bench = self.need_bench("metrics")?;
        let cfg = bench.prepare_cfg(&self.sim_or(&SimConfig::default()));
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let active = Self::start_trace(self.trace)?;
        let report = bench
            .run_prepared(&cfg, pattern, pool, active.as_ref().map(|a| &a.tracer))
            .map_err(|e| format!("session metrics run failed: {e}"))?;
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Run a fixed-grid load-latency sweep: one simulation per offered
    /// per-chip rate, in order, stopping early past saturation (see
    /// [`SweepConfig::post_saturation_points`]). Every point runs on the
    /// same executor, so worker threads and their partition-pinned cache
    /// state are reused across points. A [`Session::sim`] config
    /// replaces `cfg.sim`.
    pub fn sweep(
        self,
        cfg: &SweepConfig,
        spec: PatternSpec,
        rates_chip: &[f64],
    ) -> Result<Outcome<Vec<SweepPoint>>, String> {
        let bench = self.need_bench("sweep")?;
        let scfg = SweepConfig {
            sim: self.sim_or(&cfg.sim),
            ..cfg.clone()
        };
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let active = Self::start_trace(self.trace)?;
        let report = sweep_impl(
            bench,
            &scfg,
            spec,
            rates_chip,
            pool,
            active.as_ref().map(|a| &a.tracer),
        );
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Run a saturation-seeking adaptive sweep.
    ///
    /// Phase 1 anchors the zero-load reference: the start rate is probed,
    /// then validated by one geometrically slower probe — backing off
    /// further while the slower probe is materially faster or the current
    /// lowest point is outright saturated, so a start inside the congested
    /// region (which cannot be detected from its own numbers alone) does
    /// not poison the reference. The scan then walks geometric steps up
    /// from the anchored region until a point saturates, bracketing the
    /// knee. Phase 2 bisects the bracket until it is narrower than
    /// [`AdaptiveConfig::rel_tol`] (relative to its upper edge) or the
    /// [`AdaptiveConfig::max_points`] budget runs out; rates measured
    /// during back-off seed the bracket directly and are never
    /// re-simulated.
    ///
    /// The driver's decisions depend only on merged metrics, which are
    /// bit-identical for any partition/worker count, so the report is
    /// deterministic too (covered by the determinism matrix in
    /// `tests/determinism_and_vcs.rs`).
    pub fn adaptive(
        self,
        cfg: &AdaptiveConfig,
        spec: PatternSpec,
    ) -> Result<Outcome<SaturationReport>, String> {
        let bench = self.need_bench("adaptive")?;
        let acfg = AdaptiveConfig {
            base: SweepConfig {
                sim: self.sim_or(&cfg.base.sim),
                ..cfg.base.clone()
            },
            ..cfg.clone()
        };
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let active = Self::start_trace(self.trace)?;
        let report = adaptive_impl(bench, &acfg, spec, pool, active.as_ref().map(|a| &a.tracer));
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Run a collective workload DAG closed-loop, to quiescence. The
    /// config's open-loop window fields are ignored.
    pub fn workload(
        self,
        wl: &Workload,
        units: &WorkloadUnits,
    ) -> Result<Outcome<WorkloadReport>, String> {
        let bench = self.need_bench("workload")?;
        let cfg = bench.prepare_cfg(&self.sim_or(&SimConfig::default()));
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let active = Self::start_trace(self.trace)?;
        let report = run_workload_impl(
            bench,
            &cfg,
            wl,
            units,
            pool,
            active.as_ref().map(|a| &a.tracer),
        )
        .map_err(|e| format!("session workload run failed: {e}"))?;
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Run a multi-tenant serving mix: materialize the jobs against the
    /// bench's live endpoints (so placements avoid faulted regions), run
    /// them all concurrently, then run one instance per served class in
    /// isolation for the interference baseline. The trace's job stream
    /// covers the concurrent run only (isolated baselines are untraced).
    pub fn serving(self, spec: &ServingSpec) -> Result<Outcome<ServingReport>, String> {
        let bench = self.need_bench("serving")?;
        let cfg = bench.prepare_cfg(&self.sim_or(&SimConfig::default()));
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let active = Self::start_trace(self.trace)?;
        let report = run_serving_impl(bench, &cfg, spec, pool, active.as_ref().map(|a| &a.tracer))?;
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Run a fault-injection resilience sweep (see
    /// [`crate::resilience`]). With the `epochs`
    /// stream enabled, each fault fraction is delimited by an `epoch`
    /// record in the trace.
    pub fn resilience(
        self,
        cfg: &ResilienceConfig,
        spec: PatternSpec,
    ) -> Result<Outcome<ResilienceReport>, String> {
        let bench = self.need_bench("resilience")?;
        let rcfg = ResilienceConfig {
            sim: self.sim_or(&cfg.sim),
            ..cfg.clone()
        };
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let active = Self::start_trace(self.trace)?;
        let report = resilience_impl(bench, &rcfg, spec, pool, active.as_ref().map(|a| &a.tracer));
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Execute a scenario session: dispatch on the scenario's run
    /// section, with telemetry from the builder or, failing that, the
    /// scenario's own `telemetry` section (captured in memory).
    pub fn run(self) -> Result<Outcome<ScenarioOutcome>, String> {
        let Source::Scenario(scenario) = self.source else {
            return Err("Session::run: bench sessions pick a run kind \
                 (metrics/sweep/adaptive/workload/serving/resilience)"
                .to_string());
        };
        let trace = match self.trace {
            Some(t) => Some(t),
            None => scenario
                .telemetry
                .clone()
                .map(|cfg| (cfg, SinkSpec::Buffer)),
        };
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let active = Self::start_trace(trace)?;
        let report = scenario.run_traced_on(pool, active.as_ref().map(|a| &a.tracer))?;
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_session_runs_and_traces_in_memory() {
        let bench = Bench::single_mesh(2, 2, 1);
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 400,
            ..SimConfig::default()
        };
        let pat = bench.pattern(PatternSpec::Uniform, 0.05);
        let out = Session::bench(&bench)
            .sim(cfg.clone())
            .trace(TraceConfig {
                stride: 64,
                ..TraceConfig::default()
            })
            .metrics(pat.as_ref())
            .unwrap();
        assert!(out.report.packets_ejected > 0);
        let trace = out.trace.expect("trace was configured");
        let jsonl = trace.jsonl.expect("in-memory capture");
        assert!(!jsonl.is_empty());
        assert!(jsonl.lines().all(|l| l.starts_with("{\"t\": \"")));
        assert_eq!(trace.digest.as_deref(), Some(&*json::digest_hex(&jsonl)));

        // Observe-only: the same session without telemetry is bit-identical.
        let plain = Session::bench(&bench)
            .sim(cfg)
            .metrics(pat.as_ref())
            .unwrap();
        assert!(plain.trace.is_none());
        assert_eq!(format!("{:?}", plain.report), format!("{:?}", out.report));
    }

    #[test]
    fn run_kinds_reject_wrong_source() {
        let bench = Bench::single_mesh(2, 2, 1);
        let err = Session::bench(&bench).run().unwrap_err();
        assert!(err.contains("bench sessions pick a run kind"), "{err}");
    }
}
