//! Golden-corpus regression fleet over the committed `scenarios/` files.
//!
//! Every committed scenario must parse, run, and reproduce the digest
//! pinned in `scenarios/digests.json` — and keep reproducing it
//! bit-for-bit under any partition count and worker-thread count. A
//! digest is the FNV-64 hash of the complete report JSON, so digest
//! equality *is* bit-identity of the report.
//!
//! When a legitimate behaviour change moves a digest, regenerate the
//! table with `repro corpus --update` and commit the diff alongside the
//! change that caused it.

use std::collections::{BTreeMap, BTreeSet};
use wsdf::exec::BspPool;
use wsdf::scenario::{
    self, CorpusEntry, PartitionerKind, Partitioning, RunSpec, Scenario, Stepping, Topology,
};
use wsdf::{PatternSpec, Session};

/// Load the committed corpus and its pinned digest table.
fn corpus() -> (Vec<CorpusEntry>, BTreeMap<String, String>) {
    let dir = scenario::corpus_dir();
    let entries = scenario::load_corpus(&dir).unwrap_or_else(|e| panic!("corpus load failed: {e}"));
    assert!(!entries.is_empty(), "empty corpus at {}", dir.display());
    let digests: BTreeMap<String, String> = scenario::read_digests(&dir)
        .unwrap_or_else(|e| panic!("digest table load failed: {e}"))
        .into_iter()
        .collect();
    (entries, digests)
}

/// The digest table and the scenario files are in 1:1 correspondence
/// (telemetry scenarios pin a second `<file>::trace` entry for their
/// trace stream), and every scenario, run exactly as committed (its own
/// partitioning, stepping, fault and telemetry sections), reproduces
/// its pinned digest(s).
#[test]
fn every_committed_scenario_reproduces_its_pinned_digest() {
    let (entries, digests) = corpus();
    let files: BTreeSet<&str> = entries.iter().map(|e| e.file.as_str()).collect();
    for file in digests.keys() {
        let base = file.strip_suffix("::trace").unwrap_or(file);
        assert!(
            files.contains(base),
            "digests.json pins {file}, which is not in the corpus"
        );
    }
    for e in &entries {
        let want = digests.get(&e.file).unwrap_or_else(|| {
            panic!("{}: no pinned digest — run `repro corpus --update`", e.file)
        });
        // Session captures the trace stream when the scenario asks for
        // one; the report (and its digest) must not depend on that.
        let out = Session::scenario(&e.scenario)
            .run()
            .unwrap_or_else(|err| panic!("{}: {err}", e.file));
        assert_eq!(out.report.kind(), e.scenario.run.kind(), "{}", e.file);
        assert_eq!(
            &out.report.digest(),
            want,
            "{}: digest drift — if intentional, run `repro corpus --update`",
            e.file
        );
        let trace_key = format!("{}::trace", e.file);
        match (e.scenario.telemetry.is_some(), digests.get(&trace_key)) {
            (false, None) => {}
            (false, Some(_)) => panic!("{trace_key} pinned but scenario has no telemetry"),
            (true, None) => panic!("{}: telemetry scenario with no pinned {trace_key}", e.file),
            (true, Some(want_trace)) => {
                let got = out
                    .trace
                    .and_then(|t| t.digest)
                    .unwrap_or_else(|| panic!("{}: telemetry run produced no trace", e.file));
                assert_eq!(
                    &got, want_trace,
                    "{trace_key}: trace digest drift — if intentional, run `repro corpus --update`"
                );
            }
        }
    }
}

/// The determinism contract: the full report (not just headline numbers)
/// is bit-identical across partitions {1, 4} × workers {1, 4}, and every
/// combination still lands on the pinned digest.
#[test]
fn reports_are_bit_identical_across_partitions_and_workers() {
    let (entries, digests) = corpus();
    for e in &entries {
        let want = &digests[&e.file];
        for &partitions in &[1u64, 4] {
            for &workers in &[1usize, 4] {
                let mut s = e.scenario.clone();
                s.partitioning = Partitioning::Auto {
                    partitions,
                    partitioner: PartitionerKind::Locality,
                };
                let pool = BspPool::new(workers);
                let out = Session::scenario(&s)
                    .pool(&pool)
                    .run()
                    .unwrap_or_else(|err| {
                        panic!("{} (P={partitions}, W={workers}): {err}", e.file)
                    });
                assert_eq!(
                    &out.report.digest(),
                    want,
                    "{}: report differs at P={partitions}, W={workers}",
                    e.file
                );
            }
        }
    }
}

/// Corpus coverage: every run kind appears for both Dragonfly families,
/// the flat reference fabrics are represented, and both partitioners,
/// both stepping modes, an explicit partition map, and faulted as well
/// as pristine scenarios all appear somewhere in the fleet.
#[test]
fn corpus_covers_the_run_kind_by_family_matrix() {
    let (entries, _) = corpus();
    let mut seen: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut partitioners: BTreeSet<&str> = BTreeSet::new();
    let mut steppings: BTreeSet<&str> = BTreeSet::new();
    let (mut faulted, mut pristine) = (0usize, 0usize);
    for e in &entries {
        seen.insert((e.scenario.topology.family(), e.scenario.run.kind()));
        partitioners.insert(match &e.scenario.partitioning {
            Partitioning::Auto { partitioner, .. } => partitioner.name(),
            Partitioning::Map(_) => "map",
        });
        steppings.insert(e.scenario.stepping.name());
        if e.scenario.faults.is_some() || e.scenario.run.kind() == "resilience" {
            faulted += 1;
        } else {
            pristine += 1;
        }
    }
    for family in ["switchless", "switchbased"] {
        for kind in [
            "open_loop",
            "adaptive",
            "closed_loop",
            "resilience",
            "serving",
        ] {
            assert!(
                seen.contains(&(family, kind)),
                "corpus lacks a {family} {kind} scenario"
            );
        }
    }
    // Flat reference fabrics (fig. 10-style comparisons) ride along.
    assert!(seen.contains(&("mesh", "adaptive")), "no mesh scenario");
    assert!(seen.contains(&("switch", "adaptive")), "no switch scenario");
    for p in ["locality", "blocks", "map"] {
        assert!(partitioners.contains(p), "no {p}-partitioned scenario");
    }
    for s in ["event", "dense"] {
        assert!(steppings.contains(s), "no {s}-stepped scenario");
    }
    assert!(
        faulted >= 2,
        "corpus needs faulted scenarios (found {faulted})"
    );
    assert!(
        pristine >= 2,
        "corpus needs pristine scenarios (found {pristine})"
    );
}

/// Digest sensitivity: mutating any behavioural scenario field produces
/// a different digest, so the pinned table really does pin the whole
/// configuration, not just the headline shape. (Partitioning and worker
/// count are deliberately *insensitive* — covered above.)
#[test]
fn mutating_scenario_fields_changes_the_digest() {
    let (entries, digests) = corpus();
    // The cheapest committed scenario: a 16-router mesh open-loop sweep.
    let base = &entries
        .iter()
        .find(|e| e.file == "mesh_partition_map.json")
        .expect("mesh_partition_map.json in corpus")
        .scenario;
    let pinned = digests["mesh_partition_map.json"].clone();
    let digest_of = |mutate: &dyn Fn(&mut Scenario)| {
        let mut s = base.clone();
        mutate(&mut s);
        Session::scenario(&s)
            .run()
            .unwrap_or_else(|e| panic!("mutant run failed: {e}"))
            .report
            .digest()
    };
    type Mutant<'a> = (&'a str, &'a dyn Fn(&mut Scenario));
    let mutants: &[Mutant] = &[
        ("sim.measure_cycles", &|s| s.sim.measure_cycles -= 100),
        ("traffic.pattern", &|s| {
            s.traffic.as_mut().unwrap().pattern = PatternSpec::Uniform
        }),
        ("run.rates_chip", &|s| match &mut s.run {
            RunSpec::OpenLoop {
                rates_chip: Some(r),
            } => r[0] = 1.2,
            _ => unreachable!("base scenario is a fixed-grid open-loop sweep"),
        }),
        ("topology.chiplet", &|s| {
            s.topology = Topology::Mesh {
                m: 4,
                chiplet: 4,
                width: 1,
            }
        }),
        ("stepping", &|s| s.stepping = Stepping::Dense),
    ];
    for (field, mutate) in mutants {
        assert_ne!(
            digest_of(*mutate),
            pinned,
            "mutating {field} did not change the digest"
        );
    }
    // The RNG seed only matters under stochastic traffic — bit_transpose
    // is a fixed permutation — so probe it on the uniform-traffic mesh
    // scenario instead.
    let uniform = &entries
        .iter()
        .find(|e| e.file == "mesh_fig10_adaptive.json")
        .expect("mesh_fig10_adaptive.json in corpus")
        .scenario;
    let mut s = uniform.clone();
    s.sim.seed += 1;
    assert_ne!(
        Session::scenario(&s)
            .run()
            .expect("seed mutant")
            .report
            .digest(),
        digests["mesh_fig10_adaptive.json"],
        "mutating sim.seed did not change the digest"
    );
}
