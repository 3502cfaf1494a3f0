//! The benchmark's own checks, at a tiny size: generators are
//! deterministic per seed, metric names are well formed and match
//! `BENCHMARK.json`, and the traced run emits every per-layer metric.

use gssl_perfbench::{gen, run, Options, Scale, Workload, END_TO_END, PER_LAYER};

fn tiny(seed: u64, trace: bool) -> Options {
    Options {
        seed,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
    }
}

#[test]
fn generators_are_deterministic_per_seed() {
    assert_eq!(gen::r3_cloud(500, 7), gen::r3_cloud(500, 7));
    assert_ne!(gen::r3_cloud(500, 7), gen::r3_cloud(500, 8));
    assert_eq!(gen::binary_labels(50, 7), gen::binary_labels(50, 7));
    assert_eq!(gen::lattice(16, 7), gen::lattice(16, 7));
    assert_ne!(gen::lattice(16, 7).1, gen::lattice(16, 8).1);

    let shape = gen::ServeShape {
        clusters: 8,
        per_cluster: 20,
        query_rate: 1_000.0,
        fold_rate: 50.0,
        folds: 10,
    };
    let (a, b, c) = (
        gen::serve_inputs(shape, 7),
        gen::serve_inputs(shape, 7),
        gen::serve_inputs(shape, 8),
    );
    assert_eq!(a.points, b.points);
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.folds, b.folds);
    assert_ne!(a.arrivals, c.arrivals);
    // Every fold targets a distinct unlabeled node.
    let mut nodes: Vec<usize> = a.folds.iter().map(|f| f.1).collect();
    nodes.sort_unstable();
    nodes.dedup();
    assert_eq!(nodes.len(), a.folds.len());
    assert!(nodes.iter().all(|&n| n >= a.labels.len()));
}

/// The `name` fields of one top-level array of `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closed name")].to_owned())
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(!name.is_empty() && name.len() <= 64, "{name}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{name} must match [A-Za-z0-9_.-]+"
        );
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
            "{name} has a malformed unit {unit}"
        );
    }
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    all.sort_unstable();
    let count = all.len();
    all.dedup();
    assert_eq!(all.len(), count, "metric names are unique");

    let names = |list: &[(&str, &str)]| list.iter().map(|m| m.0.to_owned()).collect::<Vec<_>>();
    assert_eq!(benchmark_names("end_to_end"), names(END_TO_END));
    assert_eq!(benchmark_names("per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(benchmark_names("workloads"), workloads);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let report = run(workload, &tiny(3, false));
        assert!(report.correct(), "{workload:?}: {:?}", report.human_lines());
        assert_eq!(report.failed, 0, "{workload:?}");
        for (name, unit) in END_TO_END {
            let metric = report.get(name).expect("end-to-end metric recorded");
            assert!(metric.value > 0.0, "{workload:?} {name} must never be 0");
            assert_eq!(&metric.unit, unit);
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let reports: Vec<_> = Workload::ALL
        .iter()
        .map(|&w| (w, run(w, &tiny(4, true))))
        .collect();
    for (workload, report) in &reports {
        assert!(report.correct(), "{workload:?}: {:?}", report.human_lines());
        let line = report.json_line(PER_LAYER);
        for (name, _) in PER_LAYER {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
        }
    }
    // Every per-layer metric is measured by some workload, none is only
    // ever the zero a workload reports for a layer it does not call.
    for (name, _) in PER_LAYER {
        assert!(
            reports.iter().any(|(_, r)| r.get(name).is_some()),
            "no traced workload measures {name}"
        );
    }
}
