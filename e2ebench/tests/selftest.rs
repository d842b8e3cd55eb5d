//! Self-tests of the benchmark: seeded inputs, the percentile helper,
//! the metric catalogue, and a smoke-length run of every workload.

use nest_e2ebench::gen::{OpStream, Workload, CLIENTS};
use nest_e2ebench::report::{result_line, END_TO_END, PER_LAYER};
use nest_e2ebench::run::{run, Args};
use nest_e2ebench::stats::{percentile, sorted};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn ops(w: Workload, seed: u64, client: usize) -> Vec<nest_e2ebench::gen::Op> {
    OpStream::new(&w.spec(false), seed, client)
        .take(5000)
        .collect()
}

#[test]
fn equal_seeds_give_equal_streams_and_different_seeds_differ() {
    for w in Workload::ALL {
        for client in 0..CLIENTS {
            assert_eq!(ops(w, 7, client), ops(w, 7, client), "{}", w.name());
            assert_ne!(ops(w, 7, client), ops(w, 8, client), "{}", w.name());
        }
    }
}

#[test]
fn small_files_mix_and_popularity_follow_the_spec() {
    let stream = ops(Workload::SmallFiles, 3, 0);
    let share = |k| stream.iter().filter(|o| o.kind == k).count() as f64 / stream.len() as f64;
    use nest_e2ebench::gen::OpKind::*;
    assert!((share(Get) - 0.7).abs() < 0.03);
    assert!((share(Put) - 0.2).abs() < 0.03);
    assert!((share(Stat) - 0.1).abs() < 0.03);
    // Zipf(1) over 4,000 inputs: the hottest input takes about 1/H(4000),
    // roughly 11%, of the reads.
    let mut counts = std::collections::HashMap::new();
    for o in stream.iter().filter(|o| o.kind != Put) {
        *counts.entry(o.file).or_insert(0usize) += 1;
    }
    let top = *counts.values().max().unwrap() as f64;
    let reads = stream.iter().filter(|o| o.kind != Put).count() as f64;
    assert!(
        (0.08..0.15).contains(&(top / reads)),
        "top share {}",
        top / reads
    );
}

#[test]
fn percentile_is_an_order_statistic_with_ten_samples_beyond() {
    let s = sorted((1..=1000).rev().map(f64::from).collect());
    assert_eq!(percentile(&s, 0.5), Some(500.0));
    // p99 of 1,000 samples is the 990th: exactly ten lie beyond it.
    assert_eq!(percentile(&s, 0.99), Some(990.0));
    let short = sorted((1..=999).map(f64::from).collect());
    assert_eq!(percentile(&short, 0.99), None);
    assert_eq!(percentile(&short, 0.9), Some(900.0));
    // A failed op sorts last and misses every limit.
    let mut with_failure: Vec<f64> = (1..=1000).map(f64::from).collect();
    with_failure[0] = f64::INFINITY;
    assert_eq!(percentile(&sorted(with_failure), 0.99), Some(991.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text: String = std::fs::read_to_string(path)
        .expect("BENCHMARK.json at the repository root")
        .split_whitespace()
        .collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\":\"{}\"", w.name())));
    }
}

#[test]
fn result_line_carries_every_metric_with_its_unit() {
    for catalogue in [END_TO_END, PER_LAYER] {
        let values: BTreeMap<&str, f64> = catalogue.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = result_line(catalogue, &values, true, 10, 0);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        for (name, unit) in catalogue {
            let entry = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
            assert!(line.contains(&entry), "missing {entry}");
        }
        let missing = result_line(catalogue, &BTreeMap::new(), true, 10, 0);
        assert!(missing.starts_with("{\"correct\": false"));
    }
}

fn smoke(w: Workload, trace: bool) {
    let data =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}-{trace}", w.name()));
    let args = Args {
        workload: w,
        seed: 42,
        // Long enough for a p99 of the slow op kind over the three
        // smoke-sized windows.
        seconds: 6.0,
        trace,
        smoke: true,
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."),
        data: data.clone(),
    };
    let out = run(&args).expect("smoke run");
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{}", out.line);
    assert!(out.line.starts_with("{\"correct\": true"), "{}", out.line);
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    for (name, _) in catalogue {
        assert!(
            out.values.get(name).is_some_and(|v| v.is_finite()),
            "{name} in {}",
            out.line
        );
    }
    let _ = std::fs::remove_dir_all(data);
}

#[test]
fn smoke_small_files() {
    smoke(Workload::SmallFiles, false);
    smoke(Workload::SmallFiles, true);
}

#[test]
fn smoke_bulk_read() {
    smoke(Workload::BulkRead, false);
    smoke(Workload::BulkRead, true);
}

#[test]
fn smoke_bulk_write() {
    smoke(Workload::BulkWrite, false);
    smoke(Workload::BulkWrite, true);
}
