//! The benchmark's own tests: metric naming, units, and that a wrong
//! expected output is counted as a failure rather than passed over.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;

use ull_workload::FleetNodeReport;

use crate::output::{result_json, table, valid_name, valid_unit, Metric};
use crate::trace::per_layer_table;
use crate::workloads::{
    check_fleet, measure_job, Checks, Expected, QuickBaseline, Workload, FLEET_IOS, FLEET_NODES,
};
use crate::END_TO_END;

/// `(name, unit)` of every metric listed under `section` in BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| {
        let k = format!("\"{key}\": \"");
        let i = obj.find(&k).expect("field present") + k.len();
        obj[i..i + obj[i..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn all_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    all.extend(per_layer_table());
    all
}

#[test]
fn every_metric_name_uses_only_allowed_characters() {
    let all = all_metrics();
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
    }
    let mut names: Vec<&String> = all.iter().map(|(n, _)| n).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names repeat");
    assert!(!valid_name("has space") && !valid_name("_lead") && !valid_name(&"x".repeat(65)));
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_table()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
}

#[test]
fn every_metric_prints_with_its_unit() {
    let metrics: Vec<Metric> = all_metrics()
        .into_iter()
        .enumerate()
        .map(|(i, (n, u))| Metric::new(n, 1.0 + i as f64 / 3.0, u))
        .collect();
    let line = result_json(true, 1, 0, &metrics);
    let rows = table(&metrics);
    for m in &metrics {
        assert!(
            line.contains(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )),
            "{} missing from the result line",
            m.name
        );
        assert!(
            rows.lines()
                .any(|l| l.contains(&m.name) && l.trim_end().ends_with(m.unit)),
            "{} missing from the table",
            m.name
        );
    }
}

#[test]
#[should_panic(expected = "invalid unit")]
fn a_metric_without_a_unit_is_never_printed() {
    result_json(true, 1, 0, &[Metric::new("wall_s", 1.0, "")]);
}

#[test]
fn a_perturbed_job_digest_drives_failed_frac_above_zero() {
    let w = Workload::SyncPoll;
    let seed = 3;
    // The right digest first: with it, nothing fails.
    let want = crate::workloads::reference_digest(w, seed, &Expected::default());
    let mut right = Expected::default();
    right.jobs.insert((w.name().to_string(), seed), want);
    let mut checks = Checks::default();
    measure_job(w, seed, Duration::from_millis(1), &right, &mut checks);
    assert!(checks.attempted > 0);
    assert_eq!(checks.failed, 0);

    let mut wrong = right.clone();
    wrong.jobs.insert((w.name().to_string(), seed), want ^ 1);
    let mut checks = Checks::default();
    measure_job(w, seed, Duration::from_millis(1), &wrong, &mut checks);
    assert!(checks.failed > 0);
    assert!(checks.failed as f64 / checks.attempted as f64 > 0.0);
}

#[test]
fn a_perturbed_fleet_checksum_fails() {
    let reports: Vec<FleetNodeReport> = (0..u64::from(FLEET_NODES))
        .map(|i| FleetNodeReport {
            completed: FLEET_IOS,
            mean_latency_ns: 1,
            stats_received: 1,
            checksum: i,
        })
        .collect();
    let mut e = Expected {
        fleet: (0..u64::from(FLEET_NODES)).collect(),
        ..Expected::default()
    };
    let mut checks = Checks::default();
    check_fleet(&reports, &e, &mut checks);
    assert_eq!(checks.failed, 0);
    e.fleet[5] ^= 0x10;
    let mut checks = Checks::default();
    check_fleet(&reports, &e, &mut checks);
    assert_eq!(checks.failed, 1);
}

#[test]
fn section_bytes_must_match_the_baseline_exactly() {
    let names: Vec<&str> = ull_study::registry::default_entries()
        .map(|e| e.name)
        .collect();
    let sections: Vec<String> = names
        .iter()
        .map(|n| format!("{{\n      \"name\": \"{n}\",\n      \"ok\": true\n    }}"))
        .collect();
    let doc = format!(
        "{{\n  \"sections\": [\n    {}\n  ]\n}}\n",
        sections.join(",\n    ")
    );
    let base = QuickBaseline::index(doc).expect("every entry indexed");
    assert!(base.matches(names[1], &sections[1]));
    let perturbed = sections[1].replace("true", "false");
    assert!(!base.matches(names[1], &perturbed));
    assert!(!base.matches(names[1], &sections[1][..sections[1].len() - 1]));
}

#[test]
fn expected_file_parses_and_rejects_garbage() {
    let e = Expected::parse("# c\nclosed_loop 4 00000000000000ff\nfleet_2shard 0 a\n").unwrap();
    assert_eq!(e.job(Workload::ClosedLoop, 4), Some(0xff));
    assert_eq!(e.fleet, vec![0xa]);
    assert!(Expected::parse("closed_loop x 1\n").is_err());
    assert!(Expected::parse("fleet_2shard 1 a\n").is_err());
}
