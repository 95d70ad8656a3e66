//! Docs-drift guard: the rule table in docs/DETERMINISM.md must stay in
//! lockstep with the catalogue the analyzer actually enforces.
//!
//! Each `RuleInfo` carries a one-line `brief` that is simultaneously the
//! doc table's "rule statement" cell — so adding, renaming or rewording a
//! rule without updating the documentation fails `cargo test`, and the
//! docs can never advertise a rule the analyzer dropped.

use std::path::Path;

fn read_doc(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(root.join(rel))
        .unwrap_or_else(|e| panic!("{rel} must exist and be readable: {e}"))
}

#[test]
fn determinism_doc_table_carries_every_rule_verbatim() {
    let doc = read_doc("docs/DETERMINISM.md");
    for r in ull_simlint::RULES {
        let row = format!("| {} | {} |", r.code, r.brief);
        assert!(
            doc.contains(&row),
            "docs/DETERMINISM.md rule table is out of sync with the catalogue: \
             missing or stale row for {}.\nExpected a table row starting exactly:\n  {row}\n\
             (the cell text is RuleInfo::brief in crates/simlint/src/rules.rs — \
             change both together)",
            r.code
        );
    }
}

#[test]
fn determinism_doc_has_no_phantom_rules() {
    // Every `| SNNN |` table row in the doc must name a catalogued rule,
    // so a rule removed from the analyzer cannot linger in the docs.
    let doc = read_doc("docs/DETERMINISM.md");
    for line in doc.lines() {
        let Some(rest) = line.strip_prefix("| S") else {
            continue;
        };
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if digits.len() != 3 {
            continue;
        }
        let code = format!("S{digits}");
        assert!(
            ull_simlint::RULES.iter().any(|r| r.code == code),
            "docs/DETERMINISM.md documents {code}, which the analyzer does not enforce"
        );
    }
}

#[test]
fn static_analysis_doc_covers_the_architecture_and_every_rule_family() {
    let doc = read_doc("docs/STATIC_ANALYSIS.md");
    // The architecture walk must name each phase module as it exists.
    for module in [
        "source.rs",
        "lexer.rs",
        "symbols.rs",
        "resolve.rs",
        "rules.rs",
    ] {
        assert!(
            doc.contains(module),
            "docs/STATIC_ANALYSIS.md must walk the {module} phase"
        );
    }
    for r in ull_simlint::RULES {
        assert!(
            doc.contains(r.code),
            "docs/STATIC_ANALYSIS.md must mention rule {}",
            r.code
        );
    }
    // The baseline ratchet and the escape hatches are part of the workflow
    // the doc teaches.
    for needle in ["simlint_baseline.json", "justify(", "allow("] {
        assert!(
            doc.contains(needle),
            "docs/STATIC_ANALYSIS.md must document `{needle}`"
        );
    }
}

#[test]
fn readme_and_design_link_the_static_analysis_doc() {
    assert!(
        read_doc("README.md").contains("docs/STATIC_ANALYSIS.md"),
        "README.md must link docs/STATIC_ANALYSIS.md"
    );
    assert!(
        read_doc("DESIGN.md").contains("docs/STATIC_ANALYSIS.md"),
        "DESIGN.md must link docs/STATIC_ANALYSIS.md"
    );
}

#[test]
fn readme_design_and_determinism_link_the_sharding_doc() {
    for doc in ["README.md", "DESIGN.md", "docs/DETERMINISM.md"] {
        assert!(
            read_doc(doc).contains("docs/SHARDING.md"),
            "{doc} must link docs/SHARDING.md"
        );
    }
}

#[test]
fn readme_design_and_experiments_link_the_nexus_doc() {
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        assert!(
            read_doc(doc).contains("docs/NEXUS.md"),
            "{doc} must link docs/NEXUS.md"
        );
    }
}

/// The stage table in docs/OBSERVABILITY.md must stay in lockstep with
/// the taxonomy `ull-probe` actually records: every stage appears as a
/// markdown row carrying its position, name and software/device half.
#[test]
fn observability_doc_stage_table_matches_the_taxonomy() {
    let doc = read_doc("docs/OBSERVABILITY.md");
    for (i, stage) in ull_probe::Stage::ALL.iter().enumerate() {
        let half = if stage.is_software() {
            "software"
        } else {
            "device"
        };
        let prefix = format!("| {} | `{}` | {} |", i + 1, stage.name(), half);
        assert!(
            doc.contains(&prefix),
            "docs/OBSERVABILITY.md stage table is out of sync with \
             Stage::ALL: missing or stale row for {:?}.\nExpected a row \
             starting exactly:\n  {prefix}",
            stage.name()
        );
    }
}

/// The registry table in EXPERIMENTS.md must stay in lockstep with the
/// registry `reproduce --list` actually prints: every entry appears as
/// a markdown row carrying its name (starred when not part of `all`),
/// aliases, title, trace support and description.
#[test]
fn experiments_doc_table_carries_every_registry_entry_verbatim() {
    let doc = read_doc("EXPERIMENTS.md");
    for e in ull_ssd_study::study::registry::entries() {
        let star = if e.in_all { "" } else { "\\*" };
        let aliases = if e.aliases.is_empty() {
            "-".to_string()
        } else {
            e.aliases.join(", ")
        };
        let trace = if e.traceable { "yes" } else { "-" };
        let row = format!(
            "| {}{star} | {aliases} | {} | {trace} | {} |",
            e.name, e.title, e.description
        );
        assert!(
            doc.contains(&row),
            "EXPERIMENTS.md registry table is out of sync with the registry: \
             missing or stale row for {:?}.\nExpected exactly:\n  {row}\n\
             (columns: name, aliases, title, trace, description — the same \
             fields `reproduce --list` prints)",
            e.name
        );
    }
}

/// A registry entry removed from the code cannot linger in the doc
/// table: every `| name |`-style row must resolve to a live entry.
#[test]
fn experiments_doc_has_no_phantom_entries() {
    let doc = read_doc("EXPERIMENTS.md");
    let table: Vec<&str> = doc
        .lines()
        .skip_while(|l| !l.starts_with("| name |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .collect();
    assert!(
        table.len() >= 17,
        "EXPERIMENTS.md must carry the registry table (found {} rows)",
        table.len()
    );
    for line in table {
        let name = line
            .trim_start_matches('|')
            .split('|')
            .next()
            .expect("split always yields one piece")
            .trim()
            .trim_end_matches("\\*");
        assert!(
            ull_ssd_study::study::registry::find(name).is_some(),
            "EXPERIMENTS.md lists experiment {name:?}, which the registry does not know"
        );
    }
}

/// `BENCH_perf.json` is the committed `perfbench` record that perf
/// claims cite: one full `reproduce_quick` run (`perfbench/run.py
/// --workload reproduce_quick --seconds 30 --trace 0 --out ...`) whose
/// output checks all passed and which carries every end-to-end metric
/// `BENCHMARK.json` gates, so `perfbench/compare.py` can read it.
#[test]
fn bench_perf_json_is_a_full_perfbench_record() {
    // Compare whitespace-free text, so the checks depend on the record's
    // keys and values and not on how the writer spaces them.
    let compact = |rel: &str| -> String {
        read_doc(rel)
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect()
    };
    let record = compact("BENCH_perf.json");
    let (fingerprint, result) = record
        .strip_prefix("{\"fingerprint\":{")
        .and_then(|rest| rest.split_once("},\"result\":{"))
        .expect("BENCH_perf.json must be {\"fingerprint\": {...}, \"result\": {...}}");
    for field in [
        "\"workload\":\"reproduce_quick\",",
        "\"seconds\":30,",
        "\"trace\":0,",
    ] {
        assert!(
            fingerprint.contains(field),
            "BENCH_perf.json fingerprint lacks {field} (regenerate it with \
             `python3 perfbench/run.py --workload reproduce_quick --seed 0 \
             --seconds 30 --trace 0 --out BENCH_perf.json`)"
        );
    }
    for field in ["\"correct\":true,", "\"failed\":0,"] {
        assert!(
            result.contains(field),
            "BENCH_perf.json result lacks {field}"
        );
    }

    let bench = compact("BENCHMARK.json");
    let end_to_end = bench
        .split_once("\"end_to_end\":[")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("BENCHMARK.json must list its end_to_end metrics")
        .0;
    let names: Vec<&str> = end_to_end
        .split("\"name\":\"")
        .skip(1)
        .filter_map(|s| s.split_once('"').map(|(name, _)| name))
        .collect();
    assert!(
        !names.is_empty(),
        "BENCHMARK.json lists no end_to_end metric"
    );
    for name in names {
        assert!(
            result.contains(&format!("\"{name}\":{{\"value\":")),
            "BENCH_perf.json result lacks end-to-end metric {name}"
        );
    }
}
