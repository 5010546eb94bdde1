//! Tests of the benchmark itself: its workloads, its metric table and
//! the traced replay's fidelity to the engine.

use std::path::Path;
use tangram_harness::scenario_file::ScenarioFile;
use tangram_perfbench::bench::traced_run;
use tangram_perfbench::checks;
use tangram_perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use tangram_perfbench::replay::Validity;
use tangram_perfbench::workload::{self, Offered, WORKLOADS};

const ALL_VALID: Validity = Validity {
    net: true,
    drr: true,
    scheduler: true,
    stitch: true,
    platform: true,
};

/// A workload cut to a short run (the saturated one keeps enough frames
/// for its whole fleet to join and saturate the uplink).
fn short(name: &str) -> ScenarioFile {
    let mut file = workload::load(workload::find(name).expect("known")).expect("loads");
    file.scenario.frames_per_camera = 48;
    file
}

#[test]
fn replay_reproduces_the_engine_on_every_workload() {
    for def in WORKLOADS {
        let file = short(def.name);
        for seed in workload::sub_seeds(7).into_iter().take(2) {
            let config = workload::engine_config(&file, seed);
            let traced = traced_run(&file, &config, def.trace_sink);
            assert_eq!(traced.validity, ALL_VALID, "{} seed {seed}", def.name);
            assert!(traced.replay.stitch_calls > 0, "{}", def.name);
            assert_eq!(traced.replay.batches.len(), traced.report.batches.len());
            assert_eq!(traced.trace.is_some(), def.trace_sink, "{}", def.name);
        }
    }
}

#[test]
fn replay_against_another_run_is_flagged_unmeasured() {
    let file = short("steady_mix");
    let seeds = workload::sub_seeds(3);
    let a = traced_run(&file, &workload::engine_config(&file, seeds[0]), false);
    let b = traced_run(&file, &workload::engine_config(&file, seeds[1]), false);
    let crossed = Validity::of(&a.replay, &b.report);
    assert!(!crossed.scheduler && !crossed.platform && !crossed.stitch && !crossed.net);
}

#[test]
fn the_shed_workload_exercises_admission_and_fair_ingress() {
    let file = short("capped_shed");
    let traced = traced_run(&file, &workload::engine_config(&file, 11), true);
    assert!(
        traced.report.dropped_arrivals > 0,
        "the shedder refuses work"
    );
    assert!(traced.replay.drr_rounds > 0, "the fair ingress runs rounds");
    assert_eq!(
        traced.report.platform.peak_instances, 2,
        "the backend is capped"
    );
}

#[test]
fn output_checks_reject_a_tampered_report_and_trace() {
    let file = short("capped_shed");
    let traced = traced_run(&file, &workload::engine_config(&file, 5), true);
    let offered = Offered::of(
        &file,
        &file.build_traces(),
        file.engine_config().canvas_size,
    );
    let trace = traced.trace.expect("capped_shed records a trace");
    checks::conservation(&traced.report, &offered).expect("the real report conserves work");
    checks::trace_matches(&traced.report, &trace, &offered).expect("the real trace matches");

    let mut lost = traced.report.clone();
    lost.patches.pop();
    assert!(checks::conservation(&lost, &offered).is_err());
    let mut extra_drop = traced.report.clone();
    extra_drop.dropped_arrivals += 1;
    assert!(checks::conservation(&extra_drop, &offered).is_err());
    assert!(checks::trace_matches(&extra_drop, &trace, &offered).is_err());
    let mut cut = trace.clone();
    cut.records.remove(cut.records.len() / 2);
    assert!(checks::trace_matches(&traced.report, &cut, &offered).is_err());
}

#[test]
fn every_workload_file_parses_and_round_trips() {
    let files = ScenarioFile::load_dir(&workload::workload_dir()).expect("workload dir loads");
    assert_eq!(files.len(), WORKLOADS.len(), "one file per workload");
    for def in WORKLOADS {
        let file = workload::load(def).expect("loads");
        let text = file.to_toml();
        assert_eq!(
            ScenarioFile::parse_str(&text).expect("canonical form parses"),
            file
        );
        assert!(
            !file.description.is_empty(),
            "{} says why it was chosen",
            def.name
        );
    }
    assert!(workload::find("no_such_workload").is_err());
}

#[test]
fn metric_names_are_valid_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(def.name), "{}", def.name);
        assert!(seen.insert(def.name), "{} defined twice", def.name);
        assert!(def
            .unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
    assert!(!valid_name("bad name"));
    assert!(!valid_name(".leading"));
}

#[test]
fn benchmark_json_and_metrics_doc_list_every_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = std::fs::read_to_string(root.join("METRICS.md")).expect("METRICS.md");
    for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name,
            def.unit,
            def.better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        assert!(
            doc.contains(&format!("`{}`", def.name)),
            "METRICS.md lacks {}",
            def.name
        );
    }
    assert_eq!(
        json.matches("\"better\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for def in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{}\"", def.name)));
    }
}
