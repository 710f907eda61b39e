//! Golden-file test for the `rr-sweep/v1` JSON record schema.
//!
//! The sweep reports are consumed downstream (CI's BENCH.json artifacts, the
//! perf-trajectory tooling), so their **exact bytes** — field order, field
//! names, string escaping, float/bool rendering — are a contract.  The
//! vendored serde/serde_json stand-ins serialize struct fields in
//! declaration order; these tests pin that order and the escaping rules
//! against checked-in golden files, so a vendored-serializer change (or an
//! accidental field reorder in `RunRecord`/`ModelCheckRecord`) cannot
//! silently break BENCH.json consumers.
//!
//! If a change here is *intentional*, regenerate the golden files with
//! `UPDATE_GOLDEN=1 cargo test -p rr-bench --test sweep_schema_golden` and
//! bump the schema consumers.

use std::path::PathBuf;

use rr_bench::sweep::{
    json_report, FaultRecord, ModelCheckRecord, RunRecord, ScaleRecord, ThroughputRecord,
};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "\n{} drifted from the golden bytes — field order or escaping changed; \
         if intentional, regenerate with UPDATE_GOLDEN=1 and update consumers",
        path.display()
    );
}

/// Two run records: a vanilla success and a failure whose `detail` exercises
/// every escaping rule of the serializer (quote, backslash, newline, tab,
/// carriage return, a sub-0x20 control character, and non-ASCII passthrough).
fn sample_run_records() -> Vec<RunRecord> {
    vec![
        RunRecord {
            experiment: "E-golden".into(),
            task: "gathering".into(),
            n: 12,
            k: 5,
            scheduler: "round-robin".into(),
            seed: 0xDEAD_BEEF,
            rounds: 120,
            cycles: 120,
            moves: 37,
            clearings: 0,
            steady_period: 0,
            explorations: 0,
            gathered: true,
            ok: true,
            detail: String::new(),
            wall_nanos: 123_456_789,
        },
        RunRecord {
            experiment: "E-golden".into(),
            task: "graph-searching".into(),
            n: 13,
            k: 6,
            scheduler: "async".into(),
            seed: 1,
            rounds: 99_999,
            cycles: 4_002,
            moves: 3_000,
            clearings: 2,
            steady_period: 41,
            explorations: 1,
            gathered: false,
            ok: false,
            detail: "budget \"exhausted\"\\after 2 clearings\n\ttab & unit\u{1}; naïve ✓".into(),
            wall_nanos: 1,
        },
    ]
}

fn sample_modelcheck_records() -> Vec<ModelCheckRecord> {
    vec![
        ModelCheckRecord {
            experiment: "E-golden".into(),
            task: "gathering".into(),
            n: 8,
            k: 4,
            mode: "async".into(),
            initial_classes: 2,
            states: 320,
            quotient_states: 202,
            edges: 1280,
            target_states: 4,
            progress_edges: 0,
            peak_resident_nodes: 352,
            peak_resident_bytes: 8448,
            bytes_per_state: 24,
            spilled_bytes: 7680,
            visited_spilled_bytes: 4096,
            store: "spill".into(),
            states_per_sec: 160_000,
            vacuous: false,
            ok: true,
            counterexample: String::new(),
            wall_nanos: 55,
        },
        ModelCheckRecord {
            experiment: "E-golden".into(),
            task: "alignment".into(),
            n: 8,
            k: 4,
            mode: "ssync".into(),
            initial_classes: 1,
            states: 9,
            quotient_states: 7,
            edges: 60,
            target_states: 0,
            progress_edges: 0,
            peak_resident_nodes: 16,
            peak_resident_bytes: 384,
            bytes_per_state: 24,
            spilled_bytes: 0,
            visited_spilled_bytes: 0,
            store: "mem".into(),
            states_per_sec: 0,
            vacuous: false,
            ok: false,
            counterexample: "from [o.o\"o\\o...]: collision: R{0,1}\r\n(L2 E2)*".into(),
            wall_nanos: 55,
        },
    ]
}

/// Two fault records: a proved crash cell and a degraded cell whose
/// counterexample exercises the escaping rules (quotes, backslash, newline,
/// control char, non-ASCII passthrough) plus the `unfair` row shape.
fn sample_fault_records() -> Vec<FaultRecord> {
    vec![
        FaultRecord {
            experiment: "E-golden".into(),
            task: "alignment".into(),
            n: 8,
            k: 4,
            mode: "async".into(),
            fault: "crash".into(),
            fault_detail: "f=1".into(),
            property: "exclusivity + alignment under one crash".into(),
            initial_classes: 2,
            states: 360,
            edges: 1440,
            proved: 2,
            falsified: 0,
            replayed: true,
            ok: true,
            counterexample: String::new(),
            wall_nanos: 99,
        },
        FaultRecord {
            experiment: "E-golden".into(),
            task: "gathering".into(),
            n: 6,
            k: 3,
            mode: "ssync".into(),
            fault: "corrupt-look".into(),
            fault_detail: "looks=1".into(),
            property: "eventual gathering despite one corrupted Look".into(),
            initial_classes: 1,
            states: 15,
            edges: 45,
            proved: 0,
            falsified: 1,
            replayed: true,
            ok: true,
            counterexample:
                "from [oo.o..]: \"fair\" schedule\\lasso\r\n(R{0} R{2})* [corrupt 1 phantom @0]\u{1}; naïve ✓"
                    .into(),
            wall_nanos: 99,
        },
    ]
}

fn sample_throughput_records() -> Vec<ThroughputRecord> {
    vec![
        ThroughputRecord {
            experiment: "E-golden".into(),
            task: "throughput".into(),
            n: 256,
            k: 8,
            scheduler: "round-robin".into(),
            seed: 0xBEEF,
            steps: 100_000,
            looks: 50_000,
            moves: 49_999,
            steps_per_sec: 9_000_000,
            baseline_steps_per_sec: 500_000,
            speedup_x100: 1_800,
            looks_per_sec: 20_000_000,
            allocs_per_kstep: 1_000,
            look_allocs_per_kstep: 0,
            ok: true,
            detail: String::new(),
            wall_nanos: 123,
        },
        ThroughputRecord {
            experiment: "E-golden".into(),
            task: "throughput".into(),
            n: 16,
            k: 4,
            scheduler: "async".into(),
            seed: 7,
            steps: 100,
            looks: 60,
            moves: 40,
            steps_per_sec: 1,
            baseline_steps_per_sec: 1,
            speedup_x100: 100,
            looks_per_sec: 2,
            allocs_per_kstep: 990,
            look_allocs_per_kstep: 3,
            ok: false,
            detail: "pipelines diverged: incremental (steps 100, looks 60, moves 40) \
                     vs baseline (steps 100, looks 61, moves 39)"
                .into(),
            wall_nanos: 55,
        },
    ]
}

/// Two scale records: the one-thread reference row and the pool row that
/// ran the classes on both cores, digests equal (the scale-bench gate's
/// happy path).
fn sample_scale_records() -> Vec<ScaleRecord> {
    vec![
        ScaleRecord {
            experiment: "E-golden".into(),
            task: "gathering".into(),
            n: 9,
            k: 4,
            mode: "async".into(),
            store: "spill".into(),
            workers: 1,
            cores: 2,
            mem_budget: 1 << 20,
            states: 250_000,
            edges: 1_000_000,
            peak_resident_bytes: 17_408_000,
            spilled_bytes: 6_000_000,
            visited_spilled_bytes: 14_000_000,
            expand_nanos: 4_000_000_000,
            merge_nanos: 2_000_000_000,
            states_per_sec: 41_000,
            report_digest: 0xDEAD_BEEF_CAFE_F00D,
            ok: true,
            wall_nanos: 77,
        },
        ScaleRecord {
            experiment: "E-golden".into(),
            task: "gathering".into(),
            n: 9,
            k: 4,
            mode: "async".into(),
            store: "spill".into(),
            workers: 2,
            cores: 2,
            mem_budget: 1 << 20,
            states: 250_000,
            edges: 1_000_000,
            peak_resident_bytes: 17_408_000,
            spilled_bytes: 6_000_000,
            visited_spilled_bytes: 14_000_000,
            expand_nanos: 4_100_000_000,
            merge_nanos: 2_100_000_000,
            states_per_sec: 79_000,
            report_digest: 0xDEAD_BEEF_CAFE_F00D,
            ok: true,
            wall_nanos: 33,
        },
    ]
}

#[test]
fn scale_record_report_matches_golden_bytes() {
    let json = json_report("E-golden", 16, &sample_scale_records()).unwrap() + "\n";
    assert_matches_golden("rr_sweep_v1_scale.json", &json);
}

#[test]
fn scale_record_skips_wall_time_and_pins_digest_field() {
    let json = json_report("E-golden", 16, &sample_scale_records()).unwrap();
    assert!(!json.contains("wall_nanos"), "skipped field leaked");
    assert!(json.contains("\"report_digest\":16045690984503111693"));
    assert!(json.contains("\"visited_spilled_bytes\":14000000"));
}

#[test]
fn throughput_record_report_matches_golden_bytes() {
    let json = json_report("E-golden", 18, &sample_throughput_records()).unwrap() + "\n";
    assert_matches_golden("rr_sweep_v1_throughput.json", &json);
}

#[test]
fn throughput_record_skips_wall_time() {
    let json = json_report("E-golden", 18, &sample_throughput_records()).unwrap();
    assert!(!json.contains("wall_nanos"), "skipped field leaked");
    assert!(json.contains("\"speedup_x100\":1800"));
    assert!(json.contains("\"look_allocs_per_kstep\":0"));
}

#[test]
fn fault_record_report_matches_golden_bytes() {
    let json = json_report("E-golden", 14, &sample_fault_records()).unwrap() + "\n";
    assert_matches_golden("rr_sweep_v1_faults.json", &json);
}

#[test]
fn fault_record_field_order_and_wall_skip_are_pinned() {
    let json = json_report("E-golden", 14, &sample_fault_records()).unwrap();
    assert!(!json.contains("wall_nanos"), "skipped field leaked");
    let key_order = [
        "\"experiment\"",
        "\"task\"",
        "\"n\"",
        "\"k\"",
        "\"mode\"",
        "\"fault\"",
        "\"fault_detail\"",
        "\"property\"",
        "\"initial_classes\"",
        "\"states\"",
        "\"edges\"",
        "\"proved\"",
        "\"falsified\"",
        "\"replayed\"",
        "\"ok\"",
        "\"counterexample\"",
    ];
    let records_at = json.find("\"records\"").expect("records field");
    let mut cursor = records_at;
    for key in key_order {
        let at = json[cursor..]
            .find(key)
            .unwrap_or_else(|| panic!("key {key} missing or out of order"));
        cursor += at;
    }
    assert!(json.contains("\"fault\":\"crash\""));
    assert!(json.contains("\"fault_detail\":\"looks=1\""));
}

#[test]
fn run_record_report_matches_golden_bytes() {
    let json = json_report("E-golden", 42, &sample_run_records()).unwrap() + "\n";
    assert_matches_golden("rr_sweep_v1_run.json", &json);
}

#[test]
fn modelcheck_record_report_matches_golden_bytes() {
    let json = json_report("E-golden", 7, &sample_modelcheck_records()).unwrap() + "\n";
    assert_matches_golden("rr_sweep_v1_modelcheck.json", &json);
}

#[test]
fn envelope_and_field_order_are_pinned() {
    // Belt and braces next to the byte-for-byte golden: the envelope keys
    // and the record keys appear in their declared order, `wall_nanos` is
    // skipped, and the schema tag is the `rr-sweep/v1` contract.
    let json = json_report("E-golden", 42, &sample_run_records()).unwrap();
    let key_order = [
        "\"schema\"",
        "\"schema_version\"",
        "\"engine_version\"",
        "\"experiment\"",
        "\"root_seed\"",
        "\"records\"",
        "\"task\"",
        "\"n\"",
        "\"k\"",
        "\"scheduler\"",
        "\"seed\"",
        "\"rounds\"",
        "\"cycles\"",
        "\"moves\"",
        "\"clearings\"",
        "\"steady_period\"",
        "\"explorations\"",
        "\"gathered\"",
        "\"ok\"",
        "\"detail\"",
    ];
    let mut cursor = 0usize;
    for key in key_order {
        let at = json[cursor..]
            .find(key)
            .unwrap_or_else(|| panic!("key {key} missing or out of order"));
        cursor += at;
    }
    assert!(json.starts_with("{\"schema\":\"rr-sweep/v1\""));
    assert!(!json.contains("wall_nanos"), "skipped field leaked");
}

#[test]
fn escaping_rules_are_pinned() {
    let json = json_report("E-golden", 42, &sample_run_records()).unwrap();
    // Quote, backslash, newline, tab, control char as \u00XX; non-ASCII
    // passes through unescaped.
    let expected = r#"budget \"exhausted\"\\after 2 clearings\n\ttab & unit\u0001; na"#;
    assert!(json.contains(expected), "escaping drifted: {json}");
}
