//! The shipped `tables` binary, tested as a user would run it.

use rcuda_bench::ARTIFACTS;
use std::process::Command;

/// Run `tables` with `args`; its stdout, after asserting exit 0.
fn tables(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("spawn tables");
    assert!(
        out.status.success(),
        "tables {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn tables_json_emits_one_parseable_document_per_artifact() {
    // Pretty-printed objects back to back: a bare `}` line closes each.
    let stdout = tables(&["--json"]);
    let docs: Vec<&str> = stdout.split_inclusive("\n}\n").collect();
    assert_eq!(docs.len(), ARTIFACTS.len());
    for (what, doc) in ARTIFACTS.iter().zip(docs) {
        let v: serde_json::Value = serde_json::from_str(doc).expect(what);
        assert!(v.is_object(), "{what}");
    }
}

#[test]
fn tables_text_dispatch_knows_every_artifact() {
    // An `ARTIFACTS` name the text dispatch lacks would exit 2.
    let rule = "=".repeat(78);
    let stdout = tables(&[]);
    assert_eq!(
        stdout.lines().filter(|l| *l == rule).count(),
        ARTIFACTS.len()
    );
}

#[test]
fn tables_workloads_json_is_the_full_size_suite() {
    let v: serde_json::Value =
        serde_json::from_str(&tables(&["workloads", "--json"])).expect("one JSON document");
    assert_eq!(v["fast"].as_bool(), Some(false), "full-size shapes");
    assert!(!v["rows"].as_array().expect("rows").is_empty());
}
