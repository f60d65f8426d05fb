//! Field-set pin for the `BENCH_*.json` documents.
//!
//! `bench_schema.rs` checks that an emitted document carries the fields the
//! docs promise; this checks the converse as well: the set of key paths
//! `experiments bench --smoke` emits is *exactly* the committed list in
//! `bench_key_paths.txt` (one sorted `<file> <path>` line each) — nothing
//! dropped, nothing added, nothing renamed — so a change to the emitter or to
//! `report::SCHEMA` that moves a file's shape fails here, and landing it
//! means committing the new list beside the change. No numbers are committed:
//! `BENCHMARK.json` and the CHANGES.md pair tables hold those.

use std::collections::BTreeSet;
use std::path::Path;

use c5_bench::json::{parse, JsonValue};
use c5_bench::{report, Scale};

/// Every key path of `value`. An array is descended through its first element
/// only (its elements share one shape, and how many there are is run data),
/// and nothing is descended below a path in `opaque` (subtrees whose keys are
/// run data: which series registered, which event kinds fired).
fn key_paths(value: &JsonValue, at: &str, opaque: &[&str], out: &mut BTreeSet<String>) {
    match value {
        JsonValue::Obj(fields) if !opaque.contains(&at) => {
            for (key, child) in fields {
                let path = format!("{at}{}{key}", if at.is_empty() { "" } else { "." });
                out.insert(path.clone());
                key_paths(child, &path, opaque, out);
            }
        }
        JsonValue::Arr(items) => {
            if let Some(first) = items.first() {
                key_paths(first, &format!("{at}[]"), opaque, out);
            }
        }
        _ => {}
    }
}

#[test]
fn smoke_emits_exactly_the_committed_key_paths() {
    let out_dir = std::env::temp_dir().join(format!("c5-bench-fields-{}", std::process::id()));
    let written = report::run(&Scale::smoke(), "smoke", &out_dir).expect("bench run");
    assert_eq!(written.len(), 7);

    let mut emitted = BTreeSet::new();
    for file in &written {
        let opaque: &[&str] = match file.as_str() {
            "BENCH_obs.json" => &["by_kind", "snapshot"],
            _ => &[],
        };
        let raw = std::fs::read_to_string(out_dir.join(file)).expect("an emitted file reads back");
        let doc = parse(&raw).unwrap_or_else(|e| panic!("{file}: {e}"));
        let mut paths = BTreeSet::new();
        key_paths(&doc, "", opaque, &mut paths);
        assert!(paths.len() > 12, "{file}: more than the envelope");
        emitted.extend(paths.into_iter().map(|path| format!("{file} {path}")));
    }

    let list = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/bench_key_paths.txt");
    let committed = std::fs::read_to_string(&list).expect("the committed key-path list");
    assert!(
        committed.lines().is_sorted(),
        "{} is not sorted",
        list.display()
    );
    let committed: BTreeSet<String> = committed.lines().map(str::to_string).collect();
    let missing: Vec<_> = committed.difference(&emitted).collect();
    let extra: Vec<_> = emitted.difference(&committed).collect();
    if !(missing.is_empty() && extra.is_empty()) {
        // Left beside the emitted documents for whoever means the change.
        let emitted_list = out_dir.join("bench_key_paths.txt");
        let lines: Vec<&str> = emitted.iter().map(String::as_str).collect();
        std::fs::write(&emitted_list, lines.join("\n") + "\n").expect("write the emitted list");
        panic!(
            "the emitter no longer writes {missing:?} and now writes {extra:?}; if that is \
             meant, {} is the new {}",
            emitted_list.display(),
            list.display()
        );
    }
    std::fs::remove_dir_all(&out_dir).ok();
}
