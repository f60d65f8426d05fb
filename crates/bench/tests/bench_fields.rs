//! Field-set pin for the committed `BENCH_*.json` files.
//!
//! `bench_schema.rs` checks that an emitted document carries the fields the
//! docs promise; this checks the converse as well: the set of key paths
//! `experiments bench --smoke` emits is *exactly* the set in the file
//! committed at the repository root — nothing dropped, nothing added,
//! nothing renamed — so a change to the emitter or to `report::SCHEMA` that
//! moves a file's shape fails here instead of silently forking the committed
//! files from what the code writes.

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

fn paths_of(file: &Path, opaque: &[&str]) -> BTreeSet<String> {
    let raw =
        std::fs::read_to_string(file).unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
    let doc = parse(&raw).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    let mut paths = BTreeSet::new();
    key_paths(&doc, "", opaque, &mut paths);
    paths
}

#[test]
fn smoke_emits_exactly_the_committed_key_paths() {
    let out_dir = std::env::temp_dir().join(format!("c5-bench-fields-{}", std::process::id()));
    let written = report::run(&Scale::smoke(), "smoke", &out_dir).expect("bench run");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for file in &written {
        let opaque: &[&str] = match file.as_str() {
            "BENCH_obs.json" => &["by_kind", "snapshot"],
            _ => &[],
        };
        let (emitted, committed) = (
            paths_of(&out_dir.join(file), opaque),
            paths_of(&root.join(file), opaque),
        );
        let missing: Vec<_> = committed.difference(&emitted).collect();
        let extra: Vec<_> = emitted.difference(&committed).collect();
        assert!(
            missing.is_empty() && extra.is_empty(),
            "{file}: the emitter no longer writes {missing:?} and now writes {extra:?}"
        );
        assert!(committed.len() > 12, "{file}: more than the envelope");
    }
    assert_eq!(written.len(), 7);
    std::fs::remove_dir_all(&out_dir).ok();
}
