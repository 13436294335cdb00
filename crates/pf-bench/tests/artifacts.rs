//! Every committed `BENCH_<name>.json` is what the code writes.
//!
//! Each campaign's full sweep runs at its default seed and its rendering is
//! compared, as text, with the committed artifact. Only the numbers the
//! campaign tagged as wall clock may differ; which keys those are is read
//! off the fresh value. When a simulated field moves, explain the change
//! and then regenerate:
//! `cargo run -p pf-bench --release --bin campaign -- <name>`.

use pf_bench::cli::{artifact_path, CAMPAIGNS};
use pf_bench::json::Json;
use std::collections::BTreeSet;

/// The four campaigns a debug build sweeps whole in about a second
/// together; demux and fabric take over a minute there and ten seconds
/// under `--release`, so they are held to their artifacts in that run.
const QUICK: [&str; 4] = ["chaos", "adversary", "mc", "overload"];

/// Collects the keys under which `value` holds a wall-clock number.
fn wall_keys(value: &Json, keys: &mut BTreeSet<&'static str>) {
    match value {
        Json::Object(fields) => {
            for (key, field) in fields {
                if matches!(field, Json::Wall(..)) {
                    keys.insert(key);
                }
                wall_keys(field, keys);
            }
        }
        Json::Array(items) => items.iter().for_each(|item| wall_keys(item, keys)),
        _ => {}
    }
}

/// `text` with `_` in place of the number after each `"key": ` of `keys`.
fn blank(text: &str, keys: &BTreeSet<&str>) -> String {
    let mut text = text.to_string();
    for key in keys {
        let label = format!("\"{key}\": ");
        let mut pieces = text.split(&label);
        let mut blanked = pieces.next().unwrap_or_default().to_string();
        for piece in pieces {
            let number_ends = piece.find([',', '}', '\n']).unwrap_or(piece.len());
            blanked.push_str(&label);
            blanked.push('_');
            blanked.push_str(&piece[number_ends..]);
        }
        text = blanked;
    }
    text
}

#[test]
fn every_committed_artifact_is_what_the_code_writes() {
    let mut stale = Vec::new();
    for (name, seed, run) in CAMPAIGNS {
        if cfg!(debug_assertions) && !QUICK.contains(&name) {
            continue;
        }
        let fresh = run(false, seed);
        let mut keys = BTreeSet::new();
        wall_keys(&fresh, &mut keys);
        let path = artifact_path(name);
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let (committed, fresh) = (blank(&committed, &keys), blank(&fresh.render(), &keys));
        let mut lines = committed.lines().zip(fresh.lines()).enumerate();
        if let Some((at, (was, now))) = lines.find(|(_, (was, now))| was != now) {
            stale.push(format!(
                "BENCH_{name}.json line {}:\n  committed:       {was}\n  the code writes: {now}",
                at + 1
            ));
        } else if committed != fresh {
            stale.push(format!(
                "BENCH_{name}.json: one side is a prefix of the other"
            ));
        }
    }
    assert!(stale.is_empty(), "{}", stale.join("\n"));
}

/// CI smokes the campaigns by listing these files, so a campaign without
/// an artifact, or an artifact whose campaign is gone, fails here.
#[test]
fn every_artifact_at_the_root_belongs_to_a_campaign() {
    let root = artifact_path("").parent().expect("the root").to_path_buf();
    let found: BTreeSet<String> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", root.display()))
        .filter_map(|entry| {
            let file = entry.ok()?.file_name().into_string().ok()?;
            Some(
                file.strip_prefix("BENCH_")?
                    .strip_suffix(".json")?
                    .to_string(),
            )
        })
        .collect();
    let campaigns: BTreeSet<String> = CAMPAIGNS
        .iter()
        .map(|(name, ..)| name.to_string())
        .collect();
    assert_eq!(
        found, campaigns,
        "BENCH_<name>.json files against CAMPAIGNS"
    );
}

#[test]
fn blanking_touches_only_the_tagged_numbers() {
    let row = Json::object([
        ("wall_ms", Json::Wall(3.25, 3)),
        ("convergence_ms", Json::Float(81.2, 3)),
        ("ops_per_sec", Json::Wall(1e6, 1)),
    ]);
    let mut keys = BTreeSet::new();
    wall_keys(
        &Json::object([("rows", Json::array([row.clone()], |r| r))]),
        &mut keys,
    );
    assert_eq!(keys, BTreeSet::from(["ops_per_sec", "wall_ms"]));
    assert_eq!(
        blank(&row.render(), &keys),
        "{\n  \"wall_ms\": _,\n  \"convergence_ms\": 81.200,\n  \"ops_per_sec\": _\n}\n"
    );
}
