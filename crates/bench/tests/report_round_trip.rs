//! The committed reports are exactly what `Report::to_json` writes:
//! reading each one with `Report::from_json` and writing it back gives
//! the same bytes. One type describes the format, so a field the gate
//! reads but the writer drops (or the reverse) fails here.

use fastgl_bench::Report;
use std::path::Path;

#[test]
fn every_committed_report_round_trips_byte_for_byte() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut ids: Vec<&str> = fastgl_bench::experiments::all()
        .iter()
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    for dir in [results.clone(), results.join("quick")] {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                name.strip_suffix(".json").map(str::to_string)
            })
            .collect();
        names.sort_unstable();
        assert_eq!(
            names,
            ids,
            "{} holds one report per registered experiment",
            dir.display()
        );
        for name in &names {
            let path = dir.join(format!("{name}.json"));
            let text = std::fs::read_to_string(&path).unwrap();
            let report =
                Report::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(report.id, *name, "{}", path.display());
            assert!(report.provenance.is_some(), "{}", path.display());
            assert_eq!(report.to_json(), text, "{}", path.display());
        }
    }
}
