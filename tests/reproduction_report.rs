//! Pins the committed `REPRODUCTION_REPORT.md` to the report the
//! `report` binary prints: every finding's paper-vs-measured table,
//! byte for byte.

use std::path::Path;

#[test]
fn committed_reproduction_report_matches_the_findings() {
    let findings = focal::studies::all_findings().expect("registry builds");
    let generated = focal::studies::findings_markdown(&findings);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("REPRODUCTION_REPORT.md");
    let committed = std::fs::read_to_string(&path).expect("REPRODUCTION_REPORT.md is readable");
    assert!(
        committed == generated,
        "REPRODUCTION_REPORT.md is stale; regenerate it with\n  \
         cargo run -q -p focal-bench --bin report > REPRODUCTION_REPORT.md"
    );
}
