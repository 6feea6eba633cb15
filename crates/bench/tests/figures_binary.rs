//! The `figures` binary prints every paper figure: each registry
//! figure's CSV block must appear in its stdout byte for byte.

use std::process::Command;

#[test]
fn figures_binary_prints_every_figure_csv_verbatim() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .output()
        .expect("figures binary runs");
    assert!(
        out.status.success(),
        "figures exited {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("figures prints UTF-8");
    let figures = focal_studies::all_figures().expect("registry builds");
    assert_eq!(figures.len(), 9);
    for fig in &figures {
        assert!(
            stdout.contains(&fig.to_csv()),
            "{}'s CSV is missing from the figures output",
            fig.id
        );
    }
}
