//! α-sweep ablation: how stable each finding's classification verdict is
//! across the full α_E2O ∈ [0, 1] range (the paper's §3.5 robustness
//! argument, quantified), over the suite's regime-sensitive mechanism
//! pairs.

use focal_bench::suite::ablation_mechanisms;
use focal_core::{classify_over_range, E2oRange};
use focal_report::Table;

fn main() -> focal_core::Result<()> {
    let mut table = Table::new(vec!["mechanism", "verdict at α grid", "stable?"]);
    for (name, x, y) in &ablation_mechanisms()? {
        let robust = classify_over_range(x, y, E2oRange::FULL, 101)?;
        table.row(vec![
            (*name).to_string(),
            robust
                .observed
                .iter()
                .map(|c| c.label().to_string())
                .collect::<Vec<_>>()
                .join(" / "),
            if robust.is_stable() {
                "yes".into()
            } else {
                "flips".into()
            },
        ]);
    }
    println!("classification stability across α ∈ [0, 1] (101-point grid):\n");
    println!("{table}");
    println!(
        "mechanisms whose verdict never flips are safe calls despite the data \
         uncertainty; flip-prone ones (acceleration, dark silicon) are exactly the \
         ones the paper flags as use-case-dependent."
    );
    Ok(())
}
