//! Wafer yield laboratory: everything behind FOCAL's embodied proxy in one
//! tour — exact die placement vs. the de Vries formula, the five classical
//! yield models against a Monte-Carlo defect-map simulation, die
//! harvesting, and the wafer economics that make performance-per-wafer a
//! sustainability metric.
//!
//! Run with `cargo run -p focal --example wafer_yield_lab`.

use focal::report::Table;
use focal::studies::wafer_figure::figure1_trendlines;
use focal::wafer::{
    DefectDensity, DefectDistribution, DefectSimulator, DiePlacement, EmbodiedModel, HarvestPolicy,
    Wafer, WaferEconomics, YieldModel,
};
use focal::SiliconArea;

fn main() -> focal::Result<()> {
    let wafer = Wafer::W300MM;
    let d0 = DefectDensity::TSMC_VOLUME;

    // -----------------------------------------------------------------
    // 1. Geometry: how many chips does a wafer hold? Three estimators.
    // -----------------------------------------------------------------
    let mut geo = Table::new(vec!["die (mm²)", "area ratio", "de Vries", "exact grid"]);
    for mm2 in [100.0, 300.0, 600.0] {
        let die = SiliconArea::from_mm2(mm2)?;
        geo.row(vec![
            format!("{mm2:.0}"),
            format!("{:.0}", wafer.chips_area_ratio(die)),
            format!("{:.0}", wafer.chips_de_vries(die)?),
            format!("{}", wafer.chips_exact_square(die)?),
        ]);
    }
    println!("chips per 300 mm wafer:\n\n{geo}");

    // -----------------------------------------------------------------
    // 2. Yield models vs. a simulated wafer batch. Uniform random
    //    defects reproduce Poisson; clustered defects climb toward the
    //    Seeds/negative-binomial regime — the spatial story behind why
    //    Figure 1 uses Murphy.
    // -----------------------------------------------------------------
    let die = SiliconArea::from_mm2(400.0)?;
    let lambda = d0.defect_load(die);
    let placement = DiePlacement::square(20.0);

    let uniform = DefectSimulator::new(wafer, DefectDistribution::Uniform, 0xF0CA1).run(
        &placement,
        d0.get_per_cm2(),
        60,
    )?;
    let clustered = DefectSimulator::new(
        wafer,
        DefectDistribution::Clustered {
            mean_cluster_size: 8.0,
            cluster_radius_mm: 2.0,
        },
        0xF0CA1,
    )
    .run(&placement, d0.get_per_cm2(), 60)?;

    let mut yields = Table::new(vec!["model", "yield @400 mm²"]);
    for (name, y) in [
        (
            "poisson (analytic)",
            YieldModel::Poisson.fraction_good_from_load(lambda),
        ),
        (
            "murphy (analytic, Fig 1)",
            YieldModel::Murphy.fraction_good_from_load(lambda),
        ),
        (
            "seeds (analytic)",
            YieldModel::Seeds.fraction_good_from_load(lambda),
        ),
        ("simulated, uniform defects", uniform.mean_yield),
        ("simulated, clustered defects", clustered.mean_yield),
    ] {
        yields.row(vec![name.to_string(), format!("{y:.3}")]);
    }
    println!("yield at D0 = 0.09/cm² (λ = {lambda:.2}):\n\n{yields}");

    // -----------------------------------------------------------------
    // 3. Harvesting: how binning walks the Murphy curve back toward the
    //    perfect-yield bound (§3.1's profit-maximization observation).
    // -----------------------------------------------------------------
    let reference = SiliconArea::from_mm2(100.0)?;
    let big = SiliconArea::from_mm2(800.0)?;
    let mut harvest = Table::new(vec!["salvage", "embodied per chip @800 mm² (vs 100 mm²)"]);
    for s in [0.0, 0.5, 1.0] {
        let model = EmbodiedModel::figure1_murphy().with_harvest(HarvestPolicy::new(s)?);
        harvest.row(vec![
            format!("{:.0}%", s * 100.0),
            format!("{:.2}x", model.normalized_footprint(big, reference)?),
        ]);
    }
    println!("die harvesting:\n\n{harvest}");

    // -----------------------------------------------------------------
    // 4. Figure 1's trendlines, refit live over its 15-point sweep.
    // -----------------------------------------------------------------
    let ((lin, lin_r2), (quad, quad_r2)) = figure1_trendlines()?;
    println!("trendlines (as in the paper's Figure 1):");
    println!(
        "  perfect yield ~ linear:    {:+.4} {:+.6}*A            (R² = {lin_r2:.5})",
        lin.coefficients()[0],
        lin.coefficients()[1]
    );
    println!(
        "  Murphy ~ quadratic: {:+.4} {:+.6}*A {:+.9}*A² (R² = {quad_r2:.5})\n",
        quad.coefficients()[0],
        quad.coefficients()[1],
        quad.coefficients()[2]
    );

    // -----------------------------------------------------------------
    // 5. Economics: cost per good die and performance per wafer — why a
    //    small fast chip beats a reticle-limit monster on both money and
    //    carbon.
    // -----------------------------------------------------------------
    let econ = WaferEconomics::new(EmbodiedModel::figure1_murphy(), 17_000.0)?;
    let small = SiliconArea::from_mm2(150.0)?;
    let monster = SiliconArea::from_mm2(700.0)?;
    // Pollack: performance scales as sqrt(area).
    let ppw_ratio = econ.ppw_ratio((small, 1.0), (monster, (700.0f64 / 150.0).sqrt()))?;
    println!(
        "cost per good die: {:.0} (150 mm²) vs {:.0} (700 mm²); \
         performance-per-wafer advantage of the small chip: {:.1}x",
        econ.cost_per_good_die(small)?,
        econ.cost_per_good_die(monster)?,
        ppw_ratio
    );
    println!(
        "\nThe embodied story in one line: bigger dies lose twice — fewer chips per \
         wafer AND worse yield — which is exactly why FOCAL's area proxy (and the \
         paper's 'build smaller chips' conclusion) holds."
    );
    Ok(())
}
