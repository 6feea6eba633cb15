//! Golden-value regression tests: exact pinned data points for every
//! figure, so any drift in the model chain is caught at the digit level
//! (the findings tests use the paper's rounded numbers; these use the
//! model's own exact values), plus full-CSV golden files capturing every
//! byte of every figure dump: the shipped `data/*.csv` (regenerate them
//! with the command in `data/README.md` after an intentional model
//! change).

use focal::studies::all_figures;
use focal::studies::Figure;

/// Every figure's full CSV dump, captured from the serial model before
/// the parallel engine existed. Byte-compared, not parsed: any change to
/// values, ordering or formatting is a regression until a human re-dumps.
const GOLDEN_CSVS: [(&str, &str); 9] = [
    ("fig1", include_str!("../data/fig1.csv")),
    ("fig3", include_str!("../data/fig3.csv")),
    ("fig4", include_str!("../data/fig4.csv")),
    ("fig5a", include_str!("../data/fig5a.csv")),
    ("fig5b", include_str!("../data/fig5b.csv")),
    ("fig6", include_str!("../data/fig6.csv")),
    ("fig7", include_str!("../data/fig7.csv")),
    ("fig8", include_str!("../data/fig8.csv")),
    ("fig9", include_str!("../data/fig9.csv")),
];

#[test]
fn every_figure_csv_matches_its_golden_file_byte_for_byte() {
    let figures = all_figures().unwrap();
    assert_eq!(
        figures.len(),
        GOLDEN_CSVS.len(),
        "a figure was added or removed; update data/"
    );
    for fig in &figures {
        let (_, golden) = GOLDEN_CSVS
            .iter()
            .find(|(id, _)| *id == fig.id)
            .unwrap_or_else(|| panic!("no golden CSV for {}", fig.id));
        let csv = fig.to_csv();
        assert!(
            csv.as_bytes() == golden.as_bytes(),
            "{} CSV drifted from data/{}.csv; if the model change is \
             intentional, regenerate data/ with `cargo run -q --release -p \
             focal-bench --bin suite -- --no-timings --dump-dir out > /dev/null \
             && cp out/registry/*.csv data/`",
            fig.id,
            fig.id
        );
    }
}

fn figure(id: &str) -> Figure {
    all_figures()
        .unwrap()
        .into_iter()
        .find(|f| f.id == id)
        .unwrap_or_else(|| panic!("figure {id} exists"))
}

fn assert_point(fig: &Figure, panel: usize, series: usize, point: usize, x: f64, ncf: f64) {
    let p = &fig.panels[panel].series[series].points[point];
    assert!(
        (p.performance - x).abs() < 5e-4,
        "{}/{}/{}[{point}].x = {}, expected {x}",
        fig.id,
        fig.panels[panel].title,
        fig.panels[panel].series[series].name,
        p.performance
    );
    assert!(
        (p.ncf - ncf).abs() < 5e-4,
        "{}/{}/{}[{point}].ncf = {}, expected {ncf}",
        fig.id,
        fig.panels[panel].title,
        fig.panels[panel].series[series].name,
        p.ncf
    );
}

#[test]
fn fig1_goldens() {
    let fig = figure("fig1");
    // series 0 = perfect yield, series 1 = Murphy; x = die size mm².
    assert_point(&fig, 0, 0, 0, 100.0, 1.0);
    assert_point(&fig, 0, 0, 14, 800.0, 9.4482);
    assert_point(&fig, 0, 1, 0, 100.0, 1.0);
    assert_point(&fig, 0, 1, 14, 800.0, 17.0040);
}

#[test]
fn fig3_goldens() {
    let fig = figure("fig3");
    // Panel 0: embodied dominated, fixed-work; series 4 = f=0.95,
    // point 5 = 32 BCEs: NCF = 0.8·32 + 0.2·1.31 = 25.862, perf = 12.549.
    assert_point(&fig, 0, 4, 5, 12.5490, 25.8620);
    // single-core series, 32 BCEs: perf = √32, NCF = 0.8·32 + 0.2·√32.
    assert_point(&fig, 0, 5, 5, 5.6569, 26.7314);
    // Panel 3: operational dominated, fixed-time; f=0.95 at 32 BCEs:
    // power = 1.31/0.0796875 = 16.4392; NCF = 0.2·32 + 0.8·16.4392.
    assert_point(&fig, 3, 4, 5, 12.5490, 19.5514);
}

#[test]
fn fig4_goldens() {
    let fig = figure("fig4");
    // Panel 3: operational dominated, fixed-time. Series: sym/asym pairs
    // for f ∈ {0.5, 0.8, 0.95}; asym 0.8 is series 3, 32 BCEs is point 2.
    // asym32 @0.8: S = 7.7778, E = 1.7829, P = 13.8668;
    // NCF = 0.2·32 + 0.8·13.8668 = 17.4934.
    assert_point(&fig, 3, 3, 2, 7.7778, 17.4934);
    // sym 0.8, 32 BCEs: S = 4.4444, P = 9.9556: NCF = 6.4 + 7.9645.
    assert_point(&fig, 3, 2, 2, 4.4444, 14.3645);
}

#[test]
fn fig5_goldens() {
    let a = figure("fig5a");
    // x = utilization. Embodied-dominated curve at u = 0: 0.8·1.065 + 0.2.
    assert_point(&a, 0, 0, 0, 0.0, 1.0520);
    // u = 1: 0.8·1.065 + 0.2·0.002 = 0.8524.
    assert_point(&a, 0, 0, 20, 1.0, 0.8524);
    // Operational-dominated at u = 0.5: 0.2·1.065 + 0.8·0.501 = 0.6138.
    assert_point(&a, 0, 1, 10, 0.5, 0.6138);

    let b = figure("fig5b");
    // Embodied dominated at u = 0: 0.8·3 + 0.2 = 2.6.
    assert_point(&b, 0, 0, 0, 0.0, 2.6);
    // Operational dominated at u = 1: 0.2·3 + 0.8·0.002 = 0.6016.
    assert_point(&b, 0, 1, 20, 1.0, 0.6016);
}

#[test]
fn fig6_goldens() {
    let fig = figure("fig6");
    // Panel 0 (embodied dominated), series 0 (fixed-work).
    // 1 MiB is the unit point.
    assert_point(&fig, 0, 0, 0, 1.0, 1.0);
    // 16 MiB: area ratio (1+5.175)/1.25 = 4.94; E = 0.6136;
    // NCF = 0.8·4.94 + 0.2·0.6136 = 4.0747. perf = 2.5.
    assert_point(&fig, 0, 0, 4, 2.5, 4.0747);
    // Panel 1 (operational dominated), fixed-work at 2 MiB.
    assert_point(&fig, 1, 0, 1, 1.3060, 0.8785);
}

#[test]
fn fig7_goldens() {
    let fig = figure("fig7");
    // Panel 0: embodied dom, fixed-work; points [InO, FSC, OoO].
    assert_point(&fig, 0, 0, 0, 1.0, 1.0);
    // FSC: 0.8·1.01 + 0.2·(1.01/1.64) = 0.9312.
    assert_point(&fig, 0, 0, 1, 1.64, 0.9312);
    // OoO: 0.8·1.39 + 0.2·(2.32/1.75) = 1.3771.
    assert_point(&fig, 0, 0, 2, 1.75, 1.3771);
    // Panel 3: operational dom, fixed-time; OoO: 0.2·1.39 + 0.8·2.32.
    assert_point(&fig, 3, 0, 2, 1.75, 2.134);
}

#[test]
fn fig8_goldens() {
    let fig = figure("fig8");
    // x = predictor area fraction. Panel 0 (embodied), fixed-work at 0:
    // 0.8 + 0.2·0.93 = 0.986.
    assert_point(&fig, 0, 0, 0, 0.0, 0.986);
    // at 8%: 0.8·1.08 + 0.2·0.93 = 1.05.
    assert_point(&fig, 0, 0, 16, 0.08, 1.05);
    // Panel 1 (operational), fixed-time at 0: 0.2 + 0.8·1.0602 = 1.0482.
    assert_point(&fig, 1, 1, 0, 0.0, 1.0482);
}

#[test]
fn fig9_goldens() {
    let fig = figure("fig9");
    // Panel 0 (embodied dominated), series 0 (fixed-work).
    // 4 cores: NCF = 0.8·0.626 + 0.2·(1/1.41421) = 0.6422; perf 1.4142.
    assert_point(&fig, 0, 0, 0, std::f64::consts::SQRT_2, 0.6422);
    // 8 cores: perf = 1.5744, NCF = 0.8·1.252 + 0.2·(1/1.5744) = 1.1286.
    assert_point(&fig, 0, 0, 4, 1.5744, 1.1286);
    // Panel 1 (operational dominated), fixed-time, 8 cores:
    // NCF = 0.2·1.252 + 0.8·1 = 1.0504.
    assert_point(&fig, 1, 1, 4, 1.5744, 1.0504);
}
