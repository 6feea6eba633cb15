//! Regenerates every paper figure (Figures 1 and 3–9; Figure 2 has no
//! data series) in registry order, printing each as ASCII charts plus its
//! CSV block:
//!
//! ```sh
//! cargo run --release -p focal-bench --bin figures > figures.txt
//! ```
//!
//! For one CSV file per figure, run `suite --dump-dir <dir>`.

fn main() -> focal_core::Result<()> {
    for fig in focal_studies::all_figures()? {
        focal_bench::print_figure(&fig);
    }
    Ok(())
}
