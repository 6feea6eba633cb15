//@ path: crates/studies/src/reduction_fixture.rs
// Clean: the same reductions routed through focal-engine's blessed
// operations, whose chunks land in chunk order.

pub fn total(engine: &Engine, xs: &[f64]) -> Vec<f64> {
    engine
        .try_par_chunk_map_into(0, xs.len(), 8, 1, 0.0, |c, out| out.fill(xs.iter().skip(c * 8).take(8).sum::<f64>()))
        .unwrap_or_default()
}

pub fn weighted(engine: &Engine, xs: &[f64]) -> f64 {
    engine.try_par_map(0, xs, |x| x * 2.0).unwrap_or_default().iter().fold(0.0, |acc, x| acc + x)
}
