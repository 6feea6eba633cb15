//! Seeded request streams for the two serve workloads.
//!
//! The program under test sees only the wire lines built here. Every
//! generated scenario is compiled while it is generated, so a stream
//! that reaches the server holds no request that can fail to parse or
//! validate; the expected cache outcome of each request is tracked
//! alongside it and later checked against the server's own counters.

use crate::rng::Rng;
use focal_scenario::{figure_id, finding_indices, CompiledScenario, StudyFamily};
use std::collections::HashSet;
use std::path::Path;

/// What the server's two-level cache should do with a request, given
/// every request sent before it on the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheClass {
    /// Byte-identical scenario text seen before: answered at the text level.
    TextHit,
    /// New text, known canonical digest: answered at the digest level.
    DigestHit,
    /// New canonical scenario: compiled, evaluated and inserted.
    Miss,
}

/// One wire request and the cache outcome it should produce.
pub struct Request {
    /// The request line as sent, newline included.
    pub line: String,
    pub class: CacheClass,
}

/// A serve workload's request stream, produced one phase at a time so a
/// run holds only the phase it is sending. The same seed and the same
/// sequence of phase sizes give the same bytes.
pub enum Generator {
    /// explore-cold: figure/finding scenarios, all with `include_output`.
    /// A draw whose canonical digest was already used is drawn again, so
    /// every request misses both cache levels.
    Explore {
        rng: Rng,
        seen: HashSet<u64>,
        /// Canonical-digest collisions drawn again.
        redraws: u64,
    },
    /// replay-warm: the shipped corpus with fresh respellings.
    Replay {
        rng: Rng,
        corpus: Vec<(String, u64)>,
        respell_share: f64,
        respellings: usize,
    },
}

impl Generator {
    pub fn explore_cold(seed: u64) -> Generator {
        Generator::Explore {
            rng: Rng::new(seed ^ 0xC01D_C01D_C01D_C01D),
            seen: HashSet::new(),
            redraws: 0,
        }
    }

    pub fn replay_warm(
        seed: u64,
        corpus_dir: &Path,
        respell_share: f64,
    ) -> Result<Generator, String> {
        let corpus = load_corpus(corpus_dir)?
            .into_iter()
            .map(|text| digest_of(&text).map(|d| (text, d)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Generator::Replay {
            rng: Rng::new(seed ^ 0x03A9_03A9_03A9_03A9),
            corpus,
            respell_share,
            respellings: 0,
        })
    }

    /// Requests answered during set-up: the shipped corpus once for
    /// replay-warm, nothing for explore-cold.
    pub fn warmup(&self) -> Vec<Request> {
        match self {
            Generator::Explore { .. } => Vec::new(),
            Generator::Replay { corpus, .. } => corpus
                .iter()
                .enumerate()
                .map(|(i, (text, _))| Request {
                    line: wire_line(&format!("w{i}"), text, false),
                    class: CacheClass::Miss,
                })
                .collect(),
        }
    }

    /// The next `n` requests, with ids `{prefix}{first}`, `{prefix}{first + 1}`, ….
    pub fn phase(&mut self, prefix: char, first: usize, n: usize) -> Result<Vec<Request>, String> {
        match self {
            Generator::Explore { rng, seen, redraws } => (first..first + n)
                .map(|seq| loop {
                    let text = draw_scenario(rng);
                    if seen.insert(digest_of(&text)?) {
                        return Ok(Request {
                            line: wire_line(&format!("{prefix}{seq}"), &text, true),
                            class: CacheClass::Miss,
                        });
                    }
                    *redraws += 1;
                })
                .collect(),
            Generator::Replay {
                rng,
                corpus,
                respell_share,
                respellings,
            } => replay_phase(rng, corpus, prefix, first, n, *respell_share, respellings),
        }
    }

    pub fn redraws(&self) -> u64 {
        match self {
            Generator::Explore { redraws, .. } => *redraws,
            Generator::Replay { .. } => 0,
        }
    }
}

fn wire_line(id: &str, scenario: &str, include_output: bool) -> String {
    let mut line = format!(
        "{{\"id\":\"{id}\",\"scenario\":\"{}\"",
        focal_serve::json::escape(scenario)
    );
    if include_output {
        line.push_str(",\"include_output\":true");
    }
    line.push_str("}\n");
    line
}

fn digest_of(text: &str) -> Result<u64, String> {
    CompiledScenario::compile(text, "generated")
        .map(|c| c.canonical().digest())
        .map_err(|e| format!("generated scenario does not compile: {e}\n{text}"))
}

// ---------------------------------------------------------------------
// explore-cold: unique scenarios over the twelve non-taxonomy families.
// ---------------------------------------------------------------------

const FAMILIES: [StudyFamily; 12] = [
    StudyFamily::Wafer,
    StudyFamily::Multicore,
    StudyFamily::Asymmetric,
    StudyFamily::Accelerator,
    StudyFamily::DarkSilicon,
    StudyFamily::Caching,
    StudyFamily::Microarch,
    StudyFamily::Speculation,
    StudyFamily::Dvfs,
    StudyFamily::Gating,
    StudyFamily::DieShrink,
    StudyFamily::CaseStudy,
];

/// Collects the `key = value` lines of one scenario under construction.
#[derive(Default)]
struct Tables {
    params: Vec<String>,
    sweep: Vec<String>,
    assumptions: Vec<String>,
    act: Vec<String>,
}

fn num(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

fn list<T>(items: &[T], fmt: impl Fn(&T) -> String) -> String {
    let parts: Vec<String> = items.iter().map(fmt).collect();
    format!("[{}]", parts.join(", "))
}

/// Draws `k` values in `[lo, hi)`, sorted ascending.
fn sorted_draws(rng: &mut Rng, k: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..k).map(|_| rng.range(lo, hi)).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Adds `key = value` with probability 0.7, otherwise leaves the paper
/// default in place.
fn maybe(rng: &mut Rng, out: &mut Vec<String>, key: &str, value: String) {
    if rng.chance(0.7) {
        out.push(format!("{key} = {value}"));
    }
}

/// α as explicit weights or an ACT derivation (or the paper default).
fn alpha_or_act(rng: &mut Rng, t: &mut Tables) {
    let roll = rng.range(0.0, 1.0);
    if roll < 0.25 {
        let node = *rng.pick(&["28nm", "16nm", "10nm", "7nm", "5nm"]);
        t.act.push(format!("node = \"{node}\""));
        t.act
            .push(format!("lifetime_years = {}", num(rng.range(2.0, 6.0), 2)));
        if rng.chance(0.5) {
            let name = *rng.pick(&["coal-heavy", "world-average", "renewable"]);
            t.act.push(format!("carbon_intensity = \"{name}\""));
        } else {
            t.act.push(format!(
                "carbon_intensity = {}",
                num(rng.range(50.0, 800.0), 1)
            ));
        }
        t.act.push(format!(
            "average_power_watts = {}",
            num(rng.range(2.0, 40.0), 2)
        ));
        t.act
            .push(format!("die_mm2 = {}", num(rng.range(60.0, 400.0), 1)));
    } else if roll < 0.85 {
        let k = rng.int(1, 3);
        let weights: Vec<f64> = (0..k).map(|_| rng.range(0.05, 0.95)).collect();
        t.assumptions
            .push(format!("alpha = {}", list(&weights, |w| num(*w, 3))));
    }
}

/// α uncertainty bands for the accelerator and dark-silicon figures.
fn alpha_bands(rng: &mut Rng, t: &mut Tables) {
    if rng.chance(0.7) {
        let k = rng.int(1, 2);
        let centers: Vec<f64> = (0..k).map(|_| rng.range(0.2, 0.8)).collect();
        t.assumptions
            .push(format!("alpha_center = {}", list(&centers, |c| num(*c, 3))));
        t.assumptions.push(format!(
            "alpha_half_width = {}",
            num(rng.range(0.05, 0.15), 3)
        ));
    }
}

fn parallel_fractions(rng: &mut Rng, t: &mut Tables) {
    let k = rng.int(3, 6);
    let fs = sorted_draws(rng, k, 0.3, 0.99);
    maybe(
        rng,
        &mut t.sweep,
        "parallel_fraction",
        list(&fs, |f| num(*f, 3)),
    );
}

fn family_tables(rng: &mut Rng, family: StudyFamily) -> Tables {
    let mut t = Tables::default();
    match family {
        StudyFamily::Wafer => {
            let diameter = *rng.pick(&[200.0, 300.0, 450.0]);
            maybe(rng, &mut t.params, "wafer_diameter_mm", num(diameter, 1));
            let density = rng.range(0.03, 0.25);
            maybe(
                rng,
                &mut t.params,
                "defect_density_per_cm2",
                num(density, 4),
            );
            let k = rng.int(1, 3);
            let models = rng.subset(&["perfect", "poisson", "murphy", "seeds"], k);
            maybe(
                rng,
                &mut t.params,
                "yield_models",
                list(&models, |m| format!("\"{m}\"")),
            );
            let lo = rng.range(40.0, 150.0);
            maybe(rng, &mut t.sweep, "die_min_mm2", num(lo, 1));
            let hi = rng.range(500.0, 900.0);
            maybe(rng, &mut t.sweep, "die_max_mm2", num(hi, 1));
            let steps = rng.int(8, 20);
            maybe(rng, &mut t.sweep, "die_steps", steps.to_string());
            let reference = rng.range(80.0, 120.0);
            maybe(rng, &mut t.sweep, "reference_mm2", num(reference, 1));
        }
        StudyFamily::Multicore | StudyFamily::Asymmetric => {
            let gamma = rng.range(0.05, 0.4);
            maybe(rng, &mut t.params, "gamma", num(gamma, 3));
            let pollack = rng.range(0.3, 0.7);
            maybe(rng, &mut t.params, "pollack_exponent", num(pollack, 3));
            let bces = if family == StudyFamily::Multicore {
                let k = rng.int(3, 6);
                rng.subset(&[1u32, 2, 4, 8, 16, 32, 64], k)
            } else {
                let big = rng.range(2.0, 6.0);
                maybe(rng, &mut t.params, "big_core_bce", num(big, 2));
                let k = rng.int(2, 4);
                rng.subset(&[8u32, 16, 32, 64], k)
            };
            maybe(rng, &mut t.sweep, "bce", list(&bces, u32::to_string));
            parallel_fractions(rng, &mut t);
            alpha_or_act(rng, &mut t);
        }
        StudyFamily::Accelerator | StudyFamily::DarkSilicon => {
            if family == StudyFamily::Accelerator {
                let area = rng.range(0.02, 0.15);
                maybe(rng, &mut t.params, "area_overhead", num(area, 4));
            } else {
                let fraction = rng.range(0.3, 0.7);
                maybe(
                    rng,
                    &mut t.params,
                    "accelerator_area_fraction",
                    num(fraction, 4),
                );
            }
            let advantage = rng.range(50.0, 1000.0);
            maybe(rng, &mut t.params, "energy_advantage", num(advantage, 1));
            let steps = rng.int(11, 31);
            maybe(rng, &mut t.sweep, "utilization_steps", steps.to_string());
            alpha_bands(rng, &mut t);
        }
        StudyFamily::Caching => {
            let stall = rng.range(0.5, 0.9);
            maybe(rng, &mut t.params, "stall_fraction", num(stall, 3));
            let memory = rng.range(0.5, 0.9);
            maybe(rng, &mut t.params, "memory_energy_fraction", num(memory, 3));
            let cache = rng.range(0.02, 0.1);
            maybe(rng, &mut t.params, "cache_energy_fraction", num(cache, 4));
            let miss = rng.range(0.3, 0.7);
            maybe(rng, &mut t.params, "miss_exponent", num(miss, 3));
            // Sizes in MiB or KiB (the canonicalizer normalizes both);
            // the sweep never goes below the base size.
            let base = *rng.pick(&[0.5, 1.0, 2.0]);
            let in_kib = rng.chance(0.3);
            let unit = if in_kib { 1024.0 } else { 1.0 };
            let suffix = if in_kib { "kib" } else { "mib" };
            if rng.chance(0.7) {
                t.params
                    .push(format!("base_{suffix} = {}", num(base * unit, 1)));
            } else if base != 1.0 {
                // Without an explicit base the paper's 1 MiB applies.
                t.params.push(format!("base_mib = {}", num(base, 1)));
            }
            let pool: Vec<f64> = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
                .into_iter()
                .filter(|s| *s >= base)
                .collect();
            let k = rng.int(3, pool.len().min(6));
            let sizes = rng.subset(&pool, k);
            maybe(
                rng,
                &mut t.sweep,
                &format!("llc_{suffix}"),
                list(&sizes, |s| num(s * unit, 1)),
            );
            alpha_or_act(rng, &mut t);
        }
        StudyFamily::Microarch => alpha_or_act(rng, &mut t),
        StudyFamily::Speculation => {
            for (key, lo, hi, decimals) in [
                ("predictor_energy_ratio", 0.85, 0.99, 4),
                ("predictor_performance_ratio", 1.05, 1.25, 4),
                ("runahead_performance_ratio", 1.2, 1.5, 4),
                ("runahead_energy_ratio", 0.9, 0.98, 4),
                ("runahead_area_overhead", 0.002, 0.01, 5),
            ] {
                let v = rng.range(lo, hi);
                maybe(rng, &mut t.params, key, num(v, decimals));
            }
            let steps = rng.int(9, 25);
            maybe(rng, &mut t.sweep, "area_steps", steps.to_string());
            if rng.chance(0.5) {
                let ceiling = rng.range(0.04, 0.12);
                maybe(rng, &mut t.sweep, "max_predictor_area", num(ceiling, 4));
            } else {
                let ceiling = rng.range(4.0, 12.0);
                maybe(
                    rng,
                    &mut t.sweep,
                    "max_predictor_area_percent",
                    num(ceiling, 2),
                );
            }
            alpha_or_act(rng, &mut t);
        }
        StudyFamily::Dvfs => {
            for (key, lo, hi) in [
                ("dynamic_power_fraction", 0.5, 0.85),
                ("regulator_area_overhead", 0.01, 0.04),
                ("turbo_area_overhead", 0.005, 0.02),
                ("downscale", 0.6, 0.9),
                ("boost", 1.1, 1.4),
            ] {
                let v = rng.range(lo, hi);
                maybe(rng, &mut t.params, key, num(v, 4));
            }
        }
        StudyFamily::Gating => {
            for (key, lo, hi) in [
                ("gating_energy_ratio", 0.9, 0.99),
                ("gating_performance_ratio", 0.9, 0.99),
                ("gating_area_overhead", 0.0, 0.02),
            ] {
                let v = rng.range(lo, hi);
                maybe(rng, &mut t.params, key, num(v, 4));
            }
        }
        StudyFamily::CaseStudy => {
            let f = rng.range(0.5, 0.95);
            maybe(rng, &mut t.params, "parallel_fraction", num(f, 3));
            let cores = rng.int(1, 4);
            maybe(rng, &mut t.params, "base_cores", cores.to_string());
            let gamma = rng.range(0.1, 0.3);
            maybe(rng, &mut t.params, "gamma", num(gamma, 3));
            alpha_or_act(rng, &mut t);
        }
        StudyFamily::DieShrink | StudyFamily::Taxonomy => {}
    }
    t
}

/// One random figure or finding scenario. Ids come from a large but
/// finite pool per family, so uniqueness rests on the canonical digest,
/// not on the id alone.
fn draw_scenario(rng: &mut Rng) -> String {
    let family = *rng.pick(&FAMILIES);
    let findings = finding_indices(family);
    let figure = figure_id(family).is_some() && (findings.is_empty() || rng.chance(0.5));
    let name = family.as_str();
    let mut text = format!(
        "[scenario]\nid = \"x-{name}-{:05}\"\nkind = \"{}\"\nstudy = \"{name}\"\n",
        rng.below(100_000),
        if figure { "figure" } else { "finding" }
    );
    if !figure {
        text.push_str(&format!("index = {}\n", rng.pick(findings)));
    }
    let t = family_tables(rng, family);
    for (header, lines) in [
        ("params", &t.params),
        ("sweep", &t.sweep),
        ("assumptions", &t.assumptions),
        ("assumptions.act", &t.act),
    ] {
        if !lines.is_empty() {
            text.push_str(&format!("\n[{header}]\n"));
            for line in lines {
                text.push_str(line);
                text.push('\n');
            }
        }
    }
    text
}

// ---------------------------------------------------------------------
// replay-warm: the shipped corpus, replayed with fresh respellings.
// ---------------------------------------------------------------------

/// The `*.toml` files directly under `dir`, sorted by file name.
fn load_corpus(dir: &Path) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    let corpus = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect::<Result<Vec<_>, _>>()?;
    if corpus.is_empty() {
        return Err(format!("{} holds no scenarios", dir.display()));
    }
    Ok(corpus)
}

/// A fresh spelling of `text` with the same canonical scenario: comments
/// dropped, tables and keys reordered, spacing around `=` varied, blank
/// lines inserted, and a comment carrying `tag` so no two respellings
/// share their bytes.
fn respell(rng: &mut Rng, text: &str, tag: usize) -> String {
    let mut tables: Vec<(String, Vec<String>)> = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            tables.push((line.to_string(), Vec::new()));
        } else if !line.is_empty() && !line.starts_with('#') {
            if let Some((_, entries)) = tables.last_mut() {
                entries.push(line.to_string());
            }
        }
    }
    rng.shuffle(&mut tables);
    let mut out = format!("# respelling {tag}\n");
    for (header, mut entries) in tables {
        rng.shuffle(&mut entries);
        out.push_str(&header);
        out.push('\n');
        for entry in entries {
            let (key, value) = entry.split_once('=').unwrap_or((&entry, ""));
            let eq = *rng.pick(&["=", " = ", "  =  ", " =", "= "]);
            out.push_str(&format!("{}{eq}{}\n", key.trim(), value.trim()));
            if rng.chance(0.2) {
                out.push('\n');
            }
        }
        out.push('\n');
    }
    out
}

/// `n` replayed requests: seeded passes over the corpus, exactly
/// `round(n × respell_share)` of them fresh respellings and exactly half
/// with `include_output`.
fn replay_phase(
    rng: &mut Rng,
    corpus: &[(String, u64)],
    prefix: char,
    first: usize,
    n: usize,
    respell_share: f64,
    tag: &mut usize,
) -> Result<Vec<Request>, String> {
    let mut order: Vec<usize> = Vec::with_capacity(n + corpus.len());
    while order.len() < n {
        let mut pass: Vec<usize> = (0..corpus.len()).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    order.truncate(n);
    let positions: Vec<usize> = (0..n).collect();
    let respelled: HashSet<usize> = rng
        .subset(&positions, (n as f64 * respell_share).round() as usize)
        .into_iter()
        .collect();
    let with_output: HashSet<usize> = rng.subset(&positions, n / 2).into_iter().collect();
    let mut out = Vec::with_capacity(n);
    for (i, &item) in order.iter().enumerate() {
        let (text, digest) = &corpus[item];
        let include_output = with_output.contains(&i);
        let id = format!("{prefix}{}", first + i);
        let request = if respelled.contains(&i) {
            *tag += 1;
            let spelling = respell(rng, text, *tag);
            if digest_of(&spelling)? != *digest {
                return Err(format!(
                    "respelling changed the canonical scenario:\n{spelling}"
                ));
            }
            Request {
                line: wire_line(&id, &spelling, include_output),
                class: CacheClass::DigestHit,
            }
        } else {
            Request {
                line: wire_line(&id, text, include_output),
                class: CacheClass::TextHit,
            }
        };
        out.push(request);
    }
    Ok(out)
}
