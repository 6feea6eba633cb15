//! Golden results of `CompiledScenario::compile` for every scenario key.
//!
//! Each of the 45 `[params]`, `[sweep]` and `[assumptions]` keys is
//! compiled
//!
//! * under every study family that accepts it, with an in-domain value
//!   that is not the paper default;
//! * once per fault: a string, `-1`, `[]`, a list of 33 entries, a list
//!   of mixed types, the grid-step counts 1 and 257, a family that does
//!   not accept it, and the key placed in the wrong table;
//!
//! and a set of two-fault inputs sits at each boundary between the
//! front end's checking phases (unknown tables; reading each table;
//! the family allowlists; the list caps; kind and index; the family's
//! spec), so the error that wins when an input has several faults is
//! pinned too.
//!
//! Each case is one line of `tests/key_golden.txt`: its label, then
//! `ok <canonical digest>` or `err <ScenarioError Display>`. On a
//! mismatch the panic message prints the table as computed, so an
//! intended change is re-pinned by pasting it over the file. The key
//! list below is written out on its own, independent of the crate's key
//! table, so a row that changes there shows up here.

use focal_scenario::CompiledScenario;
use std::fmt::Write as _;

/// A key's value type, as the DSL documents it.
#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Number,
    Steps,
    Integer,
    Numbers,
    Integers,
    Strings,
}

/// One scenario key, the families that accept it, and an in-domain value
/// that is not the default.
struct Key {
    table: &'static str,
    name: &'static str,
    ty: Ty,
    families: &'static [&'static str],
    value: &'static str,
}

const fn key(
    table: &'static str,
    name: &'static str,
    ty: Ty,
    families: &'static [&'static str],
    value: &'static str,
) -> Key {
    Key {
        table,
        name,
        ty,
        families,
        value,
    }
}

const WEIGHTED: &[&str] = &[
    "multicore",
    "asymmetric",
    "caching",
    "microarch",
    "speculation",
    "case-study",
];
const BANDED: &[&str] = &["accelerator", "dark-silicon"];

/// One line per key, so the list reads as a table.
#[rustfmt::skip]
const KEYS: &[Key] = &[
    key("params", "gamma", Ty::Number, &["multicore", "asymmetric", "case-study"], "0.3"),
    key("params", "pollack_exponent", Ty::Number, &["multicore", "asymmetric"], "0.6"),
    key("params", "big_core_bce", Ty::Number, &["asymmetric"], "2.5"),
    key("params", "area_overhead", Ty::Number, &["accelerator"], "0.1"),
    key("params", "energy_advantage", Ty::Number, BANDED, "20"),
    key("params", "accelerator_area_fraction", Ty::Number, &["dark-silicon"], "0.5"),
    key("params", "stall_fraction", Ty::Number, &["caching"], "0.6"),
    key("params", "memory_energy_fraction", Ty::Number, &["caching"], "0.3"),
    key("params", "cache_energy_fraction", Ty::Number, &["caching"], "0.1"),
    key("params", "base_mib", Ty::Number, &["caching"], "2"),
    key("params", "base_kib", Ty::Number, &["caching"], "2048"),
    key("params", "miss_exponent", Ty::Number, &["caching"], "0.4"),
    key("params", "predictor_energy_ratio", Ty::Number, &["speculation"], "0.9"),
    key("params", "predictor_performance_ratio", Ty::Number, &["speculation"], "1.1"),
    key("params", "runahead_performance_ratio", Ty::Number, &["speculation"], "1.2"),
    key("params", "runahead_energy_ratio", Ty::Number, &["speculation"], "0.95"),
    key("params", "runahead_area_overhead", Ty::Number, &["speculation"], "0.02"),
    key("params", "dynamic_power_fraction", Ty::Number, &["dvfs"], "0.6"),
    key("params", "regulator_area_overhead", Ty::Number, &["dvfs"], "0.03"),
    key("params", "turbo_area_overhead", Ty::Number, &["dvfs"], "0.02"),
    key("params", "downscale", Ty::Number, &["dvfs"], "0.7"),
    key("params", "boost", Ty::Number, &["dvfs"], "1.3"),
    key("params", "gating_energy_ratio", Ty::Number, &["gating"], "0.95"),
    key("params", "gating_performance_ratio", Ty::Number, &["gating"], "0.95"),
    key("params", "gating_area_overhead", Ty::Number, &["gating"], "0.01"),
    key("params", "parallel_fraction", Ty::Number, &["case-study"], "0.9"),
    key("params", "base_cores", Ty::Integer, &["case-study"], "8"),
    key("params", "wafer_diameter_mm", Ty::Number, &["wafer"], "200"),
    key("params", "defect_density_per_cm2", Ty::Number, &["wafer"], "0.2"),
    key("params", "yield_models", Ty::Strings, &["wafer"], "[\"poisson\", \"seeds\"]"),
    key("sweep", "bce", Ty::Integers, &["multicore", "asymmetric"], "[1, 2, 4]"),
    key("sweep", "parallel_fraction", Ty::Numbers, &["multicore", "asymmetric"], "[0.5, 0.9]"),
    key("sweep", "llc_mib", Ty::Numbers, &["caching"], "[1, 2]"),
    key("sweep", "llc_kib", Ty::Numbers, &["caching"], "[1024, 4096]"),
    key("sweep", "utilization_steps", Ty::Steps, BANDED, "7"),
    key("sweep", "area_steps", Ty::Steps, &["speculation"], "9"),
    key("sweep", "max_predictor_area", Ty::Number, &["speculation"], "0.3"),
    key("sweep", "max_predictor_area_percent", Ty::Number, &["speculation"], "30"),
    key("sweep", "die_min_mm2", Ty::Number, &["wafer"], "20"),
    key("sweep", "die_max_mm2", Ty::Number, &["wafer"], "600"),
    key("sweep", "die_steps", Ty::Steps, &["wafer"], "11"),
    key("sweep", "reference_mm2", Ty::Number, &["wafer"], "50"),
    key("assumptions", "alpha", Ty::Numbers, WEIGHTED, "[0.6, 0.3]"),
    key("assumptions", "alpha_center", Ty::Numbers, BANDED, "[0.5]"),
    key("assumptions", "alpha_half_width", Ty::Number, BANDED, "0.05"),
];

/// Every study family but taxonomy, whose robustness scenarios accept no
/// key of these tables.
const FAMILIES: &[&str] = &[
    "wafer",
    "multicore",
    "asymmetric",
    "accelerator",
    "dark-silicon",
    "caching",
    "microarch",
    "speculation",
    "dvfs",
    "gating",
    "die-shrink",
    "case-study",
];

/// The `[scenario]` tables a family is compiled under: its figure, or
/// each of its findings when it has no figure.
fn heads(family: &str) -> Vec<(String, String)> {
    let findings: &[u32] = match family {
        "dvfs" => &[14, 15],
        "gating" => &[16],
        "die-shrink" => &[17],
        _ => &[],
    };
    if findings.is_empty() {
        return vec![(
            format!("{family}:figure"),
            format!("[scenario]\nid = \"k\"\nkind = \"figure\"\nstudy = \"{family}\"\n"),
        )];
    }
    findings
        .iter()
        .map(|i| {
            (
                format!("{family}:finding{i}"),
                format!(
                    "[scenario]\nid = \"k\"\nkind = \"finding\"\nindex = {i}\nstudy = \"{family}\"\n"
                ),
            )
        })
        .collect()
}

fn first_head(family: &str) -> String {
    heads(family)
        .into_iter()
        .next()
        .map(|(_, text)| text)
        .expect("every family has a head")
}

/// Renders `head` followed by `lines`, each `(table, "key = value")`,
/// grouped under one header per table in order of first appearance.
fn render(head: &str, lines: &[(&str, String)]) -> String {
    let mut out = head.to_string();
    let mut tables: Vec<&str> = Vec::new();
    for (table, _) in lines {
        if !tables.contains(table) {
            tables.push(table);
        }
    }
    for table in tables {
        let _ = writeln!(out, "[{table}]");
        for (_, line) in lines.iter().filter(|(t, _)| *t == table) {
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

/// The band keys only resolve together, so each brings the other along.
fn companion(key: &Key) -> Option<(&'static str, String)> {
    match key.name {
        "alpha_center" => Some(("assumptions", "alpha_half_width = 0.1".to_string())),
        "alpha_half_width" => Some(("assumptions", "alpha_center = [0.4]".to_string())),
        _ => None,
    }
}

fn with_key(key: &Key, table: &'static str, value: &str) -> Vec<(&'static str, String)> {
    let mut lines = vec![(table, format!("{} = {value}", key.name))];
    lines.extend(companion(key));
    lines
}

/// A list of `len` entries of the key's element type.
fn long_list(ty: Ty, len: usize) -> String {
    let items: Vec<String> = (1..=len)
        .map(|i| match ty {
            Ty::Integers => i.to_string(),
            Ty::Strings => "\"murphy\"".to_string(),
            _ => format!("0.{i:03}"),
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn mixed_list(ty: Ty) -> &'static str {
    match ty {
        Ty::Strings => "[\"murphy\", 1]",
        _ => "[1, \"a\"]",
    }
}

fn wrong_table(table: &str) -> &'static str {
    match table {
        "params" => "sweep",
        "sweep" => "assumptions",
        _ => "params",
    }
}

/// Every labelled case, in order.
fn cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    for key in KEYS {
        let label = format!("{}.{}", key.table, key.name);
        for family in key.families {
            for (head_label, head) in heads(family) {
                cases.push((
                    format!("{label} accept@{head_label}"),
                    render(&head, &with_key(key, key.table, key.value)),
                ));
            }
        }
        let head = first_head(key.families.first().copied().unwrap_or("wafer"));
        let long = long_list(key.ty, 33);
        let faults: [(&str, &str); 7] = [
            ("string", "\"x\""),
            ("negative", "-1"),
            ("empty", "[]"),
            ("len33", &long),
            ("mixed", mixed_list(key.ty)),
            ("steps1", "1"),
            ("steps257", "257"),
        ];
        for (fault, value) in faults {
            cases.push((
                format!("{label} {fault}"),
                render(&head, &with_key(key, key.table, value)),
            ));
        }
        let refusing = FAMILIES
            .iter()
            .find(|f| !key.families.contains(f))
            .copied()
            .unwrap_or("taxonomy");
        cases.push((
            format!("{label} family@{refusing}"),
            render(&first_head(refusing), &with_key(key, key.table, key.value)),
        ));
        let other = wrong_table(key.table);
        cases.push((
            format!("{label} table@{other}"),
            render(&head, &with_key(key, other, key.value)),
        ));
    }
    cases.extend(two_faults());
    cases
}

/// Two faults per input, one on each side of a phase boundary (or two
/// within one phase, written against its order).
fn two_faults() -> Vec<(String, String)> {
    let head = |family: &str| first_head(family);
    let line = |table: &'static str, text: &str| (table, text.to_string());
    let list33 = long_list(Ty::Numbers, 33);
    let sizes33 = long_list(Ty::Integers, 33);
    let cases: Vec<(&str, String)> = vec![
        // Unknown tables are rejected before any table is read.
        (
            "table>read",
            format!(
                "{}[params]\ngamma = \"x\"\n[bogus]\nx = 1\n",
                head("multicore")
            ),
        ),
        (
            "table>scenario",
            "[scenario]\nid = 3\nkind = \"figure\"\nstudy = \"multicore\"\n[bogus]\n".to_string(),
        ),
        // Tables are read in a fixed order, whatever the file's order.
        (
            "scenario>params",
            format!(
                "[params]\ngamma = \"x\"\n{}",
                "[scenario]\nid = \"k\"\nkind = \"chart\"\nstudy = \"multicore\"\n"
            ),
        ),
        (
            "params>sweep",
            render(
                &head("multicore"),
                &[
                    line("sweep", "bce = \"x\""),
                    line("params", "gamma = \"x\""),
                ],
            ),
        ),
        (
            "sweep>assumptions",
            render(
                &head("multicore"),
                &[
                    line("assumptions", "alpha = \"x\""),
                    line("sweep", "bce = [1, \"a\"]"),
                ],
            ),
        ),
        (
            "assumptions>act",
            format!(
                "{}[assumptions.act]\nnode = 7\n[assumptions]\nalpha = 0.5\n",
                head("multicore")
            ),
        ),
        (
            "act>monte_carlo",
            "[scenario]\nid = \"k\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n\
             [monte_carlo]\nsamples = 0\nseed = 1\njitter = 0.1\n\
             [assumptions.act]\nnode = 7\n"
                .to_string(),
        ),
        // Within a table: type errors in row order, then unknown keys in
        // file order.
        (
            "rows-reversed",
            render(
                &head("multicore"),
                &[
                    line("params", "pollack_exponent = \"x\""),
                    line("params", "gamma = \"y\""),
                ],
            ),
        ),
        (
            "sweep-rows-reversed",
            render(
                &head("multicore"),
                &[
                    line("sweep", "parallel_fraction = [\"x\"]"),
                    line("sweep", "bce = 3"),
                ],
            ),
        ),
        (
            "type>unknown",
            render(
                &head("multicore"),
                &[line("params", "warp = 9"), line("params", "gamma = \"x\"")],
            ),
        ),
        (
            "unknown-file-order",
            render(
                &head("multicore"),
                &[line("params", "zeta = 1"), line("params", "alpha = 2")],
            ),
        ),
        (
            "nonfinite>unknown",
            render(
                &head("multicore"),
                &[line("params", "warp = 9"), line("params", "gamma = nan")],
            ),
        ),
        // Reading every table comes before the family allowlists.
        (
            "read>allowlist",
            render(
                &head("multicore"),
                &[
                    line("params", "stall_fraction = 0.5"),
                    line("assumptions", "alpha = \"x\""),
                ],
            ),
        ),
        // Allowlists: params, sweep, assumptions, then act; rows in
        // order within each.
        (
            "allow-params>sweep",
            render(
                &head("microarch"),
                &[line("sweep", "bce = [1]"), line("params", "gamma = 0.3")],
            ),
        ),
        (
            "allow-sweep>assumptions",
            render(
                &head("wafer"),
                &[
                    line("assumptions", "alpha = [0.5]"),
                    line("sweep", "bce = [1]"),
                ],
            ),
        ),
        (
            "allow-assumptions>act",
            format!(
                "{}[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\n\
                 carbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n\
                 [assumptions]\nalpha_center = [0.5]\n",
                head("gating")
            ),
        ),
        (
            "allow-act",
            format!(
                "{}[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\n\
                 carbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n",
                head("accelerator")
            ),
        ),
        (
            "allow-rows-reversed",
            render(
                &head("microarch"),
                &[
                    line("params", "stall_fraction = 0.5"),
                    line("params", "gamma = 0.3"),
                ],
            ),
        ),
        (
            "allow-parallel-fraction-tables",
            render(
                &head("case-study"),
                &[
                    line("sweep", "parallel_fraction = [0.5]"),
                    line("params", "parallel_fraction = 0.5"),
                ],
            ),
        ),
        // Allowlists come before the list caps.
        (
            "allowlist>cap",
            render(
                &head("multicore"),
                &[
                    line("sweep", &format!("bce = {sizes33}")),
                    line("params", "stall_fraction = 0.5"),
                ],
            ),
        ),
        // List caps in row order.
        (
            "cap-rows-reversed",
            render(
                &head("multicore"),
                &[
                    line("assumptions", &format!("alpha = {list33}")),
                    line("sweep", &format!("parallel_fraction = {list33}")),
                    line("sweep", &format!("bce = {sizes33}")),
                ],
            ),
        ),
        (
            "cap-llc",
            render(
                &head("caching"),
                &[
                    line("sweep", &format!("llc_kib = {list33}")),
                    line("sweep", &format!("llc_mib = {list33}")),
                ],
            ),
        ),
        // List caps come before kind and index.
        (
            "cap>index",
            format!(
                "[scenario]\nid = \"k\"\nkind = \"figure\"\nindex = 3\nstudy = \"multicore\"\n\
                 [assumptions]\nalpha = {list33}\n"
            ),
        ),
        // Kind and index come before the family's spec.
        (
            "index>spec",
            "[scenario]\nid = \"k\"\nkind = \"finding\"\nstudy = \"multicore\"\n\
             [params]\ngamma = 7\n"
                .to_string(),
        ),
        (
            "kind>spec",
            "[scenario]\nid = \"k\"\nkind = \"figure\"\nstudy = \"dvfs\"\n\
             [params]\nboost = 0\n"
                .to_string(),
        ),
        (
            "monte-carlo>spec",
            format!(
                "{}[params]\ngamma = 7\n[monte_carlo]\nsamples = 8\nseed = 1\njitter = 0.1\n",
                head("multicore")
            ),
        ),
        // Inside the spec: grid steps, empty lists, conflicting
        // spellings and constructors, each where the family checks it.
        (
            "spec-wafer",
            render(
                &head("wafer"),
                &[
                    line("params", "wafer_diameter_mm = -1"),
                    line("sweep", "die_steps = 1"),
                ],
            ),
        ),
        (
            "spec-wafer-steps-last",
            render(
                &head("wafer"),
                &[
                    line("sweep", "die_steps = 1"),
                    line("sweep", "reference_mm2 = -1"),
                ],
            ),
        ),
        (
            "spec-caching-conflicts",
            render(
                &head("caching"),
                &[
                    line("params", "base_mib = 1"),
                    line("params", "base_kib = 1024"),
                    line("sweep", "llc_mib = [1]"),
                    line("sweep", "llc_kib = [1024]"),
                ],
            ),
        ),
        (
            "spec-caching-workload>sweep",
            render(
                &head("caching"),
                &[
                    line("params", "memory_energy_fraction = 0.6"),
                    line("params", "cache_energy_fraction = 0.5"),
                    line("sweep", "llc_mib = []"),
                ],
            ),
        ),
        (
            "spec-caching-miss>base",
            render(
                &head("caching"),
                &[
                    line("params", "base_mib = 1"),
                    line("params", "base_kib = 1024"),
                    line("params", "miss_exponent = -1"),
                ],
            ),
        ),
        (
            "spec-multicore-gamma>bce",
            render(
                &head("multicore"),
                &[line("sweep", "bce = []"), line("params", "gamma = 7")],
            ),
        ),
        (
            "spec-multicore-bce>alpha",
            render(
                &head("multicore"),
                &[line("assumptions", "alpha = []"), line("sweep", "bce = []")],
            ),
        ),
        (
            "spec-asymmetric-big>gamma",
            render(
                &head("asymmetric"),
                &[
                    line("params", "gamma = 7"),
                    line("params", "big_core_bce = 0"),
                ],
            ),
        ),
        (
            "spec-accelerator-ctor>steps",
            render(
                &head("accelerator"),
                &[
                    line("sweep", "utilization_steps = 1"),
                    line("params", "area_overhead = -1"),
                ],
            ),
        ),
        (
            "spec-accelerator-steps>bands",
            render(
                &head("accelerator"),
                &[
                    line("assumptions", "alpha_center = []"),
                    line("sweep", "utilization_steps = 257"),
                ],
            ),
        ),
        (
            "spec-speculation-predictor>runahead",
            render(
                &head("speculation"),
                &[
                    line("params", "runahead_energy_ratio = -1"),
                    line("params", "predictor_performance_ratio = -1"),
                ],
            ),
        ),
        (
            "spec-speculation-ceiling>steps",
            render(
                &head("speculation"),
                &[
                    line("sweep", "area_steps = 1"),
                    line("sweep", "max_predictor_area = 0.1"),
                    line("sweep", "max_predictor_area_percent = 10"),
                ],
            ),
        ),
        (
            "spec-dvfs-core>turbo",
            render(
                &head("dvfs"),
                &[
                    line("params", "turbo_area_overhead = -1"),
                    line("params", "regulator_area_overhead = -1"),
                ],
            ),
        ),
        (
            "spec-case-study-cores>gamma",
            render(
                &head("case-study"),
                &[
                    line("params", "gamma = 7"),
                    line("params", "base_cores = 0"),
                ],
            ),
        ),
        (
            "spec-case-study-alpha-act",
            format!(
                "{}[assumptions]\nalpha = [0.5]\n[assumptions.act]\nnode = \"7nm\"\n\
                 lifetime_years = 4\ncarbon_intensity = \"renewable\"\n\
                 average_power_watts = 15\ndie_mm2 = 100\n",
                head("case-study")
            ),
        ),
    ];
    cases
        .into_iter()
        .map(|(label, text)| (format!("two-faults {label}"), text))
        .collect()
}

/// One golden line per case.
fn compute() -> String {
    let mut out = String::new();
    for (label, text) in cases() {
        let result = match CompiledScenario::compile(&text, "k.toml") {
            Ok(c) => format!("ok {:016x}", c.canonical().digest()),
            Err(e) => format!("err {e}"),
        };
        let _ = writeln!(out, "{label} {result}");
    }
    out
}

#[test]
fn every_key_compiles_to_its_golden_result() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/key_golden.txt");
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    let got = compute();
    if got != golden {
        let first = got
            .lines()
            .zip(golden.lines())
            .find(|(g, w)| g != w)
            .map_or_else(
                || "the two tables differ in length".to_string(),
                |(g, w)| format!("first difference:\n  got:    {g}\n  golden: {w}"),
            );
        panic!(
            "{} does not match ({} lines computed, {} pinned); {first}\n\
             computed table:\n{got}",
            path.display(),
            got.lines().count(),
            golden.lines().count()
        );
    }
}

#[test]
fn every_accept_case_compiles() {
    for (label, text) in cases() {
        if label.contains(" accept@") {
            if let Err(e) = CompiledScenario::compile(&text, "k.toml") {
                panic!("{label}: an in-domain value must compile, got {e}\n{text}");
            }
        }
    }
}
