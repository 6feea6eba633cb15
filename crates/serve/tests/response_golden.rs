//! Golden response bytes of the serve wire protocol.
//!
//! `serve_determinism.rs` compares one build with itself across thread
//! counts and cache states. This file pins the bytes themselves: the
//! length and FNV-64 of every response line for
//!
//! * the shipped scenario corpus, with and without `include_output`;
//! * two perturbed figure or finding scenarios per non-taxonomy family;
//! * request ids that need JSON escaping;
//! * scenario ids and titles with escapes and non-ASCII characters;
//! * a line with bad scenario TOML and a line that is not JSON.
//!
//! A renderer, escaper or digest rewrite that moves one response byte
//! fails here. On a mismatch the panic message prints the table as
//! computed, so an intended change is re-pinned by pasting it over
//! [`GOLDEN`].

use focal_engine::Engine;
use focal_scenario::fnv64;
use focal_serve::{Limits, ServeCore, ServeOptions};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Request lines are built with this local escaper rather than the
/// crate's, so the inputs stay fixed whatever the codec under test does.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn request(id: &str, scenario: &str, include_output: bool) -> String {
    format!(
        "{{\"id\":{},\"scenario\":{},\"include_output\":{include_output}}}",
        quote(id),
        quote(scenario)
    )
}

fn corpus() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/scenarios");
    let mut paths: Vec<PathBuf> = Vec::new();
    for dir in [root.clone(), root.join("examples")] {
        for entry in std::fs::read_dir(&dir).expect("scenario dir readable") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "toml") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let name = p
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("?")
                .to_string();
            (name, std::fs::read_to_string(p).expect("scenario readable"))
        })
        .collect()
}

fn scenario(id: &str, kind: &str, study: &str, index: Option<u32>, tables: &str) -> String {
    let index = index.map_or(String::new(), |i| format!("index = {i}\n"));
    format!("[scenario]\nid = \"{id}\"\nkind = \"{kind}\"\n{index}study = \"{study}\"\n{tables}")
}

/// Two perturbed scenarios per non-taxonomy family.
fn perturbed() -> Vec<(String, String)> {
    let fig = |id: &str, study: &str, tables: &str| scenario(id, "figure", study, None, tables);
    let finding = |id: &str, study: &str, index: u32, tables: &str| {
        scenario(id, "finding", study, Some(index), tables)
    };
    vec![
        fig(
            "wafer-a",
            "wafer",
            "[params]\nwafer_diameter_mm = 200\nyield_models = [\"poisson\", \"seeds\"]\n\
             [sweep]\ndie_min_mm2 = 60.5\ndie_max_mm2 = 640\ndie_steps = 9\n",
        ),
        fig(
            "wafer-b",
            "wafer",
            "[params]\ndefect_density_per_cm2 = 0.173\n\
             yield_models = [\"bose-einstein:12\", \"negative-binomial:2.5\", \"murphy\"]\n\
             [sweep]\nreference_mm2 = 97.3\ndie_steps = 13\n",
        ),
        fig(
            "multicore-a",
            "multicore",
            "[params]\ngamma = 0.137\npollack_exponent = 0.61\n\
             [sweep]\nbce = [1, 3, 9, 27]\nparallel_fraction = [0.31, 0.777, 0.989]\n\
             [assumptions]\nalpha = [0.123, 0.9]\n",
        ),
        finding(
            "multicore-b",
            "multicore",
            2,
            "[params]\ngamma = 0.35\n\
             [assumptions.act]\nnode = \"16nm\"\nlifetime_years = 2.5\n\
             carbon_intensity = 321.5\naverage_power_watts = 7.25\ndie_mm2 = 88\n",
        ),
        fig(
            "asymmetric-a",
            "asymmetric",
            "[params]\nbig_core_bce = 3.5\ngamma = 0.05\n\
             [sweep]\nbce = [8, 64]\nparallel_fraction = [0.42, 0.9]\n",
        ),
        finding(
            "asymmetric-b",
            "asymmetric",
            5,
            "[params]\npollack_exponent = 0.333\n[assumptions]\nalpha = [0.5]\n",
        ),
        fig(
            "accelerator-a",
            "accelerator",
            "[params]\narea_overhead = 0.0731\nenergy_advantage = 123.4\n\
             [sweep]\nutilization_steps = 17\n\
             [assumptions]\nalpha_center = [0.25, 0.75]\nalpha_half_width = 0.125\n",
        ),
        finding(
            "accelerator-b",
            "accelerator",
            6,
            "[params]\nenergy_advantage = 999\n",
        ),
        fig(
            "dark-silicon-a",
            "dark-silicon",
            "[params]\naccelerator_area_fraction = 0.61\n[sweep]\nutilization_steps = 29\n",
        ),
        finding(
            "dark-silicon-b",
            "dark-silicon",
            7,
            "[params]\naccelerator_area_fraction = 0.33\nenergy_advantage = 75\n",
        ),
        fig(
            "caching-a",
            "caching",
            "[params]\nstall_fraction = 0.81\nmiss_exponent = 0.45\nbase_kib = 512\n\
             [sweep]\nllc_kib = [512, 2048, 8192, 32768]\n[assumptions]\nalpha = [0.07]\n",
        ),
        finding(
            "caching-b",
            "caching",
            8,
            "[params]\nmemory_energy_fraction = 0.55\ncache_energy_fraction = 0.0333\n",
        ),
        fig(
            "microarch-a",
            "microarch",
            "[assumptions]\nalpha = [0.05, 0.5, 0.95]\n",
        ),
        finding("microarch-b", "microarch", 10, ""),
        fig(
            "speculation-a",
            "speculation",
            "[params]\npredictor_energy_ratio = 0.9123\nrunahead_area_overhead = 0.00777\n\
             [sweep]\narea_steps = 11\nmax_predictor_area_percent = 7.5\n",
        ),
        finding(
            "speculation-b",
            "speculation",
            13,
            "[params]\nrunahead_performance_ratio = 1.44\n",
        ),
        finding(
            "dvfs-a",
            "dvfs",
            14,
            "[params]\ndownscale = 0.66\ndynamic_power_fraction = 0.71\n",
        ),
        finding(
            "dvfs-b",
            "dvfs",
            15,
            "[params]\nboost = 1.37\nturbo_area_overhead = 0.0125\n",
        ),
        finding(
            "gating-a",
            "gating",
            16,
            "[params]\ngating_energy_ratio = 0.911\ngating_area_overhead = 0.0175\n",
        ),
        finding(
            "gating-b",
            "gating",
            16,
            "[params]\ngating_performance_ratio = 0.93\n",
        ),
        finding("die-shrink-a", "die-shrink", 17, ""),
        finding(
            "die-shrink-b",
            "die-shrink",
            17,
            "title = \"a shrink, retitled\"\n",
        ),
        fig(
            "case-study-a",
            "case-study",
            "[params]\nparallel_fraction = 0.61\nbase_cores = 3\n[assumptions]\nalpha = [0.3, 0.6]\n",
        ),
        finding(
            "case-study-b",
            "case-study",
            18,
            "[params]\ngamma = 0.27\n",
        ),
    ]
    .into_iter()
    .map(|text| {
        let id = text
            .lines()
            .find_map(|l| l.strip_prefix("id = \""))
            .and_then(|l| l.strip_suffix('"'))
            .unwrap_or("?")
            .to_string();
        (id, text)
    })
    .collect()
}

/// The scenario every `request-id/*` case sends.
const SMALL: &str = "[scenario]\nid = \"g\"\nkind = \"finding\"\nindex = 16\nstudy = \"gating\"\n";

/// Scenarios whose own id and title need escaping, by name.
fn escaped_scenarios() -> Vec<(&'static str, String)> {
    [
        ("quote", "q\\\"id", "a \\\"quoted\\\" title"),
        ("backslash", "b\\\\id", "C:\\\\path\\\\title"),
        ("tab", "t\\tid", "tab\\tseparated"),
        ("non-ascii", "αβγ-✓", "Données — 🌍 ✓"),
    ]
    .into_iter()
    .map(|(name, id_body, title_body)| {
        let text = format!(
            "[scenario]\nid = \"{id_body}\"\nkind = \"figure\"\nstudy = \"microarch\"\n\
             title = \"{title_body}\"\n"
        );
        (name, text)
    })
    .collect()
}

/// Every request line, labelled.
fn cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    for (name, text) in corpus() {
        cases.push((format!("corpus/{name}"), request(&name, &text, false)));
        cases.push((format!("corpus/{name}+output"), request(&name, &text, true)));
    }
    for (name, text) in perturbed() {
        cases.push((format!("perturbed/{name}"), request(&name, &text, true)));
    }
    for (name, id) in [
        ("quote", "a\"b"),
        ("backslash", "a\\b"),
        ("tab", "a\tb"),
        ("u0001", "a\u{1}b"),
        ("u001f", "a\u{1f}b"),
        ("u007f", "a\u{7f}b"),
        ("alpha-check", "α✓"),
        ("all", "\"\\\t\u{1}\u{1f}\u{7f}α✓\r\n\u{8}\u{c}"),
    ] {
        cases.push((format!("request-id/{name}"), request(id, SMALL, true)));
    }
    for (name, text) in escaped_scenarios() {
        cases.push((format!("scenario-id/{name}"), request(name, &text, true)));
    }
    cases.push((
        "bad-toml".to_string(),
        request("bad", "[scenario\nid = \"x\"\n", false),
    ));
    cases.push(("not-json".to_string(), "this is not json".to_string()));
    cases
}

/// The scenario of every case that answers ok, once each.
fn ok_scenarios() -> Vec<(String, String)> {
    let mut scenarios: Vec<(String, String)> = corpus();
    scenarios.extend(perturbed());
    scenarios.push(("small".to_string(), SMALL.to_string()));
    scenarios.extend(
        escaped_scenarios()
            .into_iter()
            .map(|(name, text)| (name.to_string(), text)),
    );
    scenarios
}

/// `(label, response length, response FNV-64)` per case, in order.
fn compute() -> Vec<(String, usize, u64)> {
    let mut core = ServeCore::new(ServeOptions {
        engine: Engine::serial(),
        cache: true,
        dump_dir: None,
        dump_prefix: String::new(),
        git_rev: "pinned".to_string(),
        limits: Limits::default(),
    });
    cases()
        .into_iter()
        .enumerate()
        .map(|(i, (label, line))| {
            let responses = core.handle_lines(&[(i + 1, line)]);
            assert_eq!(responses.len(), 1, "{label}: one response per line");
            let response = &responses[0];
            let expect_ok = !matches!(label.as_str(), "bad-toml" | "not-json");
            assert_eq!(
                response.contains("\"ok\":true"),
                expect_ok,
                "{label}: {response}"
            );
            (label, response.len(), fnv64(response.as_bytes()))
        })
        .collect()
}

#[test]
fn every_response_matches_its_golden_length_and_digest() {
    let got = compute();
    let matches = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((l, n, h), (gl, gn, gh))| l == gl && n == gn && h == gh);
    if !matches {
        let mut table = String::new();
        for (label, len, hash) in &got {
            let _ = writeln!(table, "    ({label:?}, {len}, 0x{hash:016x}),");
        }
        let first = got
            .iter()
            .zip(GOLDEN)
            .find(|((l, n, h), (gl, gn, gh))| l != gl || n != gn || h != gh)
            .map(|(g, e)| format!("first difference: got {g:?}, golden {e:?}"))
            .unwrap_or_else(|| format!("{} cases, {} golden", got.len(), GOLDEN.len()));
        panic!("response bytes moved; {first}\ncomputed table:\n{table}");
    }
}

/// `(text hits, digest hits)` from a core's stats line.
fn hit_counts(core: &ServeCore) -> (u64, u64) {
    let line = core.stats_line();
    let inner = line
        .split_once("hits (")
        .and_then(|(_, rest)| rest.split_once(')'))
        .map(|(inner, _)| inner)
        .expect("stats line names its hits");
    let (text, digest) = inner.split_once(", ").expect("text and digest hits");
    let count = |part: &str, unit: &str| {
        part.strip_suffix(unit)
            .and_then(|n| n.parse().ok())
            .expect("a hit count")
    };
    (count(text, " text"), count(digest, " digest"))
}

/// The response with its id field cut off; `id` escapes alike under
/// this file's `quote` and the crate's escaper.
fn after_id<'a>(response: &'a str, id: &str) -> &'a str {
    let prefix = format!("{{\"id\":{}", quote(id));
    response
        .strip_prefix(&prefix)
        .unwrap_or_else(|| panic!("{response} does not start with {prefix}"))
}

#[test]
fn hits_answer_byte_for_byte_what_the_cache_off_path_answers() {
    let options = |cache: bool| ServeOptions {
        engine: Engine::serial(),
        cache,
        dump_dir: None,
        dump_prefix: String::new(),
        git_rev: "pinned".to_string(),
        limits: Limits::default(),
    };
    let mut off = ServeCore::new(options(false));
    let mut warm = ServeCore::new(options(true));
    // Three ids that need escaping, one per path.
    let (off_id, text_id, digest_id) = ("off\"\\", "text\n\u{1}hit", "digest\u{1f}\"✓");
    let mut line_no = 0;
    let mut answer = |core: &mut ServeCore, id: &str, scenario: &str, include_output: bool| {
        line_no += 1;
        let mut responses = core.handle_lines(&[(line_no, request(id, scenario, include_output))]);
        assert_eq!(responses.len(), 1);
        responses.remove(0)
    };
    for (name, scenario) in ok_scenarios() {
        answer(&mut warm, "prime", &scenario, false);
        for include_output in [false, true] {
            let cold = answer(&mut off, off_id, &scenario, include_output);
            assert!(cold.contains("\"ok\":true"), "{name}: {cold}");
            assert_eq!(cold.contains("\"output\":"), include_output, "{name}");

            let before = hit_counts(&warm);
            let text_hit = answer(&mut warm, text_id, &scenario, include_output);
            assert_eq!(
                hit_counts(&warm),
                (before.0 + 1, before.1),
                "{name}: a text hit"
            );

            let respelled = format!("{scenario}\n# respelled, output {include_output}\n");
            let digest_hit = answer(&mut warm, digest_id, &respelled, include_output);
            assert_eq!(
                hit_counts(&warm),
                (before.0 + 1, before.1 + 1),
                "{name}: a digest hit"
            );

            let cold = after_id(&cold, off_id);
            assert_eq!(after_id(&text_hit, text_id), cold, "{name} text hit");
            assert_eq!(after_id(&digest_hit, digest_id), cold, "{name} digest hit");
        }
    }
}

const GOLDEN: &[(&str, usize, u64)] = &[
    ("corpus/dense-multicore", 208, 0xb39ba7241d4736ef),
    ("corpus/dense-multicore+output", 4868, 0xd71c1a515b27eb21),
    ("corpus/fig1", 186, 0x48af11188176185f),
    ("corpus/fig1+output", 1600, 0x870b497f41bd4054),
    ("corpus/fig3", 186, 0xc88cf699d8726ce2),
    ("corpus/fig3+output", 6398, 0x3e52041a4e682ac0),
    ("corpus/fig4", 186, 0x2d7030162b65cb07),
    ("corpus/fig4+output", 4114, 0x3df3fff5ca893da2),
    ("corpus/fig5a", 188, 0x3bd0550abdfca3c9),
    ("corpus/fig5a+output", 2129, 0xe5550896553f9c94),
    ("corpus/fig5b", 188, 0xfacf94e4241964e1),
    ("corpus/fig5b+output", 2056, 0x800a6823ff16b124),
    ("corpus/fig6", 185, 0x37c5a1872530bb20),
    ("corpus/fig6+output", 1220, 0xc9f45da3fea9e416),
    ("corpus/fig7", 185, 0x1215845858240c79),
    ("corpus/fig7+output", 777, 0xca1dfc35431bf899),
    ("corpus/fig8", 186, 0x2c04082b2d901cdb),
    ("corpus/fig8+output", 2651, 0x22ef07b99d346676),
    ("corpus/fig9", 186, 0x063a56ff6185b8b0),
    ("corpus/fig9+output", 1369, 0x54969c500892c89f),
    ("corpus/finding-01", 198, 0x6184af1cf5ddf62e),
    ("corpus/finding-01+output", 499, 0xe5491c0d46a34549),
    ("corpus/finding-02", 198, 0xe88c75213a5859b5),
    ("corpus/finding-02+output", 461, 0xdfdbafb2d7d5ca2c),
    ("corpus/finding-03", 198, 0xbb6d07859897604a),
    ("corpus/finding-03+output", 555, 0x6cff584b95ffee35),
    ("corpus/finding-04", 198, 0x70dd0199228f4590),
    ("corpus/finding-04+output", 447, 0x614132d695eedc28),
    ("corpus/finding-05", 198, 0xee4a5580cc1aac09),
    ("corpus/finding-05+output", 707, 0x91c11f9aa91f7fd4),
    ("corpus/finding-06", 198, 0x436e9b0e16ea4830),
    ("corpus/finding-06+output", 818, 0x40da4fc5aa944f52),
    ("corpus/finding-07", 198, 0xc07033f27894e1f8),
    ("corpus/finding-07+output", 407, 0x25be06c9e7e310c2),
    ("corpus/finding-08", 198, 0x88fe88864e75fc9a),
    ("corpus/finding-08+output", 735, 0x0878120641dc5c9f),
    ("corpus/finding-09", 198, 0x24a50c8b60939071),
    ("corpus/finding-09+output", 354, 0x796f54379c89e4ba),
    ("corpus/finding-10", 198, 0xf268c510f5c9b580),
    ("corpus/finding-10+output", 415, 0xb055e745c4c19e1d),
    ("corpus/finding-11", 198, 0x9e28b7ce3e34e641),
    ("corpus/finding-11+output", 511, 0xddbcbf85ba825538),
    ("corpus/finding-12", 198, 0xf8fe9f830e38c508),
    ("corpus/finding-12+output", 634, 0x0d3a7611ac55df0c),
    ("corpus/finding-13", 198, 0x0bc439cab3b9a788),
    ("corpus/finding-13+output", 483, 0xf929a8f40c9f6f14),
    ("corpus/finding-14", 198, 0xf621f14b40d6022d),
    ("corpus/finding-14+output", 415, 0xa83730655795c12c),
    ("corpus/finding-15", 198, 0xab9aafa1a30aa6c8),
    ("corpus/finding-15+output", 349, 0x36ca8914dc468b13),
    ("corpus/finding-16", 198, 0x9ddd3ac260e18652),
    ("corpus/finding-16+output", 482, 0xab995be27038fc0e),
    ("corpus/finding-17", 198, 0x21a4cc9afff49908),
    ("corpus/finding-17+output", 569, 0x60c678fe2aef3720),
    ("corpus/finding-18", 198, 0x97b8933ded21dccc),
    ("corpus/finding-18+output", 722, 0x3e919cdd5ce3dab9),
    ("corpus/taxonomy-robustness", 220, 0x84f7b1ddd5f65ccd),
    (
        "corpus/taxonomy-robustness+output",
        1229,
        0xfd3435f47836a357,
    ),
    ("perturbed/wafer-a", 1145, 0x7e2b786d13fb4355),
    ("perturbed/wafer-b", 2616, 0xd09654a4a5c0b2da),
    ("perturbed/multicore-a", 3214, 0xe4159437cf0fcf2d),
    ("perturbed/multicore-b", 470, 0xb264cbab8d114bc7),
    ("perturbed/asymmetric-a", 2172, 0xec15a38b1b1c9dca),
    ("perturbed/asymmetric-b", 724, 0x469178c674cf05df),
    ("perturbed/accelerator-a", 1987, 0xa798a3724fa6d440),
    ("perturbed/accelerator-b", 824, 0x76a35ae355518260),
    ("perturbed/dark-silicon-a", 3988, 0x207e42228ee76212),
    ("perturbed/dark-silicon-b", 422, 0x8a2613335918b037),
    ("perturbed/caching-a", 638, 0xb669d70b43af3fe2),
    ("perturbed/caching-b", 746, 0x0ae937ea734789d7),
    ("perturbed/microarch-a", 1053, 0xcc3a8de50bcb9e22),
    ("perturbed/microarch-b", 417, 0x2fb3d0f4beebe032),
    ("perturbed/speculation-a", 1954, 0xdf39f3e751dd7899),
    ("perturbed/speculation-b", 496, 0x75dc6838d016d50c),
    ("perturbed/dvfs-a", 414, 0x00e226131d222d07),
    ("perturbed/dvfs-b", 342, 0xc054b3c1284f724c),
    ("perturbed/gating-a", 491, 0x29a695951855fe72),
    ("perturbed/gating-b", 478, 0xd490bf536f86222e),
    ("perturbed/die-shrink-a", 573, 0xd8bf863081e701ea),
    ("perturbed/die-shrink-b", 573, 0x26fbeb43ff6603ba),
    ("perturbed/case-study-a", 1181, 0x49b59357722c95d1),
    ("perturbed/case-study-b", 727, 0x067ed04a1d002293),
    ("request-id/quote", 467, 0x7a2870a76a411349),
    ("request-id/backslash", 467, 0x0d67b26046942383),
    ("request-id/tab", 467, 0x957cacbfa23df9cb),
    ("request-id/u0001", 471, 0x14b56b55f0fd02fb),
    ("request-id/u001f", 471, 0x64d2796102b9e4db),
    ("request-id/u007f", 466, 0x2cf691af45592c94),
    ("request-id/alpha-check", 468, 0x22ddda71496abb8e),
    ("request-id/all", 503, 0xde05f3901e8b4554),
    ("scenario-id/quote", 779, 0xb392da180d9558d5),
    ("scenario-id/backslash", 783, 0x25f6d10184fd8e41),
    ("scenario-id/tab", 777, 0xcbda40dc721e800f),
    ("scenario-id/non-ascii", 788, 0xe44f8a57c6b9131a),
    ("bad-toml", 145, 0xcc12140c3fa06869),
    ("not-json", 117, 0x4d7db86f4d1f8823),
];
