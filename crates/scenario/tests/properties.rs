//! Property tests for the scenario front end: random valid scenarios
//! parse → canonicalize → serialize → reparse to the same canonical
//! form, and digests are insensitive to key ordering and comment
//! placement in the source file.

use focal_scenario::{fnv64, load_dir, CanonicalScenario, CompiledScenario, StudySpec};
use proptest::prelude::*;

/// One `key = value` line of a scenario table.
#[derive(Debug, Clone)]
struct Line {
    key: &'static str,
    value: String,
}

fn fmt_f64s(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

fn fmt_u32s(values: &[u32]) -> String {
    let parts: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

/// A randomly configured multicore scenario, kept as structured data so
/// the test can render it with any key order or comment placement.
#[derive(Debug, Clone)]
struct Specimen {
    gamma: Option<f64>,
    pollack: Option<f64>,
    bce: Option<Vec<u32>>,
    fs: Option<Vec<f64>>,
    alpha: Option<Vec<f64>>,
}

impl Specimen {
    fn params(&self) -> Vec<Line> {
        let mut lines = Vec::new();
        if let Some(g) = self.gamma {
            lines.push(Line {
                key: "gamma",
                value: g.to_string(),
            });
        }
        if let Some(p) = self.pollack {
            lines.push(Line {
                key: "pollack_exponent",
                value: p.to_string(),
            });
        }
        lines
    }

    fn sweep(&self) -> Vec<Line> {
        let mut lines = Vec::new();
        if let Some(bce) = &self.bce {
            lines.push(Line {
                key: "bce",
                value: fmt_u32s(bce),
            });
        }
        if let Some(fs) = &self.fs {
            lines.push(Line {
                key: "parallel_fraction",
                value: fmt_f64s(fs),
            });
        }
        lines
    }

    fn assumptions(&self) -> Vec<Line> {
        match &self.alpha {
            Some(alpha) => vec![Line {
                key: "alpha",
                value: fmt_f64s(alpha),
            }],
            None => Vec::new(),
        }
    }

    /// Renders the specimen, shuffling lines within each table and
    /// sprinkling comments, both driven by `seed` (seed 0 is the
    /// untouched rendering).
    fn render(&self, seed: u64) -> String {
        let mut rng = seed;
        let mut step = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut out = String::from("# specimen scenario\n[scenario]\n");
        let mut header = vec![
            Line {
                key: "id",
                value: "\"specimen\"".to_string(),
            },
            Line {
                key: "kind",
                value: "\"figure\"".to_string(),
            },
            Line {
                key: "study",
                value: "\"multicore\"".to_string(),
            },
        ];
        let tables: [(&str, Vec<Line>); 3] = [
            ("params", self.params()),
            ("sweep", self.sweep()),
            ("assumptions", self.assumptions()),
        ];
        let mut render_lines = |out: &mut String, lines: &mut Vec<Line>| {
            // Fisher–Yates driven by the specimen seed.
            if seed != 0 {
                for i in (1..lines.len()).rev() {
                    let j = (step() as usize) % (i + 1);
                    lines.swap(i, j);
                }
            }
            for line in lines.iter() {
                if seed != 0 && step() % 3 == 0 {
                    out.push_str("# interleaved comment\n");
                }
                out.push_str(&format!("{} = {}", line.key, line.value));
                if seed != 0 && step() % 3 == 1 {
                    out.push_str("  # trailing comment");
                }
                out.push('\n');
            }
        };
        render_lines(&mut out, &mut header);
        for (name, mut lines) in tables {
            if !lines.is_empty() {
                out.push_str(&format!("[{name}]\n"));
                render_lines(&mut out, &mut lines);
            }
        }
        out
    }
}

/// Re-renders a canonicalized multicore scenario as DSL source, spelling
/// every resolved value explicitly.
fn serialize_canonical(c: &CanonicalScenario) -> String {
    match &c.spec {
        StudySpec::Multicore {
            study,
            bces,
            fs,
            alphas,
        } => {
            let fs: Vec<f64> = fs.iter().map(|f| f.parallel()).collect();
            let alphas: Vec<f64> = alphas.iter().map(|a| a.get()).collect();
            format!(
                concat!(
                    "[scenario]\nid = {:?}\nkind = \"figure\"\nstudy = \"multicore\"\n",
                    "[params]\ngamma = {}\npollack_exponent = {}\n",
                    "[sweep]\nbce = {}\nparallel_fraction = {}\n",
                    "[assumptions]\nalpha = {}\n",
                ),
                c.id,
                study.gamma.get(),
                study.pollack.exponent(),
                fmt_u32s(bces),
                fmt_f64s(&fs),
                fmt_f64s(&alphas),
            )
        }
        other => panic!("specimen is always multicore, got {other:?}"),
    }
}

/// `Option`-of combinator (the vendored proptest shim has no
/// `proptest::option` module).
fn opt<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(present, value)| present.then_some(value))
}

fn specimen_strategy() -> impl Strategy<Value = Specimen> {
    (
        opt(0.05f64..0.9),
        opt(0.3f64..0.9),
        opt(proptest::collection::vec(1u32..64, 1..6)),
        opt(proptest::collection::vec(0.1f64..0.99, 1..5)),
        opt(proptest::collection::vec(0.05f64..0.95, 1..4)),
    )
        .prop_map(|(gamma, pollack, bce, fs, alpha)| Specimen {
            gamma,
            pollack,
            bce,
            fs,
            alpha,
        })
}

/// `digest()` streams the canonical text through FNV-64 without
/// building it; it must equal the digest of the built text.
fn assert_digest_is_of_the_text(c: &CanonicalScenario) {
    assert_eq!(
        c.digest(),
        fnv64(c.canonical_text().as_bytes()),
        "{}",
        c.canonical_text()
    );
}

#[test]
fn shipped_scenarios_digest_their_canonical_text() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/scenarios");
    let mut checked = 0;
    for dir in [root.clone(), root.join("examples")] {
        for scenario in load_dir(&dir).expect("shipped scenarios compile") {
            assert_digest_is_of_the_text(scenario.canonical());
            checked += 1;
        }
    }
    assert!(
        checked >= 29,
        "expected the shipped corpus, found {checked}"
    );
}

proptest! {
    /// The streamed digest equals the digest of the canonical text for
    /// every generated multicore and caching scenario.
    #[test]
    fn streamed_digest_is_the_digest_of_the_canonical_text(
        specimen in specimen_strategy(),
        seed in 0u64..=u64::MAX,
        mib in proptest::collection::vec(1u32..64, 1..5),
    ) {
        let multicore = CompiledScenario::compile(&specimen.render(seed), "specimen.toml")
            .expect("random valid specimen must compile");
        assert_digest_is_of_the_text(multicore.canonical());
        let sizes: Vec<f64> = mib.iter().map(|&v| f64::from(v) * 1024.0).collect();
        let caching = CompiledScenario::compile(
            &format!(
                "[scenario]\nid = \"c\"\nkind = \"figure\"\nstudy = \"caching\"\n\
                 [sweep]\nllc_kib = {}\n",
                fmt_f64s(&sizes)
            ),
            "kib.toml",
        )
        .expect("KiB sweep must compile");
        assert_digest_is_of_the_text(caching.canonical());
    }

    /// parse → canonicalize → serialize → reparse is a fixed point: the
    /// reparsed scenario has the same canonical form and digest.
    #[test]
    fn random_scenarios_roundtrip(specimen in specimen_strategy()) {
        let first = CompiledScenario::compile(&specimen.render(0), "specimen.toml")
            .expect("random valid specimen must compile");
        let serialized = serialize_canonical(first.canonical());
        let second = CompiledScenario::compile(&serialized, "reserialized.toml")
            .expect("serialized canonical form must compile");
        prop_assert_eq!(first.canonical(), second.canonical());
        prop_assert_eq!(first.canonical().digest(), second.canonical().digest());
    }

    /// Digests do not depend on key order or comment placement in the
    /// source file.
    #[test]
    fn digests_ignore_key_order_and_comments(
        specimen in specimen_strategy(),
        seed in 1u64..=u64::MAX,
    ) {
        let plain = CompiledScenario::compile(&specimen.render(0), "plain.toml")
            .expect("plain rendering must compile");
        let shuffled = CompiledScenario::compile(&specimen.render(seed), "shuffled.toml")
            .expect("shuffled rendering must compile");
        prop_assert_eq!(plain.canonical(), shuffled.canonical());
        prop_assert_eq!(plain.canonical().digest(), shuffled.canonical().digest());
        prop_assert_eq!(
            plain.canonical().canonical_text(),
            shuffled.canonical().canonical_text()
        );
    }

    /// KiB cache sizes canonicalize to the same scenario as their MiB
    /// spellings (unit normalization is exact for power-of-two sizes).
    #[test]
    fn kib_and_mib_cache_sweeps_canonicalize_identically(
        mib in proptest::collection::vec(1u32..64, 1..5),
    ) {
        let mib_values: Vec<f64> = mib.iter().map(|&v| f64::from(v)).collect();
        let kib_values: Vec<f64> = mib.iter().map(|&v| f64::from(v) * 1024.0).collect();
        let header = "[scenario]\nid = \"c\"\nkind = \"figure\"\nstudy = \"caching\"\n";
        let as_mib = CompiledScenario::compile(
            &format!("{header}[sweep]\nllc_mib = {}\n", fmt_f64s(&mib_values)),
            "mib.toml",
        )
        .expect("MiB sweep must compile");
        let as_kib = CompiledScenario::compile(
            &format!("{header}[sweep]\nllc_kib = {}\n", fmt_f64s(&kib_values)),
            "kib.toml",
        )
        .expect("KiB sweep must compile");
        prop_assert_eq!(as_mib.canonical(), as_kib.canonical());
        prop_assert_eq!(as_mib.canonical().digest(), as_kib.canonical().digest());
    }
}
