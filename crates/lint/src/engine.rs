//! Workspace discovery and rule orchestration.

use crate::diagnostics::Diagnostic;
use crate::manifest::Manifest;
use crate::rules;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;
use std::path::{Path, PathBuf};

/// Configuration for one `focal-lint check` run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Workspace root (the directory containing the root `Cargo.toml`).
    pub root: PathBuf,
    /// Path to the constants manifest, relative to `root`.
    pub manifest: PathBuf,
}

impl CheckConfig {
    /// Default configuration rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> CheckConfig {
        CheckConfig {
            root: root.into(),
            manifest: PathBuf::from("data/constants.toml"),
        }
    }
}

/// Directories never scanned: build output, the vendored dependency
/// shims (third-party stand-ins, not FOCAL model code), VCS innards and
/// the lint ui-test fixtures (deliberate violations with their own
/// harness in `crates/lint/tests/ui.rs`).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "node_modules", "fixtures"];

/// Whether `dir` is the root of a separate cargo workspace (its
/// `Cargo.toml` declares `[workspace]`), such as `perfbench/`. Its
/// sources are not members of the linted workspace, so they are not
/// scanned.
fn is_nested_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref())
                || name.starts_with('.')
                || is_nested_workspace(&path)
            {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Discovers, lexes and indexes every workspace `.rs` file.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths).map_err(|e| format!("walking {root:?}: {e}"))?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path:?}: {e}"))?;
        files.push(SourceFile::parse(rel, &text));
    }
    Ok(files)
}

/// Runs every rule (plus allow-directive validation) over the
/// workspace and returns diagnostics sorted by `file:line:col`.
pub fn check_workspace(config: &CheckConfig) -> Result<Vec<Diagnostic>, String> {
    let manifest_path = config.root.join(&config.manifest);
    let manifest_text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("reading {manifest_path:?}: {e}"))?;
    let manifest = Manifest::parse(&manifest_text)
        .map_err(|e| format!("{}: {e}", config.manifest.display()))?;
    let files = load_workspace(&config.root)?;
    Ok(run_rules(&files, &manifest))
}

/// Pure core of [`check_workspace`], separated for fixture-based tests.
pub fn run_rules(files: &[SourceFile], manifest: &Manifest) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    for file in files {
        // Malformed / unjustified allow directives are findings anywhere.
        diagnostics.extend(file.allows.problem_diagnostics(&file.path));
        // float-eq: all non-test code.
        diagnostics.extend(rules::float_eq::check(file));
        if rules::is_model_src(&file.path) {
            diagnostics.extend(rules::panic_free::check(file));
            diagnostics.extend(rules::units::check(file));
        }
        if rules::is_determinism_src(&file.path) {
            diagnostics.extend(rules::nondet_iteration::check(file));
            diagnostics.extend(rules::rng_hygiene::check(file));
        }
        if rules::is_confinement_src(&file.path) {
            diagnostics.extend(rules::confinement::check(file));
        }
    }
    diagnostics.extend(rules::constants::check(files, manifest));
    // Cross-file rules over the symbol table / call graph.
    let table = SymbolTable::build(files);
    diagnostics.extend(rules::reduction_order::check(files, &table));
    diagnostics.extend(rules::panic_free::check_transitive(files, &table));
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule.name()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule.name(),
        ))
    });
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Rule;

    fn manifest() -> Manifest {
        Manifest::parse(
            r#"
[[constant]]
name = "imec-scope2-node-growth"
value = 0.252
units = "fraction per node transition"
section = "§3.1"
literals = ["0.252", "1.252"]
sources = ["crates/wafer/src/fab.rs"]
"#,
        )
        .unwrap()
    }

    #[test]
    fn nested_workspaces_are_not_scanned() {
        let root = std::env::temp_dir().join(format!("focal-lint-nested-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
        write("crates/core/Cargo.toml", "[package]\nname = \"core\"\n");
        write("crates/core/src/lib.rs", "pub fn f() {}\n");
        write(
            "bench/Cargo.toml",
            "[package]\nname = \"bench\"\n\n[workspace]\n",
        );
        write("bench/src/main.rs", "fn main() {}\n");
        let files = load_workspace(&root).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        let paths: Vec<&str> = files.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, ["crates/core/src/lib.rs"]);
    }

    /// One seeded violation of each rule, checked end-to-end through the
    /// engine (acceptance criterion: each rule detects its violation).
    #[test]
    fn seeded_violations_of_every_rule_are_detected() {
        let files = vec![
            SourceFile::parse(
                "crates/core/src/seeded.rs",
                "pub fn chip_area(d: f64) -> f64 {\n\
                 \x20   let x = lookup().unwrap();\n\
                 \x20   if d == 0.0 { return x; }\n\
                 \x20   d * 1.252\n\
                 }\n",
            ),
            SourceFile::parse("crates/wafer/src/fab.rs", "pub const G: f64 = 0.252;\n"),
        ];
        let diags = run_rules(&files, &manifest());
        let rules_hit: std::collections::BTreeSet<&str> =
            diags.iter().map(|d| d.rule.name()).collect();
        assert!(rules_hit.contains("float-eq"), "{diags:?}");
        assert!(rules_hit.contains("panic-freedom"), "{diags:?}");
        assert!(rules_hit.contains("constant-provenance"), "{diags:?}");
        assert!(rules_hit.contains("unit-hygiene"), "{diags:?}");
    }

    #[test]
    fn clean_fixture_yields_no_diagnostics() {
        let files = vec![
            SourceFile::parse(
                "crates/core/src/clean.rs",
                "/// The die area in mm².\n\
                 pub fn chip_area(d: f64) -> Result<f64> {\n\
                 \x20   if (d - 1.0).abs() < 1e-12 { return Ok(1.0); }\n\
                 \x20   Ok(d * d)\n\
                 }\n",
            ),
            SourceFile::parse("crates/wafer/src/fab.rs", "pub const G: f64 = 0.252;\n"),
        ];
        assert!(run_rules(&files, &manifest()).is_empty());
    }

    #[test]
    fn diagnostics_are_sorted_and_rules_scoped() {
        // Non-model crates get float-eq but not panic-freedom.
        let files = vec![
            SourceFile::parse(
                "crates/studies/src/a.rs",
                "pub fn f() { g().unwrap(); let b = x() == 0.0; }\n",
            ),
            SourceFile::parse("crates/wafer/src/fab.rs", "pub const G: f64 = 0.252;\n"),
        ];
        let diags = run_rules(&files, &manifest());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::FloatEq);
    }

    #[test]
    fn unjustified_allow_is_reported() {
        let files = vec![
            SourceFile::parse(
                "crates/core/src/a.rs",
                "// focal-lint: allow(float-eq)\npub fn f(x: f64) -> bool { x == 0.0 }\n",
            ),
            SourceFile::parse("crates/wafer/src/fab.rs", "pub const G: f64 = 0.252;\n"),
        ];
        let diags = run_rules(&files, &manifest());
        // The directive problem AND the (unsuppressed) float-eq finding.
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().any(|d| d.rule == Rule::AllowDirective));
        assert!(diags.iter().any(|d| d.rule == Rule::FloatEq));
    }
}
