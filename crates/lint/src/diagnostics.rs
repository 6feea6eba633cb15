//! Diagnostic types and the four output formats (`text`, `json`,
//! `github`, `sarif`).

use focal_report::json_escape;
use std::fmt;

/// The lint rule that produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `==`/`!=` on float-typed expressions outside test code.
    FloatEq,
    /// `.unwrap()`, `.expect()`, `panic!` etc. in non-test model code —
    /// directly, or transitively through the workspace call graph.
    PanicFreedom,
    /// Paper constants must match `data/constants.toml`.
    ConstantProvenance,
    /// Quantity-named public functions must carry units.
    UnitHygiene,
    /// `HashMap`/`HashSet` in determinism-scoped code: iteration order
    /// is nondeterministic and poisons digests.
    NondetIteration,
    /// RNGs must be explicitly seeded; chunked parallel code must derive
    /// per-chunk seeds via `chunk_seed`.
    RngHygiene,
    /// Float reductions inside unblessed parallel paths (anything other
    /// than focal-engine's chunk-order-merged operations).
    ReductionOrder,
    /// Concurrency primitives (`Mutex`, atomics, `thread::spawn`, …)
    /// outside `crates/engine`.
    ConcurrencyConfinement,
    /// Malformed, unjustified or stale `// focal-lint: allow(...)`
    /// directives.
    AllowDirective,
}

impl Rule {
    /// Every rule, in stable presentation order (used by `list-rules`,
    /// the SARIF rule table and the round-trip tests).
    pub const ALL: &'static [Rule] = &[
        Rule::FloatEq,
        Rule::PanicFreedom,
        Rule::ConstantProvenance,
        Rule::UnitHygiene,
        Rule::NondetIteration,
        Rule::RngHygiene,
        Rule::ReductionOrder,
        Rule::ConcurrencyConfinement,
        Rule::AllowDirective,
    ];

    /// The rule's stable kebab-case name (used in allow directives).
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatEq => "float-eq",
            Rule::PanicFreedom => "panic-freedom",
            Rule::ConstantProvenance => "constant-provenance",
            Rule::UnitHygiene => "unit-hygiene",
            Rule::NondetIteration => "nondet-iteration",
            Rule::RngHygiene => "rng-hygiene",
            Rule::ReductionOrder => "reduction-order",
            Rule::ConcurrencyConfinement => "concurrency-confinement",
            Rule::AllowDirective => "allow-directive",
        }
    }

    /// Parses a rule name as written in an allow directive.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// The rule's enforcement tier. focal-lint has a single tier: every
    /// finding fails the build (`deny`) — a lint that merely warns about
    /// a determinism violation would let it reach the digests.
    pub fn severity(self) -> &'static str {
        "deny"
    }

    /// Human-readable description of where the rule applies.
    pub fn scope(self) -> &'static str {
        match self {
            Rule::FloatEq => "all non-test code",
            Rule::PanicFreedom => "model crates (core, wafer, perf, cache, uarch, scaling, act, engine); call-graph transitive",
            Rule::ConstantProvenance => "whole workspace vs data/constants.toml",
            Rule::UnitHygiene => "model-crate public API",
            Rule::NondetIteration => "determinism crates (model crates + studies, report, bench)",
            Rule::RngHygiene => "determinism crates (model crates + studies, report, bench)",
            Rule::ReductionOrder => "determinism crates (model crates + studies, report, bench)",
            Rule::ConcurrencyConfinement => "all src except crates/engine (and the linter itself)",
            Rule::AllowDirective => "all files",
        }
    }

    /// One-line summary (SARIF `shortDescription`, `list-rules` output).
    pub fn summary(self) -> &'static str {
        match self {
            Rule::FloatEq => "no ==/!= against float literals or NaN outside tests",
            Rule::PanicFreedom => {
                "no unwrap/expect/panic!/literal indexing in model code, nor calls that reach one"
            }
            Rule::ConstantProvenance => {
                "every hard-coded paper constant registered in data/constants.toml, no drift"
            }
            Rule::UnitHygiene => "quantity-named public fns use newtypes or document units",
            Rule::NondetIteration => {
                "no HashMap/HashSet where iteration order can reach results or digests"
            }
            Rule::RngHygiene => {
                "RNGs explicitly seeded; parallel chunks seeded via chunk_seed(seed, chunk)"
            }
            Rule::ReductionOrder => {
                "float sum/fold only inside focal-engine's chunk-order-merged operations"
            }
            Rule::ConcurrencyConfinement => "threads, locks and atomics confined to crates/engine",
            Rule::AllowDirective => {
                "allow directives are well-formed, justified and name live rules"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, pointing at a `file:line:col`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule that fired.
    pub rule: Rule,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it (or justify it).
    pub help: String,
}

/// Output format selector for [`render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable, rustc-style.
    Text,
    /// A JSON array of diagnostic objects.
    Json,
    /// GitHub Actions workflow annotations (`::error file=…`).
    Github,
    /// SARIF 2.1.0 (one run, one result per diagnostic).
    Sarif,
}

impl Format {
    /// Parses a `--format` argument.
    pub fn from_arg(arg: &str) -> Option<Format> {
        match arg {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "github" => Some(Format::Github),
            "sarif" => Some(Format::Sarif),
            _ => None,
        }
    }
}

/// Renders the SARIF 2.1.0 report: one `run` with the full rule table in
/// the tool descriptor and one `result` per diagnostic, so uploads to
/// code-scanning UIs carry rule metadata even on clean runs.
fn render_sarif(diagnostics: &[Diagnostic]) -> String {
    let rules: Vec<String> = Rule::ALL
        .iter()
        .map(|r| {
            format!(
                "          {{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\
                 \"defaultConfiguration\":{{\"level\":\"error\"}}}}",
                r.name(),
                json_escape(r.summary())
            )
        })
        .collect();
    let rule_index = |rule: Rule| {
        Rule::ALL
            .iter()
            .position(|r| *r == rule)
            .unwrap_or_default()
    };
    let results: Vec<String> = diagnostics
        .iter()
        .map(|d| {
            format!(
                "        {{\"ruleId\":\"{}\",\"ruleIndex\":{},\"level\":\"error\",\
                 \"message\":{{\"text\":\"{}\"}},\"locations\":[{{\"physicalLocation\":\
                 {{\"artifactLocation\":{{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{},\
                 \"startColumn\":{}}}}}}}]}}",
                d.rule,
                rule_index(d.rule),
                json_escape(&format!("{} ({})", d.message, d.help)),
                json_escape(&d.file),
                d.line,
                d.col
            )
        })
        .collect();
    format!(
        "{{\n  \"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\":\"2.1.0\",\n  \"runs\":[{{\n    \"tool\":{{\"driver\":{{\
         \"name\":\"focal-lint\",\"informationUri\":\"https://github.com/focal/focal\",\
         \"rules\":[\n{}\n        ]}}}},\n    \"results\":[\n{}\n    ]\n  }}]\n}}\n",
        rules.join(",\n"),
        results.join(",\n")
    )
}

/// Renders diagnostics in the requested format, returning the full
/// report as a string (so it is testable and the CLI just prints it).
pub fn render(diagnostics: &[Diagnostic], format: Format) -> String {
    match format {
        Format::Text => {
            let mut out = String::new();
            for d in diagnostics {
                out.push_str(&format!(
                    "error[{}]: {}\n  --> {}:{}:{}\n  = help: {}\n\n",
                    d.rule, d.message, d.file, d.line, d.col, d.help
                ));
            }
            out.push_str(&format!(
                "focal-lint: {} finding{}\n",
                diagnostics.len(),
                if diagnostics.len() == 1 { "" } else { "s" }
            ));
            out
        }
        Format::Json => {
            let items: Vec<String> = diagnostics
                .iter()
                .map(|d| {
                    format!(
                        "  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"help\":\"{}\"}}",
                        d.rule,
                        json_escape(&d.file),
                        d.line,
                        d.col,
                        json_escape(&d.message),
                        json_escape(&d.help)
                    )
                })
                .collect();
            format!("[\n{}\n]\n", items.join(",\n"))
        }
        Format::Github => {
            let mut out = String::new();
            for d in diagnostics {
                // %0A is the escaped newline in workflow commands.
                out.push_str(&format!(
                    "::error file={},line={},col={},title=focal-lint[{}]::{} ({})\n",
                    d.file, d.line, d.col, d.rule, d.message, d.help
                ));
            }
            out
        }
        Format::Sarif => render_sarif(diagnostics),
    }
}

/// Renders the `list-rules` table: one row per rule with its id,
/// severity and scope, aligned for terminals.
pub fn render_rule_list() -> String {
    let id_w = Rule::ALL
        .iter()
        .map(|r| r.name().len())
        .max()
        .unwrap_or_default();
    let mut out = format!("{:<id_w$}  {:<8}  {}\n", "rule", "severity", "scope");
    for rule in Rule::ALL {
        out.push_str(&format!(
            "{:<id_w$}  {:<8}  {}\n",
            rule.name(),
            rule.severity(),
            rule.scope()
        ));
        out.push_str(&format!("{:<id_w$}  {:<8}  = {}\n", "", "", rule.summary()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![Diagnostic {
            rule: Rule::FloatEq,
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            message: "float `==` comparison".into(),
            help: "use a tolerance".into(),
        }]
    }

    #[test]
    fn text_format_is_rustc_style() {
        let out = render(&sample(), Format::Text);
        assert!(out.contains("error[float-eq]: float `==` comparison"));
        assert!(out.contains("--> crates/x/src/lib.rs:3:9"));
        assert!(out.contains("focal-lint: 1 finding"));
    }

    #[test]
    fn json_format_escapes_and_lists() {
        let mut diags = sample();
        diags[0].message = "has \"quotes\" and\nnewline".into();
        let out = render(&diags, Format::Json);
        assert!(out.contains("\\\"quotes\\\""));
        assert!(out.contains("\\n"));
        assert!(out.starts_with("[\n"));
        assert!(out.trim_end().ends_with(']'));
    }

    #[test]
    fn github_format_is_workflow_command() {
        let out = render(&sample(), Format::Github);
        assert!(out.starts_with("::error file=crates/x/src/lib.rs,line=3,col=9"));
        assert!(out.contains("title=focal-lint[float-eq]"));
    }

    #[test]
    fn sarif_format_carries_rules_and_results() {
        let out = render(&sample(), Format::Sarif);
        assert!(out.contains("\"version\":\"2.1.0\""));
        assert!(out.contains("\"name\":\"focal-lint\""));
        // The full rule table ships even for a single finding…
        for rule in Rule::ALL {
            assert!(
                out.contains(&format!("\"id\":\"{}\"", rule.name())),
                "{rule}"
            );
        }
        // …and the result points at the right file/line/col.
        assert!(out.contains("\"ruleId\":\"float-eq\""));
        assert!(out.contains("\"uri\":\"crates/x/src/lib.rs\""));
        assert!(out.contains("\"startLine\":3"));
        assert!(out.contains("\"startColumn\":9"));
    }

    #[test]
    fn sarif_of_no_findings_is_still_a_report() {
        let out = render(&[], Format::Sarif);
        assert!(out.contains("\"results\":["));
        assert!(out.contains("\"rules\":["));
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(*rule));
        }
        assert_eq!(Rule::from_name("bogus"), None);
    }

    #[test]
    fn rule_list_names_every_rule_and_severity() {
        let out = render_rule_list();
        for rule in Rule::ALL {
            assert!(out.contains(rule.name()), "{rule} missing from list");
        }
        assert!(out.contains("deny"));
        assert!(out.contains("scope"));
    }

    #[test]
    fn format_from_arg_knows_sarif() {
        assert_eq!(Format::from_arg("sarif"), Some(Format::Sarif));
        assert_eq!(Format::from_arg("text"), Some(Format::Text));
        assert_eq!(Format::from_arg("yaml"), None);
    }
}
