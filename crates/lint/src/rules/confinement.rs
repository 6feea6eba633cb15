//! `concurrency-confinement`: threads, locks and atomics live only in
//! `crates/engine`.
//!
//! The determinism argument for FOCAL is compositional: model crates are
//! pure functions, and the *only* concurrency in the workspace is the
//! engine's chunked work-stealing pool, which is proven
//! schedule-independent once (chunk-order merge + per-chunk seeding).
//! Any `thread::spawn`, `Mutex`, or atomic elsewhere reopens the whole
//! question. This rule flags concurrency primitives in every `src/` tree
//! except the engine's; intentional exceptions take a justified allow.

use crate::diagnostics::{Diagnostic, Rule};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Synchronization types whose bare mention is a finding.
const SYNC_TYPES: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "Barrier", "Once", "OnceLock", "LazyLock", "mpsc",
];

/// Runs the rule over one file (callers pre-filter to confinement
/// scope: all `src/` except `crates/engine` and the linter).
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let tokens = &file.lexed.tokens;
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let is_atomic_type = tok.text.starts_with("Atomic") && tok.text.len() > "Atomic".len();
        let primitive = if SYNC_TYPES.contains(&tok.text.as_str()) || is_atomic_type {
            Some(format!("`{}`", tok.text))
        } else if tok.text == "spawn" || tok.text == "scope" {
            // Only `thread::spawn(…)` / `thread::scope(…)`: plenty of
            // innocent `spawn`/`scope` names exist otherwise.
            let called = tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(");
            let thread_qualified = i >= 2
                && tokens[i - 1].text == "::"
                && tokens[i - 2].kind == TokenKind::Ident
                && tokens[i - 2].text == "thread";
            (called && thread_qualified).then(|| format!("`thread::{}(…)`", tok.text))
        } else {
            None
        };
        let Some(primitive) = primitive else { continue };
        if file.in_test_code(tok.line) || file.allows.covers(Rule::ConcurrencyConfinement, tok.line)
        {
            continue;
        }
        out.push(Diagnostic {
            rule: Rule::ConcurrencyConfinement,
            file: file.path.clone(),
            line: tok.line,
            col: tok.col,
            message: format!(
                "{primitive} outside `crates/engine`: concurrency is confined to the engine"
            ),
            help: "run parallel work through `focal_engine::Engine` (try_par_map and \
                   try_par_chunk_map_into keep results chunk-order deterministic); if this \
                   primitive is genuinely needed, justify with \
                   `// focal-lint: allow(concurrency-confinement) -- <reason>`"
                .into(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Diagnostic> {
        check(&SourceFile::parse("crates/core/src/x.rs", src))
    }

    #[test]
    fn flags_locks_and_atomics() {
        assert_eq!(findings("fn f(m: &Mutex<u32>) {}\n").len(), 1);
        assert_eq!(findings("use std::sync::RwLock;\n").len(), 1);
        assert_eq!(
            findings("static N: AtomicU64 = AtomicU64::new(0);\n").len(),
            2
        );
        assert_eq!(findings("use std::sync::mpsc;\n").len(), 1);
        assert_eq!(
            findings("static INIT: OnceLock<u32> = OnceLock::new();\n").len(),
            2
        );
    }

    #[test]
    fn flags_thread_spawn_and_scope_only_when_qualified() {
        assert_eq!(findings("fn f() { thread::spawn(|| work()); }\n").len(), 1);
        assert_eq!(
            findings("fn f() { std::thread::scope(|s| work(s)); }\n").len(),
            1
        );
        // Innocent names containing spawn/scope are not findings.
        assert!(findings("fn f(s: &Spawner) { s.spawn(); }\n").is_empty());
        assert!(findings("fn f() { let scope = 3; g(scope); }\n").is_empty());
    }

    #[test]
    fn plain_ident_atomic_is_not_flagged() {
        // The bare word `Atomic` (e.g. in a doc-ish const name) is not a
        // std atomic type.
        assert!(findings("struct Atomic;\n").is_empty());
        assert!(findings("fn f(x: Atomicish) {}\n").len() == 1); // AtomicXyz shape is
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        assert!(findings("fn f() -> &'static str { \"Mutex\" }\n").is_empty());
        assert!(findings("// a Mutex would serialize this\nfn f() {}\n").is_empty());
    }

    #[test]
    fn test_code_and_allows_are_exempt() {
        let test_mod = "#[cfg(test)]\nmod t {\n use std::sync::Mutex;\n}\n";
        assert!(findings(test_mod).is_empty());
        let allowed = "// focal-lint: allow(concurrency-confinement) -- lock-free metrics counter, never read by model code\nstatic HITS: AtomicU64 = AtomicU64::new(0);\n";
        assert!(findings(allowed).is_empty());
    }
}
