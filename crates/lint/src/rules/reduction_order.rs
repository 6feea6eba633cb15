//! `reduction-order`: float reductions only in chunk-order-merged paths.
//!
//! Float addition is not associative, so the merge order of a parallel
//! reduction is part of the result. focal-engine's operations
//! (`try_par_map`, `try_par_chunk_map_into`, …) are blessed: each chunk
//! writes its own slot of one output in chunk order regardless of
//! scheduling, which is what makes the suite byte-identical at any
//! thread count. A *different* parallel operation
//! that sums or folds floats inside its arguments has no such guarantee,
//! so this rule flags float `sum`/`product` (with a float turbofish) and
//! float-literal-seeded `fold`s inside the argument span of any
//! `par_*`-shaped call that is not the engine's.
//!
//! Blessing is resolved through the call graph: a call is blessed when
//! it resolves to a definition inside `crates/engine/src/`, or when it
//! is unresolved (a method on an engine handle resolves to nothing at
//! the token level) but carries one of the engine's API names.

use crate::diagnostics::{Diagnostic, Rule};
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use crate::symbols::{matching_paren, SymbolTable};

/// focal-engine's fan-out operations, whose chunks land in chunk order.
const BLESSED_ENGINE_API: &[&str] = &[
    "try_par_map",
    "try_par_map_isolated",
    "try_par_chunk_map_into",
];

fn is_parallel_name(name: &str) -> bool {
    name.starts_with("par_") || name.starts_with("try_par_") || name.starts_with("parallel")
}

fn float_type(tok: Option<&Token>) -> bool {
    tok.is_some_and(|t| t.kind == TokenKind::Ident && (t.text == "f64" || t.text == "f32"))
}

/// Float reductions (token index + what) inside `tokens[start..end]`.
fn float_reductions(tokens: &[Token], start: usize, end: usize) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for i in start..end {
        let tok = &tokens[i];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let after_dot = i
            .checked_sub(1)
            .is_some_and(|j| tokens[j].kind == TokenKind::Punct && tokens[j].text == ".");
        if !after_dot {
            continue;
        }
        match tok.text.as_str() {
            // `.sum::<f64>()` / `.product::<f32>()`
            "sum" | "product" => {
                let turbofish = tokens.get(i + 1).is_some_and(|t| t.text == "::")
                    && tokens.get(i + 2).is_some_and(|t| t.text == "<")
                    && float_type(tokens.get(i + 3));
                if turbofish {
                    out.push((i, format!(".{}::<float>", tok.text)));
                }
            }
            // `.fold(0.0, …)`
            "fold" => {
                let seeded_with_float = tokens
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokenKind::Punct && t.text == "(")
                    && tokens
                        .get(i + 2)
                        .is_some_and(|t| t.kind == TokenKind::Float);
                if seeded_with_float {
                    out.push((i, ".fold(<float>, …)".to_string()));
                }
            }
            _ => {}
        }
    }
    out
}

/// Runs the rule over the workspace call graph.
pub fn check(files: &[SourceFile], table: &SymbolTable) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for call in &table.calls {
        if !is_parallel_name(&call.callee) {
            continue;
        }
        let file = &files[call.file];
        if !crate::rules::is_determinism_src(&file.path) || file.in_test_code(call.line) {
            continue;
        }
        let blessed = match table.resolve(call, files) {
            Some(def) => files[table.fns[def].file]
                .path
                .starts_with("crates/engine/src/"),
            None => BLESSED_ENGINE_API.contains(&call.callee.as_str()),
        };
        if blessed {
            continue;
        }
        let tokens = &file.lexed.tokens;
        let Some(close) = matching_paren(tokens, call.tok + 1) else {
            continue;
        };
        for (idx, what) in float_reductions(tokens, call.tok + 2, close) {
            let line = tokens[idx].line;
            if file.allows.covers(Rule::ReductionOrder, line)
                || file.allows.covers(Rule::ReductionOrder, call.line)
            {
                continue;
            }
            out.push(Diagnostic {
                rule: Rule::ReductionOrder,
                file: file.path.clone(),
                line,
                col: tokens[idx].col,
                message: format!(
                    "float reduction `{what}` inside `{}(…)`, which is not a \
                     chunk-order-merged focal-engine operation",
                    call.callee
                ),
                help: "compute per-chunk results with `Engine::try_par_map` or \
                       `try_par_chunk_map_into` (each chunk lands in its own slot, in chunk \
                       order) and reduce them serially afterwards, so float sums are \
                       schedule-independent"
                    .into(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::parse(*p, s))
            .collect();
        let table = SymbolTable::build(&files);
        check(&files, &table)
    }

    #[test]
    fn unblessed_parallel_sum_is_flagged() {
        let d = findings(&[(
            "crates/studies/src/x.rs",
            "fn f(xs: &[f64]) -> f64 { par_each(xs, |c| c.iter().sum::<f64>()) }\nfn par_each(xs: &[f64], g: impl Fn(&[f64]) -> f64) -> f64 { g(xs) }\n",
        )]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("par_each"));
        assert!(d[0].message.contains("sum"));
    }

    #[test]
    fn unblessed_float_fold_is_flagged() {
        let d = findings(&[(
            "crates/studies/src/x.rs",
            "fn f(xs: &[f64]) -> f64 { parallel_apply(|| xs.iter().fold(0.0, |a, b| a + b)) }\nfn parallel_apply(g: impl Fn() -> f64) -> f64 { g() }\n",
        )]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("fold"));
    }

    #[test]
    fn engine_api_names_are_blessed_when_unresolved() {
        // `e.try_par_map(…)` is a method on the engine handle — it cannot
        // resolve at token level, but the name is the blessed API.
        let src = "fn f(e: &Engine, xs: &[Vec<f64>]) -> Vec<f64> { e.try_par_map(0, xs, |c| c.iter().sum::<f64>()).unwrap_or_default() }\n";
        assert!(findings(&[("crates/studies/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn a_float_sum_inside_try_par_chunk_map_into_is_blessed() {
        let src = "fn f(e: &Engine, xs: &[f64]) -> Vec<f64> { e.try_par_chunk_map_into(0, 4, 1, 1, 0.0, |c, out| out.fill(xs.iter().take(c).sum::<f64>())).unwrap_or_default() }\n";
        assert!(findings(&[("crates/studies/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn removed_engine_names_are_no_longer_blessed() {
        let src = "fn f(e: &Engine, xs: &[f64]) -> f64 { e.par_reduce(xs, |c| c.iter().sum::<f64>(), 0.0, |a, b| a + b) }\n";
        let d = findings(&[("crates/studies/src/x.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("par_reduce"));
    }

    #[test]
    fn calls_resolving_into_engine_src_are_blessed() {
        let d = findings(&[
            (
                "crates/engine/src/pool.rs",
                "pub fn par_sweep(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
            ),
            (
                "crates/studies/src/x.rs",
                "fn f(xs: &[f64]) -> f64 { par_sweep(xs.iter().map(|x| x).sum::<f64>()) }\n",
            ),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn integer_reductions_and_serial_sums_pass() {
        let int_sum = "fn f(xs: &[u64]) -> u64 { par_each(xs, |c| c.iter().sum::<u64>()) }\nfn par_each(xs: &[u64], g: impl Fn(&[u64]) -> u64) -> u64 { g(xs) }\n";
        assert!(findings(&[("crates/studies/src/x.rs", int_sum)]).is_empty());
        let serial = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        assert!(findings(&[("crates/studies/src/x.rs", serial)]).is_empty());
    }

    #[test]
    fn out_of_scope_files_and_allows_are_exempt() {
        let src = "fn f(xs: &[f64]) -> f64 { par_each(xs, |c| c.iter().sum::<f64>()) }\nfn par_each(xs: &[f64], g: impl Fn(&[f64]) -> f64) -> f64 { g(xs) }\n";
        assert!(findings(&[("crates/lint/src/x.rs", src)]).is_empty());
        let allowed = "fn f(xs: &[f64]) -> f64 {\n    // focal-lint: allow(reduction-order) -- single-threaded shim, order fixed\n    par_each(xs, |c| c.iter().sum::<f64>())\n}\nfn par_each(xs: &[f64], g: impl Fn(&[f64]) -> f64) -> f64 { g(xs) }\n";
        assert!(findings(&[("crates/studies/src/x.rs", allowed)]).is_empty());
    }
}
