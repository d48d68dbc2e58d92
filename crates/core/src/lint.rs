//! The lint driver: extraction-failure diagnostics, end to end.
//!
//! Combines the advisory pipeline of [`analysis::pass`] (purity, deadcode,
//! liveness, ddg, taint, loopquery) with the planning half of an
//! extraction run: every loop that fails — or declines — extraction yields
//! a typed, span-anchored diagnostic (`E0xx` hard failures, `W0xx`
//! advisories), and nothing is rewritten. Both halves read one set of
//! effect summaries, built once per program, and one [`FnFacts`] per
//! function: its dataflow index and liveness, built once. This is what the
//! `eqsql lint` subcommand calls.

use std::borrow::Cow;

use algebra::schema::Catalog;
use analysis::dataflow::FnIndex;
use analysis::defuse::DefUseCtx;
use analysis::diag::{dedup_sort, Diagnostic};
use analysis::pass::{FnFacts, PassManager};
use imp::ast::Program;

use crate::extract::{Extractor, ExtractorOptions};

/// Run the full lint pipeline over a program.
///
/// Builds the program's effect summaries once and, per function, one
/// [`FnFacts`]: the standard advisory passes read it, and so does the
/// extraction planner, which plans the function of the desugared program
/// with the same summaries (no rewrite, dead-code elimination or
/// renumbering). Desugaring leaves a normalised program as it is, so the
/// planner builds facts of its own only for a function that desugaring
/// changed (a printing one under [`ExtractorOptions::rewrite_prints`], or
/// any of an input that was never normalised); the passes always read the
/// program as written. Planner diagnostics keep their stage names
/// (`"fir"`, `"sqlgen"`, …); an untagged one is tagged `"extract"`. All
/// findings are then deduplicated and ordered by source position once, so
/// output is deterministic across runs.
pub fn lint_program(
    program: &Program,
    catalog: &Catalog,
    opts: &ExtractorOptions,
) -> Vec<Diagnostic> {
    let du_ctx = DefUseCtx::of_program(program);
    let passes = PassManager::standard();
    let ex = Extractor::with_options(catalog.clone(), opts.clone());
    let work = ex.desugar(program, None);
    let mut diags = Vec::new();
    let mut planned = Vec::new();
    for (f, desugared) in program.functions.iter().zip(&work.functions) {
        let ix = FnIndex::build(f);
        let facts = FnFacts::new(&ix, &du_ctx);
        diags.extend(passes.run(&facts));
        let plan = if matches!(work, Cow::Borrowed(_)) || desugared == f {
            ex.plan_function(&work, &facts)
        } else {
            let ix = FnIndex::build(desugared);
            ex.plan_function(&work, &FnFacts::new(&ix, &du_ctx))
        };
        planned.extend(plan.diagnostics.into_iter().map(|d| {
            if d.pass.is_empty() {
                d.with_pass("extract")
            } else {
                d
            }
        }));
    }
    diags.append(&mut planned);
    dedup_sort(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::schema::{SqlType, TableSchema};
    use analysis::diag::{Code, Severity};

    fn catalog() -> Catalog {
        Catalog::new().with(
            TableSchema::new("emp", &[("id", SqlType::Int), ("salary", SqlType::Int)])
                .with_key(&["id"]),
        )
    }

    #[test]
    fn clean_extraction_yields_no_errors() {
        let p = imp::parse_and_normalize(
            r#"fn total() {
                rows = executeQuery("SELECT * FROM emp");
                s = 0;
                for (e in rows) { s = s + e.salary; }
                return s;
            }"#,
        )
        .unwrap();
        let diags = lint_program(&p, &catalog(), &ExtractorOptions::default());
        assert!(
            diags.iter().all(|d| d.severity() != Severity::Error),
            "{diags:#?}"
        );
    }

    #[test]
    fn break_yields_spanned_e004() {
        let src = r#"fn first() {
                rows = executeQuery("SELECT * FROM emp");
                v = 0;
                for (e in rows) {
                    v = v + e.salary;
                    if (v > 100) break;
                }
                return v;
            }"#;
        let p = imp::parse_and_normalize(src).unwrap();
        let diags = lint_program(&p, &catalog(), &ExtractorOptions::default());
        let hit = diags
            .iter()
            .find(|d| d.code == Code::AbruptLoopExit)
            .expect("E004");
        assert_eq!(hit.function.as_deref(), Some("first"));
        let text = &src[hit.primary.span.start..hit.primary.span.end];
        assert!(
            text.contains("break"),
            "span should cover the break: {text:?}"
        );
    }

    #[test]
    fn lint_is_deterministic() {
        let p = imp::parse_and_normalize(
            r#"fn f() {
                rows = executeQuery("SELECT * FROM emp");
                v = 0;
                prev = 0;
                for (e in rows) { v = v + (e.salary - prev); prev = e.salary; }
                return v + prev;
            }"#,
        )
        .unwrap();
        let a = lint_program(&p, &catalog(), &ExtractorOptions::default());
        let b = lint_program(&p, &catalog(), &ExtractorOptions::default());
        assert_eq!(a, b);
        assert!(!a.is_empty(), "P2 violation expected");
    }
}
