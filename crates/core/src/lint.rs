//! The lint driver: extraction-failure diagnostics, end to end.
//!
//! Combines the advisory pipeline of [`analysis::pass`] (purity, deadcode,
//! liveness, ddg, taint, loopquery) with the extraction pipeline itself,
//! run dry: every loop that fails — or declines — extraction yields a
//! typed, span-anchored diagnostic (`E0xx` hard failures, `W0xx`
//! advisories). This is what the `eqsql lint` subcommand calls.

use algebra::schema::Catalog;
use analysis::diag::Diagnostic;
use analysis::pass::{Pass, PassContext, PassManager};
use imp::ast::Program;

use crate::extract::{Extractor, ExtractorOptions};

/// The extraction pipeline as a named [`Pass`] (`"extract"`).
///
/// Runs [`Extractor::extract_function`] without keeping the rewritten
/// program and reports the per-variable failure diagnostics. Diagnostics
/// produced deeper in the pipeline keep their own stage names (`"fir"`,
/// `"sqlgen"`); only untagged ones pick up `"extract"`.
pub struct ExtractionPass {
    catalog: Catalog,
    opts: ExtractorOptions,
}

impl ExtractionPass {
    /// Build the pass for a schema catalog and extractor options.
    pub fn new(catalog: Catalog, opts: ExtractorOptions) -> ExtractionPass {
        ExtractionPass { catalog, opts }
    }
}

impl Pass for ExtractionPass {
    fn name(&self) -> &'static str {
        "extract"
    }

    fn run(&self, cx: &mut PassContext<'_>) {
        let ex = Extractor::with_options(self.catalog.clone(), self.opts.clone());
        let report = ex.extract_function(cx.program, &cx.function.name);
        for d in report.diagnostics {
            cx.emit(d);
        }
    }
}

/// Run the full lint pipeline over a program.
///
/// The standard advisory passes run first, then the extraction pass;
/// [`PassManager::run_program`] deduplicates the result and orders it by
/// source position, so output is deterministic across runs.
pub fn lint_program(
    program: &Program,
    catalog: &Catalog,
    opts: &ExtractorOptions,
) -> Vec<Diagnostic> {
    let mut pm = PassManager::standard();
    pm.register(Box::new(ExtractionPass::new(catalog.clone(), opts.clone())));
    pm.run_program(program)
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
