//! The differential oracle: run a case once under the interpreter and once
//! through the extractor, and compare.
//!
//! The interpreter run over the original program is ground truth. The
//! extracted program — whose `executeQuery`/`executeScalar` strings are the
//! generated SQL — is re-interpreted against an identical copy of the
//! database, so any disagreement in the returned value, the `print` output,
//! or the error/success status is a genuine semantic divergence in the
//! extraction rules (or in the SQL evaluator they target).

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use dbms::{Connection, Database};
use eqsql_core::{Extractor, ExtractorOptions};
use interp::value::{loose_eq, RtValue};
use interp::Interp;

/// One self-contained differential-testing input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// `CREATE TABLE` statements defining the schema.
    pub ddl: String,
    /// `INSERT` statements populating it (one statement per entry).
    pub data: Vec<String>,
    /// The `.imp` source under test.
    pub program: String,
    /// Function to invoke.
    pub function: String,
    /// Integer arguments for the call.
    pub args: Vec<i64>,
}

impl Case {
    /// A rough size measure the shrinker minimizes: source length plus data
    /// statements. Smaller is better for a human reading the repro.
    pub fn size(&self) -> usize {
        self.program.len() + self.data.iter().map(|d| d.len() + 1).sum::<usize>()
    }
}

/// Why the two executions disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Both runs returned, with different values.
    Result,
    /// Returned values agree but the `print` transcripts differ.
    Output,
    /// Both runs returned, but left different final table contents behind
    /// (write-loop fuzzing: the batched DML statement changed state
    /// differently from the original loop).
    State,
    /// One side returned a value, the other a runtime error.
    Error,
    /// One side panicked.
    Panic,
    /// The lint pipeline broke its contract: it panicked, a rejected
    /// cursor loop carried no `W007` blame diagnostic, or a kept write
    /// loop carried no (or more than one) `E010`/`W010` verdict.
    Lint,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DivergenceKind::Result => "result",
            DivergenceKind::Output => "output",
            DivergenceKind::State => "state",
            DivergenceKind::Error => "error",
            DivergenceKind::Panic => "panic",
            DivergenceKind::Lint => "lint",
        };
        f.write_str(s)
    }
}

/// A concrete disagreement between interpreter and extracted SQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Category of the disagreement.
    pub kind: DivergenceKind,
    /// Human-readable comparison of the two sides.
    pub detail: String,
}

/// Outcome of one oracle run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Both sides agree. `extracted` records whether a rewrite applied at
    /// all — an all-`Agree { extracted: false }` fuzz run exercises nothing.
    Agree { extracted: bool },
    /// The two sides disagree; this is a bug somewhere in the pipeline.
    Diverged(Divergence),
    /// The case could not be set up (bad DDL/data/program). Generator bugs
    /// land here rather than polluting divergence counts.
    Skipped(String),
}

/// How the oracle materializes the case's database.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleOptions {
    /// Back tables with the paged storage engine (B-tree over an in-memory
    /// pager with a small frame budget) instead of `Vec<Row>`, so the
    /// differential run also exercises the volcano executor and buffer
    /// pool eviction.
    pub store: bool,
    /// Extra generated rows appended per table in store mode, with keys
    /// offset far above the case's literal data so unique-key
    /// preconditions (T4.1, T5.2) still hold. Pushes tables past one page.
    pub extra_rows: usize,
    /// Write-loop (foreach-dml) fuzzing: compare the final table contents
    /// of the two runs, and hold the lint pipeline to the E010/W010 blame
    /// contract on kept write loops. Composes with `store`: each side of
    /// the differential runs against a [`Database::fork`] deep snapshot,
    /// so paged writes never alias the other side's pager.
    pub dml: bool,
}

/// Frame budget for store-mode fuzzing: small enough that amplified tables
/// spill and the LRU actually evicts.
const FUZZ_FRAMES: usize = 8;

/// Key offset for amplified rows; generated literal data uses keys `0..9`.
const AMPLIFY_KEY_BASE: usize = 1_000_000;

fn build_db(
    case: &Case,
    opts: &OracleOptions,
) -> Result<(algebra::schema::Catalog, Database), String> {
    let catalog = algebra::ddl::parse_ddl(&case.ddl).map_err(|e| format!("ddl: {e:?}"))?;
    let mut db = if opts.store {
        Database::paged_in_memory(FUZZ_FRAMES)
    } else {
        Database::new()
    };
    for schema in catalog.tables() {
        db.create_table(schema.clone());
    }
    for stmt in &case.data {
        interp::dml::execute_update(&mut db, stmt, &[])
            .map_err(|e| format!("data `{stmt}`: {e}"))?;
    }
    if opts.store && opts.extra_rows > 0 {
        // Deterministic amplification: both sides of the differential run
        // start from forks of this one image, so a fixed seed keeps the
        // whole oracle deterministic.
        let mut rng = dbms::prng::StdRng::seed_from_u64(0x57_0Eu64);
        dbms::gen::extend_catalog(
            &mut db,
            &catalog,
            opts.extra_rows,
            &mut rng,
            dbms::gen::GenProfile::nulls(30).with_key_base(AMPLIFY_KEY_BASE),
        );
    }
    Ok((catalog, db))
}

type RunOut = Result<(Result<RtValue, String>, Vec<String>, Database), String>;

/// Interpret `program.function(args)` against a copy of `db`, trapping
/// panics. Outer `Err` = panic (payload text); inner `Err` = runtime error.
/// The returned [`Database`] is the run's final state (for write-loop
/// differentials).
fn interpret(program: &imp::ast::Program, function: &str, args: &[i64], db: &Database) -> RunOut {
    // Deep copy: paged databases fork their page image so a write loop on
    // one side of the differential can never bleed into the other side
    // (or into the shared baseline) through an aliased pager.
    let db = db.fork();
    let args: Vec<RtValue> = args.iter().map(|i| RtValue::int(*i)).collect();
    let function = function.to_string();
    catch_unwind(AssertUnwindSafe(move || {
        let mut it = Interp::new(program, Connection::new(db));
        let r = it.call(&function, args).map_err(|e| e.to_string());
        let out = it.output.clone();
        (r, out, std::mem::take(&mut it.conn.db))
    }))
    .map_err(|p| panic_text(&p))
}

/// Final table contents, per table, as lexicographically sorted rows —
/// order-insensitive multiset comparison (`Value::sort_cmp` is a total
/// order with NULL first, so two equal multisets sort identically).
fn table_states(
    catalog: &algebra::schema::Catalog,
    db: &Database,
) -> std::collections::BTreeMap<String, Vec<Vec<dbms::Value>>> {
    let mut out = std::collections::BTreeMap::new();
    for schema in catalog.tables() {
        let mut rows: Vec<Vec<dbms::Value>> = db
            .table(&schema.name)
            .map(|t| t.rows_vec())
            .unwrap_or_default();
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.sort_cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out.insert(schema.name.clone(), rows);
    }
    out
}

/// First difference between two final states, as a human-readable line.
fn state_diff(catalog: &algebra::schema::Catalog, a: &Database, b: &Database) -> Option<String> {
    let (sa, sb) = (table_states(catalog, a), table_states(catalog, b));
    for (name, ra) in &sa {
        let rb = &sb[name];
        if ra.len() != rb.len() {
            return Some(format!(
                "table `{name}`: interp left {} row(s), extracted SQL left {}",
                ra.len(),
                rb.len()
            ));
        }
        for (x, y) in ra.iter().zip(rb.iter()) {
            let eq = x.len() == y.len() && x.iter().zip(y.iter()).all(|(u, v)| u.group_eq(v));
            if !eq {
                return Some(format!(
                    "table `{name}`: interp row {x:?} vs extracted row {y:?}"
                ));
            }
        }
    }
    None
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one case end to end with the default (in-memory) backing.
pub fn run_case(case: &Case) -> CaseOutcome {
    run_case_with(case, &OracleOptions::default())
}

/// Run one case end to end and classify the outcome.
///
/// Both extraction and the two interpreter runs execute under
/// `catch_unwind`, so a panicking rule or evaluator is reported as a
/// [`DivergenceKind::Panic`] finding instead of aborting the fuzz loop.
pub fn run_case_with(case: &Case, opts: &OracleOptions) -> CaseOutcome {
    let (catalog, db) = match build_db(case, opts) {
        Ok(x) => x,
        Err(e) => return CaseOutcome::Skipped(e),
    };
    let program = match imp::parse_program(&case.program) {
        Ok(p) => p,
        Err(e) => return CaseOutcome::Skipped(format!("parse: {e:?}")),
    };

    let orig = match interpret(&program, &case.function, &case.args, &db) {
        Ok(x) => x,
        Err(p) => {
            return CaseOutcome::Diverged(Divergence {
                kind: DivergenceKind::Panic,
                detail: format!("interpreter panicked on original program: {p}"),
            })
        }
    };

    let report = {
        let program = &program;
        let function = case.function.clone();
        let catalog = catalog.clone();
        match catch_unwind(AssertUnwindSafe(move || {
            Extractor::with_options(catalog, ExtractorOptions::default())
                .extract_function(program, &function)
        })) {
            Ok(r) => r,
            Err(p) => {
                return CaseOutcome::Diverged(Divergence {
                    kind: DivergenceKind::Panic,
                    detail: format!("extractor panicked: {}", panic_text(&p)),
                })
            }
        }
    };
    // Lint-pipeline oracle: the full analysis suite must never panic on a
    // generated program, and every cursor loop extraction rejected must be
    // blamed with a `W007` diagnostic (lint coverage contract, not just
    // extraction correctness).
    if let Some(d) = check_lint(&program, &catalog, case, &report, opts) {
        return CaseOutcome::Diverged(d);
    }
    if !report.changed() {
        return CaseOutcome::Agree { extracted: false };
    }

    let rewritten = match interpret(&report.program, &case.function, &case.args, &db) {
        Ok(x) => x,
        Err(p) => {
            return CaseOutcome::Diverged(Divergence {
                kind: DivergenceKind::Panic,
                detail: format!("evaluation of extracted SQL panicked: {p}"),
            })
        }
    };

    match (&orig.0, &rewritten.0) {
        (Ok(a), Ok(b)) => {
            if !loose_eq(a, b) {
                CaseOutcome::Diverged(Divergence {
                    kind: DivergenceKind::Result,
                    detail: format!("interp returned {a}, extracted SQL returned {b}"),
                })
            } else if orig.1 != rewritten.1 {
                CaseOutcome::Diverged(Divergence {
                    kind: DivergenceKind::Output,
                    detail: format!(
                        "print output differs: interp {:?}, extracted {:?}",
                        orig.1, rewritten.1
                    ),
                })
            } else if opts.dml {
                match state_diff(&catalog, &orig.2, &rewritten.2) {
                    Some(d) => CaseOutcome::Diverged(Divergence {
                        kind: DivergenceKind::State,
                        detail: d,
                    }),
                    None => CaseOutcome::Agree { extracted: true },
                }
            } else {
                CaseOutcome::Agree { extracted: true }
            }
        }
        // Matching failure is agreement: NULL-on-error style semantics mean
        // both sides may legitimately reject the same input.
        (Err(_), Err(_)) => CaseOutcome::Agree { extracted: true },
        (Ok(a), Err(e)) => CaseOutcome::Diverged(Divergence {
            kind: DivergenceKind::Error,
            detail: format!("interp returned {a}, extracted SQL errored: {e}"),
        }),
        (Err(e), Ok(b)) => CaseOutcome::Diverged(Divergence {
            kind: DivergenceKind::Error,
            detail: format!("interp errored ({e}), extracted SQL returned {b}"),
        }),
    }
}

/// Outermost cursor (`for`) loops in `f` whose body satisfies `keep`. With
/// every body kept these are exactly the candidates the extractor
/// considers, and hence the loops owed a `W007` blame diagnostic when they
/// stay imperative.
fn outermost_cursor_loops(
    f: &imp::ast::Function,
    keep: &impl Fn(&imp::ast::Block) -> bool,
) -> usize {
    use imp::ast::{Block, StmtKind};
    fn walk(b: &Block, keep: &impl Fn(&Block) -> bool, n: &mut usize) {
        for s in &b.stmts {
            match &s.kind {
                StmtKind::ForEach { body, .. } => *n += usize::from(keep(body)),
                StmtKind::While { .. } => {}
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, keep, n);
                    walk(else_branch, keep, n);
                }
                _ => {}
            }
        }
    }
    let mut n = 0;
    walk(&f.body, keep, &mut n);
    n
}

/// Run the lint pipeline over the case's program and check its contract:
/// no panics, and at least as many blame diagnostics (`W007`, or
/// `E010`/`W010` for write loops) for the target function as it has
/// non-rewritten outermost cursor loops. In `--dml` mode the contract is
/// exact: every kept write loop carries exactly one `E010`/`W010`.
fn check_lint(
    program: &imp::ast::Program,
    catalog: &algebra::schema::Catalog,
    case: &Case,
    report: &eqsql_core::ExtractionReport,
    opts: &OracleOptions,
) -> Option<Divergence> {
    let diags = {
        let program = program.clone();
        let catalog = catalog.clone();
        match catch_unwind(AssertUnwindSafe(move || {
            eqsql_core::lint_program(&program, &catalog, &ExtractorOptions::default())
        })) {
            Ok(d) => d,
            Err(p) => {
                return Some(Divergence {
                    kind: DivergenceKind::Lint,
                    detail: format!("lint pipeline panicked: {}", panic_text(&p)),
                })
            }
        }
    };
    use analysis::diag::Code;
    let f = program.function(&case.function)?;
    let kept = outermost_cursor_loops(f, &|_| true).saturating_sub(report.loops_rewritten);
    let ours =
        |d: &&analysis::diag::Diagnostic| d.function.as_deref() == Some(case.function.as_str());
    let blamed = diags
        .iter()
        .filter(ours)
        .filter(|d| {
            matches!(
                d.code,
                Code::LoopNotExtracted | Code::DmlLoopNotBatchable | Code::DmlLoopNotExtracted
            )
        })
        .count();
    if blamed < kept {
        return Some(Divergence {
            kind: DivergenceKind::Lint,
            detail: format!(
                "{kept} cursor loop(s) stayed imperative but only {blamed} carry a \
                 W007/E010/W010 blame diagnostic"
            ),
        });
    }
    if opts.dml {
        // Exactness: the generator emits no nested loops, so every kept
        // write loop must carry exactly one E010/W010 verdict — duplicates
        // or W007 fallbacks on write loops are contract violations.
        // Outermost loops whose body calls `executeUpdate` are each owed
        // one `E010`/`W010` verdict by the foreach-dml pipeline.
        let calls_update = |body: &imp::ast::Block| {
            let mut found = false;
            body.walk_exprs(&mut |e| {
                found |= matches!(e, imp::ast::Expr::Call { name, .. } if name == "executeUpdate");
            });
            found
        };
        let kept_write =
            outermost_cursor_loops(f, &calls_update).saturating_sub(report.loops_rewritten);
        let dml_blamed = diags
            .iter()
            .filter(ours)
            .filter(|d| {
                matches!(
                    d.code,
                    Code::DmlLoopNotBatchable | Code::DmlLoopNotExtracted
                )
            })
            .count();
        if dml_blamed != kept_write {
            return Some(Divergence {
                kind: DivergenceKind::Lint,
                detail: format!(
                    "{kept_write} write loop(s) stayed imperative but {dml_blamed} E010/W010 \
                     verdict(s) were reported (expected exactly one each)"
                ),
            });
        }
    }
    None
}

/// Serialize a minimized case to `dir` as `<stem>.imp` (program with
/// `// repro:` / `// args:` header comments), `<stem>.schema.sql` (DDL) and
/// `<stem>.data.sql` (INSERTs).
pub fn write_repro(dir: &Path, stem: &str, case: &Case, detail: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut imp_src = String::new();
    for line in detail.lines() {
        imp_src.push_str(&format!("// repro: {line}\n"));
    }
    if !case.args.is_empty() {
        let args: Vec<String> = case.args.iter().map(|a| a.to_string()).collect();
        imp_src.push_str(&format!("// args: {}\n", args.join(" ")));
    }
    imp_src.push_str(&case.program);
    std::fs::write(dir.join(format!("{stem}.imp")), imp_src)?;
    std::fs::write(dir.join(format!("{stem}.schema.sql")), &case.ddl)?;
    let mut data = String::new();
    for d in &case.data {
        data.push_str(d);
        data.push_str(";\n");
    }
    std::fs::write(dir.join(format!("{stem}.data.sql")), data)
}

/// Load a case previously written by [`write_repro`].
pub fn read_repro(imp_path: &Path) -> std::io::Result<Case> {
    let src = std::fs::read_to_string(imp_path)?;
    let mut args = Vec::new();
    for line in src.lines() {
        if let Some(rest) = line.strip_prefix("// args:") {
            args = rest
                .split_whitespace()
                .filter_map(|t| t.parse::<i64>().ok())
                .collect();
        }
    }
    let stem = imp_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("repro")
        .to_string();
    let dir = imp_path.parent().unwrap_or(Path::new("."));
    let ddl = std::fs::read_to_string(dir.join(format!("{stem}.schema.sql")))?;
    let data_text =
        std::fs::read_to_string(dir.join(format!("{stem}.data.sql"))).unwrap_or_default();
    let data: Vec<String> = algebra::ddl::split_statements(&data_text)
        .into_iter()
        .map(|(_, s)| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    Ok(Case {
        ddl,
        data,
        program: src,
        function: "main".to_string(),
        args,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_case() -> Case {
        Case {
            ddl: "CREATE TABLE t (id INT PRIMARY KEY, g INT, a INT NULL);\n".into(),
            data: vec![
                "INSERT INTO t VALUES (0, 1, 2)".into(),
                "INSERT INTO t VALUES (1, 0, NULL)".into(),
            ],
            program: "fn main() {\n    acc0 = 0;\n    for (r in executeQuery(\
                      \"SELECT * FROM t\")) {\n        acc0 = acc0 + r.g;\n    }\n    \
                      return acc0;\n}\n"
                .into(),
            function: "main".into(),
            args: Vec::new(),
        }
    }

    #[test]
    fn agreeing_case_extracts_and_agrees() {
        match run_case(&tiny_case()) {
            CaseOutcome::Agree { extracted } => assert!(extracted, "sum loop should extract"),
            other => panic!("expected agreement, got {other:?}"),
        }
    }

    #[test]
    fn rejected_loop_passes_lint_gate_with_blame() {
        // `break` rejects extraction (E004); the case must still *agree*
        // because the lint pipeline blames the loop with a W007 — a missing
        // blame would surface as a `Lint` divergence here.
        let mut case = tiny_case();
        case.program = "fn main() {\n    acc0 = 0;\n    for (r in executeQuery(\
                        \"SELECT * FROM t\")) {\n        acc0 = acc0 + r.g;\n        \
                        if (acc0 > 1) break;\n    }\n    return acc0;\n}\n"
            .into();
        match run_case(&case) {
            CaseOutcome::Agree { extracted } => {
                assert!(!extracted, "break loop must not extract")
            }
            other => panic!("expected agreement via blame, got {other:?}"),
        }
    }

    #[test]
    fn repro_round_trips() {
        let dir = std::env::temp_dir().join("eqsql-fuzz-oracle-test");
        let case = tiny_case();
        write_repro(&dir, "000", &case, "result: 1 vs 2").unwrap();
        let back = read_repro(&dir.join("000.imp")).unwrap();
        assert_eq!(back.ddl, case.ddl);
        assert_eq!(back.data, case.data);
        assert_eq!(back.args, case.args);
        // The program gains header comments but must still run identically.
        assert!(matches!(run_case(&back), CaseOutcome::Agree { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repro_data_keeps_rows_after_comments_and_quoted_semicolons() {
        let dir = std::env::temp_dir().join("eqsql-fuzz-oracle-comments");
        let case = tiny_case();
        write_repro(&dir, "001", &case, "n/a").unwrap();
        std::fs::write(
            dir.join("001.data.sql"),
            "-- seed rows\nINSERT INTO t VALUES (0, 1, 2);\n\
             INSERT INTO s VALUES ('a;b'); -- trailing\n",
        )
        .unwrap();
        let back = read_repro(&dir.join("001.imp")).unwrap();
        assert_eq!(
            back.data,
            [
                "INSERT INTO t VALUES (0, 1, 2)",
                "INSERT INTO s VALUES ('a;b')"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
