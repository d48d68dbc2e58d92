//! Golden answers of the three set-valued dataflow analyses over every
//! function of the 158-program sweep (`examples/corpus` plus the
//! `workloads` crate), each parsed with `imp::parse_and_normalize`. Any
//! change to how the solver represents or replays its facts must leave
//! this file byte-identical. Per function it records:
//!
//! * `live`: the variables live after each `Assign`, `Expr`, `Print`,
//!   `ForEach` and `While` statement;
//! * `reach`: the definition sites reaching each statement inside a loop
//!   body (`x@S4` is statement 4, `x@entry` a parameter);
//! * `taint`: the tainted variables before each statement that calls
//!   `executeQuery` or `executeUpdate`.
//!
//! Sets print in name order. Run with `BLESS=1` to regenerate.

use std::fmt::Write;

use analysis::dataflow::FnIndex;
use analysis::defuse::DefUseCtx;
use analysis::liveness::Liveness;
use analysis::reaching::ReachingDefs;
use analysis::taint::Taint;
use imp::ast::{Expr, Program, StmtKind};

fn names<T: std::fmt::Display>(set: impl IntoIterator<Item = T>) -> String {
    set.into_iter()
        .map(|v| format!(" {v}"))
        .collect::<Vec<_>>()
        .concat()
}

fn calls_database(e: &Expr) -> bool {
    let mut hit = false;
    e.walk(&mut |x| {
        hit |= matches!(x, Expr::Call { name, .. }
            if name == "executeQuery" || name == "executeUpdate");
    });
    hit
}

fn render(program: &Program, out: &mut String) {
    let ctx = DefUseCtx::of_program(program);
    for f in &program.functions {
        writeln!(out, "fn {}", f.name).unwrap();
        let ix = FnIndex::build(f);
        let live = Liveness::compute(&ix);
        let reach = ReachingDefs::compute(&ix, &ctx);
        let taint = Taint::compute(&ix);
        f.body.walk(&mut |s, in_loop| {
            if matches!(
                s.kind,
                StmtKind::Assign { .. }
                    | StmtKind::Expr(_)
                    | StmtKind::Print(_)
                    | StmtKind::ForEach { .. }
                    | StmtKind::While { .. }
            ) {
                writeln!(out, "  live {}:{}", s.id, names(live.after(s.id))).unwrap();
            }
            if in_loop {
                let sites = reach.before(s.id).into_iter().map(|(v, site)| match site {
                    Some(id) => format!("{v}@{id}"),
                    None => format!("{v}@entry"),
                });
                writeln!(out, "  reach {}:{}", s.id, names(sites)).unwrap();
            }
            if s.kind.exprs().iter().any(calls_database) {
                writeln!(out, "  taint {}:{}", s.id, names(taint.before(s.id))).unwrap();
            }
        });
    }
}

#[test]
fn dataflow_answers_match_golden() {
    let mut got = String::new();
    for unit in workloads::sweep::units() {
        let name = &unit.name;
        let program = imp::parse_and_normalize(&unit.source)
            .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        writeln!(got, "== {name}").unwrap();
        render(&program, &mut got);
    }

    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/dataflow_corpus.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden {} (run with BLESS=1): {e}",
            golden.display()
        )
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "dataflow answers differ from the golden at line {}: got {:?}, want {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
