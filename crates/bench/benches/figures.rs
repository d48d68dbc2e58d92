//! Wall-clock benchmarks backing Figures 8, 10 and 11: engine-level
//! execution of the original access pattern vs the extracted query (the
//! complement to the simulated-cost series the `figN_*` binaries print).
//! Each case runs once to warm up, then up to ten times within two
//! seconds; the line reports the fastest and the mean run.
//!
//! `cargo bench -p bench --bench figures`

use std::time::{Duration, Instant};

use dbms::{Connection, CostModel, Database};
use eqsql_core::Extractor;
use imp::ast::Program;
use interp::{Interp, RtValue};
use workloads::{jobportal, matoso};

/// Time `f` and print one line for `group/case`.
fn bench<R>(group: &str, case: &str, mut f: impl FnMut() -> R) {
    std::hint::black_box(f());
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut runs = Vec::new();
    while runs.len() < 10 && Instant::now() < deadline {
        let t0 = Instant::now();
        std::hint::black_box(f());
        runs.push(t0.elapsed());
    }
    // The deadline starts after the warm-up, so there is at least one run.
    let fastest = *runs.iter().min().expect("one run");
    let mean = runs.iter().sum::<Duration>() / runs.len() as u32;
    let name = format!("{group}/{case}");
    println!(
        "{name:<36} fastest {fastest:>12.3?}  mean {mean:>12.3?}  ({} runs)",
        runs.len()
    );
}

/// Run `function` of `program` against a fresh connection to `db`.
fn call(program: &Program, db: &Database, function: &str, args: &[RtValue]) -> RtValue {
    let conn = Connection::with_cost(db.clone(), CostModel::default());
    Interp::new(program, conn)
        .call(function, args.to_vec())
        .unwrap()
}

fn fig8_selection() {
    let src = r#"
        fn unfinished() {
            ps = executeQuery("SELECT * FROM project");
            out = list();
            for (p in ps) {
                if (p.isfinished == false) { out.add(p.id); }
            }
            return out;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = dbms::gen::gen_wilos(20_000, 10, 20, 7);
    let report = Extractor::new(db.catalog()).extract_function(&program, "unfinished");
    bench("fig8_selection", "original", || {
        call(&program, &db, "unfinished", &[])
    });
    bench("fig8_selection", "eqsql", || {
        call(&report.program, &db, "unfinished", &[])
    });
}

fn fig10_aggregation() {
    let program = imp::parse_and_normalize(matoso::FIND_MAX_SCORE).unwrap();
    let args = [RtValue::int(1)];
    for n in [1_000usize, 10_000] {
        let db = matoso::database(n, 3);
        let report = Extractor::new(db.catalog()).extract_function(&program, "findMaxScore");
        bench("fig10_aggregation", &format!("original/{n}"), || {
            call(&program, &db, "findMaxScore", &args)
        });
        bench("fig10_aggregation", &format!("eqsql/{n}"), || {
            call(&report.program, &db, "findMaxScore", &args)
        });
    }
}

fn fig11_star_schema() {
    let program = imp::parse_and_normalize(jobportal::APPLICANT_REPORT).unwrap();
    let workload = bench::star_workload();
    let db = jobportal::database(200, 5);
    let report = Extractor::new(db.catalog()).extract_function(&program, "applicantReport");
    let conn = || Connection::with_cost(db.clone(), CostModel::default());
    bench("fig11_star_schema", "original", || {
        workload.run_original(&mut conn()).unwrap()
    });
    bench("fig11_star_schema", "batch", || {
        workload.run_batched(&mut conn()).unwrap()
    });
    bench("fig11_star_schema", "prefetch", || {
        workload.run_prefetch(&mut conn()).unwrap()
    });
    bench("fig11_star_schema", "eqsql", || {
        call(&report.program, &db, "applicantReport", &[])
    });
}

fn main() {
    fig8_selection();
    fig10_aggregation();
    fig11_star_schema();
}
