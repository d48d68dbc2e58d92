//! The 158-program sweep: `examples/corpus/*.imp` in path order against
//! `schema.sql` beside them, then every program of the `workloads` crate
//! (wilos, RuBiS, RuBBoS, AcadPortal, matoso, jobportal) against its own
//! catalog. A test crate includes this file with `#[path =
//! "support/sweep.rs"] mod sweep;`.

use algebra::schema::Catalog;

/// One program of the sweep.
pub struct Unit {
    /// `app/program`, e.g. `corpus/t1_selection.imp` or `rubis/ViewItem`.
    pub name: String,
    /// The `imp` source text.
    pub source: String,
    /// The schema the program is extracted and linted against.
    pub catalog: Catalog,
}

/// Every program of the sweep, corpus first.
pub fn units() -> Vec<Unit> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/corpus");
    let schema = std::fs::read_to_string(dir.join("schema.sql")).expect("corpus schema readable");
    let corpus = algebra::ddl::parse_ddl(&schema).expect("corpus schema parses");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing corpus dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "imp"))
        .collect();
    paths.sort();
    let mut out: Vec<Unit> = paths
        .iter()
        .map(|p| Unit {
            name: format!("corpus/{}", p.file_name().unwrap().to_string_lossy()),
            source: std::fs::read_to_string(p).unwrap(),
            catalog: corpus.clone(),
        })
        .collect();
    let wilos = workloads::wilos::catalog();
    for s in workloads::wilos::samples() {
        out.push(Unit {
            name: format!("wilos/{}", s.label),
            source: s.source.to_string(),
            catalog: wilos.clone(),
        });
    }
    for (app, servlets, catalog) in [
        (
            "rubis",
            workloads::servlets::rubis(),
            workloads::servlets::rubis_catalog(),
        ),
        (
            "rubbos",
            workloads::servlets::rubbos(),
            workloads::servlets::rubbos_catalog(),
        ),
        (
            "acadportal",
            workloads::servlets::acadportal(),
            workloads::servlets::acadportal_catalog(),
        ),
    ] {
        for s in servlets {
            out.push(Unit {
                name: format!("{app}/{}", s.name),
                source: s.source,
                catalog: catalog.clone(),
            });
        }
    }
    out.push(Unit {
        name: "matoso/find_max_score".into(),
        source: workloads::matoso::FIND_MAX_SCORE.to_string(),
        catalog: workloads::matoso::catalog(),
    });
    out.push(Unit {
        name: "jobportal/applicant_report".into(),
        source: workloads::jobportal::APPLICANT_REPORT.to_string(),
        catalog: workloads::jobportal::catalog(),
    });
    assert_eq!(out.len(), 158, "the sweep is 158 programs");
    out
}
