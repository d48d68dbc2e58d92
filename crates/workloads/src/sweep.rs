//! The 158-program sweep: `examples/corpus/*.imp` in path order against
//! the `schema.sql` beside them, then every program of this crate (wilos,
//! RuBiS, RuBBoS, AcadPortal, matoso, jobportal) against its own catalog.
//! The tests, their goldens and `perf_pipeline` all enumerate it here;
//! each caller picks its own extractor options.

use std::path::{Path, PathBuf};

use algebra::schema::Catalog;

/// One program of the sweep.
pub struct Unit {
    /// The application: `corpus`, `wilos`, `rubis`, `rubbos`,
    /// `acadportal`, `matoso` or `jobportal`.
    pub app: &'static str,
    /// `app/program`, e.g. `corpus/t1_selection.imp` or `rubis/ViewItem`.
    pub name: String,
    /// The `imp` source text.
    pub source: String,
    /// The schema the program is extracted and linted against.
    pub catalog: Catalog,
}

/// The directory of the example corpus, `examples/corpus`.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/corpus")
}

/// `examples/corpus/*.imp` in path order, against `schema.sql`.
pub fn corpus() -> Vec<Unit> {
    let dir = corpus_dir();
    let schema = std::fs::read_to_string(dir.join("schema.sql")).expect("corpus schema readable");
    let catalog = algebra::ddl::parse_ddl(&schema).expect("corpus schema parses");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing corpus dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "imp"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "the corpus is empty");
    paths
        .iter()
        .map(|p| Unit {
            app: "corpus",
            name: format!("corpus/{}", p.file_name().unwrap().to_string_lossy()),
            source: std::fs::read_to_string(p).expect("corpus file readable"),
            catalog: catalog.clone(),
        })
        .collect()
}

/// Every program of the sweep, corpus first.
pub fn units() -> Vec<Unit> {
    let mut out = corpus();
    let wilos = crate::wilos::catalog();
    for s in crate::wilos::samples() {
        out.push(Unit {
            app: "wilos",
            name: format!("wilos/{}", s.label),
            source: s.source.to_string(),
            catalog: wilos.clone(),
        });
    }
    for (servlets, catalog) in [
        (crate::servlets::rubis(), crate::servlets::rubis_catalog()),
        (crate::servlets::rubbos(), crate::servlets::rubbos_catalog()),
        (
            crate::servlets::acadportal(),
            crate::servlets::acadportal_catalog(),
        ),
    ] {
        for s in servlets {
            out.push(Unit {
                app: s.app,
                name: format!("{}/{}", s.app, s.name),
                source: s.source,
                catalog: catalog.clone(),
            });
        }
    }
    out.push(Unit {
        app: "matoso",
        name: "matoso/find_max_score".into(),
        source: crate::matoso::FIND_MAX_SCORE.to_string(),
        catalog: crate::matoso::catalog(),
    });
    out.push(Unit {
        app: "jobportal",
        name: "jobportal/applicant_report".into(),
        source: crate::jobportal::APPLICANT_REPORT.to_string(),
        catalog: crate::jobportal::catalog(),
    });
    assert_eq!(out.len(), 158, "the sweep is 158 programs");
    out
}
