//! The program set every extraction workload sweeps: `examples/corpus`
//! plus every program of the `workloads` crate (wilos, RuBiS, RuBBoS,
//! AcadPortal, matoso, jobportal), each with its schema catalog.

use std::path::{Path, PathBuf};

use algebra::schema::Catalog;

/// One program and the catalog it is extracted against.
#[derive(Clone)]
pub struct Unit {
    pub name: String,
    pub source: String,
    pub catalog: Catalog,
}

/// `examples/corpus/*.imp` in path order, against `schema.sql` beside them.
pub fn corpus_units(root: &Path) -> Vec<Unit> {
    let dir = root.join("examples/corpus");
    let schema = std::fs::read_to_string(dir.join("schema.sql")).expect("corpus schema readable");
    let catalog = algebra::ddl::parse_ddl(&schema).expect("corpus schema parses");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "imp"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| Unit {
            name: format!("corpus/{}", p.file_name().unwrap().to_string_lossy()),
            source: std::fs::read_to_string(&p).expect("corpus file readable"),
            catalog: catalog.clone(),
        })
        .collect()
}

/// Every program of the `workloads` crate.
pub fn workload_units() -> Vec<Unit> {
    let mut units = Vec::new();
    let wilos = workloads::wilos::catalog();
    for s in workloads::wilos::samples() {
        units.push(Unit {
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
            units.push(Unit {
                name: format!("{app}/{}", s.name),
                source: s.source,
                catalog: catalog.clone(),
            });
        }
    }
    units.push(Unit {
        name: "matoso/find_max_score".into(),
        source: workloads::matoso::FIND_MAX_SCORE.to_string(),
        catalog: workloads::matoso::catalog(),
    });
    units.push(Unit {
        name: "jobportal/applicant_report".into(),
        source: workloads::jobportal::APPLICANT_REPORT.to_string(),
        catalog: workloads::jobportal::catalog(),
    });
    units
}

/// The whole sweep: the example corpus, then the `workloads` programs.
pub fn all_units(root: &Path) -> Vec<Unit> {
    let mut units = corpus_units(root);
    units.extend(workload_units());
    units
}

/// Render a catalog as the `CREATE TABLE` script `algebra::ddl` reads, so
/// a service request carries the same schema a library caller passes.
pub fn render_ddl(catalog: &Catalog) -> String {
    let mut out = String::new();
    for t in catalog.tables() {
        let mut parts: Vec<String> = t
            .columns
            .iter()
            .map(|c| {
                let null = if c.nullable { " NULL" } else { "" };
                format!("{} {}{null}", c.name, c.ty)
            })
            .collect();
        if !t.key.is_empty() {
            parts.push(format!("PRIMARY KEY ({})", t.key.join(", ")));
        }
        out.push_str(&format!(
            "CREATE TABLE {} ({});\n",
            t.name,
            parts.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    #[test]
    fn every_catalog_round_trips_through_the_ddl_parser() {
        let units = all_units(&root());
        assert!(units.len() > 100, "sweep has {} programs", units.len());
        for u in &units {
            let ddl = render_ddl(&u.catalog);
            let parsed =
                algebra::ddl::parse_ddl(&ddl).unwrap_or_else(|e| panic!("{}: {e}\n{ddl}", u.name));
            assert_eq!(parsed, u.catalog, "{}:\n{ddl}", u.name);
        }
    }

    #[test]
    fn nullable_columns_and_composite_keys_survive() {
        let c = algebra::ddl::parse_ddl(
            "CREATE TABLE t (a INT, b TEXT NULL, c DOUBLE, d BOOLEAN, PRIMARY KEY (a, c));",
        )
        .unwrap();
        assert_eq!(algebra::ddl::parse_ddl(&render_ddl(&c)).unwrap(), c);
    }
}
