//! Component mining: the constants, tables and columns a candidate query
//! may mention (QBS seeds its sketch grammar from the code fragment the
//! same way).

use std::collections::BTreeSet;

use algebra::parse::parse_sql;
use algebra::schema::{Catalog, SqlType};
use imp::ast::{Expr, Literal, Program};

/// Mined components for one function.
#[derive(Debug, Clone, Default)]
pub struct Components {
    /// Base tables referenced by the function's queries.
    pub tables: Vec<String>,
    /// Integer literals appearing in the source.
    pub int_literals: Vec<i64>,
    /// String literals appearing in the source (excluding SQL strings).
    pub str_literals: Vec<String>,
    /// (table, column) pairs with integer type.
    pub int_columns: Vec<(String, String)>,
    /// (table, column) pairs with text type.
    pub text_columns: Vec<(String, String)>,
    /// (table, column) pairs with boolean type.
    pub bool_columns: Vec<(String, String)>,
}

/// Mine components from `fname`'s body.
pub fn mine(program: &Program, fname: &str, catalog: &Catalog) -> Components {
    let mut c = Components::default();
    let Some(f) = program.function(fname) else {
        return c;
    };
    let mut tables: BTreeSet<String> = BTreeSet::new();
    let mut ints: BTreeSet<i64> = BTreeSet::new();
    let mut strs: BTreeSet<String> = BTreeSet::new();

    f.body.walk_exprs(&mut |e| match e {
        Expr::Lit(Literal::Int(i)) => {
            ints.insert(*i);
        }
        Expr::Call { name, args } if name == "executeQuery" || name == "executeScalar" => {
            if let Some(Expr::Lit(Literal::Str(sql))) = args.first() {
                if let Ok(ra) = parse_sql(sql) {
                    for t in ra.base_tables() {
                        tables.insert(t.to_string());
                    }
                }
            }
        }
        Expr::Lit(Literal::Str(s)) if !s.to_uppercase().contains("SELECT") => {
            strs.insert(s.clone());
        }
        _ => {}
    });

    c.tables = tables.into_iter().collect();
    c.int_literals = ints.into_iter().collect();
    c.str_literals = strs.into_iter().collect();
    for t in &c.tables {
        if let Some(schema) = catalog.get(t) {
            for col in &schema.columns {
                let entry = (t.clone(), col.name.clone());
                match col.ty {
                    SqlType::Int | SqlType::Double => c.int_columns.push(entry),
                    SqlType::Text => c.text_columns.push(entry),
                    SqlType::Bool => c.bool_columns.push(entry),
                }
            }
        }
    }
    c
}

/// True when the function contains any `executeUpdate` call: the original
/// QBS rejects such fragments outright (paper Sec. 7.1).
pub fn has_updates(program: &Program, fname: &str) -> bool {
    let Some(f) = program.function(fname) else {
        return false;
    };
    let mut found = false;
    f.body.walk_exprs(&mut |e| {
        if let Expr::Call { name, .. } = e {
            if name == imp::ast::builtins::EXECUTE_UPDATE {
                found = true;
            }
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::schema::TableSchema;

    #[test]
    fn mines_tables_literals_and_columns() {
        let src = r#"
            fn f() {
                rows = executeQuery("SELECT * FROM emp");
                out = list();
                for (e in rows) {
                    if (e.salary > 42) { out.add("tag"); }
                }
                return out;
            }
        "#;
        let p = imp::parse_and_normalize(src).unwrap();
        let cat = Catalog::new().with(TableSchema::new(
            "emp",
            &[
                ("id", SqlType::Int),
                ("name", SqlType::Text),
                ("salary", SqlType::Int),
            ],
        ));
        let c = mine(&p, "f", &cat);
        assert_eq!(c.tables, vec!["emp"]);
        assert!(c.int_literals.contains(&42));
        assert!(c.str_literals.contains(&"tag".to_string()));
        assert_eq!(c.int_columns.len(), 2);
        assert_eq!(c.text_columns.len(), 1);
    }
}
