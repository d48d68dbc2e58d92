//! DDL parsing: `CREATE TABLE` statements into [`TableSchema`]s.
//!
//! Used by the CLI to load a schema file, so downstream users can point the
//! extractor at their real schema dumps. Supported grammar:
//!
//! ```sql
//! CREATE TABLE name (
//!     col  INT | INTEGER | BIGINT | DOUBLE | FLOAT | REAL
//!        | TEXT | VARCHAR(n) | CHAR(n) | BOOLEAN | BOOL
//!          [PRIMARY KEY] [NULL | NOT NULL],
//!     …,
//!     [PRIMARY KEY (col [, col]*)]
//! );
//! ```
//!
//! Statements are `;`-separated; `--` line comments are skipped
//! ([`split_statements`], which `eqsql run --data` also uses).

use crate::parse::SqlError;
use crate::schema::{Catalog, ColumnDef, SqlType, TableSchema};

/// Parse a DDL script into a catalog.
pub fn parse_ddl(input: &str) -> Result<Catalog, SqlError> {
    let mut catalog = Catalog::new();
    for (offset, stmt) in split_statements(input) {
        let trimmed = stmt.trim();
        if trimmed.is_empty() {
            continue;
        }
        let schema = parse_create_table(trimmed).map_err(|mut e| {
            e.offset += offset;
            e
        })?;
        catalog.add(schema);
    }
    Ok(catalog)
}

/// Split a SQL script into statements: on every `;` outside a quoted
/// string, with `--` line comments replaced by a space. Each statement
/// comes with the byte offset it starts at and is not trimmed; a blank one
/// (between two `;`, or holding only a comment) is the caller's to skip.
pub fn split_statements(input: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut chars = input.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        match c {
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            '-' if !in_str && matches!(chars.peek(), Some((_, '-'))) => {
                for (_, c2) in chars.by_ref() {
                    if c2 == '\n' {
                        break;
                    }
                }
                cur.push(' ');
            }
            ';' if !in_str => {
                out.push((start, std::mem::take(&mut cur)));
                start = i + 1;
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push((start, cur));
    }
    out
}

fn err(message: impl Into<String>, offset: usize) -> SqlError {
    SqlError {
        message: message.into(),
        offset,
    }
}

fn parse_create_table(stmt: &str) -> Result<TableSchema, SqlError> {
    let lower = stmt.to_ascii_lowercase();
    let rest = lower
        .trim_start()
        .strip_prefix("create")
        .and_then(|r| r.trim_start().strip_prefix("table"))
        .ok_or_else(|| err("expected CREATE TABLE", 0))?;
    let open = stmt.find('(').ok_or_else(|| err("expected '('", 0))?;
    let close = stmt
        .rfind(')')
        .ok_or_else(|| err("expected ')'", stmt.len()))?;
    let name_region = rest.trim();
    let name: String = name_region
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return Err(err("missing table name", 0));
    }
    let body = &stmt[open + 1..close];

    let mut columns = Vec::new();
    let mut key: Vec<String> = Vec::new();
    for part in split_top_level_commas(body) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let pl = part.to_ascii_lowercase();
        if let Some(cols) = pl.strip_prefix("primary key") {
            let cols = cols.trim().trim_start_matches('(').trim_end_matches(')');
            key = cols
                .split(',')
                .map(|c| c.trim().to_ascii_lowercase())
                .collect();
            continue;
        }
        let mut tokens = part.split_whitespace();
        let col_name = tokens
            .next()
            .ok_or_else(|| err("missing column name", 0))?
            .to_ascii_lowercase();
        let ty_raw = tokens
            .next()
            .ok_or_else(|| err(format!("missing type for column {col_name}"), 0))?
            .to_ascii_lowercase();
        let ty_word: String = ty_raw
            .chars()
            .take_while(|c| c.is_ascii_alphabetic())
            .collect();
        let ty = match ty_word.as_str() {
            "int" | "integer" | "bigint" | "smallint" | "serial" => SqlType::Int,
            "double" | "float" | "real" | "numeric" | "decimal" => SqlType::Double,
            "text" | "varchar" | "char" | "string" => SqlType::Text,
            "boolean" | "bool" => SqlType::Bool,
            other => return Err(err(format!("unknown type {other} for {col_name}"), 0)),
        };
        let rest: String = tokens.collect::<Vec<_>>().join(" ").to_ascii_lowercase();
        if rest.contains("primary key") {
            key.push(col_name.clone());
        }
        // Nullability must be opted into: only an explicit `NULL` modifier
        // (without `NOT NULL` / `PRIMARY KEY`) marks the column nullable,
        // so legacy schema dumps keep the plain (non-NULL-guarded)
        // extraction translations.
        let nullable = rest.split_whitespace().any(|t| t == "null")
            && !rest.contains("not null")
            && !rest.contains("primary key");
        columns.push(ColumnDef {
            name: col_name,
            ty,
            nullable,
        });
    }
    Ok(TableSchema {
        name: name.to_ascii_lowercase(),
        columns,
        key,
    })
}

fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut last = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&s[last..i]);
                last = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[last..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_table() {
        let c = parse_ddl(
            "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, salary INT, active BOOLEAN);",
        )
        .unwrap();
        let t = c.get("emp").unwrap();
        assert_eq!(t.columns.len(), 4);
        assert_eq!(t.key, vec!["id"]);
        assert_eq!(t.columns[1].ty, SqlType::Text);
        assert_eq!(t.columns[3].ty, SqlType::Bool);
    }

    #[test]
    fn parses_varchar_and_table_level_key() {
        let c =
            parse_ddl("CREATE TABLE u (a VARCHAR(64), b INTEGER, c DOUBLE, PRIMARY KEY (a, b));")
                .unwrap();
        let t = c.get("u").unwrap();
        assert_eq!(t.key, vec!["a", "b"]);
        assert_eq!(t.columns[0].ty, SqlType::Text);
        assert_eq!(t.columns[2].ty, SqlType::Double);
    }

    #[test]
    fn multiple_statements_and_comments() {
        let c = parse_ddl(
            "-- the emp table\nCREATE TABLE a (x INT);\n\nCREATE TABLE b (y TEXT); -- done",
        )
        .unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn case_insensitive_and_lowercased() {
        let c = parse_ddl("create table MixedCase (Id INT primary key)").unwrap();
        assert!(c.get("mixedcase").is_some());
        assert_eq!(c.get("mixedcase").unwrap().key, vec!["id"]);
    }

    #[test]
    fn nullability_is_opt_in() {
        let c =
            parse_ddl("CREATE TABLE t (id INT PRIMARY KEY, a INT NULL, b INT NOT NULL, c INT);")
                .unwrap();
        let t = c.get("t").unwrap();
        assert!(!t.column_nullable("id"));
        assert!(t.column_nullable("a"));
        assert!(!t.column_nullable("b"));
        assert!(!t.column_nullable("c"), "unannotated columns stay NOT NULL");
    }

    #[test]
    fn unknown_type_is_error() {
        assert!(parse_ddl("CREATE TABLE t (x BLOB)").is_err());
    }

    #[test]
    fn missing_paren_is_error() {
        assert!(parse_ddl("CREATE TABLE t x INT").is_err());
    }
}
