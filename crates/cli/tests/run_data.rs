//! `eqsql run --data`: the data script is split into statements the way
//! the schema is, so a `--` comment line before an `INSERT` and a `;` inside
//! a quoted value both keep their rows.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Write `name` with `text` into a fresh per-test directory.
fn fixture(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

/// `eqsql run` of a loop counting `emp`'s rows over `data`; its stdout.
fn run_counting_loop(tag: &str, data: &str) -> String {
    let dir = std::env::temp_dir().join(format!("eqsql-run-data-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let app = fixture(
        &dir,
        "app.imp",
        "fn f() {\n    n = 0;\n    for (e in executeQuery(\"SELECT * FROM emp\")) {\n        \
         n = n + 1;\n    }\n    return n;\n}\n",
    );
    let schema = fixture(
        &dir,
        "schema.sql",
        "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT);\n",
    );
    let data = fixture(&dir, "data.sql", data);
    let out = Command::new(env!("CARGO_BIN_EXE_eqsql"))
        .arg("run")
        .arg(&app)
        .arg("--schema")
        .arg(&schema)
        .arg("--data")
        .arg(&data)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "eqsql run failed: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn a_comment_line_before_an_insert_keeps_its_row() {
    let out = run_counting_loop(
        "comment",
        "-- seed rows\nINSERT INTO emp VALUES (1, 'a', 'x', 10);\n",
    );
    assert!(out.contains("original : result = 1"), "{out}");
    assert!(out.contains("rewritten: result = 1"), "{out}");
}

#[test]
fn a_semicolon_inside_a_quoted_value_splits_nothing() {
    let out = run_counting_loop(
        "quoted",
        "INSERT INTO emp VALUES (1, 'a;b', 'x', 10);\nINSERT INTO emp VALUES (2, 'c', 'y', 20); -- two\n",
    );
    assert!(out.contains("original : result = 2"), "{out}");
    assert!(out.contains("rewritten: result = 2"), "{out}");
}
