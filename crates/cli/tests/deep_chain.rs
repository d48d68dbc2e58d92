//! A long operator chain needs deep recursion. The command runs on a
//! thread of a stated stack size, so `eqsql extract` accepts it whatever
//! stack the shell's `ulimit -s` gives the main thread; a chain past the
//! parsers' operand caps is refused, never a stack overflow. A chain of
//! statements builds an ee-DAG chain as deep, which the bottom-up passes
//! walk on an explicit stack.

use std::process::{Command, Output};

/// `eqsql extract` of `src`, written to a file named after `name`.
fn extract(name: &str, src: &str) -> Output {
    eqsql(&["extract"], name, src)
}

/// `eqsql <args> <file>` with `src` written to a file named after `name`.
fn eqsql(args: &[&str], name: &str, src: &str) -> Output {
    let path = std::env::temp_dir().join(format!("eqsql-{name}-{}.imp", std::process::id()));
    std::fs::write(&path, src).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_eqsql"))
        .args(args)
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    out
}

#[test]
fn a_20000_term_chain_extracts_under_a_2_mib_main_stack() {
    let src = format!(
        "fn f(x) {{ y = {}; return y; }}\n",
        vec!["x"; 20_000].join(" + ")
    );
    let path = std::env::temp_dir().join(format!("eqsql-chain20000-{}.imp", std::process::id()));
    std::fs::write(&path, src).unwrap();
    let out = Command::new("sh")
        .arg("-c")
        .arg("ulimit -s 2048; exec \"$0\" extract \"$1\"")
        .arg(env!("CARGO_BIN_EXE_eqsql"))
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_50000_term_chain_is_a_parse_error() {
    let src = format!(
        "fn f(x) {{ y = {}; return y; }}\n",
        vec!["x"; 50_000].join(" + ")
    );
    let out = extract("chain50000", &src);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("more than 20000 operands in one expression"),
        "{stderr}"
    );
}

#[test]
fn a_50000_term_sql_chain_is_a_diagnostic() {
    let chain = vec!["salary"; 50_000].join(" + ");
    // As the cursor's query, and as a query in the loop body, whose E005
    // names the cap.
    for (name, cursor, scalar) in [
        (
            "cursor",
            format!("SELECT * FROM emp WHERE {chain} > 0"),
            "0".to_string(),
        ),
        (
            "body",
            "SELECT * FROM emp".to_string(),
            format!("executeScalar(\"SELECT COUNT(*) FROM emp WHERE {chain} > 0\")"),
        ),
    ] {
        let src = format!(
            "fn f() {{ s = 0; for (e in executeQuery(\"{cursor}\")) {{ s = s + e.salary + {scalar}; }} return s; }}\n"
        );
        let out = extract(&format!("sql-{name}"), &src);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        assert!(stderr.contains("error[E005]"), "{name}: {stderr}");
        if name == "body" {
            assert!(
                stderr.contains("unparsable SQL")
                    && stderr.contains("more than 10000 operands in one expression"),
                "{name}: {stderr}"
            );
        }
        assert!(
            stdout.contains("fn f()"),
            "{name}: the program is printed unchanged"
        );
    }
}

#[test]
fn a_60000_statement_chain_into_an_untranslatable_fold_is_a_diagnostic() {
    // `s = 0;`, 60,000 × `s = s + 1;`, then a product loop no rule
    // translates: the fold's init is a 60,000-deep ee-DAG chain.
    let schema = std::env::temp_dir().join(format!("eqsql-mulchain-{}.sql", std::process::id()));
    std::fs::write(
        &schema,
        "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT);",
    )
    .unwrap();
    let src = format!(
        "fn f() {{\n    rows = executeQuery(\"SELECT * FROM emp\");\n    s = 0;\n{}    \
         for (e in rows) {{\n        s = s * e.salary;\n    }}\n    return s;\n}}\n",
        "    s = s + 1;\n".repeat(60_000)
    );
    for cmd in ["lint", "extract"] {
        let out = eqsql(
            &[cmd, "--schema", schema.to_str().unwrap()],
            "mulchain",
            &src,
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{cmd}: {stderr}");
        assert!(
            stdout.contains("E006") || stderr.contains("E006"),
            "{cmd}: {stderr}"
        );
    }
    std::fs::remove_file(&schema).unwrap();
}

#[test]
fn a_20000_term_chain_runs() {
    // At imp's operand cap: the interpreter evaluates the 20,000-deep
    // `Add` chain on the command's thread.
    let src = format!(
        "fn f(x) {{ y = {}; return y; }}\n",
        vec!["x"; 20_000].join(" + ")
    );
    let out = eqsql(&["run", "--arg", "1"], "runchain20000", &src);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("result = 20000"), "{stdout}");
}
