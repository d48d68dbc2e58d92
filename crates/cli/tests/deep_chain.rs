//! A long operator chain needs deep recursion. The command runs on a
//! thread of a stated stack size, so `eqsql extract` accepts it whatever
//! stack the shell's `ulimit -s` gives the main thread; a chain past the
//! parsers' operand caps is refused, never a stack overflow.

use std::process::{Command, Output};

/// `eqsql extract` of `src`, written to a file named after `name`.
fn extract(name: &str, src: &str) -> Output {
    let path = std::env::temp_dir().join(format!("eqsql-{name}-{}.imp", std::process::id()));
    std::fs::write(&path, src).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_eqsql"))
        .arg("extract")
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
