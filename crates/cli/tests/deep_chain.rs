//! A long operator chain needs deep recursion. The command runs on a
//! thread of a stated stack size, so `eqsql extract` accepts it whatever
//! stack the shell's `ulimit -s` gives the main thread.

use std::process::Command;

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
