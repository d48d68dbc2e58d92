//! `eqsql extract big.imp | head -1`: a reader that closes standard output
//! early ends the command quietly, with no panic and no status 101.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A one-function program of `n` statements; its rewritten text is far
/// larger than a pipe's buffer.
fn write_program(n: usize) -> PathBuf {
    let mut src = String::from("fn f() {\n    s = 0;\n");
    for i in 0..n {
        src.push_str(&format!("    s = s + {i};\n"));
    }
    src.push_str("    return s;\n}\n");
    let path = std::env::temp_dir().join(format!("eqsql-closed-stdout-{}.imp", std::process::id()));
    std::fs::write(&path, src).unwrap();
    path
}

/// Run `eqsql extract` on `file`, read `lines` lines of its output, then
/// close the pipe; return the exit code and stderr.
fn extract_and_close(file: &PathBuf, lines: usize) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_eqsql"))
        .arg("extract")
        .arg(file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    for _ in 0..lines {
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
    }
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let file = write_program(20_000);
    // Closed before the first write, and closed after the first line (the
    // `| head -1` case).
    let runs = [extract_and_close(&file, 0), extract_and_close(&file, 1)];
    std::fs::remove_file(&file).unwrap();
    for (code, stderr) in runs {
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
        assert_ne!(code, Some(101), "stderr: {stderr}");
        assert_eq!(code, Some(0), "stderr: {stderr}");
    }
}
