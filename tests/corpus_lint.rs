//! Corpus-wide lint-code inventory against a golden file.
//!
//! Every `examples/corpus/*.imp` program runs through the full lint
//! pipeline; the sorted, de-duplicated set of diagnostic codes per file is
//! compared line-for-line against `tests/golden/corpus_lint_codes.txt`
//! (`BLESS=1` regenerates). ci.sh re-derives the same inventory through
//! the CLI (`eqsql lint --format json`), so the library and binary paths
//! are held to one golden: a code that silently starts or stops firing on
//! the corpus fails CI even if no unit test covers that program shape.

use std::collections::BTreeSet;
use std::path::PathBuf;

use eqsql::prelude::*;

#[test]
fn corpus_lint_codes_match_golden() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut lines = Vec::new();
    for u in workloads::sweep::corpus() {
        let program = imp::parse_and_normalize(&u.source)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", u.name));
        let diags = lint_program(&program, &u.catalog, &ExtractorOptions::default());
        let codes: BTreeSet<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        let suffix: String = codes.iter().map(|c| format!(" {c}")).collect();
        lines.push(format!("{}:{suffix}", u.name.trim_start_matches("corpus/")));
    }
    let got = lines.join("\n") + "\n";

    let golden = root.join("tests/golden/corpus_lint_codes.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden {} (run with BLESS=1): {e}",
            golden.display()
        )
    });
    assert_eq!(
        got, want,
        "corpus lint-code inventory changed; re-run with BLESS=1 if intended"
    );
}
