//! Seed-driven generation of well-typed `.imp` programs over generated
//! schemas.
//!
//! Every choice is drawn from one [`StdRng`], so a seed fully determines
//! the case — the CLI's `eqsql fuzz --seed N` promise of byte-identical
//! reruns rests on nothing here reading ambient state.
//!
//! The generated programs deliberately concentrate on the constructs the
//! extraction rules T1–T7 (and the EXISTS/NOT-EXISTS folds) translate:
//! cursor loops over `executeQuery` results, guarded scalar aggregations,
//! conditional min/max in both ternary and builtin form, boolean flags, and
//! correlated nested loops. Integer magnitudes stay small (`|v| ≤ 9` cells,
//! constants `|c| ≤ 100`) so multi-row sums can never overflow `i64` — the
//! sequential fold and SQL's `SUM` associate differently, so aggregate-level
//! overflow would be a false-positive divergence, not a bug.

use dbms::gen::gen_catalog_nulls;
use dbms::prng::StdRng;
use dbms::Value;

use crate::oracle::Case;

/// Schema/type information the program generator works from.
struct GenSchema {
    /// DDL text for the case.
    ddl: String,
    /// Non-key INT columns of `t` (name, declared-nullable).
    int_cols: Vec<(String, bool)>,
    /// Whether `t` has the TEXT column `s`.
    has_text: bool,
    /// Whether the second table `u` exists.
    has_u: bool,
}

fn gen_schema(rng: &mut StdRng) -> GenSchema {
    let mut ddl = String::from("CREATE TABLE t (id INT PRIMARY KEY, g INT");
    let mut int_cols = vec![("g".to_string(), false)];
    let n_vals = rng.gen_range(2..4u32);
    for i in 0..n_vals {
        let name = ["a", "b", "c"][i as usize].to_string();
        let nullable = rng.gen_range(0..100u32) < 40;
        ddl.push_str(&format!(
            ", {name} INT{}",
            if nullable { " NULL" } else { "" }
        ));
        int_cols.push((name, nullable));
    }
    let has_text = rng.gen_bool(0.5);
    if has_text {
        let nullable = rng.gen_range(0..100u32) < 30;
        ddl.push_str(&format!(", s TEXT{}", if nullable { " NULL" } else { "" }));
    }
    ddl.push_str(");\n");
    let has_u = rng.gen_bool(0.4);
    if has_u {
        let v_nullable = rng.gen_bool(0.5);
        ddl.push_str(&format!(
            "CREATE TABLE u (id INT PRIMARY KEY, k INT, v INT{});\n",
            if v_nullable { " NULL" } else { "" }
        ));
    }
    GenSchema {
        ddl,
        int_cols,
        has_text,
        has_u,
    }
}

fn sql_lit(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => format!("'{s}'"),
    }
}

/// Generate the INSERT statements for a catalog via the NULL-aware data
/// generator ([`dbms::gen::gen_catalog_nulls`]).
fn gen_data(ddl: &str, rows: usize, seed: u64, null_pct: u32) -> Vec<String> {
    let catalog = algebra::ddl::parse_ddl(ddl).expect("generated DDL parses");
    let db = gen_catalog_nulls(&catalog, rows, seed, null_pct);
    let mut out = Vec::new();
    for schema in catalog.tables() {
        let table = db.table(&schema.name).expect("table generated");
        for row in table.scan() {
            let vals: Vec<String> = row.iter().map(sql_lit).collect();
            out.push(format!(
                "INSERT INTO {} VALUES ({})",
                schema.name,
                vals.join(", ")
            ));
        }
    }
    out
}

/// An integer-valued expression over the loop row `r`.
fn gen_int_expr(rng: &mut StdRng, s: &GenSchema, has_param: bool) -> String {
    let col = |rng: &mut StdRng, s: &GenSchema| {
        let (n, _) = &s.int_cols[rng.gen_range(0..s.int_cols.len())];
        format!("r.{n}")
    };
    match rng.gen_range(0..10u32) {
        0 | 1 => col(rng, s),
        2 => format!("{} + {}", col(rng, s), col(rng, s)),
        3 => format!("{} - {}", col(rng, s), col(rng, s)),
        4 => format!("{} * {}", col(rng, s), rng.gen_range(1..4i64)),
        5 => format!("abs({})", col(rng, s)),
        // Division / modulo by a data column: `g` (and the value columns)
        // contain zeros, so NULL-on-error shows up in real runs.
        6 => format!("{} / {}", col(rng, s), col(rng, s)),
        7 => format!("{} % {}", col(rng, s), col(rng, s)),
        8 => format!("max({}, {})", col(rng, s), col(rng, s)),
        _ => {
            if s.has_text && rng.gen_bool(0.5) {
                "length(r.s)".to_string()
            } else if has_param && rng.gen_bool(0.5) {
                "x".to_string()
            } else {
                col(rng, s)
            }
        }
    }
}

/// A boolean predicate over the loop row `r`.
fn gen_pred(rng: &mut StdRng, s: &GenSchema, has_param: bool, depth: u32) -> String {
    if depth > 0 && rng.gen_bool(0.25) {
        let l = gen_pred(rng, s, has_param, depth - 1);
        let r = gen_pred(rng, s, has_param, depth - 1);
        let op = if rng.gen_bool(0.5) { "&&" } else { "||" };
        return format!("{l} {op} {r}");
    }
    if depth > 0 && rng.gen_bool(0.1) {
        return format!("!({})", gen_pred(rng, s, has_param, depth - 1));
    }
    if s.has_text && rng.gen_bool(0.15) {
        return format!("r.s == \"s{}\"", rng.gen_range(0..3u32));
    }
    let (n, _) = &s.int_cols[rng.gen_range(0..s.int_cols.len())];
    let op = ["==", "!=", "<", "<=", ">", ">="][rng.gen_range(0..6usize)];
    let rhs = if has_param && rng.gen_bool(0.3) {
        "x".to_string()
    } else {
        rng.gen_range(-5..6i64).to_string()
    };
    format!("r.{n} {op} {rhs}")
}

/// One accumulator: declaration, loop-body statement(s), and its variable.
struct Accum {
    decl: String,
    body: String,
    var: String,
}

fn gen_accum(rng: &mut StdRng, s: &GenSchema, has_param: bool, idx: usize) -> Accum {
    let var = format!("acc{idx}");
    let guarded = |rng: &mut StdRng, s: &GenSchema, stmt: String| -> String {
        if rng.gen_bool(0.5) {
            let p = gen_pred(rng, s, has_param, 1);
            format!("if ({p}) {{ {stmt} }}")
        } else {
            stmt
        }
    };
    let int_col = |rng: &mut StdRng, s: &GenSchema| {
        let (n, _) = &s.int_cols[rng.gen_range(0..s.int_cols.len())];
        format!("r.{n}")
    };
    let kinds = if s.has_u { 9 } else { 8 };
    match rng.gen_range(0..kinds as u32) {
        // Running sum, optionally guarded (T2 + T5.1 / T5.1-sum-null + T6).
        0 | 1 => {
            let init = if rng.gen_bool(0.7) {
                0
            } else {
                rng.gen_range(-100..101i64)
            };
            let e = gen_int_expr(rng, s, has_param);
            Accum {
                decl: format!("{var} = {init};"),
                body: guarded(rng, s, format!("{var} = {var} + {e};")),
                var,
            }
        }
        // Counting (T5.1-count).
        2 => Accum {
            decl: format!("{var} = 0;"),
            body: guarded(rng, s, format!("{var} = {var} + 1;")),
            var,
        },
        // Running max/min through the builtin (T5.1-max / T5.1-min).
        3 => {
            let e = int_col(rng, s);
            let f = if rng.gen_bool(0.5) { "max" } else { "min" };
            let init = if f == "max" { -100 } else { 100 };
            Accum {
                decl: format!("{var} = {init};"),
                body: guarded(rng, s, format!("{var} = {f}({var}, {e});")),
                var,
            }
        }
        // Running max via the conditional form (minmax-normalize).
        4 => {
            let e = int_col(rng, s);
            Accum {
                decl: format!("{var} = -100;"),
                body: format!("{var} = {e} > {var} ? {e} : {var};"),
                var,
            }
        }
        // Running min via the flipped conditional (keeps the smaller).
        5 => {
            let e = int_col(rng, s);
            Accum {
                decl: format!("{var} = 100;"),
                body: format!("{var} = {e} > {var} ? {var} : {e};"),
                var,
            }
        }
        // Boolean flag via `||` (EXISTS).
        6 => {
            let p = gen_pred(rng, s, has_param, 1);
            Accum {
                decl: format!("{var} = false;"),
                body: format!("{var} = {var} || {p};"),
                var,
            }
        }
        // Boolean flag via a guarded constant store (normalizes to EXISTS).
        7 => {
            let p = gen_pred(rng, s, has_param, 1);
            Accum {
                decl: format!("{var} = false;"),
                body: format!("if ({p}) {{ {var} = true; }}"),
                var,
            }
        }
        // Correlated nested loop over `u` (T2 + T4 / nested T5.1).
        _ => Accum {
            decl: format!("{var} = 0;"),
            body: format!(
                "for (w in executeQuery(\"SELECT * FROM u\")) {{ \
                 if (w.k == r.id) {{ {var} = {var} + w.v; }} }}"
            ),
            var,
        },
    }
}

/// Generate one complete fuzz case from a seed.
pub fn gen_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = gen_schema(&mut rng);
    let rows = rng.gen_range(0..9) as usize;
    let data = gen_data(&s.ddl, rows, rng.gen_range(0..i64::MAX) as u64, 30);

    let has_param = rng.gen_bool(0.5);
    let args = if has_param {
        vec![rng.gen_range(-5..6i64)]
    } else {
        Vec::new()
    };

    let query = {
        let mut q = String::from("SELECT * FROM t");
        if rng.gen_bool(0.3) {
            q.push_str(&format!(" WHERE g >= {}", rng.gen_range(-5..3i64)));
        }
        if rng.gen_bool(0.3) {
            q.push_str(" ORDER BY id");
        }
        q
    };

    let n_accs = rng.gen_range(1..3u32) as usize;
    let accs: Vec<Accum> = (0..n_accs)
        .map(|i| gen_accum(&mut rng, &s, has_param, i))
        .collect();

    let mut src = String::new();
    src.push_str(&format!(
        "fn main({}) {{\n",
        if has_param { "x" } else { "" }
    ));
    for a in &accs {
        src.push_str(&format!("    {}\n", a.decl));
    }
    src.push_str(&format!("    for (r in executeQuery(\"{query}\")) {{\n"));
    for a in &accs {
        src.push_str(&format!("        {}\n", a.body));
    }
    src.push_str("    }\n");
    for a in accs.iter().skip(1) {
        src.push_str(&format!("    print({});\n", a.var));
    }
    src.push_str(&format!("    return {};\n}}\n", accs[0].var));

    Case {
        ddl: s.ddl,
        data,
        program: src,
        function: "main".to_string(),
        args,
    }
}

/// Generate one write-loop (foreach-dml) fuzz case from a seed.
///
/// The body shapes cover the whole verdict space: keyed UPDATEs, INSERTs
/// into a keyless `log` table, and keyed DELETEs are batchable — the
/// extracted statement must leave identical final table contents — while
/// carried-scalar, non-key-UPDATE, key-rewriting-UPDATE, and two-site
/// shapes must be kept and blamed with exactly one `E010`/`W010`. Every
/// program has exactly one non-nested loop and no prints inside its body,
/// so the oracle's exactness contract on blame diagnostics is checkable by
/// counting.
pub fn gen_dml_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);

    // Write-loop schema: keyed driving table `t` plus a keyless `log` sink.
    let mut ddl = String::from("CREATE TABLE t (id INT PRIMARY KEY, g INT");
    let mut int_cols = vec![("g".to_string(), false)];
    for name in ["a", "b"] {
        let nullable = rng.gen_range(0..100u32) < 40;
        ddl.push_str(&format!(
            ", {name} INT{}",
            if nullable { " NULL" } else { "" }
        ));
        int_cols.push((name.to_string(), nullable));
    }
    let has_text = rng.gen_bool(0.3);
    if has_text {
        ddl.push_str(", s TEXT NULL");
    }
    ddl.push_str(");\n");
    ddl.push_str(&format!(
        "CREATE TABLE log (k INT, v INT{});\n",
        if rng.gen_bool(0.5) { " NULL" } else { "" }
    ));
    let s = GenSchema {
        ddl,
        int_cols,
        has_text,
        has_u: false,
    };

    let rows = rng.gen_range(1..9) as usize;
    let data = gen_data(&s.ddl, rows, rng.gen_range(0..i64::MAX) as u64, 30);

    let has_param = rng.gen_bool(0.5);
    let args = if has_param {
        vec![rng.gen_range(-5..6i64)]
    } else {
        Vec::new()
    };

    let query = {
        let mut q = String::from("SELECT * FROM t");
        if rng.gen_bool(0.4) {
            q.push_str(&format!(" WHERE g >= {}", rng.gen_range(-5..3i64)));
        }
        if rng.gen_bool(0.3) {
            q.push_str(" ORDER BY id");
        }
        q
    };

    // Then-branch-only guard: else-branch DML would double the site count.
    let guarded = |rng: &mut StdRng, s: &GenSchema, stmt: String| -> String {
        if rng.gen_bool(0.4) {
            let p = gen_pred(rng, s, has_param, 1);
            format!("if ({p}) {{ {stmt} }}")
        } else {
            stmt
        }
    };
    // Keyed UPDATE of 1–2 non-key columns; SET avoids `g` so the driving
    // query's WHERE column is never rewritten under the cursor.
    let keyed_update = |rng: &mut StdRng, s: &GenSchema| -> String {
        let n_sets = if rng.gen_bool(0.3) { 2 } else { 1 };
        let mut sets = Vec::new();
        let mut params = Vec::new();
        for c in ["a", "b"].iter().take(n_sets) {
            sets.push(format!("{c} = ?"));
            params.push(gen_int_expr(rng, s, has_param));
        }
        params.push("r.id".to_string());
        format!(
            "executeUpdate(\"UPDATE t SET {} WHERE id = ?\", {});",
            sets.join(", "),
            params.join(", ")
        )
    };
    let insert_log = |rng: &mut StdRng, s: &GenSchema| -> String {
        let v = gen_int_expr(rng, s, has_param);
        format!("executeUpdate(\"INSERT INTO log (k, v) VALUES (?, ?)\", r.id, {v});")
    };

    let mut decls: Vec<String> = Vec::new();
    let body: String = match rng.gen_range(0..20u32) {
        // Batchable keyed UPDATE, optionally guarded.
        0..=7 => {
            let stmt = keyed_update(&mut rng, &s);
            guarded(&mut rng, &s, stmt)
        }
        // Batchable INSERT … SELECT into the log table.
        8..=11 => {
            let stmt = insert_log(&mut rng, &s);
            guarded(&mut rng, &s, stmt)
        }
        // Batchable keyed DELETE (predicate folds into the driving WHERE).
        12..=14 => guarded(
            &mut rng,
            &s,
            "executeUpdate(\"DELETE FROM t WHERE id = ?\", r.id);".to_string(),
        ),
        // Carried scalar feeding the DML: flow dependence, expect E010.
        15 | 16 => {
            decls.push("acc = 0;".to_string());
            "acc = acc + r.g;\n        \
             executeUpdate(\"UPDATE t SET a = ? WHERE id = ?\", acc, r.id);"
                .to_string()
        }
        // UPDATE keyed on a non-key column (output dependence) or
        // rewriting its own key column (flow dependence): expect E010.
        17 | 18 => {
            let v = gen_int_expr(&mut rng, &s, has_param);
            if rng.gen_bool(0.5) {
                format!("executeUpdate(\"UPDATE t SET a = ? WHERE g = ?\", {v}, r.g);")
            } else {
                format!("executeUpdate(\"UPDATE t SET id = ? WHERE id = ?\", r.id + ({v}), r.id);")
            }
        }
        // Two DML sites in one body: extraction refuses, expect W010.
        _ => {
            let u = keyed_update(&mut rng, &s);
            let i = insert_log(&mut rng, &s);
            format!("{u}\n        {i}")
        }
    };

    let mut src = String::from("fn main(");
    if has_param {
        src.push('x');
    }
    src.push_str(") {\n");
    for d in &decls {
        src.push_str(&format!("    {d}\n"));
    }
    src.push_str(&format!("    for (r in executeQuery(\"{query}\")) {{\n"));
    src.push_str(&format!("        {body}\n"));
    src.push_str("    }\n    return 0;\n}\n");

    Case {
        ddl: s.ddl,
        data,
        program: src,
        function: "main".to_string(),
        args,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            assert_eq!(gen_case(seed), gen_case(seed), "seed {seed}");
            assert_eq!(gen_dml_case(seed), gen_dml_case(seed), "dml seed {seed}");
        }
    }

    #[test]
    fn generated_dml_programs_parse_and_write() {
        for seed in 0..200 {
            let c = gen_dml_case(seed);
            algebra::ddl::parse_ddl(&c.ddl)
                .unwrap_or_else(|e| panic!("seed {seed}: bad DDL: {e:?}\n{}", c.ddl));
            let p = imp::parse_program(&c.program)
                .unwrap_or_else(|e| panic!("seed {seed}: bad program: {e:?}\n{}", c.program));
            let has_dml = c.program.contains("executeUpdate");
            assert!(
                has_dml,
                "seed {seed}: write-loop case without DML\n{}",
                c.program
            );
            assert_eq!(p.functions.len(), 1);
        }
    }

    /// Arm 17 | 18 emits both E010 update shapes: keyed on a non-key
    /// column, and rewriting its own key.
    #[test]
    fn dml_cases_cover_both_kept_update_shapes() {
        let count = |needle: &str| {
            (0..200)
                .filter(|seed| gen_dml_case(*seed).program.contains(needle))
                .count()
        };
        let (non_key, key_rewrite) = (count("WHERE g = ?"), count("SET id = ?"));
        assert!(non_key > 0 && key_rewrite > 0, "{non_key} / {key_rewrite}");
    }

    #[test]
    fn generated_programs_parse_and_ddl_parses() {
        for seed in 0..200 {
            let c = gen_case(seed);
            algebra::ddl::parse_ddl(&c.ddl)
                .unwrap_or_else(|e| panic!("seed {seed}: bad DDL: {e:?}\n{}", c.ddl));
            imp::parse_program(&c.program)
                .unwrap_or_else(|e| panic!("seed {seed}: bad program: {e:?}\n{}", c.program));
        }
    }
}
