//! `eqsql` — command-line front end for the extractor.
//!
//! ```text
//! eqsql extract <file.imp> --schema <schema.sql> [options]
//!     Extract equivalent SQL and print the rewritten program; extraction
//!     failures are reported as diagnostics on stderr.
//!
//! eqsql explain <file.imp> --schema <schema.sql> [options]
//!     Per-variable report: outcome, extracted SQL, replacement expression.
//!
//! eqsql lint <file.imp> --schema <schema.sql> [--format human|json]
//!     Run the diagnostic passes (purity, deadcode, liveness, ddg) plus a
//!     dry-run extraction; report every finding with its stable E/W code.
//!
//! eqsql certify <file.imp> --schema <schema.sql> [options]
//!     Extract with translation validation on: every rule application and
//!     fold introduction must discharge its proof obligation (algebraic
//!     normalization, else differential evaluation over generated
//!     micro-databases). Exits nonzero on any undischarged obligation
//!     (E007 counterexample or W006 inconclusive).
//!
//! eqsql run <file.imp> --schema <schema.sql> [--data <data.sql>]
//!           [--function NAME] [--arg N]...
//!     Interpret the program against an in-memory database built from the
//!     schema (and optional INSERT script), reporting round trips and
//!     transfer; then extract, re-run, and compare.
//!
//! eqsql batch <dir> [--jobs N] [--schema <schema.sql>] [options]
//!     Extract from every *.imp file under <dir> on a thread pool. Output
//!     is path-sorted and byte-identical for any --jobs value. Without
//!     --schema, a schema.sql next to each .imp file applies.
//!
//! eqsql serve [--addr HOST:PORT] [--jobs N] [--queue N]
//!             [--cache-entries N] [--cache-shards N]
//!             [--quota RATE[:BURST]] [--timeout-ms N] [--port-file PATH]
//!     Run the extraction service: POST /extract, POST /lint, GET /healthz,
//!     GET /metrics (Prometheus), POST /shutdown. --addr defaults to
//!     127.0.0.1:7090; port 0 picks an ephemeral port, and --port-file
//!     writes the bound address for scripts to discover.
//!
//! eqsql fuzz [--seed N] [--iters N] [--shrink] [--repros DIR]
//!            [--max-divergences N] [--store] [--store-rows N] [--dml]
//!     Differential fuzzing: generate random well-typed programs over
//!     random schemas, run each under the interpreter and through the
//!     extractor (evaluating the emitted SQL), and report divergences.
//!     Fully deterministic for a given seed. --shrink minimizes each
//!     failure; --repros writes minimized cases as standalone files.
//!     --store backs the tables with the paged storage engine (volcano
//!     executor + buffer pool) and amplifies each table by --store-rows
//!     generated rows (default 256), so larger cardinalities and page
//!     eviction are exercised too. --dml generates write loops instead
//!     (UPDATE/INSERT/DELETE under a cursor), compares the final table
//!     contents of the two runs, and holds kept write loops to the
//!     E010/W010 blame contract; combined with --store each side runs
//!     against a deep-forked page image, so paged write loops are
//!     differentially tested too. Exits nonzero when any divergence or
//!     panic is found.
//!
//! Common options:
//!     --function NAME      function to analyse (default: first function;
//!                          `lint` covers all functions unless given)
//!     --dialect D          postgres (default) | mysql | sqlserver | ansi
//!     --format F           lint output: human (default) | json
//!     --unordered          keyword-search mode (list order irrelevant)
//!     --prints             preprocess print statements (Sec. 2)
//!     --dependent-agg      enable argmax/argmin extraction (Appendix B)
//!     --partial            rewrite even when some loop variables fail
//!     --certify            certify rewrites during extract/explain/batch
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use algebra::ddl::parse_ddl;
use algebra::Dialect;
use analysis::diag::{render_json, Severity};
use dbms::{Connection, Database};
use eqsql_core::{lint_program, ExtractionOutcome, Extractor, ExtractorOptions};
use interp::{Interp, RtValue};

/// Run the command on a thread of the scheduler workers' stack size, so
/// the depth a program may reach is a stated fact, the same for every
/// command and for `serve`'s workers, not the platform's main-thread
/// default.
fn main() -> ExitCode {
    std::thread::Builder::new()
        .name("eqsql".into())
        .stack_size(service::WORKER_STACK_BYTES)
        .spawn(command)
        .expect("spawn the command thread")
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

fn command() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    match run(&args, &mut out).and_then(|()| Ok(out.flush()?)) {
        // A reader that closes the pipe early (`eqsql extract … | head`)
        // wants no more output; that is not an error.
        Ok(()) | Err(Fail::Closed) => ExitCode::SUCCESS,
        Err(Fail::Error(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped.
enum Fail {
    /// An error to report on stderr.
    Error(String),
    /// Standard output's reader went away.
    Closed,
}

impl From<String> for Fail {
    fn from(e: String) -> Fail {
        Fail::Error(e)
    }
}

impl From<&str> for Fail {
    fn from(e: &str) -> Fail {
        Fail::Error(e.to_string())
    }
}

/// A failed write to standard output.
impl From<io::Error> for Fail {
    fn from(e: io::Error) -> Fail {
        match e.kind() {
            io::ErrorKind::BrokenPipe => Fail::Closed,
            _ => Fail::Error(format!("stdout: {e}")),
        }
    }
}

struct Opts {
    file: String,
    schema: Option<String>,
    data: Option<String>,
    function: Option<String>,
    dialect: Dialect,
    json: bool,
    unordered: bool,
    prints: bool,
    dependent_agg: bool,
    partial: bool,
    certify: bool,
    run_args: Vec<i64>,
    // serve/batch options
    addr: String,
    jobs: usize,
    queue: usize,
    cache_entries: usize,
    cache_shards: usize,
    quota: service::Quota,
    timeout_ms: Option<u64>,
    port_file: Option<String>,
    // fuzz options
    seed: u64,
    iters: u64,
    shrink: bool,
    repros: Option<String>,
    max_divergences: usize,
    store: bool,
    store_rows: usize,
    dml: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        file: String::new(),
        schema: None,
        data: None,
        function: None,
        dialect: Dialect::Postgres,
        json: false,
        unordered: false,
        prints: false,
        dependent_agg: false,
        partial: false,
        certify: false,
        run_args: Vec::new(),
        addr: "127.0.0.1:7090".to_string(),
        jobs: std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4),
        queue: 64,
        cache_entries: 256,
        cache_shards: 8,
        quota: service::Quota::unlimited(),
        timeout_ms: Some(30_000),
        port_file: None,
        seed: 0,
        iters: 1000,
        shrink: false,
        repros: None,
        max_divergences: 0,
        store: false,
        store_rows: 256,
        dml: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--schema" => o.schema = Some(next(&mut it, "--schema")?),
            "--data" => o.data = Some(next(&mut it, "--data")?),
            "--function" => o.function = Some(next(&mut it, "--function")?),
            "--dialect" => {
                o.dialect = match next(&mut it, "--dialect")?.as_str() {
                    "postgres" => Dialect::Postgres,
                    "mysql" => Dialect::Mysql,
                    "sqlserver" => Dialect::SqlServer,
                    "ansi" => Dialect::Ansi,
                    d => return Err(format!("unknown dialect {d}")),
                }
            }
            "--format" => {
                o.json = match next(&mut it, "--format")?.as_str() {
                    "human" => false,
                    "json" => true,
                    f => return Err(format!("unknown format {f} (expected human or json)")),
                }
            }
            "--addr" => o.addr = next(&mut it, "--addr")?,
            "--jobs" => {
                o.jobs = next(&mut it, "--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?
            }
            "--queue" => {
                o.queue = next(&mut it, "--queue")?
                    .parse()
                    .map_err(|e| format!("bad --queue: {e}"))?
            }
            "--cache-entries" => {
                o.cache_entries = next(&mut it, "--cache-entries")?
                    .parse()
                    .map_err(|e| format!("bad --cache-entries: {e}"))?
            }
            "--timeout-ms" => {
                let ms: u64 = next(&mut it, "--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad --timeout-ms: {e}"))?;
                o.timeout_ms = (ms > 0).then_some(ms);
            }
            "--port-file" => o.port_file = Some(next(&mut it, "--port-file")?),
            "--cache-shards" => {
                o.cache_shards = next(&mut it, "--cache-shards")?
                    .parse()
                    .map_err(|e| format!("bad --cache-shards: {e}"))?
            }
            "--quota" => {
                o.quota = service::Quota::parse(&next(&mut it, "--quota")?)
                    .map_err(|e| format!("bad --quota: {e}"))?
            }
            "--seed" => {
                o.seed = next(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--iters" => {
                o.iters = next(&mut it, "--iters")?
                    .parse()
                    .map_err(|e| format!("bad --iters: {e}"))?
            }
            "--shrink" => o.shrink = true,
            "--repros" => o.repros = Some(next(&mut it, "--repros")?),
            "--max-divergences" => {
                o.max_divergences = next(&mut it, "--max-divergences")?
                    .parse()
                    .map_err(|e| format!("bad --max-divergences: {e}"))?
            }
            "--store" => o.store = true,
            "--dml" => o.dml = true,
            "--store-rows" => {
                o.store_rows = next(&mut it, "--store-rows")?
                    .parse()
                    .map_err(|e| format!("bad --store-rows: {e}"))?
            }
            "--unordered" => o.unordered = true,
            "--prints" => o.prints = true,
            "--dependent-agg" => o.dependent_agg = true,
            "--partial" => o.partial = true,
            "--certify" => o.certify = true,
            "--arg" => o.run_args.push(
                next(&mut it, "--arg")?
                    .parse()
                    .map_err(|e| format!("bad --arg: {e}"))?,
            ),
            f if !f.starts_with("--") && o.file.is_empty() => o.file = f.to_string(),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn next(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn run(args: &[String], out: &mut impl Write) -> Result<(), Fail> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    let opts = parse_opts(&args[1..])?;
    match cmd.as_str() {
        "serve" => return Ok(run_serve(&opts)?),
        "batch" => return run_batch_cmd(&opts, out),
        "fuzz" => return run_fuzz_cmd(&opts, out),
        _ => {}
    }
    if opts.file.is_empty() {
        return Err("missing input file".into());
    }
    let source = std::fs::read_to_string(&opts.file).map_err(|e| format!("{}: {e}", opts.file))?;
    let program = imp::parse_and_normalize(&source).map_err(|e| {
        let (line, col) = imp::token::line_col(&source, e.offset);
        format!("{}:{line}:{col}: {}", opts.file, e.message)
    })?;
    let catalog = match &opts.schema {
        Some(path) => {
            let ddl = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_ddl(&ddl).map_err(|e| e.to_string())?
        }
        None => algebra::schema::Catalog::new(),
    };
    let fname = opts
        .function
        .clone()
        .or_else(|| program.functions.first().map(|f| f.name.to_string()))
        .ok_or("program has no functions")?;
    if program.function(&fname).is_none() {
        let available: Vec<&str> = program.functions.iter().map(|f| f.name.as_str()).collect();
        return Err(format!(
            "function `{fname}` not found; available: {}",
            available.join(", ")
        )
        .into());
    }
    let extractor = Extractor::with_options(catalog.clone(), extractor_options(&opts));

    match cmd.as_str() {
        "extract" => {
            let report = extractor.extract_function(&program, &fname);
            for v in &report.vars {
                for sql in &v.sql {
                    writeln!(out, "-- {}: {sql}", v.var)?;
                }
            }
            writeln!(out, "{}", imp::pretty_print(&report.program))?;
            for d in &report.diagnostics {
                eprintln!("{}", d.render_human(&source, &opts.file));
            }
            eprintln!(
                "{} loop(s) rewritten in {:.2} ms",
                report.loops_rewritten,
                report.elapsed.as_secs_f64() * 1000.0
            );
            if let Some(c) = &report.certification {
                eprintln!("{}", cert_summary_line(c));
            }
            Ok(())
        }
        "certify" => {
            let mut extractor = extractor;
            extractor.opts.certify = true;
            // Without --function, certify the whole program.
            let report = if opts.function.is_some() {
                extractor.extract_function(&program, &fname)
            } else {
                extractor.extract_program(&program)
            };
            for v in &report.vars {
                let outcome = match &v.outcome {
                    ExtractionOutcome::Extracted => "extracted".to_string(),
                    ExtractionOutcome::ExtractedNotRewritten(d)
                    | ExtractionOutcome::FoldFailed(d)
                    | ExtractionOutcome::SqlFailed(d) => d.code.as_str().to_string(),
                };
                writeln!(
                    out,
                    "{}::{} ({}): {outcome}{}",
                    v.function,
                    v.var,
                    v.loop_stmt,
                    if v.rule_trace.is_empty() {
                        String::new()
                    } else {
                        format!("  [{}]", v.rule_trace.join(" → "))
                    }
                )?;
            }
            for d in report.diagnostics.iter().filter(|d| d.pass == "certify") {
                eprintln!("{}", d.render_human(&source, &opts.file));
            }
            let c = report
                .certification
                .expect("certify run always carries a summary");
            writeln!(out, "{}", cert_summary_line(&c))?;
            if c.counterexamples > 0 || c.inconclusive > 0 {
                return Err(format!(
                    "{} obligation(s) undischarged ({} counterexample(s), {} inconclusive)",
                    c.counterexamples + c.inconclusive,
                    c.counterexamples,
                    c.inconclusive
                )
                .into());
            }
            Ok(())
        }
        "explain" => {
            let report = extractor.extract_function(&program, &fname);
            writeln!(
                out,
                "function {fname}: {} loop(s) rewritten",
                report.loops_rewritten
            )?;
            for v in &report.vars {
                writeln!(out, "\nvariable `{}` (loop {}):", v.var, v.loop_stmt)?;
                match &v.outcome {
                    ExtractionOutcome::Extracted => writeln!(out, "  outcome: extracted")?,
                    other => {
                        let d = other
                            .diagnostic()
                            .expect("non-extracted carries a diagnostic");
                        writeln!(out, "  outcome: {d}")?;
                    }
                }
                for sql in &v.sql {
                    writeln!(out, "  sql: {sql}")?;
                }
                if let Some(fir) = &v.fir {
                    writeln!(out, "  F-IR: {fir}")?;
                }
                if !v.rule_trace.is_empty() {
                    writeln!(out, "  rules: {}", v.rule_trace.join(" → "))?;
                }
                if let Some(r) = &v.replacement {
                    writeln!(out, "  replacement: {r}")?;
                }
            }
            Ok(())
        }
        "lint" => {
            let mut diags = lint_program(&program, &catalog, &extractor.opts);
            if opts.function.is_some() {
                diags.retain(|d| d.function.as_deref() == Some(fname.as_str()));
            }
            if opts.json {
                writeln!(out, "{}", render_json(&diags, &source))?;
            } else {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity() == Severity::Error)
                    .count();
                let warnings = diags.len() - errors;
                for d in &diags {
                    writeln!(out, "{}", d.render_human(&source, &opts.file))?;
                }
                eprintln!("{errors} error(s), {warnings} warning(s)");
            }
            Ok(())
        }
        "run" => {
            let mut db = Database::new();
            for schema in catalog.tables() {
                db.create_table(schema.clone());
            }
            if let Some(path) = &opts.data {
                let script = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                for (_, stmt) in algebra::ddl::split_statements(&script) {
                    let stmt = stmt.trim();
                    if stmt.is_empty() {
                        continue;
                    }
                    interp::dml::execute_update(&mut db, stmt, &[])
                        .map_err(|e| format!("data script: {e}"))?;
                }
            }
            let args: Vec<RtValue> = opts.run_args.iter().map(|i| RtValue::int(*i)).collect();

            let mut orig = Interp::new(&program, Connection::new(db.clone()));
            let v1 = orig.call(&fname, args.clone()).map_err(|e| e.to_string())?;
            writeln!(out, "original : result = {v1}")?;
            for line in &orig.output {
                writeln!(out, "  | {line}")?;
            }
            writeln!(
                out,
                "  {} queries, {} rows, {} bytes, {:.2} ms simulated",
                orig.conn.stats.queries,
                orig.conn.stats.rows,
                orig.conn.stats.bytes,
                orig.conn.stats.sim_ms()
            )?;

            let report = extractor.extract_function(&program, &fname);
            if !report.changed() {
                writeln!(out, "rewritten: (no rewrite applied)")?;
                return Ok(());
            }
            let mut new = Interp::new(&report.program, Connection::new(db));
            let v2 = new.call(&fname, args).map_err(|e| e.to_string())?;
            writeln!(out, "rewritten: result = {v2}")?;
            writeln!(
                out,
                "  {} queries, {} rows, {} bytes, {:.2} ms simulated ({:.1}x)",
                new.conn.stats.queries,
                new.conn.stats.rows,
                new.conn.stats.bytes,
                new.conn.stats.sim_ms(),
                orig.conn.stats.sim_us / new.conn.stats.sim_us.max(1e-9),
            )?;
            Ok(())
        }
        other => {
            print_usage();
            Err(format!("unknown command {other}").into())
        }
    }
}

fn cert_summary_line(c: &eqsql_core::CertSummary) -> String {
    format!(
        "certification: {} obligation(s): {} by normalization, {} by differential \
         testing, {} inconclusive, {} counterexample(s)",
        c.total,
        c.discharged_normalize,
        c.discharged_differential,
        c.inconclusive,
        c.counterexamples
    )
}

fn extractor_options(opts: &Opts) -> ExtractorOptions {
    ExtractorOptions {
        dialect: opts.dialect,
        ordered: !opts.unordered,
        require_all_vars: !opts.partial,
        rewrite_prints: opts.prints,
        dependent_agg: opts.dependent_agg,
        cost_based: None,
        prefer_lateral: false,
        certify: opts.certify,
        ..ExtractorOptions::default()
    }
}

fn run_serve(opts: &Opts) -> Result<(), String> {
    let config = service::ServiceConfig {
        workers: opts.jobs,
        queue_capacity: opts.queue,
        cache_entries: opts.cache_entries,
        cache_shards: opts.cache_shards,
        quota: opts.quota,
        job_timeout: opts.timeout_ms.map(std::time::Duration::from_millis),
        ..service::ServiceConfig::default()
    };
    let server = service::Server::start(&opts.addr, config)
        .map_err(|e| format!("bind {}: {e}", opts.addr))?;
    let addr = server.addr();
    if let Some(path) = &opts.port_file {
        std::fs::write(path, addr.to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    eprintln!(
        "eqsql serve listening on {addr} ({} worker(s), queue {}, cache {} entr{})",
        opts.jobs,
        opts.queue,
        opts.cache_entries,
        if opts.cache_entries == 1 { "y" } else { "ies" }
    );
    server.wait(); // returns after POST /shutdown
    eprintln!("eqsql serve: shut down");
    Ok(())
}

fn run_batch_cmd(opts: &Opts, out: &mut impl Write) -> Result<(), Fail> {
    if opts.file.is_empty() {
        return Err("batch needs a corpus directory".into());
    }
    let report = service::run_batch(
        std::path::Path::new(&opts.file),
        &service::BatchOptions {
            jobs: opts.jobs,
            schema: opts.schema.clone().map(std::path::PathBuf::from),
            options: extractor_options(opts),
        },
    )?;
    write!(out, "{report}")?;
    Ok(())
}

fn run_fuzz_cmd(opts: &Opts, out: &mut impl Write) -> Result<(), Fail> {
    let cfg = fuzz::FuzzConfig {
        seed: opts.seed,
        iters: opts.iters,
        shrink: opts.shrink,
        repro_dir: opts.repros.clone().map(std::path::PathBuf::from),
        max_divergences: opts.max_divergences,
        store: opts.store,
        store_rows: opts.store_rows,
        dml: opts.dml,
    };
    // The oracle traps panics with catch_unwind and reports them as
    // divergences; suppress the default hook's backtrace spew so the
    // fuzz output stays deterministic and readable.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = fuzz::run_fuzz(&cfg);
    std::panic::set_hook(hook);

    for d in &report.divergences {
        writeln!(
            out,
            "divergence (seed {}): [{}] {}",
            d.seed, d.divergence.kind, d.divergence.detail
        )?;
        if let Some(stem) = &d.repro {
            writeln!(
                out,
                "  repro written: {stem}.imp / {stem}.schema.sql / {stem}.data.sql"
            )?;
        }
        for line in d.case.program.lines() {
            writeln!(out, "  | {line}")?;
        }
    }
    writeln!(
        out,
        "fuzz: {} iteration(s), {} extracted, {} skipped, {} divergence(s), {} panic(s) \
         [seed {}]",
        report.iterations,
        report.extracted,
        report.skipped,
        report.divergences.len(),
        report.panics,
        opts.seed,
    )?;
    if report.clean() {
        Ok(())
    } else {
        Err(format!("{} divergence(s) found", report.divergences.len()).into())
    }
}

fn print_usage() {
    eprintln!(
        "usage: eqsql <extract|explain|lint|certify|run> <file.imp> --schema <schema.sql> \
         [--function NAME] [--dialect D] [--format human|json] [--unordered] \
         [--prints] [--dependent-agg] [--partial] [--certify] [--data <data.sql>] [--arg N]...\n\
       \x20      eqsql batch <dir> [--jobs N] [--schema <schema.sql>] [options]\n\
       \x20      eqsql serve [--addr HOST:PORT] [--jobs N] [--queue N] \
         [--cache-entries N] [--cache-shards N] \
         [--quota RATE[:BURST]] [--timeout-ms N] [--port-file PATH]\n\
       \x20      eqsql fuzz [--seed N] [--iters N] [--shrink] [--repros DIR] \
         [--max-divergences N] [--store] [--store-rows N] [--dml]"
    );
}
