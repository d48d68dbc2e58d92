//! `interp` — an interpreter for `imp` programs.
//!
//! The interpreter serves three roles in the reproduction:
//!
//! 1. **Experiments** — running the original and the rewritten programs over
//!    the metered [`dbms::Connection`] yields the round-trip / data-transfer
//!    numbers of Figures 8–11;
//! 2. **Equivalence testing** — every extraction is checked by running both
//!    program versions on shared databases (Theorem 1 and the manual
//!    verification of Sec. 7.2, mechanized);
//! 3. **QBS's verifier** — the synthesis baseline checks candidate queries
//!    observationally against the interpreted loop.
//!
//! `executeQuery` strings are parsed by `algebra::parse` and executed via
//! the connection; a tiny DML subset (`INSERT INTO … VALUES`, `DELETE FROM …
//! [WHERE col = lit]`) backs `executeUpdate`.
//!
//! # Compiled once, then run
//!
//! On a function's first call the interpreter lowers it, with every user
//! function it may call, into one flat arena of nodes, and runs that. Names are resolved by the lowering,
//! not per evaluation: a variable is a dense slot of its call's frame (a
//! call's environment is one `Vec`), a builtin, method or SQL call an
//! enum, a user function an index. A string-literal SQL argument is parsed
//! once and held by its call; a literal that does not parse keeps its
//! error, which the call raises each time it runs, as a computed string's
//! would. A field read `e.f` caches the column it found against the row's
//! shared field list, and Int/Int arithmetic takes an inline path with
//! the same NULL-on-overflow results. A left-deep chain of binary
//! operators lowers to one node, so neither the lowering nor the run
//! recurses along it.
//!
//! # Value semantics
//!
//! Values are plain owned trees: assigning or passing a list copies it,
//! and a mutating method (`add`, `remove`, …) changes only the variable it
//! is called on. Returning a variable moves its value, since nothing can
//! read the frame it leaves. Reads avoid those copies where nothing can
//! observe the difference, so a cursor loop allocates nothing per row
//! beyond the fetched result:
//!
//! * `x.f` and the receiver of `size`/`isEmpty`/`contains`/`get`/`first`
//!   read a variable in place; only the scalar or element produced is
//!   copied. A receiver whose arguments contain a mutating call is copied
//!   first, since it is evaluated before them.
//! * `for (e in xs)` consumes an owned iterable without copying it, and
//!   iterates a snapshot of a variable: one copy, so the body may change
//!   or reassign the variable without affecting the iteration.
//! * Row fields resolve on the row's shared field list (leftmost match for
//!   an unqualified name), and binary operators consume their operands.
//!
//! # Cursor loops stream
//!
//! A `for (e in executeQuery(…))` whose body makes no database call,
//! directly or through a user function, pulls its rows from the query's
//! [`dbms::volcano::Cursor`] as the body asks for them instead of
//! buffering the whole result first, so it holds one row at a time rather
//! than the result twice over (once as a relation, once as a list). Which
//! loops qualify is decided when the loop is lowered, by a fixpoint over
//! the call graph; every other `for` keeps the buffered rows, through the
//! same loop. The row is pulled into one of two buffers that swap with the
//! loop variable's, so a warm loop allocates nothing per row and `e` still
//! holds the last row after the loop. Nothing
//! observable changes: every exit (the end, `break`, `return`, an error
//! in the body) drains the cursor and charges the query once, so
//! `conn.stats` match the buffered loop's, and a query error met on a
//! later row still wins over the body: its printed lines and steps are
//! undone and the same error is returned. While the loop runs, the
//! database is moved out of the connection for the cursor to borrow; the
//! body cannot reach it, which a debug assertion in the SQL entry points
//! checks.
//!
//! # Steps
//!
//! Every statement and every expression of the source, variable reads
//! included, charges one step against [`Interp::with_budget`] when it
//! runs, an expression before its operands, whatever the compiled form
//! fuses: an operator chain charges its operators' steps together, a
//! streamed loop's query call its own, a field read of a variable both.
//! The QBS verifier's budgets depend on these counts, and
//! `crates/interp/tests/semantics.rs` pins them per construct.

mod compile;
pub mod dml;
pub mod run;
pub mod value;

pub use run::{Interp, RtError};
pub use value::RtValue;
