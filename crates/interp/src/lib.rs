//! `interp` — a tree-walking interpreter for `imp` programs.
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
//! # Value semantics
//!
//! Values are plain owned trees: assigning, returning or passing a list
//! copies it, and a mutating method (`add`, `remove`, …) changes only the
//! variable it is called on. Reads avoid those copies where nothing can
//! observe the difference, so a cursor loop allocates nothing per row
//! beyond the fetched result:
//!
//! * `x.f` and the receiver of `size`/`isEmpty`/`contains`/`get`/`first`
//!   read a variable in place; only the scalar or element produced is
//!   copied. A receiver whose arguments contain a mutating call is copied
//!   first, since it is evaluated before them.
//! * `for (e in xs)` consumes an owned iterable (`executeQuery(..)`)
//!   without copying it, and iterates a snapshot of a variable: one copy,
//!   so the body may change or reassign the variable without affecting
//!   the iteration.
//! * Row fields resolve on the row's shared field list (leftmost match for
//!   an unqualified name), and binary operators consume their operands.
//!
//! None of this changes the step accounting: every expression, variable
//! read included, charges the same one step against
//! [`Interp::with_budget`] as a copying read did, so the QBS verifier's
//! budgets select the same candidates.

pub mod dml;
pub mod run;
pub mod value;

pub use run::{Interp, RtError};
pub use value::RtValue;
