//! `workloads` — the application corpus of the paper's evaluation (Sec. 7).
//!
//! * [`wilos`] — the 33 code fragments of Table 1, re-created in `imp` from
//!   their described patterns, with the paper's reported QBS times and
//!   per-sample expectations;
//! * [`matoso`] — the Figure 2 ranking-page fragment (Experiment 7);
//! * [`jobportal`] — the Figure 12 star-schema fragment (Experiment 8);
//! * [`servlets`] — the keyword-search corpora: RuBiS (17), RuBBoS (16) and
//!   AcadPortal (79) servlet-style programs (Experiment 3);
//! * [`sweep`] — those programs after `examples/corpus`, each with its
//!   catalog: the 158-program sweep the tests and `perf_pipeline` share.
//!
//! Every module ships its schema catalog and a deterministic data
//! generator, so experiments are reproducible end to end.

pub mod jobportal;
pub mod matoso;
pub mod servlets;
pub mod sweep;
pub mod wilos;

/// What the EqSQL implementation is expected to do with a sample
/// (mirroring Table 1's three outcomes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Equivalent SQL is extracted (a time appears in the EqSQL column).
    Extracts,
    /// The paper's techniques cover the pattern but the implementation does
    /// not (the ✗ entries of Table 1).
    CouldButNot,
    /// Outside the techniques' scope (the "–" entries).
    Fails,
}
