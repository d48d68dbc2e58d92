//! `eqsql-core` — the paper's contribution: extracting equivalent SQL from
//! imperative code.
//!
//! Pipeline (paper Figure 1):
//!
//! ```text
//! imp source ──regions──▶ D-IR (ee-DAG + ve-Map)
//!                │                 │ loopToFold (preconditions P1–P3)
//!                │                 ▼
//!                │               F-IR (fold + extended relational algebra)
//!                │                 │ transformation rules T1–T7 + extensions
//!                │                 ▼
//!                └──rewrite◀── SQL generation
//! ```
//!
//! * [`eedag`] — the hash-consed equivalent-expression DAG and ve-Map
//!   (Sec. 3.2);
//! * [`dir`] — D-IR construction over the region hierarchy, including
//!   user-function inlining (Sec. 3.3, Appendix D);
//! * [`fir`] — conversion of cursor loops to `fold` (Sec. 4, Fig. 6);
//! * [`rules`] — the transformation rules (Sec. 5.1, Appendix B);
//! * [`certify`] — proof obligations for every rule application, discharged
//!   by algebraic normalization or differential evaluation over generated
//!   micro-databases (translation validation);
//! * [`sqlgen`] — translation of transformed F-IR into SQL plus parameter
//!   expressions (Sec. 5.2);
//! * [`rewrite`] — program rewriting and dead-code elimination (Sec. 5.2);
//! * [`extract`] — the public [`extract::Extractor`] API tying it together.

pub mod certify;
pub mod costing;
pub mod dir;
pub mod eedag;
pub mod extract;
pub mod fir;
pub mod lint;
pub mod rewrite;
pub mod rules;
pub mod sqlgen;

pub use certify::{CertReport, Certifier, Obligation, ObligationKind, Verdict};
pub use costing::{DbStats, RewriteDecision};
pub use extract::{
    CertSummary, ExtractionOutcome, ExtractionReport, Extractor, ExtractorOptions, StageTimes,
    VarExtraction, STAGE_COUNT,
};
pub use lint::lint_program;
pub use rules::RuleMiss;
pub use sqlgen::SqlGenError;
