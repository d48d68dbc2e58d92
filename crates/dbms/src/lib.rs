//! `dbms` — a multiset relational database engine.
//!
//! This is the substrate the paper's evaluation ran against (MySQL 5.5 over
//! JDBC/Hibernate). It executes the extended relational algebra of the
//! `algebra` crate with the exact semantics the paper assumes:
//!
//! * multiset relations; π preserves input order and keeps duplicates
//!   (Sec. 3.2.1);
//! * standard SQL `NULL` semantics for aggregates (Rule T5.2's note);
//! * `OUTER APPLY` / lateral padding with NULLs (Appendix B).
//!
//! Tables live in memory or in `storage` pages ([`table`], [`paged`]).
//! [`key`] holds SQL key equality and the hash index that answers it,
//! shared by keyed DML and the in-memory tables' primary-key index.
//! Every query, over either backing, runs on one executor: the volcano
//! operator tree in [`volcano`], which [`eval_query`] names. [`eval`]
//! holds the scalar evaluator and accumulators its operators share, and
//! specifies the rules every result obeys.
//!
//! [`connection::Connection`] wraps the engine behind a simulated
//! client/server boundary: each query costs one round-trip latency plus a
//! per-byte transfer cost, and all traffic is metered. Experiments 5–8
//! measure exactly these quantities (time and data transferred), so the
//! *shape* of the paper's results is reproducible without a networked MySQL.

pub mod connection;
pub mod eval;
pub mod gen;
pub mod key;
pub mod paged;
pub mod prng;
pub mod table;
pub mod value;
pub mod volcano;

pub use connection::{Connection, CostModel, Stats};
pub use eval::{eval_query, EvalError};
pub use paged::PagedTable;
pub use table::{Database, Relation, Row, Table};
pub use value::Value;
