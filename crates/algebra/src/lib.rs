//! Multiset extended relational algebra, scalar expressions, schemas, and SQL.
//!
//! This crate is the *declarative* half of the `eqsql` system. It defines:
//!
//! * [`scalar::Scalar`] — a scalar expression language (columns, parameters,
//!   arithmetic, comparisons, `CASE`, `GREATEST`, `EXISTS` subqueries, …)
//!   shared by the algebra, the SQL renderer, and the `dbms` evaluator;
//! * [`ra::RaExpr`] — the multiset extended relational algebra of the paper
//!   (Sec. 3.2.1): σ, π (order preserving, no duplicate elimination), ⨝,
//!   γ (grouping/aggregation), τ (sort), δ (duplicate elimination), and the
//!   `OUTER APPLY` construct of Rule T7 (Appendix B);
//! * [`dml::Stmt`] — typed DML statements (`executeUpdate` strings and the
//!   batched statements foreach-dml extraction emits);
//! * [`schema`] — table schemas, keys, and catalogs used for binding;
//! * [`render`] — dialect-aware SQL generation ([`dialect::Dialect`]);
//! * [`parse`] — a parser for the SQL subset that appears in application
//!   source code (`executeQuery("SELECT … WHERE x = ?")`,
//!   `executeUpdate("UPDATE … WHERE id = ?")`).
//!
//! Everything here is pure data + pure functions; execution lives in `dbms`.

pub mod ddl;
pub mod dialect;
pub mod dml;
pub mod parse;
pub mod ra;
pub mod render;
pub mod scalar;
pub mod schema;

pub use ddl::parse_ddl;
pub use dialect::Dialect;
pub use ra::{AggCall, AggFunc, JoinKind, RaExpr, SortKey, SortOrder};
pub use scalar::{BinOp, ColRef, Lit, Scalar, ScalarFunc, UnOp};
pub use schema::{Catalog, ColumnDef, SqlType, TableSchema};
