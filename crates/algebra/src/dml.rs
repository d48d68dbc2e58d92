//! Typed DML statements: the `executeUpdate` strings of application code
//! and the set-oriented statements foreach-dml extraction emits.
//!
//! [`crate::parse::parse_statement`] reads them with the query parser, so
//! their predicates, values and subqueries are the same [`Scalar`] and
//! [`RaExpr`] trees as any query's; [`crate::render::stmt_to_sql`] writes
//! them back.

use crate::ra::RaExpr;
use crate::scalar::{ColRef, Scalar};

/// A DML statement. Target table and column names are lowercased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `INSERT INTO table [(col, …)] VALUES (…)` or `… SELECT …`.
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list, when present.
        columns: Option<Vec<String>>,
        /// The inserted tuple or query.
        source: InsertSource,
    },
    /// `UPDATE table SET col = expr, … [WHERE pred]`.
    Update {
        /// Target table.
        table: String,
        /// `SET` assignments in textual order, over the target row.
        sets: Vec<(String, Scalar)>,
        /// `WHERE` predicate, when present.
        filter: Option<Scalar>,
    },
    /// `UPDATE table SET col = s.c, … FROM (query) AS s WHERE key = s.k`:
    /// every source row writes the target rows whose `key` equals its `k`.
    UpdateFrom {
        /// Target table.
        table: String,
        /// `(target column, source column)` pairs in textual order.
        sets: Vec<(String, String)>,
        /// The derived table's query.
        source: RaExpr,
        /// The derived table's alias.
        alias: String,
        /// Target key column, as written (bare or qualified by the table).
        key: ColRef,
        /// Source column matched against the key.
        source_key: String,
    },
    /// `DELETE FROM table [WHERE pred]`.
    Delete {
        /// Target table.
        table: String,
        /// `WHERE` predicate, when present.
        filter: Option<Scalar>,
    },
    /// `DELETE FROM table WHERE column IN (query)`.
    DeleteIn {
        /// Target table.
        table: String,
        /// Target column tested for membership.
        column: String,
        /// The one-column subquery.
        query: RaExpr,
    },
}

/// What an `INSERT` adds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertSource {
    /// One `VALUES` tuple.
    Values(Vec<Scalar>),
    /// Every row of a query.
    Query(RaExpr),
}

impl Stmt {
    /// The written table.
    pub fn table(&self) -> &str {
        match self {
            Stmt::Insert { table, .. }
            | Stmt::Update { table, .. }
            | Stmt::UpdateFrom { table, .. }
            | Stmt::Delete { table, .. }
            | Stmt::DeleteIn { table, .. } => table,
        }
    }

    /// The statement's verb: `INSERT`, `UPDATE` or `DELETE`.
    pub fn verb(&self) -> &'static str {
        match self {
            Stmt::Insert { .. } => "INSERT",
            Stmt::Update { .. } | Stmt::UpdateFrom { .. } => "UPDATE",
            Stmt::Delete { .. } | Stmt::DeleteIn { .. } => "DELETE",
        }
    }
}
