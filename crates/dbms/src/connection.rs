//! The simulated client/server connection.
//!
//! The paper's Experiments 5–8 measure end-to-end time and network data
//! transfer between a Java client and MySQL. Here the client/server boundary
//! is simulated: every `execute` pays one round-trip latency and a per-byte
//! transfer cost, and totals are metered in [`Stats`]. Reducing round trips
//! and bytes — exactly what EqSQL, batching and prefetching differ on — maps
//! directly onto the simulated elapsed time.

use algebra::ra::RaExpr;

use crate::eval::{eval_query, EvalError};
use crate::table::{Database, Relation};
use crate::value::Value;

/// Network/transfer cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost per query round trip, in microseconds. The paper's client
    /// and server share a machine; ~500µs models the JDBC+loopback stack.
    pub latency_us: f64,
    /// Per-byte transfer cost in microseconds (≈ 10µs/KiB ⇒ ~0.01).
    pub per_byte_us: f64,
    /// Per-row server-side processing cost in microseconds.
    pub per_row_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            latency_us: 500.0,
            per_byte_us: 0.01,
            per_row_us: 1.0,
        }
    }
}

/// Accumulated connection statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stats {
    /// Queries executed (round trips).
    pub queries: u64,
    /// Rows transferred to the client.
    pub rows: u64,
    /// Bytes transferred to the client.
    pub bytes: u64,
    /// Simulated elapsed time, microseconds.
    pub sim_us: f64,
}

impl Stats {
    /// Simulated elapsed time in milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.sim_us / 1000.0
    }
}

/// A database connection with cost accounting.
#[derive(Debug, Clone)]
pub struct Connection {
    /// The underlying database.
    pub db: Database,
    /// Cost model in effect.
    pub cost: CostModel,
    /// Running statistics.
    pub stats: Stats,
}

impl Connection {
    /// Open a connection over `db` with the default cost model.
    pub fn new(db: Database) -> Connection {
        Connection {
            db,
            cost: CostModel::default(),
            stats: Stats::default(),
        }
    }

    /// Open with an explicit cost model.
    pub fn with_cost(db: Database, cost: CostModel) -> Connection {
        Connection {
            db,
            cost,
            stats: Stats::default(),
        }
    }

    /// Execute a query, paying one round trip plus transfer costs.
    pub fn execute(&mut self, q: &RaExpr, params: &[Value]) -> Result<Relation, EvalError> {
        let rel = eval_query(q, &self.db, params)?;
        self.charge(&rel);
        Ok(rel)
    }

    /// Execute a batch of queries in a *single* round trip (used by the
    /// prefetching baseline, which overlaps submissions): one latency charge
    /// covers all of them, transfer is still paid per result.
    pub fn execute_overlapped(
        &mut self,
        queries: &[(&RaExpr, Vec<Value>)],
    ) -> Result<Vec<Relation>, EvalError> {
        let mut out = Vec::with_capacity(queries.len());
        for (i, (q, params)) in queries.iter().enumerate() {
            let rel = eval_query(q, &self.db, params)?;
            let bytes = rel.wire_size() as u64;
            self.stats.queries += 1;
            self.stats.rows += rel.len() as u64;
            self.stats.bytes += bytes;
            // Only the first query in the wave pays latency.
            let lat = if i == 0 { self.cost.latency_us } else { 0.0 };
            self.stats.sim_us += lat
                + bytes as f64 * self.cost.per_byte_us
                + rel.len() as f64 * self.cost.per_row_us;
            out.push(rel);
        }
        Ok(out)
    }

    fn charge(&mut self, rel: &Relation) {
        let bytes = rel.wire_size() as u64;
        self.stats.queries += 1;
        self.stats.rows += rel.len() as u64;
        self.stats.bytes += bytes;
        self.stats.sim_us += self.cost.latency_us
            + bytes as f64 * self.cost.per_byte_us
            + rel.len() as f64 * self.cost.per_row_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::parse::parse_sql;
    use algebra::schema::{SqlType, TableSchema};

    fn conn() -> Connection {
        let mut db = Database::new();
        db.create_table(TableSchema::new("t", &[("x", SqlType::Int)]));
        for i in 0..10 {
            db.insert("t", vec![Value::Int(i)]);
        }
        Connection::new(db)
    }

    #[test]
    fn execute_meters_round_trips_and_bytes() {
        let mut c = conn();
        let q = parse_sql("SELECT * FROM t").unwrap();
        let r = c.execute(&q, &[]).unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(c.stats.queries, 1);
        assert_eq!(c.stats.rows, 10);
        assert_eq!(c.stats.bytes, 10 * (8 + 8));
        assert!(c.stats.sim_us >= c.cost.latency_us);
    }

    #[test]
    fn aggregation_transfers_constant_data() {
        let mut c = conn();
        let q_all = parse_sql("SELECT * FROM t").unwrap();
        let q_agg = parse_sql("SELECT MAX(x) AS m FROM t").unwrap();
        c.execute(&q_all, &[]).unwrap();
        let full = c.stats.bytes;
        c.stats = Stats::default();
        c.execute(&q_agg, &[]).unwrap();
        assert!(c.stats.bytes < full, "aggregate moves less data");
        assert_eq!(c.stats.rows, 1);
    }

    #[test]
    fn overlapped_execution_pays_latency_once() {
        let mut c = conn();
        let q = parse_sql("SELECT * FROM t WHERE x = ?").unwrap();
        let batch: Vec<(&RaExpr, Vec<Value>)> = (0..5).map(|i| (&q, vec![Value::Int(i)])).collect();
        c.execute_overlapped(&batch).unwrap();
        let overlapped = c.stats.sim_us;
        assert_eq!(c.stats.queries, 5);
        c.stats = Stats::default();
        for i in 0..5 {
            c.execute(&q, &[Value::Int(i)]).unwrap();
        }
        let sequential = c.stats.sim_us;
        assert!(
            overlapped < sequential,
            "overlap {overlapped} must beat sequential {sequential}"
        );
    }
}
