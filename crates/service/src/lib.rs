//! `service` — extraction as a service.
//!
//! Turns the one-shot extractor of [`eqsql_core`] into a long-running,
//! concurrent system (the ROADMAP's production direction; COBRA — Emani &
//! Sudarshan, PAPERS.md — frames the same deployment: cost-based rewriting
//! applied across whole database applications, which needs a driver that
//! chews through a corpus concurrently and answers repeated queries
//! cheaply):
//!
//! * [`scheduler`] — a std-only thread-pool with a bounded job queue and
//!   one non-blocking entry point, `submit`, whose callback receives every
//!   outcome (result, queued-past-deadline timeout, panic or refusal);
//!   graceful draining shutdown; and [`scheduler::parallel_map`] for
//!   deterministic fan-out;
//! * [`cache`] — a content-addressed result cache (128-bit FNV-1a over
//!   length-prefixed inputs) with LRU eviction and hit/miss/eviction
//!   counters, sharded N ways by key bits ([`cache::ShardedCache`]); cached
//!   `ExtractionReport` documents replay byte-for-byte, diagnostics JSON
//!   included;
//! * [`service`] — [`service::ExtractionService`], the scheduler+cache
//!   façade shared by every driver: one callback-style job path
//!   (`extract_async`), which the blocking `extract` waits on through a
//!   channel;
//! * [`poll`] — a std-only readiness poller (epoll on Linux via a thin
//!   syscall shim, level-triggered) and the self-pipe wakeup;
//! * [`admission`] — per-tenant token-bucket admission control
//!   (`X-Tenant`, 429 + `Retry-After`);
//! * [`http`] — a keep-alive HTTP/1.1 server driven by one event-loop
//!   thread (persistent connections, pipelining, per-state deadlines)
//!   exposing `POST /extract`, `POST /lint`, `GET /healthz`, and
//!   `GET /metrics` (Prometheus text format);
//! * [`metrics`] — the Prometheus rendering and the metric inventory;
//! * [`batch`] — the `eqsql batch <dir>` corpus driver with `--jobs N`
//!   parallelism and deterministic, path-sorted output.
//!
//! Everything is std-only, matching the offline-build constraint
//! established in PR 1. The event-loop server targets unix (epoll on
//! Linux, `poll(2)` elsewhere).

pub mod admission;
pub mod batch;
pub mod cache;
pub mod http;
pub mod metrics;
pub mod poll;
pub mod scheduler;
pub mod service;

pub use admission::{Admission, Decision, Quota};
pub use batch::{run_batch, BatchOptions};
pub use cache::{CacheKey, CacheStats, ResultCache, ShardedCache};
pub use http::Server;
pub use scheduler::{
    parallel_map, JobResult, Scheduler, SchedulerConfig, SchedulerStats, SubmitError,
    WORKER_STACK_BYTES,
};
pub use service::{CacheStatus, ExtractRequest, ExtractionService, ServiceConfig, ServiceError};

/// Parse a dialect name as accepted by the CLI and the service request
/// body (`postgres`, `mysql`, `sqlserver`, `ansi`).
pub fn parse_dialect(name: &str) -> Option<algebra::Dialect> {
    match name {
        "postgres" => Some(algebra::Dialect::Postgres),
        "mysql" => Some(algebra::Dialect::Mysql),
        "sqlserver" => Some(algebra::Dialect::SqlServer),
        "ansi" => Some(algebra::Dialect::Ansi),
        _ => None,
    }
}
