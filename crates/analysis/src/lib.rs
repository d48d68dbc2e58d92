//! Program analyses over `imp` ASTs (paper Sec. 3.1 and 4.2).
//!
//! * [`cfg`](mod@cfg) — control-flow graph construction over basic blocks, with the
//!   designated `Start`/`End` nodes of the paper;
//! * [`dominators`] — iterative dominator computation, used to check the
//!   single-entry/single-exit region property;
//! * [`regions`] — the hierarchical region tree (basic block, sequential,
//!   conditional, loop regions; Fig. 4/5). Built from the AST, as the paper
//!   permits ("Alternatively, it is possible to use an abstract syntax tree
//!   to identify program regions"), and cross-validated against the CFG;
//! * [`defuse`] — per-statement def/use/external-access sets. The whole
//!   database is conservatively one external location, and accessing any
//!   element of a collection accesses the whole collection (Sec. 4.2);
//! * [`ddg`] — the data-dependence graph of a loop body, with loop-carried
//!   flow-dependence (lcfd) and external-dependence edges, used to check
//!   preconditions P1–P3 of `loopToFold` (Fig. 6);
//! * [`slice`](mod@slice) — backward program slices `slice(R, l, v)` (Weiser-style,
//!   including control predicates);
//! * [`dataflow`] — the reusable monotone-framework engine (forward or
//!   backward worklist over [`cfg`](mod@cfg) with a configurable join-semilattice,
//!   height-bounded termination, deterministic iteration order);
//! * [`depend`] — loop-carried dependence analysis for DML (write) loops,
//!   a forward [`dataflow`] client: per-iteration abstract read/write sets
//!   over tables and scalars, classified into flow/anti/output/control/
//!   effect dependences; its `Batchable` verdict licenses foreach-dml
//!   extraction (`E010`/`W010`);
//! * [`liveness`] — backward live-variable analysis, a [`dataflow`] client;
//! * [`reaching`] — forward reaching definitions, a [`dataflow`] client;
//! * [`taint`] — SQL-injection taint from program inputs to database-call
//!   query strings (`E009`);
//! * [`loopquery`] — loop-invariant (`W008`) and N+1 (`W009`) query lints;
//! * [`deadcode`] — removal of statements made dead by SQL extraction
//!   (Sec. 5.2, "Parts of region R which are now rendered dead … are removed
//!   by dead code elimination");
//! * [`callgraph`] — the user-function call graph, with a deterministic
//!   bottom-up processing order for interprocedural fixpoints;
//! * [`effects`] — interprocedural effect summaries (db-read/db-write/
//!   output/read/write lattice with parameter-escape masks) computed by
//!   callgraph fixpoint; [`purity`] and [`defuse`] are views of it;
//! * [`diag`] — typed, span-carrying diagnostics (`E0xx` hard extraction
//!   failures, `W0xx` advisories) with human and JSON renderers;
//! * [`json`] — the shared JSON writer/parser (escaping and number
//!   formatting in one place, used by `diag`, the extraction report
//!   serializer, and the service endpoints);
//! * [`pass`] — a pass manager running the analyses above as named passes
//!   that emit diagnostics uniformly.

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod ddg;
pub mod deadcode;
pub mod defuse;
pub mod depend;
pub mod diag;
pub mod dominators;
pub mod effects;
pub mod json;
pub mod liveness;
pub mod loopquery;
pub mod pass;
pub mod purity;
pub mod reaching;
pub mod regions;
pub mod slice;
pub mod taint;

pub use callgraph::CallGraph;
pub use cfg::{BlockId, Cfg};
pub use dataflow::{Analysis, Direction, Solution};
pub use ddg::{Ddg, DepKind};
pub use defuse::{DefUse, DefUseCtx};
pub use diag::{Code, Diagnostic, Label, Severity};
pub use effects::{effect_summaries, EffectSet, EffectSummary};
pub use pass::{Pass, PassContext, PassManager};
pub use reaching::ReachingDefs;
pub use regions::{Region, RegionId, RegionKind, RegionTree};
