//! Control-flow graph construction (paper Sec. 3.1).
//!
//! "A Control Flow Graph (CFG) is a directed graph in which nodes correspond
//! to basic blocks in the program and edges correspond to control flow.
//! There are two specially designated nodes: the Start node, through which
//! control enters into the graph, and the End node, through which all
//! control flow leaves."

use intern::Symbol;
use std::collections::BTreeSet;

use imp::ast::{Block, Expr, Function, StmtId, StmtKind};

use crate::dataflow::BitSet;

/// Index of a basic block in a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

/// What ends a basic block. Expressions are borrowed from the function
/// the CFG was built from.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator<'f> {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way branch on a condition expression.
    Branch {
        /// Branch condition.
        cond: &'f Expr,
        /// Successor when true.
        then_to: BlockId,
        /// Successor when false.
        else_to: BlockId,
    },
    /// Loop-header dispatch of a cursor loop: either enter the body with the
    /// next element, or exit.
    ForDispatch {
        /// Loop variable.
        var: Symbol,
        /// Iterated expression.
        iterable: &'f Expr,
        /// Body entry.
        body: BlockId,
        /// Loop exit.
        exit: BlockId,
    },
    /// Function return.
    Return(Option<&'f Expr>),
    /// Falls into the End node.
    End,
}

/// A basic block: a maximal straight-line statement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BasicBlock<'f> {
    /// Ids of the statements in the block, in order.
    pub stmts: Vec<StmtId>,
    /// Block terminator (`End` by default until sealed).
    pub terminator: Option<Terminator<'f>>,
}

/// A control-flow graph for one function, borrowing its expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfg<'f> {
    /// Basic blocks; `blocks[0]` is the Start node.
    pub blocks: Vec<BasicBlock<'f>>,
    /// The designated Start node (always `BlockId(0)`).
    pub start: BlockId,
    /// The designated End node.
    pub end: BlockId,
}

impl<'f> Cfg<'f> {
    /// Build the CFG of a function body.
    pub fn build(f: &'f Function) -> Cfg<'f> {
        // Start and End, then three blocks per compound statement; only
        // code after a `return`/`break` may need more.
        let mut compound = 0;
        f.body.walk(&mut |s, _| {
            compound += usize::from(matches!(
                s.kind,
                StmtKind::If { .. } | StmtKind::ForEach { .. } | StmtKind::While { .. }
            ));
        });
        let mut b = Builder {
            blocks: Vec::with_capacity(2 + 3 * compound),
        };
        let start = b.new_block();
        let end = b.new_block();
        let last = b.lower_block(&f.body, start, end, None);
        // Fall-through from the last open block to End.
        if b.blocks[last.0].terminator.is_none() {
            b.blocks[last.0].terminator = Some(Terminator::Goto(end));
        }
        if b.blocks[end.0].terminator.is_none() {
            b.blocks[end.0].terminator = Some(Terminator::End);
        }
        Cfg {
            blocks: b.blocks,
            start,
            end: BlockId(1),
        }
    }

    /// Successor block ids of `id`.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        self.successors_iter(id).collect()
    }

    /// Successor block ids of `id`, without allocating.
    pub fn successors_iter(&self, id: BlockId) -> impl Iterator<Item = BlockId> {
        let (first, second) = match &self.blocks[id.0].terminator {
            Some(Terminator::Goto(t)) => (Some(*t), None),
            Some(Terminator::Branch {
                then_to, else_to, ..
            }) => (Some(*then_to), Some(*else_to)),
            Some(Terminator::ForDispatch { body, exit, .. }) => (Some(*body), Some(*exit)),
            Some(Terminator::Return(_)) => (Some(self.end), None),
            Some(Terminator::End) | None => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Predecessor sets for all blocks.
    pub fn predecessors(&self) -> Vec<BTreeSet<BlockId>> {
        let mut preds = vec![BTreeSet::new(); self.blocks.len()];
        for i in 0..self.blocks.len() {
            for s in self.successors_iter(BlockId(i)) {
                preds[s.0].insert(BlockId(i));
            }
        }
        preds
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the CFG has no blocks (never happens for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Blocks in reverse post-order from Start.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = BitSet::new(self.blocks.len());
        let mut order = Vec::with_capacity(self.blocks.len());
        self.dfs(self.start, &mut visited, &mut order);
        order.reverse();
        order
    }

    fn dfs(&self, b: BlockId, visited: &mut BitSet, order: &mut Vec<BlockId>) {
        if !visited.insert(b.0) {
            return;
        }
        for s in self.successors_iter(b) {
            self.dfs(s, visited, order);
        }
        order.push(b);
    }
}

struct Builder<'f> {
    blocks: Vec<BasicBlock<'f>>,
}

impl<'f> Builder<'f> {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock::default());
        BlockId(self.blocks.len() - 1)
    }

    /// Lower `block` starting in `current`; `loop_ctx` is the innermost
    /// enclosing loop's `(header, exit)` pair for break/continue lowering.
    /// Returns the block that is open at the end.
    fn lower_block(
        &mut self,
        block: &'f Block,
        mut current: BlockId,
        fn_end: BlockId,
        loop_ctx: Option<(BlockId, BlockId)>,
    ) -> BlockId {
        for s in &block.stmts {
            // A sealed block (return/break) makes the rest unreachable; keep
            // lowering into a fresh unreachable block for simplicity.
            if self.blocks[current.0].terminator.is_some() {
                current = self.new_block();
            }
            match &s.kind {
                StmtKind::Assign { .. } | StmtKind::Expr(_) | StmtKind::Print(_) => {
                    self.blocks[current.0].stmts.push(s.id);
                }
                StmtKind::Return(v) => {
                    self.blocks[current.0].stmts.push(s.id);
                    self.blocks[current.0].terminator = Some(Terminator::Return(v.as_ref()));
                }
                StmtKind::Break => {
                    // Jump to the innermost loop's exit; outside any loop
                    // (malformed input) fall back to function end.
                    self.blocks[current.0].stmts.push(s.id);
                    let target = loop_ctx.map(|(_, exit)| exit).unwrap_or(fn_end);
                    self.blocks[current.0].terminator = Some(Terminator::Goto(target));
                }
                StmtKind::Continue => {
                    // Jump back to the innermost loop's header.
                    self.blocks[current.0].stmts.push(s.id);
                    let target = loop_ctx.map(|(header, _)| header).unwrap_or(fn_end);
                    self.blocks[current.0].terminator = Some(Terminator::Goto(target));
                }
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let then_b = self.new_block();
                    let else_b = self.new_block();
                    let join = self.new_block();
                    // The `If` id rides in the branching block so dataflow
                    // clients get a per-statement fact at the condition.
                    self.blocks[current.0].stmts.push(s.id);
                    self.blocks[current.0].terminator = Some(Terminator::Branch {
                        cond,
                        then_to: then_b,
                        else_to: else_b,
                    });
                    let then_last = self.lower_block(then_branch, then_b, fn_end, loop_ctx);
                    if self.blocks[then_last.0].terminator.is_none() {
                        self.blocks[then_last.0].terminator = Some(Terminator::Goto(join));
                    }
                    let else_last = self.lower_block(else_branch, else_b, fn_end, loop_ctx);
                    if self.blocks[else_last.0].terminator.is_none() {
                        self.blocks[else_last.0].terminator = Some(Terminator::Goto(join));
                    }
                    current = join;
                }
                StmtKind::ForEach {
                    var,
                    iterable,
                    body,
                } => {
                    let header = self.new_block();
                    let body_b = self.new_block();
                    let exit = self.new_block();
                    self.blocks[current.0].terminator = Some(Terminator::Goto(header));
                    self.blocks[header.0].stmts.push(s.id);
                    self.blocks[header.0].terminator = Some(Terminator::ForDispatch {
                        var: *var,
                        iterable,
                        body: body_b,
                        exit,
                    });
                    let body_last = self.lower_block(body, body_b, fn_end, Some((header, exit)));
                    if self.blocks[body_last.0].terminator.is_none() {
                        self.blocks[body_last.0].terminator = Some(Terminator::Goto(header));
                    }
                    current = exit;
                }
                StmtKind::While { cond, body } => {
                    let header = self.new_block();
                    let body_b = self.new_block();
                    let exit = self.new_block();
                    self.blocks[current.0].terminator = Some(Terminator::Goto(header));
                    self.blocks[header.0].stmts.push(s.id);
                    self.blocks[header.0].terminator = Some(Terminator::Branch {
                        cond,
                        then_to: body_b,
                        else_to: exit,
                    });
                    let body_last = self.lower_block(body, body_b, fn_end, Some((header, exit)));
                    if self.blocks[body_last.0].terminator.is_none() {
                        self.blocks[body_last.0].terminator = Some(Terminator::Goto(header));
                    }
                    current = exit;
                }
            }
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    /// The CFG borrows the function, so the test leaks it.
    fn cfg_of(src: &str) -> Cfg<'static> {
        let p = Box::leak(Box::new(parse_program(src).unwrap()));
        Cfg::build(&p.functions[0])
    }

    #[test]
    fn straight_line_is_one_block() {
        let c = cfg_of("fn f() { a = 1; b = 2; c = a + b; }");
        // Start holds the statements, then End.
        assert_eq!(c.blocks[c.start.0].stmts.len(), 3);
        assert_eq!(c.successors(c.start), vec![c.end]);
    }

    #[test]
    fn if_creates_diamond() {
        let c = cfg_of("fn f() { if (x > 0) { y = 1; } else { y = 2; } z = y; }");
        match &c.blocks[c.start.0].terminator {
            Some(Terminator::Branch {
                then_to, else_to, ..
            }) => {
                let then_succ = c.successors(*then_to);
                let else_succ = c.successors(*else_to);
                assert_eq!(then_succ, else_succ, "both arms join");
            }
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn loop_creates_back_edge() {
        let c = cfg_of("fn f() { for (t in q) { x = t.a; } return x; }");
        // Find the for-dispatch header.
        let header = c
            .blocks
            .iter()
            .position(|b| matches!(b.terminator, Some(Terminator::ForDispatch { .. })))
            .unwrap();
        let (body, _exit) = match &c.blocks[header].terminator {
            Some(Terminator::ForDispatch { body, exit, .. }) => (*body, *exit),
            _ => unreachable!(),
        };
        // The body eventually loops back to the header.
        let mut cur = body;
        let mut steps = 0;
        loop {
            let succ = c.successors(cur);
            assert_eq!(succ.len(), 1);
            cur = succ[0];
            steps += 1;
            assert!(steps < 10, "runaway");
            if cur == BlockId(header) {
                break;
            }
        }
    }

    #[test]
    fn return_goes_to_end() {
        let c = cfg_of("fn f() { return 1; }");
        assert_eq!(c.successors(c.start), vec![c.end]);
        assert!(matches!(
            c.blocks[c.start.0].terminator,
            Some(Terminator::Return(_))
        ));
    }

    #[test]
    fn reverse_postorder_starts_at_start() {
        let c = cfg_of("fn f() { if (a) { b = 1; } c = 2; }");
        let rpo = c.reverse_postorder();
        assert_eq!(rpo[0], c.start);
        // End is reachable and thus present.
        assert!(rpo.contains(&c.end));
    }

    #[test]
    fn break_jumps_to_loop_exit_and_continue_to_header() {
        let c = cfg_of(
            "fn f() { for (t in q) { if (t.a > 0) { break; } if (t.a < 0) { continue; } x = t.a; } return x; }",
        );
        let header = c
            .blocks
            .iter()
            .position(|b| matches!(b.terminator, Some(Terminator::ForDispatch { .. })))
            .unwrap();
        let (_, exit) = match &c.blocks[header].terminator {
            Some(Terminator::ForDispatch { body, exit, .. }) => (*body, *exit),
            _ => unreachable!(),
        };
        // Some block inside the body jumps straight to the loop exit (break)
        // and some block jumps back to the header (continue) while still
        // holding a statement (the continue itself).
        let breaks = c.blocks.iter().enumerate().any(|(i, b)| {
            BlockId(i) != c.start
                && b.terminator == Some(Terminator::Goto(exit))
                && !b.stmts.is_empty()
        });
        let continues = c.blocks.iter().enumerate().any(|(i, b)| {
            BlockId(i) != c.start
                && b.terminator == Some(Terminator::Goto(BlockId(header)))
                && !b.stmts.is_empty()
        });
        assert!(breaks, "break must target the loop exit: {c:#?}");
        assert!(continues, "continue must target the loop header: {c:#?}");
    }

    /// Blocks reachable from `from` without passing through `avoid`.
    fn reach_avoiding(c: &Cfg, from: BlockId, avoid: BlockId) -> BTreeSet<BlockId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(b) = stack.pop() {
            if b != avoid && seen.insert(b) {
                stack.extend(c.successors(b));
            }
        }
        seen
    }

    /// The loop-region property (paper Sec. 3.1): a cursor loop's header
    /// dominates every block reached from its body before control returns
    /// to the header. As reachability: with the header removed, none of
    /// those blocks is reachable from the entry.
    fn assert_loop_headers_dominate_bodies(c: &Cfg) {
        for (h, block) in c.blocks.iter().enumerate() {
            let Some(Terminator::ForDispatch { body, .. }) = &block.terminator else {
                continue;
            };
            let header = BlockId(h);
            let outside = reach_avoiding(c, c.start, header);
            let inside = reach_avoiding(c, *body, header);
            let escaped: Vec<_> = inside.intersection(&outside).collect();
            assert!(
                escaped.is_empty(),
                "loop header {header:?} does not dominate body blocks {escaped:?}"
            );
            assert!(
                reach_avoiding(c, c.start, *body).contains(&header),
                "loop body {body:?} must not dominate its header {header:?}"
            );
        }
    }

    #[test]
    fn loop_header_dominates_body() {
        let c = cfg_of("fn f() { for (t in q) { x = t.a; y = x; } return y; }");
        let (header, body) = c
            .blocks
            .iter()
            .enumerate()
            .find_map(|(h, b)| match &b.terminator {
                Some(Terminator::ForDispatch { body, .. }) => Some((BlockId(h), *body)),
                _ => None,
            })
            .unwrap();
        // Header dominates body: removing the header cuts the body off.
        assert!(!reach_avoiding(&c, c.start, header).contains(&body));
        // Body does not dominate header: the header is reached around it.
        assert!(reach_avoiding(&c, c.start, body).contains(&header));
    }

    #[test]
    fn loop_headers_dominate_their_bodies() {
        let realistic = r#"
            fn report(minBudget) {
                projects = executeQuery("SELECT * FROM project");
                names = list();
                total = 0;
                for (p in projects) {
                    if (p.budget > minBudget) {
                        names.add(p.name);
                        total = total + p.budget;
                    } else {
                        if (p.isfinished == true) {
                            total = total + 1;
                        }
                    }
                }
                for (n in names) {
                    print(n);
                }
                return total;
            }
        "#;
        let structured = "fn f() { for (t in q) { if (t.x > 0) { s = s + t.x; } } return s; }";
        let mut sources = vec![
            ("realistic".to_string(), realistic.to_string()),
            ("structured".to_string(), structured.to_string()),
        ];
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/corpus");
        let mut paths: Vec<_> = std::fs::read_dir(corpus)
            .expect("examples/corpus exists")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "imp"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty());
        for p in paths {
            sources.push((
                p.display().to_string(),
                std::fs::read_to_string(&p).unwrap(),
            ));
        }
        let mut loops = 0;
        for (name, src) in &sources {
            let program = imp::parse_and_normalize(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            for f in &program.functions {
                let c = Cfg::build(f);
                assert_loop_headers_dominate_bodies(&c);
                loops += c
                    .blocks
                    .iter()
                    .filter(|b| matches!(b.terminator, Some(Terminator::ForDispatch { .. })))
                    .count();
            }
        }
        assert!(loops >= sources.len(), "{loops} loops");
    }

    #[test]
    fn branch_arms_do_not_dominate_join() {
        let c = cfg_of("fn f() { if (a) { b = 1; } else { b = 2; } return b; }");
        // The join is the block holding the `return`, the one End predecessor.
        let preds = c.predecessors();
        let join = *preds[c.end.0].iter().next().unwrap();
        for arm in c.successors(c.start) {
            assert_ne!(arm, join);
            assert!(
                reach_avoiding(&c, c.start, arm).contains(&join),
                "arm {arm:?} must not dominate join"
            );
        }
        assert!(!reach_avoiding(&c, c.start, c.start).contains(&join));
    }

    #[test]
    fn predecessors_are_inverse_of_successors() {
        let c = cfg_of("fn f() { if (a) { b = 1; } else { b = 2; } return b; }");
        let preds = c.predecessors();
        for (i, _) in c.blocks.iter().enumerate() {
            for s in c.successors(BlockId(i)) {
                assert!(preds[s.0].contains(&BlockId(i)));
            }
        }
    }
}
