//! A reusable monotone dataflow framework over [`crate::cfg`].
//!
//! Classic Kildall/Kam-Ullman setup: a client implements [`Analysis`] by
//! choosing a direction, a join-semilattice of facts (`bottom` +
//! `join_into`), and monotone in-place transfers for statements and
//! terminators; the [`solve`] driver runs a deterministic worklist to the
//! least fixpoint over a [`FnIndex`] its caller built.
//!
//! Design points:
//!
//! * **Dense index.** [`FnIndex`] numbers one function once: its CFG, its
//!   statements in block order (a statement's *position*), a sorted
//!   statement → position locator, predecessor lists, and its variables
//!   (from [`imp::ast::Block::walk_exprs`] plus parameters and targets).
//!   Set-valued clients ([`crate::liveness`], [`crate::reaching`],
//!   [`crate::taint`]) use [`BitSet`] facts over that numbering and
//!   tabulate each statement's gen/kill once per function; the solver
//!   hands them the position through [`Analysis::apply_stmt`]. A client
//!   borrows the index, so one build serves every analysis of a function.
//! * **Deterministic iteration.** The worklist is a [`BitSet`] of
//!   reverse-postorder indexes (postorder for backward problems), popped
//!   lowest first, so the fixpoint — and, more importantly, the *work
//!   schedule* — is identical across runs and platforms. Unreachable
//!   blocks (dead code after `return`/`break`) are appended after the
//!   reachable ones in block-id order, so their statements still receive
//!   facts.
//! * **Guaranteed termination.** The client declares the lattice
//!   [`Analysis::height`] for the function under analysis; the solver
//!   panics (naming the analysis) if any block is re-processed more often
//!   than the height allows, which can only happen when a transfer is
//!   non-monotone or the declared height is wrong. Correct clients never
//!   hit the bound.
//! * **Block-level solution, replayed on demand.** A [`Solution`] keeps
//!   only the facts on block boundaries. [`Solution::before`] and
//!   [`Solution::after`] replay the transfers inside the one block that
//!   holds the statement; a caller that reads every statement uses
//!   [`Solution::replay`], which walks each block once.
//!
//! Facts live on block boundaries: `entry[b]` holds at the block's first
//! statement in program order, `exit[b]` after its terminator. For a
//! backward analysis the flow input of a block is `exit[b]` and the result
//! of its transfers is `entry[b]`.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use imp::ast::{Expr, Function, Stmt, StmtId, StmtKind};
use intern::Symbol;

use crate::cfg::{BlockId, Cfg, Terminator};

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from Start towards End (e.g. reaching definitions).
    Forward,
    /// Facts flow from End towards Start (e.g. liveness).
    Backward,
}

/// A monotone dataflow problem over a join-semilattice.
///
/// `join_into` must be commutative, associative, and idempotent with
/// `bottom` as its identity; `apply_stmt`/`apply_terminator` must be
/// monotone with respect to the induced partial order. Violations are
/// caught at run time by the height guard in [`solve`].
pub trait Analysis {
    /// Lattice element.
    type Fact: Clone + Eq + std::fmt::Debug;

    /// Short name used in the termination-guard panic message.
    fn name(&self) -> &'static str;

    /// Flow direction.
    fn direction(&self) -> Direction;

    /// The least lattice element (identity of [`Analysis::join_into`]).
    fn bottom(&self) -> Self::Fact;

    /// The fact holding at the boundary of the function `ix` indexes:
    /// entry of Start for forward problems, exit of End for backward ones.
    /// Defaults to `bottom`.
    fn boundary(&self, _ix: &FnIndex<'_>) -> Self::Fact {
        self.bottom()
    }

    /// `into ⊔= other` in place; true when `into` grew.
    fn join_into(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool;

    /// Transfer `stmt`, at position `at` of the function's [`FnIndex`], in
    /// place. `fact` is the fact flowing *into* it (program-order before
    /// for forward problems, program-order after for backward ones).
    fn apply_stmt(&self, at: usize, stmt: &Stmt, fact: &mut Self::Fact);

    /// Transfer block `b`'s terminator `t` in place; defaults to the
    /// identity.
    fn apply_terminator(&self, _b: BlockId, _t: &Terminator, _fact: &mut Self::Fact) {}

    /// An upper bound on the length of strictly-ascending chains the
    /// fixpoint can climb in the function `ix` indexes (e.g. the number of
    /// variables for a powerset-of-variables lattice). Used only for the
    /// termination guard.
    fn height(&self, ix: &FnIndex<'_>) -> usize;
}

/// Sets of up to this many 64-bit words live inline in a [`BitSet`].
const INLINE_WORDS: usize = 2;

/// A fixed-capacity set of small integers, one `u64` word per 64
/// elements. Sets of up to 128 elements need no heap allocation, so
/// cloning a fact of a typical function is a copy.
pub struct BitSet {
    inline: [u64; INLINE_WORDS],
    /// The words when the capacity needs more than `INLINE_WORDS` of them;
    /// empty otherwise.
    heap: Vec<u64>,
}

impl BitSet {
    /// The empty set with room for the elements `0..capacity`.
    pub fn new(capacity: usize) -> BitSet {
        let words = BitSet::words_for(capacity);
        BitSet {
            inline: [0; INLINE_WORDS],
            heap: if words > INLINE_WORDS {
                vec![0; words]
            } else {
                Vec::new()
            },
        }
    }

    /// The number of words a set with room for `capacity` elements uses:
    /// the row width of a gen/kill table over the same universe.
    pub fn words_for(capacity: usize) -> usize {
        capacity.div_ceil(64).max(INLINE_WORDS)
    }

    /// The set's words, lowest elements first.
    fn words(&self) -> &[u64] {
        if self.heap.is_empty() {
            &self.inline
        } else {
            &self.heap
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        if self.heap.is_empty() {
            &mut self.inline
        } else {
            &mut self.heap
        }
    }

    /// Is `i` in the set?
    pub fn contains(&self, i: usize) -> bool {
        self.words()
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Add `i`; true when it was absent.
    pub fn insert(&mut self, i: usize) -> bool {
        let w = &mut self.words_mut()[i / 64];
        let bit = 1 << (i % 64);
        let absent = *w & bit == 0;
        *w |= bit;
        absent
    }

    /// Remove `i`.
    pub fn remove(&mut self, i: usize) {
        self.words_mut()[i / 64] &= !(1 << (i % 64));
    }

    /// Add every element of `other`; true when the set grew.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut grew = false;
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
            let next = *w | o;
            grew |= next != *w;
            *w = next;
        }
        grew
    }

    /// `self = (self − kill) ∪ gen`, over rows of the same width.
    pub fn apply(&mut self, kill: &[u64], gen: &[u64]) {
        for ((w, k), g) in self.words_mut().iter_mut().zip(kill).zip(gen) {
            *w = (*w & !k) | g;
        }
    }

    /// Remove every element of the row `kill`.
    pub fn subtract(&mut self, kill: &[u64]) {
        for (w, k) in self.words_mut().iter_mut().zip(kill) {
            *w &= !k;
        }
    }

    /// Does the set share an element with the row `other`?
    pub fn intersects(&self, other: &[u64]) -> bool {
        self.words().iter().zip(other).any(|(w, o)| w & o != 0)
    }

    /// Remove and return the least element.
    fn pop_first(&mut self) -> Option<usize> {
        let words = self.words_mut();
        let i = words.iter().position(|w| *w != 0)?;
        let bit = words[i].trailing_zeros() as usize;
        words[i] &= words[i] - 1;
        Some(i * 64 + bit)
    }

    /// The elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(i * 64 + bit)
            })
        })
    }
}

impl Clone for BitSet {
    fn clone(&self) -> BitSet {
        BitSet {
            inline: self.inline,
            heap: self.heap.clone(),
        }
    }

    /// Reuses `self`'s heap words, so the solver's scratch fact allocates
    /// at most once.
    fn clone_from(&mut self, source: &BitSet) {
        self.inline = source.inline;
        self.heap.clone_from(&source.heap);
    }
}

/// Compares the words in use, never the (possibly empty) heap vector on
/// its own.
impl PartialEq for BitSet {
    fn eq(&self, other: &BitSet) -> bool {
        self.words() == other.words()
    }
}

impl Eq for BitSet {}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Set bit `i` of a gen/kill row.
pub fn set_bit(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

/// Is bit `i` of a gen/kill row set?
pub fn bit(row: &[u64], i: usize) -> bool {
    row[i / 64] & (1 << (i % 64)) != 0
}

/// One function numbered once for every analysis of it: its CFG, its
/// statements in block order (a statement's *position*), a statement →
/// position locator, predecessor lists, and its variables.
#[derive(Debug, Clone)]
pub struct FnIndex<'f> {
    function: &'f Function,
    cfg: Cfg<'f>,
    /// Statements in block order; block `b` holds
    /// `stmts[block_start[b]..block_start[b + 1]]`. Every slot is filled
    /// (each CFG statement comes from the body).
    stmts: Vec<Option<&'f Stmt>>,
    block_start: Vec<u32>,
    /// `(id, position)` sorted by id.
    locator: Vec<(StmtId, u32)>,
    /// Block `b`'s predecessors are `preds[pred_start[b]..pred_start[b + 1]]`.
    preds: Vec<BlockId>,
    pred_start: Vec<u32>,
    /// The variables, sorted by interned ticket; a variable's dense index
    /// is its position here.
    vars: Vec<Symbol>,
}

impl<'f> FnIndex<'f> {
    /// Index `f`.
    ///
    /// Panics when two statements share an id: facts are located by
    /// `StmtId`, so duplicates would silently alias statements and corrupt
    /// every client (the usual culprit is a rewrite that forgot to
    /// renumber).
    pub fn build(f: &'f Function) -> FnIndex<'f> {
        let cfg = Cfg::build(f);
        let n = cfg.blocks.len();

        let count = cfg.blocks.iter().map(|b| b.stmts.len()).sum();
        let mut block_start = Vec::with_capacity(n + 1);
        let mut locator = Vec::with_capacity(count);
        for b in &cfg.blocks {
            block_start.push(locator.len() as u32);
            for id in &b.stmts {
                locator.push((*id, locator.len() as u32));
            }
        }
        block_start.push(count as u32);
        locator.sort_unstable();
        for w in locator.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "dataflow: duplicate StmtId {:?} in function body; \
                 statements must be renumbered before analysis",
                w[0].0
            );
        }

        let mut stmts: Vec<Option<&'f Stmt>> = vec![None; count];
        let mut vars: Vec<Symbol> = Vec::with_capacity(f.params.len() + 32);
        vars.extend(&f.params);
        // One pass: place each statement, and collect the variables it
        // assigns and (as `Block::walk_exprs` would) reads.
        f.body.walk(&mut |s, _| {
            if let Ok(i) = locator.binary_search_by_key(&s.id, |e| e.0) {
                stmts[locator[i].1 as usize] = Some(s);
            }
            if let StmtKind::Assign { target: v, .. } | StmtKind::ForEach { var: v, .. } = &s.kind {
                vars.push(*v);
            }
            for e in s.kind.exprs() {
                e.walk(&mut |e| {
                    if let Expr::Var(v) = e {
                        vars.push(*v);
                    }
                });
            }
        });
        vars.sort_unstable_by_key(|v| v.index());
        vars.dedup();

        // Predecessor lists: count, prefix-sum to range ends, then fill
        // backwards so each `pred_start[b]` ends at its range start and
        // every list comes out in block-id order.
        let mut pred_start = vec![0u32; n + 1];
        for b in 0..n {
            for s in cfg.successors_iter(BlockId(b)) {
                pred_start[s.0] += 1;
            }
        }
        for b in 1..=n {
            pred_start[b] += pred_start[b - 1];
        }
        let mut preds = vec![BlockId(0); pred_start[n] as usize];
        for b in (0..n).rev() {
            for s in cfg.successors_iter(BlockId(b)) {
                pred_start[s.0] -= 1;
                preds[pred_start[s.0] as usize] = BlockId(b);
            }
        }

        FnIndex {
            function: f,
            cfg,
            stmts,
            block_start,
            locator,
            preds,
            pred_start,
            vars,
        }
    }

    /// The indexed function.
    pub(crate) fn function(&self) -> &'f Function {
        self.function
    }

    /// Its control-flow graph.
    pub fn cfg(&self) -> &Cfg<'f> {
        &self.cfg
    }

    /// Number of statements (positions).
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// The statement at position `at`.
    pub fn stmt(&self, at: usize) -> &'f Stmt {
        self.stmts[at].expect("every CFG statement comes from the function body")
    }

    /// Positions of block `b`'s statements, in program order.
    pub fn block_range(&self, b: BlockId) -> Range<usize> {
        self.block_start[b.0] as usize..self.block_start[b.0 + 1] as usize
    }

    /// The position of statement `id`, if it is one of this function's.
    pub fn locate(&self, id: StmtId) -> Option<usize> {
        let i = self.locator.binary_search_by_key(&id, |e| e.0).ok()?;
        Some(self.locator[i].1 as usize)
    }

    /// The block holding position `at`.
    pub fn block_of(&self, at: usize) -> BlockId {
        BlockId(self.block_start.partition_point(|&s| s as usize <= at) - 1)
    }

    /// Block `b`'s predecessors, in block-id order.
    fn predecessors(&self, b: BlockId) -> &[BlockId] {
        &self.preds[self.pred_start[b.0] as usize..self.pred_start[b.0 + 1] as usize]
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The dense index of variable `v`, if the function mentions it.
    pub fn var(&self, v: Symbol) -> Option<usize> {
        self.vars
            .binary_search_by_key(&v.index(), |s| s.index())
            .ok()
    }

    /// The variable with dense index `i`.
    pub fn var_symbol(&self, i: usize) -> Symbol {
        self.vars[i]
    }

    /// Transfer block `b` in place, in flow order.
    fn transfer_block<A: Analysis>(&self, a: &A, b: BlockId, fact: &mut A::Fact) {
        let term = self.cfg.blocks[b.0].terminator.as_ref();
        let range = self.block_range(b);
        if a.direction() == Direction::Forward {
            for at in range {
                a.apply_stmt(at, self.stmt(at), fact);
            }
            if let Some(t) = term {
                a.apply_terminator(b, t, fact);
            }
        } else {
            if let Some(t) = term {
                a.apply_terminator(b, t, fact);
            }
            for at in range.rev() {
                a.apply_stmt(at, self.stmt(at), fact);
            }
        }
    }
}

/// The least fixpoint of an [`Analysis`] over one function, as facts on
/// block boundaries. Per-statement facts are replayed from these.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact at each block's program-order entry.
    pub entry: Vec<F>,
    /// Fact at each block's program-order exit (after the terminator).
    pub exit: Vec<F>,
}

impl<F: Clone> Solution<F> {
    /// [`Solution::replay`] for block `b` alone; `scratch` is overwritten.
    fn replay_block<'f, A: Analysis<Fact = F>>(
        &self,
        a: &A,
        ix: &FnIndex<'f>,
        b: BlockId,
        scratch: &mut F,
        visit: &mut impl FnMut(usize, &'f Stmt, &F),
    ) {
        let range = ix.block_range(b);
        if a.direction() == Direction::Forward {
            scratch.clone_from(&self.entry[b.0]);
            for at in range {
                visit(at, ix.stmt(at), scratch);
                a.apply_stmt(at, ix.stmt(at), scratch);
            }
        } else {
            scratch.clone_from(&self.exit[b.0]);
            if let Some(t) = &ix.cfg.blocks[b.0].terminator {
                a.apply_terminator(b, t, scratch);
            }
            for at in range.rev() {
                visit(at, ix.stmt(at), scratch);
                a.apply_stmt(at, ix.stmt(at), scratch);
            }
        }
    }

    /// Call `visit(at, stmt, fact)` for every statement, each block
    /// replayed once, in flow order within a block (program order forward,
    /// reverse backward), with the fact flowing into it: program-order
    /// before for forward problems, after for backward ones.
    pub fn replay<'f, A: Analysis<Fact = F>>(
        &self,
        a: &A,
        ix: &FnIndex<'f>,
        mut visit: impl FnMut(usize, &'f Stmt, &F),
    ) {
        let mut scratch = a.bottom();
        for b in 0..ix.cfg.blocks.len() {
            self.replay_block(a, ix, BlockId(b), &mut scratch, &mut visit);
        }
    }

    /// Fact holding just before `id` in program order, if `id` sits in a
    /// CFG block. Replays `id`'s block.
    pub fn before<A: Analysis<Fact = F>>(&self, a: &A, ix: &FnIndex<'_>, id: StmtId) -> Option<F> {
        self.around(a, ix, id, a.direction() == Direction::Backward)
    }

    /// Fact holding just after `id` in program order. Replays `id`'s block.
    pub fn after<A: Analysis<Fact = F>>(&self, a: &A, ix: &FnIndex<'_>, id: StmtId) -> Option<F> {
        self.around(a, ix, id, a.direction() == Direction::Forward)
    }

    /// The fact flowing into `id`, pushed through `id` itself when
    /// `through` (that is the fact flowing out of it).
    fn around<A: Analysis<Fact = F>>(
        &self,
        a: &A,
        ix: &FnIndex<'_>,
        id: StmtId,
        through: bool,
    ) -> Option<F> {
        let at = ix.locate(id)?;
        let mut scratch = a.bottom();
        let mut found = None;
        self.replay_block(a, ix, ix.block_of(at), &mut scratch, &mut |i, s, fact| {
            if i == at {
                let mut out = fact.clone();
                if through {
                    a.apply_stmt(at, s, &mut out);
                }
                found = Some(out);
            }
        });
        found
    }
}

/// Index every statement of a function body by id.
///
/// Panics when two statements share an id, like [`FnIndex::build`].
pub fn stmt_index(f: &Function) -> BTreeMap<StmtId, &Stmt> {
    let mut map = BTreeMap::new();
    f.body.walk(&mut |s, _| {
        assert!(
            map.insert(s.id, s).is_none(),
            "dataflow: duplicate StmtId {:?} in function body; \
             statements must be renumbered before analysis",
            s.id
        );
    });
    map
}

/// Solve `a` over an indexed function.
pub fn solve<A: Analysis>(a: &A, ix: &FnIndex<'_>) -> Solution<A::Fact> {
    let cfg = &ix.cfg;
    let n = cfg.blocks.len();
    let forward = a.direction() == Direction::Forward;

    // Deterministic priority: reverse-postorder position for forward
    // problems, postorder position for backward ones; unreachable blocks
    // follow in block-id order.
    let mut by_priority = cfg.reverse_postorder();
    if !forward {
        by_priority.reverse();
    }
    // Per block: its priority and how often it has been processed.
    let mut sched = vec![(usize::MAX, 0usize); n];
    for (i, b) in by_priority.iter().enumerate() {
        sched[b.0].0 = i;
    }
    for (b, (p, _)) in sched.iter_mut().enumerate() {
        if *p == usize::MAX {
            *p = by_priority.len();
            by_priority.push(BlockId(b));
        }
    }

    let mut entry: Vec<A::Fact> = (0..n).map(|_| a.bottom()).collect();
    let mut exit: Vec<A::Fact> = (0..n).map(|_| a.bottom()).collect();
    if forward {
        entry[cfg.start.0] = a.boundary(ix);
    } else {
        exit[cfg.end.0] = a.boundary(ix);
    }

    let height = a.height(ix);
    // Each re-processing of a block is caused by a strict lattice climb of
    // its flow input, so `height + 2` visits (initial + climbs + slack)
    // suffice for any monotone client.
    let budget = height + 2;

    let mut worklist = BitSet::new(n);
    for p in 0..n {
        worklist.insert(p);
    }
    let mut scratch = a.bottom();
    while let Some(p) = worklist.pop_first() {
        let b = by_priority[p];
        sched[b.0].1 += 1;
        assert!(
            sched[b.0].1 <= budget,
            "dataflow: `{}` exceeded the declared lattice height ({height}) at block {}; \
             a transfer function is non-monotone or the height bound is wrong",
            a.name(),
            b.0
        );
        if forward {
            scratch.clone_from(&entry[b.0]);
            ix.transfer_block(a, b, &mut scratch);
            if scratch != exit[b.0] {
                std::mem::swap(&mut exit[b.0], &mut scratch);
                for s in cfg.successors_iter(b) {
                    if a.join_into(&mut entry[s.0], &exit[b.0]) {
                        worklist.insert(sched[s.0].0);
                    }
                }
            }
        } else {
            // End has no successors, so its `exit` keeps the boundary fact.
            scratch.clone_from(&exit[b.0]);
            ix.transfer_block(a, b, &mut scratch);
            if scratch != entry[b.0] {
                std::mem::swap(&mut entry[b.0], &mut scratch);
                for pr in ix.predecessors(b) {
                    if a.join_into(&mut exit[pr.0], &entry[b.0]) {
                        worklist.insert(sched[pr.0].0);
                    }
                }
            }
        }
    }

    Solution { entry, exit }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;
    use std::collections::BTreeSet;

    /// A toy forward analysis: the set of variables assigned a constant
    /// literal on *some* path so far (a may analysis).
    struct ConstAssigned;

    impl Analysis for ConstAssigned {
        type Fact = BTreeSet<Symbol>;
        fn name(&self) -> &'static str {
            "const-assigned"
        }
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn bottom(&self) -> Self::Fact {
            BTreeSet::new()
        }
        fn join_into(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool {
            let before = into.len();
            into.extend(other);
            into.len() != before
        }
        fn apply_stmt(&self, _at: usize, stmt: &Stmt, fact: &mut Self::Fact) {
            if let StmtKind::Assign { target, value } = &stmt.kind {
                if matches!(value, Expr::Lit(_)) {
                    fact.insert(*target);
                } else {
                    fact.remove(target);
                }
            }
        }
        fn height(&self, ix: &FnIndex<'_>) -> usize {
            ix.var_count() + 1
        }
    }

    #[test]
    fn forward_fixpoint_reaches_loop_exit() {
        let p =
            parse_program("fn f() { a = 1; for (t in q) { b = 2; c = t.x; } return a; }").unwrap();
        let ix = FnIndex::build(&p.functions[0]);
        let sol = solve(&ConstAssigned, &ix);
        let at_end: Vec<String> = sol.entry[ix.cfg().end.0]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(at_end.contains(&"a".to_string()), "{at_end:?}");
        assert!(at_end.contains(&"b".to_string()), "loop body reaches end");
        assert!(!at_end.contains(&"c".to_string()), "c is not constant");
    }

    #[test]
    fn per_stmt_replay_is_program_ordered() {
        let p = parse_program("fn f() { a = 1; b = a; }").unwrap();
        let f = &p.functions[0];
        let ix = FnIndex::build(f);
        let sol = solve(&ConstAssigned, &ix);
        let id_a = f.body.stmts[0].id;
        let id_b = f.body.stmts[1].id;
        assert!(sol.before(&ConstAssigned, &ix, id_a).unwrap().is_empty());
        assert_eq!(sol.after(&ConstAssigned, &ix, id_a).unwrap().len(), 1);
        assert_eq!(sol.before(&ConstAssigned, &ix, id_b).unwrap().len(), 1);
    }

    #[test]
    fn index_locates_statements_and_numbers_variables() {
        let p =
            parse_program("fn f(n) { s = 0; for (t in q) { s = s + t.x; } return s; }").unwrap();
        let f = &p.functions[0];
        let ix = FnIndex::build(f);
        for (id, s) in stmt_index(f) {
            let at = ix.locate(id).expect("every statement has a position");
            assert_eq!(ix.stmt(at).id, s.id);
            assert!(ix.block_range(ix.block_of(at)).contains(&at));
        }
        let names: BTreeSet<&str> = (0..ix.var_count())
            .map(|i| ix.var_symbol(i).as_str())
            .collect();
        assert_eq!(names, BTreeSet::from(["n", "q", "s", "t"]));
        assert_eq!(
            ix.var(Symbol::intern("s")).map(|i| ix.var_symbol(i)),
            Some(Symbol::intern("s"))
        );
        assert_eq!(ix.var(Symbol::intern("absent")), None);
        let preds = ix.cfg().predecessors();
        for (b, want) in preds.iter().enumerate() {
            let got: BTreeSet<BlockId> = ix.predecessors(BlockId(b)).iter().copied().collect();
            assert_eq!(&got, want, "predecessors of block {b}");
        }
    }

    #[test]
    fn bitset_ops_cross_the_inline_boundary() {
        for cap in [1, 64, 128, 129, 300] {
            let mut s = BitSet::new(cap);
            let elems: Vec<usize> = [0, 63, 64, 127, 128, 299]
                .into_iter()
                .filter(|&i| i < cap)
                .collect();
            for &i in &elems {
                assert!(s.insert(i));
                assert!(!s.insert(i));
            }
            assert_eq!(s.iter().collect::<Vec<_>>(), elems);
            let mut copy = BitSet::new(cap);
            copy.clone_from(&s);
            assert_eq!(copy, s);
            assert!(!copy.union_with(&s));
            let mut drained = Vec::new();
            while let Some(i) = copy.pop_first() {
                drained.push(i);
            }
            assert_eq!(drained, elems);
            assert_eq!(copy, BitSet::new(cap));
            if let Some(&last) = elems.last() {
                s.remove(last);
                assert!(!s.contains(last));
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate StmtId")]
    fn duplicate_ids_are_rejected() {
        let mut p = parse_program("fn f() { a = 1; b = 2; }").unwrap();
        let id = p.functions[0].body.stmts[0].id;
        p.functions[0].body.stmts[1].id = id;
        FnIndex::build(&p.functions[0]);
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn height_guard_catches_oscillation() {
        /// Deliberately broken: a counter "lattice" with no finite height —
        /// the loop back-edge climbs forever, so only the guard stops it.
        struct Broken;
        impl Analysis for Broken {
            type Fact = u64;
            fn name(&self) -> &'static str {
                "broken"
            }
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn bottom(&self) -> Self::Fact {
                0
            }
            fn join_into(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool {
                let grew = *other > *into;
                *into = (*into).max(*other);
                grew
            }
            fn apply_stmt(&self, _at: usize, _stmt: &Stmt, fact: &mut Self::Fact) {
                *fact += 1;
            }
            fn height(&self, _ix: &FnIndex<'_>) -> usize {
                4
            }
        }
        let p = parse_program("fn f() { for (t in q) { a = t.x; } return a; }").unwrap();
        solve(&Broken, &FnIndex::build(&p.functions[0]));
    }
}
