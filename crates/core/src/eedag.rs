//! The equivalent-expression DAG (ee-DAG) and variable-expression map
//! (ve-Map) — paper Sec. 3.2.
//!
//! "We define an equivalent expression DAG as a directed acyclic graph in
//! which each node represents an expression. … In order to efficiently check
//! the existence of a node in the ee-DAG, a composite id — comprising of
//! id's of its operator and operands — is assigned to each node, and a hash
//! table is used for searching." — nodes here are hash-consed through
//! [`EeDag::intern`]: a precomputed structural hash indexes into small
//! buckets of candidate ids, and candidates are verified against the node
//! arena, so the index never stores a second copy of any `Node` (see
//! DESIGN.md "ee-DAG hashing scheme").

use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::ControlFlow;

use algebra::ra::RaExpr;
use algebra::scalar::Lit;
use imp::ast::StmtId;
use intern::Symbol;

/// Longest [`EeDag::display`] string, in bytes, before the `…` that marks
/// a cut.
pub const DISPLAY_CAP: usize = 4096;

/// Index of a node in an [`EeDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A small-vector of operand ids: up to four inline, spilling to the heap
/// beyond that. Most ee-DAG operators are unary/binary, so the inline form
/// covers nearly every node without a heap allocation.
///
/// Equality and hashing are over the element sequence, so an inline list
/// and a heap list with the same contents are interchangeable under
/// hash-consing.
#[derive(Debug, Clone)]
pub enum NodeList {
    /// Up to [`NodeList::INLINE`] ids stored in place.
    Inline {
        /// Number of live elements in `buf`.
        len: u8,
        /// Element storage; slots `>= len` are meaningless padding.
        buf: [NodeId; NodeList::INLINE],
    },
    /// Heap storage for longer lists.
    Heap(Vec<NodeId>),
}

impl NodeList {
    /// Inline capacity.
    pub const INLINE: usize = 4;

    /// An empty list.
    pub fn new() -> NodeList {
        NodeList::Inline {
            len: 0,
            buf: [NodeId(0); NodeList::INLINE],
        }
    }

    /// View as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        match self {
            NodeList::Inline { len, buf } => &buf[..*len as usize],
            NodeList::Heap(v) => v,
        }
    }

    /// Append an element, spilling to the heap when the inline buffer fills.
    pub fn push(&mut self, id: NodeId) {
        match self {
            NodeList::Inline { len, buf } => {
                if (*len as usize) < NodeList::INLINE {
                    buf[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut v = buf.to_vec();
                    v.push(id);
                    *self = NodeList::Heap(v);
                }
            }
            NodeList::Heap(v) => v.push(id),
        }
    }
}

impl Default for NodeList {
    fn default() -> Self {
        NodeList::new()
    }
}

impl std::ops::Deref for NodeList {
    type Target = [NodeId];
    #[inline]
    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

impl PartialEq for NodeList {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for NodeList {}

impl Hash for NodeList {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Match `Vec`'s slice semantics so inline/heap forms collide.
        self.as_slice().hash(state);
    }
}

impl From<Vec<NodeId>> for NodeList {
    fn from(v: Vec<NodeId>) -> NodeList {
        if v.len() <= NodeList::INLINE {
            let mut out = NodeList::new();
            for id in v {
                out.push(id);
            }
            out
        } else {
            NodeList::Heap(v)
        }
    }
}

impl FromIterator<NodeId> for NodeList {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> NodeList {
        let mut out = NodeList::new();
        for id in iter {
            out.push(id);
        }
        out
    }
}

impl<'a> IntoIterator for &'a NodeList {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut NodeList {
    type Item = &'a mut NodeId;
    type IntoIter = std::slice::IterMut<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        match self {
            NodeList::Inline { len, buf } => buf[..*len as usize].iter_mut(),
            NodeList::Heap(v) => v.iter_mut(),
        }
    }
}

/// Non-relational operators available in the ee-DAG (paper Sec. 3.2.1 lists
/// arithmetic, logical, conditional evaluation, and equivalent operators for
/// library functions and collection operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Addition (numeric).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Modulo.
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
    /// Logical not.
    Not,
    /// Arithmetic negation.
    Neg,
    /// Binary maximum (`Math.max`).
    Max,
    /// Binary minimum (`Math.min`).
    Min,
    /// Absolute value.
    Abs,
    /// String concatenation (modeling Java `+` on strings / `concat`).
    Concat,
    /// Lower-case.
    Lower,
    /// Upper-case.
    Upper,
    /// String length.
    Length,
    /// List append: `append[list, elem]`.
    Append,
    /// Set insertion: `insert[set, elem]`.
    Insert,
    /// Multiset insertion (list used as a bag).
    MultisetInsert,
    /// Pair construction (dependent aggregations, Appendix B).
    Pair,
    /// Null-coalescing (`COALESCE(a, b)`); used when mapping SQL aggregate
    /// NULLs back to imperative identity elements (Rule T5/T6).
    Coalesce,
}

/// Collection kinds for empty-collection literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollKind {
    /// An ordered list (`list()`).
    List,
    /// A set (`set()`).
    Set,
}

/// A node of the ee-DAG.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// A constant.
    Const(Lit),
    /// A region input: the value of variable `name` at the start of the
    /// region (denoted `name₀` in the paper's figures).
    Input(Symbol),
    /// The accumulator parameter ⟨v⟩ of a folding function, tagged with the
    /// accumulated variable's name so nested folds stay unambiguous.
    AccParam(Symbol),
    /// The tuple parameter ⟨t⟩ of a folding function, tagged with the
    /// cursor variable's name (nested cursor loops each have their own).
    TupleParam(Symbol),
    /// Attribute access: `base.field` (a getter on a query-result tuple).
    FieldOf {
        /// The tuple-valued base expression.
        base: NodeId,
        /// Attribute name.
        field: Symbol,
    },
    /// An operator application.
    Op {
        /// The operator.
        op: OpKind,
        /// Operand nodes.
        args: NodeList,
    },
    /// Conditional evaluation `?[cond, then, else]` (paper's "?" operator).
    Cond {
        /// Condition.
        cond: NodeId,
        /// Value when true.
        then_val: NodeId,
        /// Value when false.
        else_val: NodeId,
    },
    /// A relational query leaf: parameterized extended relational algebra.
    /// `params[i]` supplies the expression bound to `Param(i)`.
    Query {
        /// The algebra expression.
        ra: RaExpr,
        /// Parameter expressions.
        params: NodeList,
    },
    /// A *scalar* query: the first column of the first row of the result
    /// (`executeScalar`, and the πs scalar projections of Rule T7).
    ScalarQuery {
        /// The algebra expression.
        ra: RaExpr,
        /// Parameter expressions.
        params: NodeList,
    },
    /// An empty collection literal.
    EmptyColl(CollKind),
    /// F-IR `fold[func, init, source]` (paper Sec. 4.1). `func` is expressed
    /// over [`Node::AccParam`] and [`Node::TupleParam`].
    Fold {
        /// Folding function body.
        func: NodeId,
        /// Initial value.
        init: NodeId,
        /// Input query/collection.
        source: NodeId,
        /// The cursor variable this fold's tuple parameter is tagged with.
        cursor: Symbol,
        /// Origin: the loop statement and the accumulated variable. Keeps
        /// folds from distinct loops distinct under hash-consing and lets
        /// the rewriter find the statement to replace.
        origin: (StmtId, Symbol),
    },
    /// Dependent aggregation (paper Appendix B, "Dependent Aggregations"):
    /// the argmax/argmin of `value` by `key` over `source` — produced when a
    /// variable is updated under the same comparison that drives a min/max
    /// accumulator (`if (e(t) > v) { v = e(t); w = g(t); }`). Strict
    /// comparisons only: the first extremal row wins, which a stable
    /// descending/ascending sort with LIMIT 1 preserves.
    ArgExtreme {
        /// The iterated query/collection.
        source: NodeId,
        /// True for argmax (`>`), false for argmin (`<`).
        is_max: bool,
        /// The compared key `e(t)`, over the tuple parameter.
        key: NodeId,
        /// The captured value `g(t)`, over the tuple parameter.
        value: NodeId,
        /// The comparator's initial bound `v₀` (rows must strictly beat it).
        v_init: NodeId,
        /// The captured variable's initial value `w₀` (result when no row
        /// qualifies).
        w_init: NodeId,
        /// Cursor variable tagging the tuple parameter.
        cursor: Symbol,
        /// Origin loop statement and captured variable.
        origin: (StmtId, Symbol),
    },
    /// "Not yet determined" (paper Appendix D.5) — a loop-modified variable
    /// whose fold translation failed; poisons dependent extractions.
    NotDetermined,
    /// A call that has no ee-DAG equivalent (custom comparators, unknown
    /// library functions, `size()` …). Extraction fails for any variable
    /// whose expression contains one (paper Sec. 5.4).
    Opaque {
        /// Why the node is opaque (diagnostic).
        reason: String,
        /// Arguments, retained so dependence information is not lost.
        args: NodeList,
    },
}

/// Call `$f(operand, bound)` on each operand of `$node`, in the one fixed
/// order of [`Node::children`]. `$node` is `&Node` or `&mut Node`, so the
/// operands are lent shared or mutably: the two walks cannot drift apart.
macro_rules! for_each_operand {
    ($node:expr, $f:expr) => {{
        let mut f = $f;
        match $node {
            Node::Const(_)
            | Node::Input(_)
            | Node::AccParam(_)
            | Node::TupleParam(_)
            | Node::EmptyColl(_)
            | Node::NotDetermined => {}
            Node::FieldOf { base, .. } => f(base, false),
            Node::Op { args, .. }
            | Node::Opaque { args, .. }
            | Node::Query { params: args, .. }
            | Node::ScalarQuery { params: args, .. } => {
                for a in args {
                    f(a, false);
                }
            }
            Node::Cond {
                cond,
                then_val,
                else_val,
            } => {
                f(cond, false);
                f(then_val, false);
                f(else_val, false);
            }
            Node::Fold {
                func, init, source, ..
            } => {
                f(func, true);
                f(init, false);
                f(source, false);
            }
            Node::ArgExtreme {
                source,
                key,
                value,
                v_init,
                w_init,
                ..
            } => {
                f(source, false);
                f(key, true);
                f(value, true);
                f(v_init, false);
                f(w_init, false);
            }
        }
    }};
}

impl Node {
    /// Visit the node's operands, the one place that lists them. The order
    /// is fixed: a `Fold`'s func, init, source; an `ArgExtreme`'s source,
    /// key, value, v_init, w_init; every other node's operands as stored.
    /// The flag is `true` for an operand under the node's own binder: a
    /// fold's `func`, an argmax's `key` and `value`.
    pub fn children(&self, mut f: impl FnMut(NodeId, bool)) {
        for_each_operand!(self, |c: &NodeId, bound| f(*c, bound))
    }

    /// [`Node::children`], lending each operand mutably.
    fn children_mut(&mut self, f: impl FnMut(&mut NodeId, bool)) {
        for_each_operand!(self, f)
    }
}

/// The ve-Map: variable name → ee-DAG node (paper Sec. 3.2.2).
///
/// Keyed by [`Symbol`], whose `Ord` compares the *resolved names* — so
/// iteration still visits variables in name order, exactly as the old
/// `BTreeMap<String, NodeId>` did (report ordering depends on this).
pub type VeMap = BTreeMap<Symbol, NodeId>;

/// One slot of the consing index: the ids whose structural hash landed on
/// this key. Nearly always a single id; collisions spill to a vector.
#[derive(Debug, Clone)]
enum Bucket {
    One(NodeId),
    Many(Vec<NodeId>),
}

/// A pass-through hasher for the consing index — keys are already
/// high-quality structural hashes, re-hashing them would be pure waste.
#[derive(Debug, Clone, Copy, Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("identity hasher only accepts u64 keys")
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type IdentityState = BuildHasherDefault<IdentityHasher>;

/// Structural hash of a node (stable for the process lifetime; used only
/// inside the consing index, never persisted).
fn structural_hash(node: &Node) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    node.hash(&mut h);
    h.finish()
}

/// A hash-consed expression DAG.
///
/// Per interned node the DAG stores the node itself (arena), its 8-byte
/// structural hash, and one index slot mapping hash → candidate ids. The
/// index holds *ids*, not nodes — interning no longer clones every `Node`
/// into a map key the way the old `HashMap<Node, NodeId>` index did.
#[derive(Debug, Clone, Default)]
pub struct EeDag {
    nodes: Vec<Node>,
    /// `hashes[i]` is the structural hash of `nodes[i]`.
    hashes: Vec<u64>,
    index: HashMap<u64, Bucket, IdentityState>,
}

impl EeDag {
    /// An empty DAG.
    pub fn new() -> EeDag {
        EeDag::default()
    }

    /// Intern a node, returning the id of the existing structurally-equal
    /// node when present (common sub-expression sharing).
    pub fn intern(&mut self, node: Node) -> NodeId {
        let hash = structural_hash(&node);
        if let Some(bucket) = self.index.get(&hash) {
            match bucket {
                Bucket::One(id) => {
                    if self.nodes[id.0 as usize] == node {
                        return *id;
                    }
                }
                Bucket::Many(ids) => {
                    for id in ids {
                        if self.nodes[id.0 as usize] == node {
                            return *id;
                        }
                    }
                }
            }
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.hashes.push(hash);
        match self.index.entry(hash) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Bucket::One(id));
            }
            std::collections::hash_map::Entry::Occupied(mut e) => match e.get_mut() {
                Bucket::One(prev) => {
                    let prev = *prev;
                    *e.get_mut() = Bucket::Many(vec![prev, id]);
                }
                Bucket::Many(ids) => ids.push(id),
            },
        }
        id
    }

    /// Look up a node by id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // Convenience constructors. ------------------------------------------

    /// Intern a constant.
    pub fn lit(&mut self, l: Lit) -> NodeId {
        self.intern(Node::Const(l))
    }

    /// Intern an integer constant.
    pub fn int(&mut self, v: i64) -> NodeId {
        self.lit(Lit::Int(v))
    }

    /// Intern a region input.
    pub fn input(&mut self, name: impl Into<Symbol>) -> NodeId {
        self.intern(Node::Input(name.into()))
    }

    /// Intern an operator application.
    pub fn op(&mut self, op: OpKind, args: impl Into<NodeList>) -> NodeId {
        self.intern(Node::Op {
            op,
            args: args.into(),
        })
    }

    /// Intern a conditional evaluation node.
    pub fn cond(&mut self, cond: NodeId, then_val: NodeId, else_val: NodeId) -> NodeId {
        self.intern(Node::Cond {
            cond,
            then_val,
            else_val,
        })
    }

    /// Intern an opaque marker.
    pub fn opaque(&mut self, reason: impl Into<String>, args: impl Into<NodeList>) -> NodeId {
        self.intern(Node::Opaque {
            reason: reason.into(),
            args: args.into(),
        })
    }

    // Traversals. ----------------------------------------------------------

    /// Visit `id` and every node reachable from it, each exactly once, in
    /// pre-order: a node before its operands, operands in
    /// [`Node::children`] order. A shared node is visited where a tree walk
    /// would first meet it and skipped after that, so the cost is linear in
    /// the DAG, not in its unfolding. Stops at the first
    /// [`ControlFlow::Break`] the visitor returns.
    pub fn walk<B>(
        &self,
        id: NodeId,
        mut f: impl FnMut(NodeId, &Node) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut seen = vec![0u64; self.nodes.len().div_ceil(64)];
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            let (word, bit) = (id.0 as usize / 64, 1u64 << (id.0 % 64));
            if seen[word] & bit != 0 {
                continue;
            }
            seen[word] |= bit;
            let n = self.node(id);
            f(id, n)?;
            // Push in reverse so the first operand is popped first.
            let first = stack.len();
            n.children(|c, _| stack.push(c));
            stack[first..].reverse();
        }
        ControlFlow::Continue(())
    }

    /// True when any reachable node satisfies `pred`; stops at the first.
    pub fn any(&self, id: NodeId, pred: impl Fn(&Node) -> bool) -> bool {
        self.walk(id, |_, n| {
            if pred(n) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break()
    }

    /// True when the expression is poisoned (contains `Opaque`/`ND`).
    pub fn is_poisoned(&self, id: NodeId) -> bool {
        self.any(id, |n| {
            matches!(n, Node::Opaque { .. } | Node::NotDetermined)
        })
    }

    /// Region-input names referenced by the expression, each once, in
    /// first-visit order.
    pub fn inputs_of(&self, id: NodeId) -> Vec<Symbol> {
        let mut out = Vec::new();
        let _: ControlFlow<()> = self.walk(id, |_, n| {
            if let Node::Input(name) = n {
                out.push(*name);
            }
            ControlFlow::Continue(())
        });
        out
    }

    /// `id` with each operand mapped through `f`, which is also told whether
    /// the operand is under the node's binder (see [`Node::children`]). A
    /// node without operands is returned without a clone; otherwise the
    /// rebuilt node is interned only if some operand changed.
    pub fn rebuild(
        &mut self,
        id: NodeId,
        mut f: impl FnMut(&mut EeDag, NodeId, bool) -> NodeId,
    ) -> NodeId {
        let mut leaf = true;
        self.node(id).children(|_, _| leaf = false);
        if leaf {
            return id;
        }
        let mut node = self.node(id).clone();
        let mut changed = false;
        node.children_mut(|c, bound| {
            let new = f(self, *c, bound);
            changed |= new != *c;
            *c = new;
        });
        if changed {
            self.intern(node)
        } else {
            id
        }
    }

    /// Substitute region inputs by expressions: every `Input(v)` with an
    /// entry in `subs` is replaced by the mapped node. This is the
    /// sequential-region merge of the paper (Appendix D.3): "for each leaf
    /// in eeDag2 that is a 0-subscripted variable, replace it with the
    /// ee-DAG obtained from a lookup in veMap1".
    pub fn substitute_inputs(&mut self, id: NodeId, subs: &VeMap) -> NodeId {
        let mut memo = HashMap::new();
        self.subst_rec(id, subs, &mut memo)
    }

    fn subst_rec(
        &mut self,
        id: NodeId,
        subs: &VeMap,
        memo: &mut HashMap<NodeId, NodeId>,
    ) -> NodeId {
        if let Some(r) = memo.get(&id) {
            return *r;
        }
        // A folding function may read region inputs (loop-invariant
        // values), so it is substituted like any other operand.
        let result = match self.node(id) {
            Node::Input(name) => subs.get(name).copied().unwrap_or(id),
            _ => self.rebuild(id, |dag, c, _| dag.subst_rec(c, subs, memo)),
        };
        memo.insert(id, result);
        result
    }

    /// Pretty-print an expression for diagnostics. A shared node prints at
    /// each use, so the text can be exponential in the DAG's size: it is
    /// cut at [`DISPLAY_CAP`] bytes, on a char boundary, and then ends in
    /// `…`.
    pub fn display(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.display_into(id, &mut out)
            .expect("writing to a String cannot fail");
        if out.len() > DISPLAY_CAP {
            let mut cut = DISPLAY_CAP;
            while !out.is_char_boundary(cut) {
                cut -= 1;
            }
            out.truncate(cut);
            out.push('…');
        }
        out
    }

    /// Append the display of `id` to `out`, descending no further once
    /// `out` is past [`DISPLAY_CAP`].
    fn display_into(&self, id: NodeId, out: &mut String) -> fmt::Result {
        if out.len() > DISPLAY_CAP {
            return Ok(());
        }
        match self.node(id) {
            Node::Const(l) => write!(out, "{l}"),
            Node::Input(v) => write!(out, "{v}₀"),
            Node::AccParam(v) | Node::TupleParam(v) => write!(out, "⟨{v}⟩"),
            Node::FieldOf { base, field } => {
                self.display_into(*base, out)?;
                write!(out, ".{field}")
            }
            Node::Op { op, args } => {
                write!(out, "{op:?}[")?;
                self.display_list(args, out)?;
                out.write_str("]")
            }
            Node::Cond {
                cond,
                then_val,
                else_val,
            } => {
                out.write_str("?[")?;
                self.display_list(&[*cond, *then_val, *else_val], out)?;
                out.write_str("]")
            }
            Node::Query { ra, params } | Node::ScalarQuery { ra, params } => {
                let tag = if matches!(self.node(id), Node::ScalarQuery { .. }) {
                    "q"
                } else {
                    "Q"
                };
                write!(out, "{tag}⟨{ra}⟩")?;
                if !params.is_empty() {
                    out.write_str("(")?;
                    self.display_list(params, out)?;
                    out.write_str(")")?;
                }
                Ok(())
            }
            Node::EmptyColl(CollKind::List) => out.write_str("[]"),
            Node::EmptyColl(CollKind::Set) => out.write_str("{}"),
            Node::Fold {
                func, init, source, ..
            } => {
                out.write_str("fold[")?;
                self.display_list(&[*func, *init, *source], out)?;
                out.write_str("]")
            }
            Node::ArgExtreme {
                source,
                is_max,
                key,
                value,
                ..
            } => {
                write!(out, "arg{}[", if *is_max { "max" } else { "min" })?;
                self.display_into(*value, out)?;
                out.write_str(" by ")?;
                self.display_into(*key, out)?;
                out.write_str("](")?;
                self.display_into(*source, out)?;
                out.write_str(")")
            }
            Node::NotDetermined => out.write_str("ND"),
            Node::Opaque { reason, .. } => write!(out, "opaque⟨{reason}⟩"),
        }
    }

    /// [`EeDag::display_into`] for each of `ids`, comma-separated.
    fn display_list(&self, ids: &[NodeId], out: &mut String) -> fmt::Result {
        for (i, a) in ids.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            self.display_into(*a, out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_structurally_equal_nodes() {
        let mut d = EeDag::new();
        let a1 = d.input("x");
        let a2 = d.input("x");
        assert_eq!(a1, a2);
        let five = d.int(5);
        let s1 = d.op(OpKind::Add, vec![a1, five]);
        let s2 = d.op(OpKind::Add, vec![a2, five]);
        assert_eq!(s1, s2);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn index_stores_ids_not_node_clones() {
        // Satellite regression for the old `HashMap<Node, NodeId>` index,
        // which kept a full clone of every interned node as its key. The
        // per-node bookkeeping is now a structural hash plus a fixed-size
        // bucket entry — independent of (and much smaller than) `Node`.
        let per_node = std::mem::size_of::<u64>() + std::mem::size_of::<(u64, Bucket)>();
        assert!(
            per_node < std::mem::size_of::<Node>(),
            "index entry ({per_node} B) must not embed a Node ({} B)",
            std::mem::size_of::<Node>()
        );
    }

    #[test]
    fn hash_collisions_still_disambiguate_by_equality() {
        // Force the collision path: insert through a dag whose index we
        // can't seed, so instead just intern many distinct nodes and check
        // full round-trip identity (any bucket spill must keep ids apart).
        let mut d = EeDag::new();
        let ids: Vec<NodeId> = (0..2000).map(|i| d.int(i)).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(d.node(*id), &Node::Const(Lit::Int(i as i64)));
            assert_eq!(d.intern(Node::Const(Lit::Int(i as i64))), *id);
        }
        assert_eq!(d.len(), 2000);
    }

    #[test]
    fn nodelist_inline_and_heap_forms_are_equal() {
        let inline: NodeList = vec![NodeId(1), NodeId(2)].into();
        let heap = NodeList::Heap(vec![NodeId(1), NodeId(2)]);
        assert_eq!(inline, heap);
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        inline.hash(&mut h1);
        heap.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish(), "hash must follow slice contents");
    }

    #[test]
    fn nodelist_spills_past_inline_capacity() {
        let mut l = NodeList::new();
        for i in 0..10 {
            l.push(NodeId(i));
        }
        assert!(matches!(l, NodeList::Heap(_)));
        assert_eq!(l.len(), 10);
        assert_eq!(l[9], NodeId(9));
    }

    #[test]
    fn substitution_resolves_inputs() {
        let mut d = EeDag::new();
        let x = d.input("x");
        let one = d.int(1);
        let e = d.op(OpKind::Add, vec![x, one]);
        let ten = d.int(10);
        let mut subs = VeMap::new();
        subs.insert(Symbol::intern("x"), ten);
        let out = d.substitute_inputs(e, &subs);
        assert_eq!(d.display(out), "Add[10, 1]");
    }

    #[test]
    fn substitution_is_memoized_and_shares() {
        let mut d = EeDag::new();
        let x = d.input("x");
        let e1 = d.op(OpKind::Add, vec![x, x]);
        let v = d.int(2);
        let mut subs = VeMap::new();
        subs.insert(Symbol::intern("x"), v);
        let out = d.substitute_inputs(e1, &subs);
        match d.node(out) {
            Node::Op { args, .. } => assert_eq!(args[0], args[1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn substitution_without_hits_returns_same_id() {
        let mut d = EeDag::new();
        let x = d.input("x");
        let one = d.int(1);
        let e = d.op(OpKind::Add, vec![x, one]);
        let before = d.len();
        let out = d.substitute_inputs(e, &VeMap::new());
        assert_eq!(out, e, "no substitution hit must be the identity");
        assert_eq!(d.len(), before, "and must intern nothing new");
    }

    #[test]
    fn poison_detection() {
        let mut d = EeDag::new();
        let bad = d.opaque("custom comparator", vec![]);
        let one = d.int(1);
        let e = d.op(OpKind::Add, vec![one, bad]);
        assert!(d.is_poisoned(e));
        assert!(!d.is_poisoned(one));
    }

    #[test]
    fn inputs_of_lists_unique_inputs() {
        let mut d = EeDag::new();
        let x = d.input("x");
        let y = d.input("y");
        let e0 = d.op(OpKind::Add, vec![x, y]);
        let e = d.op(OpKind::Add, vec![e0, x]);
        assert_eq!(
            d.inputs_of(e),
            vec![Symbol::intern("x"), Symbol::intern("y")]
        );
    }

    #[test]
    fn folds_from_distinct_loops_stay_distinct() {
        let mut d = EeDag::new();
        let f = d.intern(Node::AccParam("v".into()));
        let i = d.int(0);
        let s = d.input("q");
        let f1 = d.intern(Node::Fold {
            func: f,
            init: i,
            source: s,
            cursor: "t".into(),
            origin: (StmtId(1), "v".into()),
        });
        let f2 = d.intern(Node::Fold {
            func: f,
            init: i,
            source: s,
            cursor: "t".into(),
            origin: (StmtId(2), "v".into()),
        });
        assert_ne!(f1, f2);
    }

    /// `x_k = Add[x_{k-1}, x_{k-1}]` for k = 1..=depth over `x_0 = x₀`:
    /// depth + 1 nodes whose unfolding as a tree has 2^(depth+1) - 1.
    fn diamond_chain(d: &mut EeDag, depth: usize) -> NodeId {
        let mut x = d.input("x");
        for _ in 0..depth {
            x = d.op(OpKind::Add, vec![x, x]);
        }
        x
    }

    #[test]
    fn walk_visits_a_shared_node_once() {
        let mut d = EeDag::new();
        let root = diamond_chain(&mut d, 20);
        let mut visits = 0;
        let _: ControlFlow<()> = d.walk(root, |_, _| {
            visits += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(visits, 21);
    }

    #[test]
    fn walk_keeps_pre_order_first_visits() {
        let mut d = EeDag::new();
        let x = d.input("x");
        let y = d.input("y");
        let a = d.op(OpKind::Add, vec![x, y]);
        let root = d.cond(a, y, a);
        let mut order = Vec::new();
        let _: ControlFlow<()> = d.walk(root, |id, _| {
            order.push(id);
            ControlFlow::Continue(())
        });
        assert_eq!(order, vec![root, a, x, y]);
    }

    #[test]
    fn any_stops_at_the_first_hit() {
        let mut d = EeDag::new();
        let root = diamond_chain(&mut d, 20);
        let calls = std::cell::Cell::new(0);
        assert!(d.any(root, |_| {
            calls.set(calls.get() + 1);
            true
        }));
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn display_is_capped() {
        let mut d = EeDag::new();
        let root = diamond_chain(&mut d, 20);
        let s = d.display(root);
        assert!(s.len() <= DISPLAY_CAP + '…'.len_utf8(), "{} bytes", s.len());
        assert!(s.ends_with('…'));
        assert!(s.starts_with("Add[Add[Add["));
    }

    #[test]
    fn rebuild_interns_only_on_change() {
        let mut d = EeDag::new();
        let x = d.input("x");
        let one = d.int(1);
        let e = d.op(OpKind::Add, vec![x, one]);
        let before = d.len();
        assert_eq!(d.rebuild(e, |_, c, _| c), e);
        assert_eq!(d.rebuild(x, |_, _, _| unreachable!("a leaf")), x);
        assert_eq!(d.len(), before);
        let two = d.int(2);
        let out = d.rebuild(e, |_, c, _| if c == one { two } else { c });
        assert_eq!(d.display(out), "Add[x₀, 2]");
    }

    #[test]
    fn children_flag_binder_operands() {
        let mut d = EeDag::new();
        let f = d.intern(Node::AccParam("v".into()));
        let i = d.int(0);
        let s = d.input("q");
        let fold = Node::Fold {
            func: f,
            init: i,
            source: s,
            cursor: "t".into(),
            origin: (StmtId(1), "v".into()),
        };
        let mut seen = Vec::new();
        fold.children(|c, bound| seen.push((c, bound)));
        assert_eq!(seen, vec![(f, true), (i, false), (s, false)]);
    }

    #[test]
    fn display_is_readable() {
        let mut d = EeDag::new();
        let x = d.input("scoreMax");
        let t = d.intern(Node::TupleParam("t".into()));
        let fld = d.intern(Node::FieldOf {
            base: t,
            field: "p1".into(),
        });
        let m = d.op(OpKind::Max, vec![x, fld]);
        assert_eq!(d.display(m), "Max[scoreMax₀, ⟨t⟩.p1]");
    }
}
