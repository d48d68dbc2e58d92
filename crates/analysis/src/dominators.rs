//! Dominator computation over the CFG.
//!
//! A region header must dominate every node of the region (paper Sec. 3.1:
//! "a set of nodes that includes a header that dominates all other nodes in
//! the region, and has a single entry and exit"). We use the classic
//! iterative dataflow formulation (Aho et al., "Compilers: Principles,
//! Techniques, and Tools", cited as \[1\] in the paper).

use std::collections::BTreeSet;

use crate::cfg::{BlockId, Cfg};

/// Dominator sets: `doms[b]` is the set of blocks dominating `b`
/// (including `b` itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dominators {
    sets: Vec<BTreeSet<BlockId>>,
}

impl Dominators {
    /// Compute dominators for all blocks of `cfg`.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let n = cfg.len();
        let all: BTreeSet<BlockId> = (0..n).map(BlockId).collect();
        let mut sets = vec![all.clone(); n];
        sets[cfg.start.0] = BTreeSet::from([cfg.start]);
        let preds = cfg.predecessors();
        let order = cfg.reverse_postorder();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                if b == cfg.start {
                    continue;
                }
                let mut new: Option<BTreeSet<BlockId>> = None;
                for p in &preds[b.0] {
                    new = Some(match new {
                        None => sets[p.0].clone(),
                        Some(acc) => acc.intersection(&sets[p.0]).copied().collect(),
                    });
                }
                let mut new = new.unwrap_or_default();
                new.insert(b);
                if new != sets[b.0] {
                    sets[b.0] = new;
                    changed = true;
                }
            }
        }
        Dominators { sets }
    }

    /// True when `a` dominates `b`.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.sets[b.0].contains(&a)
    }

    /// The full dominator set of `b`.
    pub fn of(&self, b: BlockId) -> &BTreeSet<BlockId> {
        &self.sets[b.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    fn doms(src: &str) -> (Cfg, Dominators) {
        let p = parse_program(src).unwrap();
        let cfg = Cfg::build(&p.functions[0]);
        let d = Dominators::compute(&cfg);
        (cfg, d)
    }

    #[test]
    fn start_dominates_everything_reachable() {
        let (cfg, d) = doms("fn f() { if (a) { b = 1; } else { b = 2; } return b; }");
        for b in cfg.reverse_postorder() {
            assert!(d.dominates(cfg.start, b));
        }
    }

    #[test]
    fn every_block_dominates_itself() {
        let (cfg, d) = doms("fn f() { for (t in q) { x = t.a; } }");
        for b in cfg.reverse_postorder() {
            assert!(d.dominates(b, b));
        }
    }

    #[test]
    fn branch_arms_do_not_dominate_join() {
        let (cfg, d) = doms("fn f() { if (a) { b = 1; } else { b = 2; } return b; }");
        // The join block is the one with the Return; find via End preds.
        let preds = cfg.predecessors();
        let join = *preds[cfg.end.0].iter().next().unwrap();
        // Find the two arm blocks (successors of start).
        let arms = cfg.successors(cfg.start);
        for arm in arms {
            if arm != join {
                assert!(
                    !d.dominates(arm, join),
                    "arm {arm:?} must not dominate join"
                );
            }
        }
        assert!(d.dominates(cfg.start, join));
    }

    #[test]
    fn loop_header_dominates_body() {
        let (cfg, d) = doms("fn f() { for (t in q) { x = t.a; y = x; } return y; }");
        let header = cfg
            .blocks
            .iter()
            .position(|b| {
                matches!(
                    b.terminator,
                    Some(crate::cfg::Terminator::ForDispatch { .. })
                )
            })
            .map(BlockId)
            .unwrap();
        let body = match &cfg.blocks[header.0].terminator {
            Some(crate::cfg::Terminator::ForDispatch { body, .. }) => *body,
            _ => unreachable!(),
        };
        assert!(d.dominates(header, body));
        assert!(!d.dominates(body, header));
    }
}
