//! Minimal cost-complexity pruning with V-fold cross validation (§5.4.1).
//!
//! Growing to purity overfits; CART's remedy — adopted by NyuMiner-CV —
//! defines the cost complexity `R_α(T) = R(T) + α·|~T|` and shows the
//! minimising subtrees form a nested sequence `T1 > T2 > … > {root}`
//! produced by repeatedly pruning the **weakest link**: the internal node
//! `t` minimising `g(t) = (R(t) − R(T_t)) / (|~T_t| − 1)`. V-fold cross
//! validation then estimates each `T_k`'s true error using auxiliary
//! trees grown on the folds, evaluated at the geometric midpoints
//! `α'_k = √(α_k·α_{k+1})`, and the best `T_k` is selected.

use crate::data::{Classifier, Dataset};
use crate::tree::{DecisionTree, GrowConfig, GrowRule};
use std::collections::HashSet;

/// A cost-complexity pruning sequence: `(alpha, pruned tree)` pairs in
/// increasing order of alpha (decreasing tree size).
pub type PruneSequence = Vec<(f64, DecisionTree)>;

/// Rebuild `tree` with every node in `prune_at` converted to a leaf,
/// dropping unreachable arena entries.
fn materialise(tree: &DecisionTree, prune_at: &HashSet<usize>) -> DecisionTree {
    let mut out = DecisionTree {
        nodes: Vec::new(),
        n_train: tree.n_train,
    };
    // (old id, new parent slot) — rebuild preorder.
    fn copy(
        tree: &DecisionTree,
        prune_at: &HashSet<usize>,
        old: usize,
        out: &mut DecisionTree,
    ) -> usize {
        let mut node = tree.nodes[old].clone();
        let id = out.nodes.len();
        let split = node.split.take();
        out.nodes.push(node);
        if !prune_at.contains(&old) {
            if let Some((test, children)) = split {
                let new_children: Vec<usize> = children
                    .iter()
                    .map(|&c| copy(tree, prune_at, c, out))
                    .collect();
                out.nodes[id].split = Some((test, new_children));
            }
        }
        id
    }
    copy(tree, prune_at, 0, &mut out);
    out
}

/// The nested pruning sequence: `(α_k, T_k)` pairs with `α_1 = 0` and the
/// final entry the root-only tree. `T_k` minimises `R_α` for
/// `α ∈ [α_k, α_{k+1})`.
pub fn ccp_sequence(tree: &DecisionTree) -> PruneSequence {
    let mut pruned: HashSet<usize> = HashSet::new();
    let mut seq: PruneSequence = Vec::new();

    // Effective leaves/errors of the overlay subtree at `id`.
    fn stats(tree: &DecisionTree, pruned: &HashSet<usize>, id: usize) -> (usize, usize) {
        // (leaves, errors)
        if pruned.contains(&id) || tree.nodes[id].is_leaf() {
            return (1, tree.nodes[id].errors());
        }
        let (_, children) = tree.nodes[id].split.as_ref().unwrap();
        let mut leaves = 0;
        let mut errors = 0;
        for &c in children {
            let (l, e) = stats(tree, pruned, c);
            leaves += l;
            errors += e;
        }
        (leaves, errors)
    }

    // Internal (unpruned) nodes of the overlay.
    fn internal(tree: &DecisionTree, pruned: &HashSet<usize>) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![0usize];
        while let Some(id) = stack.pop() {
            if pruned.contains(&id) || tree.nodes[id].is_leaf() {
                continue;
            }
            out.push(id);
            let (_, children) = tree.nodes[id].split.as_ref().unwrap();
            stack.extend(children.iter().copied());
        }
        out
    }

    // T1: prune every subtree that does not reduce training error
    // (g(t) = 0 links) — folded into the main loop since α starts at 0.
    let mut alpha = 0.0f64;
    loop {
        seq.push((alpha, materialise(tree, &pruned)));
        let nodes = internal(tree, &pruned);
        if nodes.is_empty() {
            break;
        }
        // Weakest links.
        let mut min_g = f64::INFINITY;
        let mut weakest: Vec<usize> = Vec::new();
        for &t in &nodes {
            let (leaves, errors) = stats(tree, &pruned, t);
            debug_assert!(leaves >= 2);
            let g = (tree.nodes[t].errors() as f64 - errors as f64) / (leaves as f64 - 1.0);
            if g < min_g - 1e-12 {
                min_g = g;
                weakest = vec![t];
            } else if g < min_g + 1e-12 {
                weakest.push(t);
            }
        }
        for t in weakest {
            pruned.insert(t);
        }
        alpha = min_g.max(alpha);
        // Collapse equal-α steps: replace the last snapshot if α repeats.
        if let Some((last_alpha, _)) = seq.last() {
            if (alpha - last_alpha).abs() < 1e-12 {
                seq.pop();
            }
        }
    }
    seq
}

/// The subtree of a pruning sequence in force at complexity `alpha`: the
/// entry with the largest `α_k ≤ alpha`.
pub fn select_for_alpha(seq: &[(f64, DecisionTree)], alpha: f64) -> &DecisionTree {
    let mut best = &seq[0].1;
    for (a, t) in seq {
        if *a <= alpha + 1e-15 {
            best = t;
        } else {
            break;
        }
    }
    best
}

/// Outcome of [`grow_with_cv_pruning`].
pub struct CvPruned {
    /// The selected pruned tree.
    pub tree: DecisionTree,
    /// The α at which it was selected.
    pub alpha: f64,
    /// Cross-validation error estimate of each sequence entry.
    pub cv_errors: Vec<(f64, f64)>,
}

/// Grow a tree and prune it by minimal cost complexity with `v`-fold
/// cross validation (the full CART/NyuMiner-CV procedure). With `v == 0`
/// no pruning is performed (the `V = 0` rows of Table 6.1). The main tree
/// and all `v` fold trees share the dataset's presort.
pub fn grow_with_cv_pruning(
    data: &Dataset,
    rows: &[usize],
    rule: &GrowRule,
    config: &GrowConfig,
    v: usize,
    seed: u64,
) -> CvPruned {
    let main = DecisionTree::grow(data, rows, rule, config);
    if v == 0 {
        return CvPruned {
            tree: main,
            alpha: 0.0,
            cv_errors: Vec::new(),
        };
    }
    let seq = ccp_sequence(&main);
    if seq.len() == 1 {
        let (alpha, tree) = seq.into_iter().next().unwrap();
        return CvPruned {
            tree,
            alpha,
            cv_errors: Vec::new(),
        };
    }

    // Auxiliary trees per fold, with their own pruning sequences.
    let folds = data.folds(rows, v, seed);
    let mut aux: Vec<(Vec<usize>, PruneSequence)> = Vec::with_capacity(v);
    for i in 0..v {
        let test_fold = &folds[i];
        let train: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .flat_map(|(_, f)| f.iter().copied())
            .collect();
        let t = DecisionTree::grow(data, &train, rule, config);
        aux.push((test_fold.clone(), ccp_sequence(&t)));
    }

    // Evaluate each main-sequence entry at the geometric midpoint of its
    // α interval.
    let n: usize = rows.len();
    let mut cv_errors: Vec<(f64, f64)> = Vec::with_capacity(seq.len());
    for k in 0..seq.len() {
        let alpha_k = seq[k].0;
        let alpha_mid = if k + 1 < seq.len() {
            let next = seq[k + 1].0;
            if alpha_k > 0.0 {
                (alpha_k * next).sqrt()
            } else {
                next / 2.0
            }
        } else {
            f64::INFINITY
        };
        let mut errors = 0usize;
        for (test_fold, aux_seq) in &aux {
            let t = select_for_alpha(aux_seq, alpha_mid);
            for &r in test_fold {
                if t.predict(data, r) != data.class(r) {
                    errors += 1;
                }
            }
        }
        cv_errors.push((alpha_k, errors as f64 / n as f64));
    }

    // Select the minimiser (ties to the simpler/larger-α tree).
    let mut best_k = 0;
    for k in 1..cv_errors.len() {
        if cv_errors[k].1 <= cv_errors[best_k].1 + 1e-12 {
            best_k = k;
        }
    }
    CvPruned {
        alpha: seq[best_k].0,
        tree: seq[best_k].1.clone(),
        cv_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::fixtures::heart;
    use crate::impurity::Gini;

    fn grown() -> (Dataset, DecisionTree) {
        let d = heart();
        let t = DecisionTree::grow(
            &d,
            &d.all_rows(),
            &GrowRule::NyuMiner {
                max_branches: 3,
                impurity: &Gini,
            },
            &GrowConfig::default(),
        );
        (d, t)
    }

    #[test]
    fn sequence_is_nested_and_ends_at_root() {
        let (_, t) = grown();
        let seq = ccp_sequence(&t);
        assert!(seq.len() >= 2);
        assert_eq!(seq[0].0, 0.0);
        // Strictly decreasing leaf counts, strictly increasing alphas.
        for w in seq.windows(2) {
            assert!(w[0].1.leaves() > w[1].1.leaves());
            assert!(w[0].0 <= w[1].0 + 1e-12);
        }
        assert_eq!(seq.last().unwrap().1.leaves(), 1);
    }

    #[test]
    fn sequence_errors_monotone_nondecreasing() {
        let (_, t) = grown();
        let seq = ccp_sequence(&t);
        for w in seq.windows(2) {
            assert!(w[0].1.subtree_errors(0) <= w[1].1.subtree_errors(0));
        }
    }

    #[test]
    fn each_entry_minimises_cost_complexity_locally() {
        // For α between α_k and α_{k+1}, T_k's cost complexity must not
        // exceed its neighbours'.
        let (_, t) = grown();
        let seq = ccp_sequence(&t);
        for k in 0..seq.len() - 1 {
            let alpha = (seq[k].0 + seq[k + 1].0) / 2.0;
            let cost = |tr: &DecisionTree| tr.subtree_errors(0) as f64 + alpha * tr.leaves() as f64;
            for other in &seq {
                assert!(
                    cost(&seq[k].1) <= cost(&other.1) + 1e-9,
                    "entry {k} at alpha {alpha}"
                );
            }
        }
    }

    #[test]
    fn select_for_alpha_picks_interval() {
        let (_, t) = grown();
        let seq = ccp_sequence(&t);
        assert_eq!(select_for_alpha(&seq, 0.0).leaves(), seq[0].1.leaves());
        assert_eq!(select_for_alpha(&seq, f64::INFINITY).leaves(), 1);
    }

    #[test]
    fn materialise_drops_unreachable_nodes() {
        let (_, t) = grown();
        let all = materialise(&t, &HashSet::new());
        assert_eq!(all.size(), t.size());
        let rooted: HashSet<usize> = [0].into_iter().collect();
        let stump = materialise(&t, &rooted);
        assert_eq!(stump.size(), 1);
        assert!(stump.nodes[0].is_leaf());
    }

    #[test]
    fn cv_pruning_returns_valid_tree() {
        let d = heart();
        let pruned = grow_with_cv_pruning(
            &d,
            &d.all_rows(),
            &GrowRule::Cart,
            &GrowConfig::default(),
            3,
            11,
        );
        assert!(pruned.tree.leaves() >= 1);
        assert!(!pruned.cv_errors.is_empty());
        // All reported alphas come from the main sequence.
        let seq = ccp_sequence(&DecisionTree::grow(
            &d,
            &d.all_rows(),
            &GrowRule::Cart,
            &GrowConfig::default(),
        ));
        assert_eq!(pruned.cv_errors.len(), seq.len());
    }

    #[test]
    fn v_zero_skips_pruning() {
        let d = heart();
        let unpruned = grow_with_cv_pruning(
            &d,
            &d.all_rows(),
            &GrowRule::Cart,
            &GrowConfig::default(),
            0,
            1,
        );
        let full = DecisionTree::grow(&d, &d.all_rows(), &GrowRule::Cart, &GrowConfig::default());
        assert_eq!(unpruned.tree.size(), full.size());
    }
}
