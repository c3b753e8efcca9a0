//! NyuMiner (Chapter 5): classification trees by optimal sub-K-ary
//! splits, in its two flavours.
//!
//! * **NyuMiner-CV** (§5.4.1): grow with optimal sub-K-ary splits, prune
//!   by minimal cost complexity with V-fold cross validation — CART's
//!   pruning machinery over NyuMiner's splits.
//! * **NyuMiner-RS** (§5.4.2): *multiple incremental sampling* (the
//!   windowing idea) grows several alternate trees from different initial
//!   samples; **rule selection** then pools every node of every tree as a
//!   candidate classifying rule, filters by confidence/support thresholds
//!   `(Cmin, Smin)`, and classifies by the best matching rule — an
//!   alternative to pruning, and the mechanism behind the foreign-exchange
//!   application of §5.6.

use crate::data::{Classifier, Dataset};
use crate::impurity::{Entropy, Gini, Impurity};
use crate::prune::{grow_with_cv_pruning, CvPruned};
use crate::split::SplitTest;
use crate::tree::{DecisionTree, GrowConfig, GrowRule};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The impurity functions NyuMiner is run with in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImpurityKind {
    /// CART's Gini index.
    Gini,
    /// Class entropy.
    Entropy,
}

impl ImpurityKind {
    /// Borrow the corresponding impurity function.
    pub fn as_dyn(&self) -> &'static dyn Impurity {
        match self {
            ImpurityKind::Gini => &Gini,
            ImpurityKind::Entropy => &Entropy,
        }
    }
}

/// NyuMiner configuration.
#[derive(Debug, Clone)]
pub struct NyuConfig {
    /// Maximum branches per split (`K`).
    pub max_branches: usize,
    /// Impurity function.
    pub impurity: ImpurityKind,
    /// Growth floors.
    pub grow: GrowConfig,
}

impl Default for NyuConfig {
    fn default() -> Self {
        NyuConfig {
            // Sub-ternary splits: enough to capture the finer numeric
            // ranges NyuMiner is built for, without the multi-way
            // multiple-comparison bias that hurts attribute selection on
            // noisy data (cf. the dissertation's own §5.5.2 observation
            // that binary splits are very effective in practice).
            max_branches: 3,
            impurity: ImpurityKind::Gini,
            grow: GrowConfig::default(),
        }
    }
}

impl NyuConfig {
    /// The [`GrowRule`] this configuration selects splits with.
    pub fn rule(&self) -> GrowRule<'static> {
        GrowRule::NyuMiner {
            max_branches: self.max_branches,
            impurity: self.impurity.as_dyn(),
        }
    }
}

// ---------------------------------------------------------------------
// NyuMiner-CV.
// ---------------------------------------------------------------------

/// NyuMiner with minimal cost-complexity pruning under V-fold cross
/// validation.
pub struct NyuMinerCV {
    /// The pruned tree.
    pub tree: DecisionTree,
    /// Selected complexity parameter.
    pub alpha: f64,
}

impl NyuMinerCV {
    /// Train on `rows` with `v`-fold CV pruning (`v = 0` skips pruning —
    /// the Table 6.1 baseline). The main and fold trees share the
    /// dataset's presort.
    pub fn fit(data: &Dataset, rows: &[usize], config: &NyuConfig, v: usize, seed: u64) -> Self {
        let CvPruned { tree, alpha, .. } =
            grow_with_cv_pruning(data, rows, &config.rule(), &config.grow, v, seed);
        NyuMinerCV { tree, alpha }
    }
}

impl Classifier for NyuMinerCV {
    fn predict(&self, data: &Dataset, row: usize) -> u16 {
        self.tree.predict(data, row)
    }
}

// ---------------------------------------------------------------------
// Rules and rule selection.
// ---------------------------------------------------------------------

/// A classifying rule: the conjunction of branch conditions on the path
/// from a tree's root to one of its nodes (§5.4.2).
#[derive(Debug, Clone)]
pub struct Rule {
    /// `(test, branch)` conditions, root-most first.
    pub conditions: Vec<(SplitTest, usize)>,
    /// Decision class (the node's majority class).
    pub class: u16,
    /// Fraction of the node's rows in the majority class.
    pub confidence: f64,
    /// Fraction of training rows reaching the node.
    pub support: f64,
}

impl Rule {
    /// Does `row` satisfy every condition? Missing values fail a
    /// condition (the rule does not apply).
    pub fn matches(&self, data: &Dataset, row: usize) -> bool {
        self.conditions
            .iter()
            .all(|(test, branch)| test.branch(data, row) == Some(*branch))
    }

    /// The §5.4.2 partial order: `r > r'` iff both confidence and support
    /// are strictly greater.
    pub fn dominates(&self, other: &Rule) -> bool {
        self.confidence > other.confidence && self.support > other.support
    }
}

/// An ordered classifying rule list with a default class.
pub struct RuleList {
    rules: Vec<Rule>,
    default_class: u16,
}

impl RuleList {
    /// Build from candidate rules: filter by `(cmin, smin)`, sort
    /// descending by (confidence, support) — a linearisation of the
    /// partial order of Definition 9.
    pub fn select(mut candidates: Vec<Rule>, cmin: f64, smin: f64, default_class: u16) -> Self {
        candidates.retain(|r| r.confidence >= cmin && r.support >= smin);
        candidates.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then(b.support.total_cmp(&a.support))
        });
        RuleList {
            rules: candidates,
            default_class,
        }
    }

    /// The selected rules, highest first.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Classify by the first (= highest-ordered, then most confident)
    /// matching rule; `None` when no rule applies (the non-decisive case
    /// the FX application relies on).
    pub fn decide(&self, data: &Dataset, row: usize) -> Option<u16> {
        self.rules
            .iter()
            .find(|r| r.matches(data, row))
            .map(|r| r.class)
    }
}

impl Classifier for RuleList {
    fn predict(&self, data: &Dataset, row: usize) -> u16 {
        self.decide(data, row).unwrap_or(self.default_class)
    }
}

/// Every node of `tree` as a candidate rule (the root — the plurality
/// rule — is excluded; `Cmin` should exceed its confidence anyway).
pub fn extract_rules(tree: &DecisionTree, n_train: usize) -> Vec<Rule> {
    let mut out = Vec::new();
    // DFS carrying the path conditions.
    let mut stack: Vec<(usize, Vec<(SplitTest, usize)>)> = vec![(0, Vec::new())];
    while let Some((id, conds)) = stack.pop() {
        let node = &tree.nodes[id];
        if !conds.is_empty() {
            let n = node.n_rows;
            out.push(Rule {
                conditions: conds.clone(),
                class: node.majority,
                confidence: if n == 0 {
                    0.0
                } else {
                    node.class_counts[node.majority as usize] as f64 / n as f64
                },
                support: n as f64 / n_train as f64,
            });
        }
        if let Some((test, children)) = &node.split {
            for (branch, &c) in children.iter().enumerate() {
                let mut next = conds.clone();
                next.push((test.clone(), branch));
                stack.push((c, next));
            }
        }
    }
    out
}

/// Re-estimate every candidate rule's statistics against `rows` of
/// `data`: decision class, confidence, and support are recomputed from
/// the full training set instead of the (possibly small) sampling window
/// the rule's tree was grown on. Incremental-sampling windows are biased
/// toward "difficult" cases, so window-relative confidences overstate;
/// the rule list the paper trades on is only as good as these estimates.
pub fn reevaluate_rules(data: &Dataset, rows: &[usize], rules: &mut [Rule]) {
    for rule in rules {
        let mut counts = vec![0usize; data.n_classes()];
        let mut n = 0usize;
        for &r in rows {
            if rule.matches(data, r) {
                counts[data.class(r) as usize] += 1;
                n += 1;
            }
        }
        if n == 0 {
            rule.confidence = 0.0;
            rule.support = 0.0;
            continue;
        }
        let (majority, count) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(c, &k)| (c as u16, k))
            .unwrap();
        rule.class = majority;
        rule.confidence = count as f64 / n as f64;
        rule.support = n as f64 / rows.len() as f64;
    }
}

// ---------------------------------------------------------------------
// NyuMiner-RS.
// ---------------------------------------------------------------------

/// Multiple incremental sampling + rule selection.
pub struct NyuMinerRS {
    /// The selected rule list.
    pub rules: RuleList,
    /// The alternate trees the rules came from.
    pub trees: Vec<DecisionTree>,
}

/// Grow one tree by multiple incremental sampling (§5.4.2): start from a
/// random subset, repeatedly add a selection of misclassified remaining
/// elements, rebuild, until the remainder is classified correctly or
/// exhausted. Every rebuild grows from the dataset's presort.
pub fn grow_incremental(
    data: &Dataset,
    rows: &[usize],
    config: &NyuConfig,
    seed: u64,
) -> DecisionTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffled = rows.to_vec();
    shuffled.shuffle(&mut rng);
    let n = rows.len();
    let init = ((n as f64 * 0.2) as usize).max(1).min(n);
    let mut window: Vec<usize> = shuffled[..init].to_vec();
    let mut outside: Vec<usize> = shuffled[init..].to_vec();
    loop {
        let tree = DecisionTree::grow(data, &window, &config.rule(), &config.grow);
        let misclassified: Vec<usize> = outside
            .iter()
            .copied()
            .filter(|&r| tree.predict(data, r) != data.class(r))
            .collect();
        if misclassified.is_empty() {
            return tree;
        }
        let take = misclassified.len().min((window.len() / 2).max(1));
        let added: Vec<usize> = misclassified[..take].to_vec();
        window.extend(added.iter().copied());
        outside.retain(|r| !added.contains(r));
    }
}

impl NyuMinerRS {
    /// Train with `trials` incremental-sampling trees and rule thresholds
    /// `(cmin, smin)`. All trials share the dataset's presort.
    pub fn fit(
        data: &Dataset,
        rows: &[usize],
        config: &NyuConfig,
        trials: usize,
        cmin: f64,
        smin: f64,
        seed: u64,
    ) -> Self {
        assert!(trials >= 1);
        let mut trees = Vec::with_capacity(trials);
        let mut candidates = Vec::new();
        for t in 0..trials {
            let tree = grow_incremental(data, rows, config, seed.wrapping_add(t as u64 * 7919));
            candidates.extend(extract_rules(&tree, rows.len()));
            trees.push(tree);
        }
        reevaluate_rules(data, rows, &mut candidates);
        let (default_class, _) = data.plurality(rows);
        NyuMinerRS {
            rules: RuleList::select(candidates, cmin, smin, default_class),
            trees,
        }
    }
}

impl Classifier for NyuMinerRS {
    fn predict(&self, data: &Dataset, row: usize) -> u16 {
        self.rules.predict(data, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::fixtures::heart;

    #[test]
    fn cv_flavour_trains_and_predicts() {
        let d = heart();
        let m = NyuMinerCV::fit(&d, &d.all_rows(), &NyuConfig::default(), 3, 5);
        assert!(m.tree.leaves() >= 1);
        // Predictions are valid classes.
        for r in d.all_rows() {
            assert!(m.predict(&d, r) < 2);
        }
    }

    #[test]
    fn rules_extracted_from_every_non_root_node() {
        let d = heart();
        let t = DecisionTree::grow(
            &d,
            &d.all_rows(),
            &NyuConfig::default().rule(),
            &GrowConfig::default(),
        );
        let rules = extract_rules(&t, d.len());
        assert_eq!(rules.len(), t.size() - 1);
        for r in &rules {
            assert!(r.confidence > 0.0 && r.confidence <= 1.0);
            assert!(r.support > 0.0 && r.support <= 1.0);
        }
    }

    #[test]
    fn rule_matching_follows_tree_paths() {
        let d = heart();
        let t = DecisionTree::grow(
            &d,
            &d.all_rows(),
            &NyuConfig::default().rule(),
            &GrowConfig::default(),
        );
        let rules = extract_rules(&t, d.len());
        // Every training row matches at least one leaf rule predicting its
        // class (the tree fits this table exactly).
        for row in d.all_rows() {
            assert!(
                rules
                    .iter()
                    .any(|r| r.matches(&d, row) && r.class == d.class(row)),
                "row {row}"
            );
        }
    }

    #[test]
    fn partial_order_dominance() {
        let mk = |c: f64, s: f64| Rule {
            conditions: Vec::new(),
            class: 0,
            confidence: c,
            support: s,
        };
        assert!(mk(0.9, 0.5).dominates(&mk(0.8, 0.4)));
        assert!(!mk(0.9, 0.3).dominates(&mk(0.8, 0.4)));
        assert!(!mk(0.8, 0.4).dominates(&mk(0.8, 0.4)));
    }

    #[test]
    fn selection_filters_and_sorts() {
        let mk = |c: f64, s: f64| Rule {
            conditions: Vec::new(),
            class: 0,
            confidence: c,
            support: s,
        };
        let list = RuleList::select(
            vec![mk(0.7, 0.2), mk(0.9, 0.05), mk(0.95, 0.5), mk(0.4, 0.9)],
            0.6,
            0.1,
            1,
        );
        let confs: Vec<f64> = list.rules().iter().map(|r| r.confidence).collect();
        assert_eq!(confs, vec![0.95, 0.7]);
    }

    #[test]
    fn rs_flavour_fits_heart_table() {
        let d = heart();
        let m = NyuMinerRS::fit(&d, &d.all_rows(), &NyuConfig::default(), 3, 0.5, 0.01, 2);
        assert!(!m.trees.is_empty());
        assert!(m.accuracy(&d, &d.all_rows()) >= 0.8);
    }

    #[test]
    fn strict_thresholds_make_rules_non_decisive() {
        let d = heart();
        let m = NyuMinerRS::fit(&d, &d.all_rows(), &NyuConfig::default(), 2, 1.01, 0.9, 3);
        // Impossible confidence bound: no rules survive; decide is None.
        assert!(m.rules.rules().is_empty());
        assert_eq!(m.rules.decide(&d, 0), None);
        // But predict falls back to the plurality class.
        let (plur, _) = d.plurality(&d.all_rows());
        assert_eq!(m.predict(&d, 0), plur);
    }
}
