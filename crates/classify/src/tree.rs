//! Classification tree growth and prediction (§2.1.3–2.1.4, §5.1).
//!
//! The standard greedy top-down procedure shared by NyuMiner, CART and
//! C4.5: pick the best split of the node's data (per the learner's
//! criterion), recurse on each child, stop on purity or the size/depth
//! floors. Rows whose tested value is missing follow the node's largest
//! branch (a simple, documented policy; C4.5's fractional-case weighting
//! is not reproduced).

use crate::columnar::{self, ColumnarIndex};
use crate::data::{Classifier, Dataset};
use crate::impurity::{Gini, Impurity};
use crate::split::{best_split, c45_split, SplitTest};

/// The split-selection rule a tree is grown with.
pub enum GrowRule<'a> {
    /// NyuMiner: optimal sub-K-ary splits for a given impurity.
    NyuMiner {
        /// Maximum branches per split.
        max_branches: usize,
        /// Impurity function.
        impurity: &'a dyn Impurity,
    },
    /// CART: optimal *binary* splits under Gini.
    Cart,
    /// C4.5: gain-ratio splits (binary numeric, m-way categorical).
    C45,
}

/// Growth stopping knobs.
#[derive(Debug, Clone)]
pub struct GrowConfig {
    /// Minimum rows a node must have to be split further.
    pub min_split: usize,
    /// Maximum tree depth (root = 0).
    pub max_depth: usize,
}

impl Default for GrowConfig {
    fn default() -> Self {
        GrowConfig {
            min_split: 2,
            max_depth: 64,
        }
    }
}

/// One node of a grown tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// Class histogram of the training rows at this node.
    pub class_counts: Vec<usize>,
    /// Majority class at this node.
    pub majority: u16,
    /// Decision test and child node ids (leaves have none).
    pub split: Option<(SplitTest, Vec<usize>)>,
    /// The child index rows with missing values follow.
    pub default_branch: usize,
    /// Node depth (root = 0).
    pub depth: usize,
    /// Training rows reaching this node (kept for rule extraction).
    pub n_rows: usize,
}

impl TreeNode {
    /// Is this node a leaf?
    pub fn is_leaf(&self) -> bool {
        self.split.is_none()
    }

    /// Training misclassifications if this node were a leaf.
    pub fn errors(&self) -> usize {
        self.n_rows - self.class_counts[self.majority as usize]
    }
}

/// A grown classification tree (arena of nodes, root at index 0).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    /// The nodes; children referenced by index.
    pub nodes: Vec<TreeNode>,
    /// Rows the tree was grown on (training-set size for support values).
    pub n_train: usize,
}

impl DecisionTree {
    /// Grow a tree on `rows` of `data` with the given rule, over the
    /// dataset's own presort ([`Dataset::index`], built on first use) —
    /// the presort-once columnar engine. Produces exactly the tree
    /// [`DecisionTree::grow_reference`] would.
    pub fn grow(data: &Dataset, rows: &[usize], rule: &GrowRule, config: &GrowConfig) -> Self {
        columnar::grow(data, data.index(), rows, rule, config)
    }

    /// [`DecisionTree::grow`] over a given [`ColumnarIndex`] of `data`.
    pub fn grow_indexed(
        data: &Dataset,
        index: &ColumnarIndex,
        rows: &[usize],
        rule: &GrowRule,
        config: &GrowConfig,
    ) -> Self {
        columnar::grow(data, index, rows, rule, config)
    }

    /// The classic row-materialising growth path, which re-sorts numeric
    /// attributes at every node. Kept as the reference implementation the
    /// golden-equivalence suite compares the columnar engine against.
    pub fn grow_reference(
        data: &Dataset,
        rows: &[usize],
        rule: &GrowRule,
        config: &GrowConfig,
    ) -> Self {
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_train: rows.len(),
        };
        tree.grow_node(data, rows.to_vec(), rule, config, 0);
        tree
    }

    fn grow_node(
        &mut self,
        data: &Dataset,
        rows: Vec<usize>,
        rule: &GrowRule,
        config: &GrowConfig,
        depth: usize,
    ) -> usize {
        let class_counts = data.class_counts(&rows);
        let (majority, _) = data.plurality(&rows);
        let id = self.nodes.len();
        self.nodes.push(TreeNode {
            class_counts: class_counts.clone(),
            majority,
            split: None,
            default_branch: 0,
            depth,
            n_rows: rows.len(),
        });

        let pure = class_counts.iter().filter(|&&n| n > 0).count() <= 1;
        if pure || rows.len() < config.min_split || depth >= config.max_depth {
            return id;
        }

        let chosen = match rule {
            GrowRule::NyuMiner {
                max_branches,
                impurity,
            } => best_split(data, &rows, *max_branches, *impurity),
            GrowRule::Cart => best_split(data, &rows, 2, &Gini),
            GrowRule::C45 => c45_split(data, &rows),
        };
        let Some((test, _)) = chosen else {
            return id;
        };

        // Partition rows; missing values go to the largest branch.
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); test.arity()];
        let mut missing: Vec<usize> = Vec::new();
        for &r in &rows {
            match test.branch(data, r) {
                Some(b) => parts[b].push(r),
                None => missing.push(r),
            }
        }
        let default_branch = parts
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.len())
            .map(|(i, _)| i)
            .unwrap_or(0);
        parts[default_branch].extend(missing);

        // A degenerate split (all rows in one branch) cannot make
        // progress; stop.
        if parts.iter().filter(|p| !p.is_empty()).count() < 2 {
            return id;
        }

        let mut children = Vec::with_capacity(parts.len());
        for part in parts {
            let child = self.grow_node(data, part, rule, config, depth + 1);
            children.push(child);
        }
        self.nodes[id].split = Some((test, children));
        self.nodes[id].default_branch = default_branch;
        id
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves (`|~T|`, the complexity of §5.4.1).
    pub fn leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Leaf ids of the subtree rooted at `id`.
    pub fn subtree_leaves(&self, id: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            match &self.nodes[n].split {
                None => out.push(n),
                Some((_, children)) => stack.extend(children.iter().copied()),
            }
        }
        out
    }

    /// Resubstitution error count `R(T_id)` of the subtree at `id`: the
    /// training misclassifications of its leaves.
    pub fn subtree_errors(&self, id: usize) -> usize {
        self.subtree_leaves(id)
            .into_iter()
            .map(|l| self.nodes[l].errors())
            .sum()
    }

    /// The leaf a row lands in.
    pub fn leaf_of(&self, data: &Dataset, row: usize) -> usize {
        let mut node = 0;
        while let Some((test, children)) = &self.nodes[node].split {
            let b = test
                .branch(data, row)
                .unwrap_or(self.nodes[node].default_branch);
            node = children[b];
        }
        node
    }

    /// Render as indented text (used by the examples).
    pub fn render(&self, data: &Dataset) -> String {
        let mut out = String::new();
        self.render_node(data, 0, "", &mut out);
        out
    }

    fn render_node(&self, data: &Dataset, id: usize, indent: &str, out: &mut String) {
        let n = &self.nodes[id];
        match &n.split {
            None => {
                out.push_str(&format!(
                    "{indent}=> {} {:?}\n",
                    data.class_names()[n.majority as usize],
                    n.class_counts
                ));
            }
            Some((test, children)) => {
                for (i, &c) in children.iter().enumerate() {
                    out.push_str(&format!("{indent}{}\n", test.describe_branch(data, i)));
                    self.render_node(data, c, &format!("{indent}  "), out);
                }
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn predict(&self, data: &Dataset, row: usize) -> u16 {
        self.nodes[self.leaf_of(data, row)].majority
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::fixtures::heart;
    use crate::data::{AttrValue, Attribute};
    use crate::impurity::Entropy;

    fn rules() -> Vec<(&'static str, GrowRule<'static>)> {
        vec![
            (
                "nyu",
                GrowRule::NyuMiner {
                    max_branches: 3,
                    impurity: &Gini,
                },
            ),
            ("cart", GrowRule::Cart),
            ("c45", GrowRule::C45),
        ]
    }

    #[test]
    fn trees_fit_training_data() {
        let d = heart();
        for (name, rule) in rules() {
            let t = DecisionTree::grow(&d, &d.all_rows(), &rule, &GrowConfig::default());
            assert_eq!(
                t.accuracy(&d, &d.all_rows()),
                1.0,
                "{name} should fit the 6-row table exactly"
            );
            assert_eq!(t.subtree_errors(0), 0, "{name}");
            assert!(t.leaves() >= 2, "{name}");
        }
    }

    #[test]
    fn karp_is_classified_no() {
        // The Chapter 2 motivating example: Karp (140 lb, 32, low BP)
        // should be classified as "no heart disease" by the Fig. 2.1-style
        // tree.
        let d = heart();
        let t = DecisionTree::grow(
            &d,
            &d.all_rows(),
            &GrowRule::NyuMiner {
                max_branches: 3,
                impurity: &Entropy,
            },
            &GrowConfig::default(),
        );
        // Append Karp as a query row.
        let mut cols = vec![
            vec![AttrValue::Num(140.0)],
            vec![AttrValue::Num(32.0)],
            vec![AttrValue::Cat(0)],
        ];
        let query = Dataset::new(
            vec![
                Attribute::Numeric {
                    name: "weight".into(),
                },
                Attribute::Numeric { name: "age".into() },
                Attribute::Categorical {
                    name: "bp".into(),
                    values: vec!["low".into(), "med".into(), "high".into()],
                },
            ],
            std::mem::take(&mut cols),
            vec![0],
            vec!["no".into(), "yes".into()],
        );
        assert_eq!(t.predict(&query, 0), 0, "tree:\n{}", t.render(&d));
    }

    #[test]
    fn depth_limit_stops_growth() {
        let d = heart();
        let t = DecisionTree::grow(
            &d,
            &d.all_rows(),
            &GrowRule::Cart,
            &GrowConfig {
                min_split: 2,
                max_depth: 1,
            },
        );
        assert!(t.nodes.iter().all(|n| n.depth <= 1));
        assert!(t.nodes.iter().filter(|n| n.depth == 1).all(|n| n.is_leaf()));
    }

    #[test]
    fn min_split_stops_growth() {
        let d = heart();
        let t = DecisionTree::grow(
            &d,
            &d.all_rows(),
            &GrowRule::Cart,
            &GrowConfig {
                min_split: 100,
                max_depth: 64,
            },
        );
        assert_eq!(t.size(), 1);
        // A single-node tree predicts the plurality class everywhere.
        let (plur, _) = d.plurality(&d.all_rows());
        for r in d.all_rows() {
            assert_eq!(t.predict(&d, r), plur);
        }
    }

    #[test]
    fn missing_values_follow_default_branch() {
        let d = Dataset::new(
            vec![Attribute::Numeric { name: "x".into() }],
            vec![vec![
                AttrValue::Num(0.0),
                AttrValue::Num(0.0),
                AttrValue::Num(0.0),
                AttrValue::Num(10.0),
                AttrValue::Missing,
            ]],
            vec![0, 0, 0, 1, 0],
            vec!["a".into(), "b".into()],
        );
        let t = DecisionTree::grow(&d, &d.all_rows(), &GrowRule::Cart, &GrowConfig::default());
        // The missing-value row follows the bigger (x < 5) branch.
        assert_eq!(t.predict(&d, 4), 0);
    }

    #[test]
    fn subtree_accounting_consistent() {
        let d = heart();
        let t = DecisionTree::grow(&d, &d.all_rows(), &GrowRule::Cart, &GrowConfig::default());
        assert_eq!(t.subtree_leaves(0).len(), t.leaves());
        let total_leaf_rows: usize = t.subtree_leaves(0).iter().map(|&l| t.nodes[l].n_rows).sum();
        assert_eq!(total_leaf_rows, d.len());
    }
}
