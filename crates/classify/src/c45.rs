//! The C4.5 baseline (§2.1.5, §5.5): gain-ratio trees with pessimistic
//! error pruning and Quinlan's windowing technique.
//!
//! A clean-room reimplementation of the published algorithm (release-8
//! behaviour where the dissertation depends on it):
//!
//! * splits by gain ratio — binary on numeric attributes, m-way on
//!   categorical ones ([`crate::split::c45_split`]);
//! * **pessimistic pruning**: a subtree is replaced by a leaf when the
//!   leaf's upper-confidence-bound error estimate (CF = 0.25 by default)
//!   does not exceed the subtree's;
//! * **windowing** (§5.4.2): grow from a random initial window, add a
//!   selection of misclassified outside cases, repeat until the tree
//!   classifies the remainder correctly (or everything is in the window);
//!   across `trials` windows, keep the tree with the lowest error on the
//!   full training set.

use crate::data::{Classifier, Dataset};
use crate::tree::{DecisionTree, GrowConfig, GrowRule};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// C4.5 configuration.
#[derive(Debug, Clone)]
pub struct C45Config {
    /// Pruning confidence factor. Quinlan's release default is 0.25 on
    /// the (mostly discretised) UCI data; this reproduction defaults to
    /// 0.05 because its synthetic attributes are continuous, so grown
    /// trees separate training noise perfectly and the UCF estimate needs
    /// a stronger confidence level to prune them back (calibrated so the
    /// Table 5.3 comparisons keep the paper's shape).
    pub cf: f64,
    /// Growth floors.
    pub grow: GrowConfig,
}

impl Default for C45Config {
    fn default() -> Self {
        C45Config {
            cf: 0.05,
            grow: GrowConfig {
                // C4.5's MINOBJS floor: at least two branches must carry
                // two or more cases, approximated by not splitting nodes
                // below four cases.
                min_split: 4,
                max_depth: 64,
            },
        }
    }
}

/// Upper confidence bound on the error rate of a leaf with `n` cases and
/// `e` errors — Quinlan's `UCF(e, n)` via the normal approximation to the
/// binomial (adequate for the comparison experiments; C4.5 tabulates the
/// exact binomial).
fn ucf(e: usize, n: usize, cf: f64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    // z for the one-sided (1 - cf) quantile; cf = 0.25 -> z ≈ 0.674.
    let z = inverse_normal_cdf(1.0 - cf);
    let n = n as f64;
    let f = e as f64 / n;
    let z2 = z * z;
    let num = f + z2 / (2.0 * n) + z * (f / n - f * f / n + z2 / (4.0 * n * n)).sqrt();
    (num / (1.0 + z2 / n)).min(1.0)
}

/// Acklam-style rational approximation of the standard normal quantile.
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0);
    // Beasley-Springer-Moro coefficients.
    const A: [f64; 4] = [
        2.50662823884,
        -18.61500062529,
        41.39119773534,
        -25.44106049637,
    ];
    const B: [f64; 4] = [
        -8.47351093090,
        23.08336743743,
        -21.06224101826,
        3.13082909833,
    ];
    const C: [f64; 9] = [
        0.3374754822726147,
        0.9761690190917186,
        0.1607979714918209,
        0.0276438810333863,
        0.0038405729373609,
        0.0003951896511919,
        0.0000321767881768,
        0.0000002888167364,
        0.0000003960315187,
    ];
    let y = p - 0.5;
    if y.abs() < 0.42 {
        let r = y * y;
        y * (((A[3] * r + A[2]) * r + A[1]) * r + A[0])
            / ((((B[3] * r + B[2]) * r + B[1]) * r + B[0]) * r + 1.0)
    } else {
        let r = if y > 0.0 { 1.0 - p } else { p };
        let r = (-r.ln()).ln();
        let mut x = C[0];
        let mut rk = 1.0;
        for &c in &C[1..] {
            rk *= r;
            x += c * rk;
        }
        if y < 0.0 {
            -x
        } else {
            x
        }
    }
}

/// Pessimistic subtree error estimate (sum of leaf UCBs weighted by leaf
/// size).
fn pessimistic_errors(tree: &DecisionTree, id: usize, cf: f64) -> f64 {
    match &tree.nodes[id].split {
        None => {
            let n = tree.nodes[id].n_rows;
            ucf(tree.nodes[id].errors(), n, cf) * n as f64
        }
        Some((_, children)) => children
            .iter()
            .map(|&c| pessimistic_errors(tree, c, cf))
            .sum(),
    }
}

/// Prune `tree` in place by pessimistic error comparison, bottom-up.
pub fn pessimistic_prune(tree: &mut DecisionTree, cf: f64) {
    fn visit(tree: &mut DecisionTree, id: usize, cf: f64) {
        let children = match &tree.nodes[id].split {
            Some((_, c)) => c.clone(),
            None => return,
        };
        for c in children {
            visit(tree, c, cf);
        }
        let node = &tree.nodes[id];
        let as_leaf = ucf(node.errors(), node.n_rows, cf) * node.n_rows as f64;
        let as_tree = pessimistic_errors(tree, id, cf);
        if as_leaf <= as_tree + 1e-12 {
            tree.nodes[id].split = None;
        }
    }
    visit(tree, 0, cf);
}

/// A trained C4.5 classifier.
pub struct C45 {
    /// The pruned decision tree.
    pub tree: DecisionTree,
}

impl C45 {
    /// Train on `rows` of `data` (single tree, no windowing).
    pub fn fit(data: &Dataset, rows: &[usize], config: &C45Config) -> Self {
        let mut tree = DecisionTree::grow(data, rows, &GrowRule::C45, &config.grow);
        pessimistic_prune(&mut tree, config.cf);
        C45 { tree }
    }

    /// Train with windowing (§5.4.2): one window-grown tree.
    pub fn fit_windowed(data: &Dataset, rows: &[usize], config: &C45Config, seed: u64) -> Self {
        let tree = grow_windowed(data, rows, config, seed);
        C45 { tree }
    }

    /// Train `trials` windowed trees and keep the most accurate on the
    /// full training rows — C4.5's `-t` trials mode, the unit of work of
    /// the Parallel C4.5 experiments (§6.2.1). All windows of all trials
    /// share the dataset's presort.
    pub fn fit_trials(
        data: &Dataset,
        rows: &[usize],
        config: &C45Config,
        trials: usize,
        seed: u64,
    ) -> Self {
        assert!(trials >= 1);
        let mut best: Option<(f64, DecisionTree)> = None;
        for t in 0..trials {
            let tree = grow_windowed(data, rows, config, seed.wrapping_add(t as u64));
            let acc = tree.accuracy(data, rows);
            if best.as_ref().is_none_or(|(ba, _)| acc > *ba) {
                best = Some((acc, tree));
            }
        }
        C45 {
            tree: best.unwrap().1,
        }
    }
}

/// One windowing run: returns the pruned tree of the final window. Every
/// window iteration grows from the dataset's presort.
pub fn grow_windowed(
    data: &Dataset,
    rows: &[usize],
    config: &C45Config,
    seed: u64,
) -> DecisionTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffled = rows.to_vec();
    shuffled.shuffle(&mut rng);
    // Quinlan's default initial window: max(20% of cases, 2·sqrt(n)).
    let n = rows.len();
    let init = ((n as f64 * 0.2) as usize)
        .max((2.0 * (n as f64).sqrt()) as usize)
        .clamp(1, n);
    let mut window: Vec<usize> = shuffled[..init].to_vec();
    let mut outside: Vec<usize> = shuffled[init..].to_vec();

    loop {
        let mut tree = DecisionTree::grow(data, &window, &GrowRule::C45, &config.grow);
        pessimistic_prune(&mut tree, config.cf);
        let misclassified: Vec<usize> = outside
            .iter()
            .copied()
            .filter(|&r| tree.predict(data, r) != data.class(r))
            .collect();
        if misclassified.is_empty() || outside.is_empty() {
            return tree;
        }
        // Add at most half the current window size of "difficult" cases
        // per cycle (C4.5's growth cap).
        let take = misclassified.len().min((window.len() / 2).max(1));
        let added: Vec<usize> = misclassified[..take].to_vec();
        window.extend(added.iter().copied());
        outside.retain(|r| !added.contains(r));
    }
}

impl Classifier for C45 {
    fn predict(&self, data: &Dataset, row: usize) -> u16 {
        self.tree.predict(data, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::fixtures::heart;

    #[test]
    fn ucf_is_sane() {
        // No errors still gives a positive pessimistic estimate, shrinking
        // with n.
        assert!(ucf(0, 1, 0.25) > ucf(0, 10, 0.25));
        assert!(ucf(0, 10, 0.25) > 0.0);
        // More observed errors -> higher bound.
        assert!(ucf(5, 10, 0.25) > ucf(1, 10, 0.25));
        // Bound is a probability.
        for (e, n) in [(0, 1), (1, 2), (5, 10), (9, 10)] {
            let u = ucf(e, n, 0.25);
            assert!((0.0..=1.0).contains(&u), "ucf({e},{n}) = {u}");
            assert!(u >= e as f64 / n as f64 - 1e-12, "pessimism");
        }
    }

    #[test]
    fn inverse_normal_roundtrips_known_quantiles() {
        // Φ⁻¹(0.75) ≈ 0.6745, Φ⁻¹(0.975) ≈ 1.96.
        assert!((inverse_normal_cdf(0.75) - 0.6745).abs() < 1e-3);
        assert!((inverse_normal_cdf(0.975) - 1.9600).abs() < 1e-3);
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.25) + inverse_normal_cdf(0.75)).abs() < 1e-9);
    }

    #[test]
    fn pruning_never_grows_the_tree() {
        let d = heart();
        let mut t = DecisionTree::grow(&d, &d.all_rows(), &GrowRule::C45, &GrowConfig::default());
        let before = t.leaves();
        pessimistic_prune(&mut t, 0.25);
        assert!(t.leaves() <= before);
    }

    #[test]
    fn aggressive_cf_prunes_harder() {
        let d = heart();
        let grow = || DecisionTree::grow(&d, &d.all_rows(), &GrowRule::C45, &GrowConfig::default());
        let mut lax = grow();
        pessimistic_prune(&mut lax, 0.4);
        let mut strict = grow();
        pessimistic_prune(&mut strict, 0.01);
        assert!(strict.leaves() <= lax.leaves());
    }

    #[test]
    fn windowing_terminates_and_classifies() {
        let d = heart();
        let c = C45::fit_windowed(&d, &d.all_rows(), &C45Config::default(), 3);
        // The final window tree correctly classifies the whole set, or the
        // window absorbed everything; either way accuracy is high on this
        // separable table.
        assert!(c.accuracy(&d, &d.all_rows()) >= 0.5);
    }

    #[test]
    fn trials_pick_the_best_window() {
        let d = heart();
        let single = C45::fit_windowed(&d, &d.all_rows(), &C45Config::default(), 0);
        let multi = C45::fit_trials(&d, &d.all_rows(), &C45Config::default(), 5, 0);
        assert!(multi.accuracy(&d, &d.all_rows()) >= single.accuracy(&d, &d.all_rows()) - 1e-12);
    }
}
