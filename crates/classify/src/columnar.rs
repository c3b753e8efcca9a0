//! Presort-once columnar split engine.
//!
//! The textbook C4.5 bottleneck is that every node re-sorts every numeric
//! attribute's values before looking for a threshold — `O(n·k·log n)` per
//! node, dominated by the sort and by the per-basket `Vec` churn. This
//! module removes both costs in the SLIQ/SPRINT style while reproducing
//! the existing choosers **bit for bit**:
//!
//! * The [`Dataset`] is the one column store: typed value and code
//!   columns, read by the engine in place. Its [`ColumnarIndex`], built
//!   once on first use ([`Dataset::index`]), adds only the presort: one
//!   rank permutation per numeric attribute (its non-missing rows, stably
//!   sorted ascending by value).
//! * Trees grow over **row-index sets**. Each node keeps, per numeric
//!   attribute, its rows in presorted value order; a split stably
//!   partitions those lists into the children in one `O(n)` pass, so no
//!   node below the root ever sorts anything. Rows are routed to the
//!   children by reading the tested column directly; a categorical split
//!   first becomes a per-value branch table.
//! * Numeric thresholds are found by a linear sweep that builds the
//!   boundary baskets of §5.3 directly into flat (structure-of-arrays)
//!   histograms — `O(n·k)` per node — and feeds them to the same interval
//!   DP as the classic path.
//! * Categorical splits are scored from one flat node histogram
//!   (`cardinality × n_classes` counts) that the engine owns and refills
//!   with one counting pass over the code column for every (node,
//!   attribute) evaluation, for every chooser. Where at most two values
//!   occur at the node, the logical-value argument of §5.3.2 leaves
//!   exactly one binary split, the two values apart, so NyuMiner and CART
//!   take its cost in closed form (`split::two_basket_cut`, the
//!   binary DP arm's own score) with the general search's group order and
//!   tie rule, allocating nothing but the returned test; nodes where more
//!   values occur take the general search. C4.5 scores each candidate's
//!   information gain once, from the flat rows, and derives its gain
//!   ratio from that gain.
//!
//! Equivalence with the classic per-node path
//! ([`DecisionTree::grow_reference`]) is exact, not approximate: the
//! presorted order is the same total order (`f64::total_cmp`) the classic
//! path sorts into, basket histograms are order-insensitive, and every
//! floating-point expression is evaluated in the same order on the same
//! values — so the same tests, thresholds, and leaf labels fall out. The
//! golden suite in `tests/golden_columnar.rs` asserts this on the seven
//! benchmark datasets and under a proptest; `tests/golden_trees.rs` pins
//! the grown trees' bytes, which also catches a change to the search the
//! engine shares with the reference path.
//!
//! Cross-validation folds, windowing trials, and the parallel drivers in
//! `parmine` all share the dataset's one immutable index (it is `Sync`;
//! grow from any number of threads).

use crate::data::{Column, Dataset, MISSING_CODE};
use crate::impurity::{Entropy, Gini, Impurity};
use crate::split::{
    interval_split_flat_in, midpoint, optimal_categorical_split_hist, pure_class, two_basket_cut,
    DpScratch, SplitTest, MAX_DP_BASKETS,
};
use crate::tree::{DecisionTree, GrowConfig, GrowRule, TreeNode};

/// Sentinel branch id for rows whose tested value is missing.
const NO_BRANCH: u16 = u16::MAX;

/// The presort of a dataset: one rank permutation per numeric attribute.
/// Values, codes and cardinalities stay in the [`Dataset`], which builds
/// its own index once ([`Dataset::index`]) and shares it across every
/// tree grown on any subset of its rows.
#[derive(Debug, Clone)]
pub struct ColumnarIndex {
    n_rows: usize,
    /// Per attribute: its non-missing rows, ascending by value (stable
    /// `total_cmp` order — the same order the classic path sorts into);
    /// empty for a categorical attribute.
    sorted: Vec<Vec<u32>>,
}

impl ColumnarIndex {
    /// Presort `data`: one stable sort per numeric attribute. This is the
    /// only sort the engine ever does.
    pub fn build(data: &Dataset) -> Self {
        let n = data.len();
        assert!(n < u32::MAX as usize, "row ids are u32");
        let sorted = (0..data.n_attributes())
            .map(|attr| match data.column(attr) {
                Column::Num(vals) => {
                    let mut rows: Vec<u32> = (0..n as u32)
                        .filter(|&r| !vals[r as usize].is_nan())
                        .collect();
                    rows.sort_by(|&a, &b| vals[a as usize].total_cmp(&vals[b as usize]));
                    rows
                }
                Column::Cat(_) => Vec::new(),
            })
            .collect();
        ColumnarIndex { n_rows: n, sorted }
    }

    /// Number of rows the index was built over.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }
}

/// Flat (structure-of-arrays) basket list: `uppers[i]` is basket `i`'s
/// largest value, `counts[i*k..(i+1)*k]` its class histogram. One reusable
/// buffer replaces the per-basket `Vec<usize>` allocations of the classic
/// path.
struct FlatBaskets {
    k: usize,
    uppers: Vec<f64>,
    counts: Vec<usize>,
}

impl FlatBaskets {
    fn new(k: usize) -> Self {
        FlatBaskets {
            k,
            uppers: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.uppers.len()
    }

    fn row(&self, i: usize) -> &[usize] {
        &self.counts[i * self.k..(i + 1) * self.k]
    }

    /// Rebuild as the **collapsed** value baskets of the presorted rows
    /// (Figs. 5.2–5.4): one basket per distinct value in ascending value
    /// order, with adjacent pure same-class baskets merged — `fill` and
    /// `boundary_collapse` fused into the one pass. Each value basket is
    /// built as the (open) last basket; when its value run ends it is
    /// merged backwards iff it and the basket before it are pure in the
    /// same class — the very merges the two-pass form performs, in the
    /// same order, by exact count addition.
    ///
    /// Histograms are `k` wide and indexed by `slot_of[class]` — pass the
    /// identity map for full-width rows, or a compressed map (absent
    /// classes dropped, present classes in ascending order) to shrink
    /// every basket to the classes the node actually holds.
    fn fill(
        &mut self,
        rows_sorted: &[u32],
        vals: &[f64],
        data: &Dataset,
        k: usize,
        slot_of: &[u16],
    ) {
        self.k = k;
        self.uppers.clear();
        self.counts.clear();
        // Purity of the last *closed* basket, carried so no basket is
        // ever re-scanned (merging pure into pure same-class keeps the
        // class, so the carried value stays correct).
        let mut prev_pure: Option<u16> = None;
        // The open basket's purity: first slot seen, and whether any row
        // since differed.
        let mut cur_first = 0u16;
        let mut cur_mixed = false;
        // Nothing compares equal (`==`) to NaN, so the first row always
        // opens a basket. Same merge rule as the classic path: equal
        // values share a basket (they are adjacent in total_cmp order).
        let mut prev_v = f64::NAN;
        for &r in rows_sorted {
            let v = vals[r as usize];
            let slot = slot_of[data.class(r as usize) as usize];
            if v == prev_v {
                let i = self.uppers.len() - 1;
                self.counts[i * k + slot as usize] += 1;
                cur_mixed |= slot != cur_first;
            } else {
                if !self.uppers.is_empty() {
                    self.close_basket(&mut prev_pure, cur_first, cur_mixed);
                }
                prev_v = v;
                self.uppers.push(v);
                self.counts.resize(self.counts.len() + k, 0);
                self.counts[(self.uppers.len() - 1) * k + slot as usize] = 1;
                cur_first = slot;
                cur_mixed = false;
            }
        }
        if !self.uppers.is_empty() {
            self.close_basket(&mut prev_pure, cur_first, cur_mixed);
        }
    }

    /// End the open basket's value run: merge it into its predecessor if
    /// both are pure in the same class (Figs. 5.3–5.4), and update the
    /// carried purity.
    #[inline]
    fn close_basket(&mut self, prev_pure: &mut Option<u16>, cur_first: u16, cur_mixed: bool) {
        let cur = if cur_mixed { None } else { Some(cur_first) };
        let last = self.uppers.len() - 1;
        if last > 0 {
            if let (Some(pc), Some(cc)) = (*prev_pure, cur) {
                if pc == cc {
                    self.uppers[last - 1] = self.uppers[last];
                    for c in 0..self.k {
                        self.counts[(last - 1) * self.k + c] += self.counts[last * self.k + c];
                    }
                    self.uppers.pop();
                    self.counts.truncate(last * self.k);
                    return; // still pure in the same class: purity carried
                }
            }
        }
        *prev_pure = cur;
    }

    /// Merge adjacent baskets into at most `max` near-equal-weight groups
    /// in place — flat-buffer form of `coarsen`.
    fn coarsen(&mut self, max: usize) {
        if self.len() <= max {
            return;
        }
        let k = self.k;
        let total: usize = self.counts.iter().sum();
        let per = total.div_ceil(max);
        let mut out = 0usize;
        let mut acc = 0usize;
        for i in 0..self.len() {
            let w: usize = self.row(i).iter().sum();
            if out > 0 && acc < per {
                // Keep filling the open group until it reaches its quota.
                self.uppers[out - 1] = self.uppers[i];
                for c in 0..k {
                    self.counts[(out - 1) * k + c] += self.counts[i * k + c];
                }
                acc += w;
            } else {
                if out != i {
                    self.uppers[out] = self.uppers[i];
                    for c in 0..k {
                        self.counts[out * k + c] = self.counts[i * k + c];
                    }
                }
                out += 1;
                acc = w;
            }
        }
        self.uppers.truncate(out);
        self.counts.truncate(out * k);
    }
}

/// One node's worth of rows: the rows in tree-partition order plus, per
/// numeric attribute, the same rows in presorted value order (empty for
/// categorical attributes).
struct NodeRows {
    rows: Vec<u32>,
    sorted: Vec<Vec<u32>>,
}

/// The per-grow engine: borrows the dataset and index, owns the reusable
/// scratch buffers.
struct Engine<'a> {
    data: &'a Dataset,
    index: &'a ColumnarIndex,
    /// Per-row branch assignment scratch (valid only for the node being
    /// partitioned).
    branch_of: Vec<u16>,
    /// Branch of each categorical value under the split being applied
    /// (`NO_BRANCH` for a value no branch takes), rebuilt per split.
    branch_table: Vec<u16>,
    fb: FlatBaskets,
    /// Interval-DP buffers, reused across every (node, attribute) call.
    dps: DpScratch,
    /// Identity class map (`slot_of[c] = c`), for full-width histograms.
    ident: Vec<u16>,
    /// Compressed class map for the node being split (see
    /// [`Engine::best_split`]); `n_slots` is its image size.
    slot_of: Vec<u16>,
    n_slots: usize,
    /// The node's per-value class histogram of the categorical attribute
    /// being evaluated, flat (`hist[v·n_classes + class]`), refilled for
    /// every (node, attribute) evaluation.
    hist: Vec<usize>,
    // C4.5 numeric-sweep scratch: class totals, the two sides of the
    // current threshold (left then right, 2·n_classes), the best left.
    all: Vec<usize>,
    sides: Vec<usize>,
    best_left: Vec<usize>,
}

impl<'a> Engine<'a> {
    fn new(data: &'a Dataset, index: &'a ColumnarIndex) -> Self {
        assert_eq!(
            index.n_rows,
            data.len(),
            "index built for a different dataset"
        );
        assert_eq!(index.sorted.len(), data.n_attributes());
        let k = data.n_classes();
        Engine {
            data,
            index,
            branch_of: vec![NO_BRANCH; index.n_rows],
            branch_table: Vec::new(),
            fb: FlatBaskets::new(k),
            dps: DpScratch::default(),
            ident: (0..k as u16).collect(),
            slot_of: (0..k as u16).collect(),
            n_slots: k,
            hist: Vec::new(),
            all: vec![0; k],
            sides: vec![0; 2 * k],
            best_left: vec![0; k],
        }
    }

    /// Root node: mark membership once, filter each presorted permutation.
    fn root(&mut self, rows: &[usize]) -> NodeRows {
        let mut member = vec![false; self.index.n_rows];
        for &r in rows {
            debug_assert!(!member[r], "duplicate row {r} in grow rows");
            member[r] = true;
        }
        let sorted = self
            .index
            .sorted
            .iter()
            .map(|perm| {
                perm.iter()
                    .copied()
                    .filter(|&r| member[r as usize])
                    .collect()
            })
            .collect();
        NodeRows {
            rows: rows.iter().map(|&r| r as u32).collect(),
            sorted,
        }
    }

    fn class_counts(&self, rows: &[u32]) -> Vec<usize> {
        let mut counts = vec![0usize; self.data.n_classes()];
        for &r in rows {
            counts[self.data.class(r as usize) as usize] += 1;
        }
        counts
    }

    /// Optimal sub-K-ary numeric split from the node's presorted rows:
    /// sweep → collapse → coarsen → interval DP, no sorting.
    fn numeric_optimal(
        &mut self,
        node: &NodeRows,
        attr: usize,
        vals: &[f64],
        max_branches: usize,
        imp: &dyn Impurity,
    ) -> Option<(SplitTest, f64)> {
        self.fb.fill(
            &node.sorted[attr],
            vals,
            self.data,
            self.n_slots,
            &self.slot_of,
        );
        self.fb.coarsen(MAX_DP_BASKETS);
        if self.fb.len() < 2 {
            return None;
        }
        let s =
            interval_split_flat_in(&self.fb.counts, self.fb.k, max_branches, imp, &mut self.dps)?;
        if s.arity < 2 {
            return None;
        }
        let cuts: Vec<f64> = s
            .cut_after
            .iter()
            .map(|&i| midpoint(self.fb.uppers[i], self.fb.uppers[i + 1]))
            .collect();
        Some((SplitTest::NumRanges { attr, cuts }, s.impurity))
    }

    /// Refill [`Engine::hist`] with a categorical attribute's per-value
    /// class histograms at this node: one counting pass over the code
    /// column, no allocation once the buffer has grown.
    fn fill_hist(&mut self, node: &NodeRows, codes: &[u16], cardinality: usize) {
        let k = self.data.n_classes();
        self.hist.clear();
        self.hist.resize(cardinality * k, 0);
        for &r in &node.rows {
            let code = codes[r as usize];
            if code != MISSING_CODE {
                self.hist[code as usize * k + self.data.class(r as usize) as usize] += 1;
            }
        }
    }

    /// NyuMiner's chooser ([`crate::split::best_split`]) over the index.
    fn best_split(
        &mut self,
        node: &NodeRows,
        max_branches: usize,
        imp: &dyn Impurity,
    ) -> Option<(SplitTest, f64)> {
        // Per-node class compression for the numeric DP: the cost kernels
        // are linear in histogram width, and absent classes contribute
        // nothing, so map the node's present classes (ascending) onto
        // dense slots and drop the rest. Exact for the stock impurities —
        // their kernels skip zero counts, so the sequence of nonzero terms
        // each cell folds is unchanged (see `cell_cost`). A custom
        // impurity sees full-width histograms via the identity map.
        let k = self.data.n_classes();
        if imp.as_any().is_some() {
            self.all.iter_mut().for_each(|c| *c = 0);
            for &r in &node.rows {
                self.all[self.data.class(r as usize) as usize] += 1;
            }
            let mut m = 0u16;
            for c in 0..k {
                self.slot_of[c] = m;
                if self.all[c] > 0 {
                    m += 1;
                }
            }
            self.n_slots = m as usize;
        } else {
            self.slot_of.copy_from_slice(&self.ident);
            self.n_slots = k;
        }

        let data = self.data;
        let mut best: Option<(SplitTest, f64)> = None;
        for attr in 0..data.n_attributes() {
            let cand = match data.column(attr) {
                Column::Num(vals) => self.numeric_optimal(node, attr, vals, max_branches, imp),
                Column::Cat(codes) => {
                    let cardinality = data.attributes()[attr].cardinality();
                    if cardinality < 2 {
                        None
                    } else {
                        self.fill_hist(node, codes, cardinality);
                        categorical_split(attr, &self.hist, k, max_branches, imp, &mut self.dps)
                    }
                }
            };
            if let Some((test, cost)) = cand {
                let better = match &best {
                    None => true,
                    Some((bt, bc)) => {
                        cost < bc - 1e-12 || (cost < bc + 1e-12 && test.arity() < bt.arity())
                    }
                };
                if better {
                    best = Some((test, cost));
                }
            }
        }
        best
    }

    /// C4.5's chooser ([`crate::split::c45_split`]) over the index. Each
    /// candidate's information gain is computed once, against the node's
    /// `parent_info`, and its gain ratio is derived from that gain.
    fn c45_split(&mut self, node: &NodeRows, parent: &[usize]) -> Option<(SplitTest, f64)> {
        let data = self.data;
        let k = data.n_classes();
        let parent_info = Entropy.of(parent);
        let mut best: Option<(SplitTest, f64)> = None;
        for attr in 0..data.n_attributes() {
            // (test, gain, split info) of the attribute's candidate.
            let cand: Option<(SplitTest, f64, f64)> = match data.column(attr) {
                Column::Num(vals) => {
                    // Best threshold by information gain, swept over the
                    // collapsed boundary baskets with incremental left/right
                    // histograms.
                    self.fb.fill(&node.sorted[attr], vals, data, k, &self.ident);
                    if self.fb.len() < 2 {
                        None
                    } else {
                        for c in 0..k {
                            self.sides[c] = 0;
                            self.all[c] = (0..self.fb.len()).map(|i| self.fb.row(i)[c]).sum();
                        }
                        let mut best_t: Option<(f64, f64)> = None; // (gain, cut)
                        for i in 0..self.fb.len() - 1 {
                            for c in 0..k {
                                self.sides[c] += self.fb.row(i)[c];
                                self.sides[k + c] = self.all[c] - self.sides[c];
                            }
                            let g = info_gain_flat(parent_info, &self.sides, k);
                            if best_t.as_ref().is_none_or(|(bg, _)| g > *bg) {
                                self.best_left.copy_from_slice(&self.sides[..k]);
                                best_t =
                                    Some((g, midpoint(self.fb.uppers[i], self.fb.uppers[i + 1])));
                            }
                        }
                        best_t.map(|(gain, cut)| {
                            for c in 0..k {
                                self.sides[c] = self.best_left[c];
                                self.sides[k + c] = self.all[c] - self.best_left[c];
                            }
                            let test = SplitTest::NumRanges {
                                attr,
                                cuts: vec![cut],
                            };
                            (test, gain, split_info_flat(&self.sides, k))
                        })
                    }
                }
                Column::Cat(codes) => {
                    let arity = data.attributes()[attr].cardinality();
                    if arity < 2 {
                        None
                    } else {
                        self.fill_hist(node, codes, arity);
                        // At least two non-empty branches required.
                        let non_empty = self
                            .hist
                            .chunks_exact(k)
                            .filter(|p| p.iter().any(|&n| n > 0))
                            .count();
                        if non_empty < 2 {
                            None
                        } else {
                            let gain = info_gain_flat(parent_info, &self.hist, k);
                            let test = SplitTest::CatEach { attr, arity };
                            Some((test, gain, split_info_flat(&self.hist, k)))
                        }
                    }
                }
            };
            if let Some((test, gain, si)) = cand {
                if gain <= 1e-12 {
                    continue;
                }
                let gr = ratio_of_gain(gain, si);
                if best.as_ref().is_none_or(|(_, b)| gr > *b) {
                    best = Some((test, gr));
                }
            }
        }
        best
    }

    /// Set `branch_of` for each of `rows` to the branch `test` sends it
    /// down, `NO_BRANCH` where [`SplitTest::branch`] gives `None`, reading
    /// the typed column directly. A categorical test is first turned into
    /// a per-value branch table, so each row costs one lookup.
    fn route(&mut self, rows: &[u32], test: &SplitTest) {
        let column = self.data.column(test.attr());
        let table = &mut self.branch_table;
        let codes = match (test, column) {
            (SplitTest::NumRanges { cuts, .. }, Column::Num(vals)) => {
                for &r in rows {
                    let v = vals[r as usize];
                    self.branch_of[r as usize] = if v.is_nan() {
                        NO_BRANCH
                    } else {
                        cuts.iter().position(|&c| v < c).unwrap_or(cuts.len()) as u16
                    };
                }
                return;
            }
            (SplitTest::CatGroups { attr, groups }, Column::Cat(codes)) => {
                table.clear();
                table.resize(self.data.attributes()[*attr].cardinality(), NO_BRANCH);
                // Reversed, so the first group holding a value takes it.
                for (b, group) in groups.iter().enumerate().rev() {
                    for &v in group {
                        table[v as usize] = b as u16;
                    }
                }
                codes
            }
            (SplitTest::CatEach { arity, .. }, Column::Cat(codes)) => {
                table.clear();
                table.extend(0..*arity as u16);
                codes
            }
            _ => unreachable!("the engine tests each attribute by its column's type"),
        };
        // A value past the table's end, the missing code included, takes
        // no branch.
        for &r in rows {
            let code = codes[r as usize] as usize;
            self.branch_of[r as usize] = table.get(code).copied().unwrap_or(NO_BRANCH);
        }
    }

    fn grow_node(
        &mut self,
        tree: &mut DecisionTree,
        node: NodeRows,
        rule: &GrowRule,
        config: &GrowConfig,
        depth: usize,
    ) -> usize {
        let class_counts = self.class_counts(&node.rows);
        let majority = plurality_class(&class_counts);
        let id = tree.nodes.len();
        tree.nodes.push(TreeNode {
            class_counts: class_counts.clone(),
            majority,
            split: None,
            default_branch: 0,
            depth,
            n_rows: node.rows.len(),
        });

        let pure = class_counts.iter().filter(|&&n| n > 0).count() <= 1;
        if pure || node.rows.len() < config.min_split || depth >= config.max_depth {
            return id;
        }

        let chosen = match rule {
            GrowRule::NyuMiner {
                max_branches,
                impurity,
            } => self.best_split(&node, *max_branches, *impurity),
            GrowRule::Cart => self.best_split(&node, 2, &Gini),
            GrowRule::C45 => self.c45_split(&node, &class_counts),
        };
        let Some((test, _)) = chosen else {
            return id;
        };

        // Partition rows; missing values go to the largest branch (last
        // one on ties, matching the classic path), appended after the
        // branch's own rows.
        let arity = test.arity();
        self.route(&node.rows, &test);
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); arity];
        let mut missing: Vec<u32> = Vec::new();
        for &r in &node.rows {
            match self.branch_of[r as usize] {
                NO_BRANCH => missing.push(r),
                b => parts[b as usize].push(r),
            }
        }
        let mut default_branch = 0;
        for (i, p) in parts.iter().enumerate() {
            if p.len() >= parts[default_branch].len() {
                default_branch = i;
            }
        }
        for &r in &missing {
            self.branch_of[r as usize] = default_branch as u16;
        }
        parts[default_branch].extend_from_slice(&missing);

        // A degenerate split (all rows in one branch) cannot make
        // progress; stop.
        if parts.iter().filter(|p| !p.is_empty()).count() < 2 {
            return id;
        }

        // Stably partition every presorted list into the children in one
        // pass — this is what replaces the classic path's per-node sort.
        let n_attrs = node.sorted.len();
        let mut children_rows: Vec<NodeRows> = parts
            .into_iter()
            .map(|p| NodeRows {
                rows: p,
                sorted: vec![Vec::new(); n_attrs],
            })
            .collect();
        for (attr, perm) in node.sorted.iter().enumerate() {
            for &r in perm {
                let b = self.branch_of[r as usize] as usize;
                children_rows[b].sorted[attr].push(r);
            }
        }
        drop(node);

        let mut children = Vec::with_capacity(arity);
        for child in children_rows {
            children.push(self.grow_node(tree, child, rule, config, depth + 1));
        }
        tree.nodes[id].split = Some((test, children));
        tree.nodes[id].default_branch = default_branch;
        id
    }
}

/// Plurality class of a histogram with the classic path's tie rule
/// (`max_by_key` keeps the *last* maximum).
fn plurality_class(counts: &[usize]) -> u16 {
    let mut majority = 0u16;
    let mut best = 0usize;
    let mut any = false;
    for (c, &n) in counts.iter().enumerate() {
        if !any || n >= best {
            majority = c as u16;
            best = n;
            any = true;
        }
    }
    majority
}

/// Optimal sub-K-ary split of a categorical attribute from its flat node
/// histogram (`hist[v·n_classes + class]`): the answer of
/// [`optimal_categorical_split_hist`], which it calls where more than two
/// values occur.
///
/// Where at most two values occur, that search has one candidate — the
/// two values apart (§5.3.2) — so its answer is computed in closed form,
/// allocating nothing but the returned test: the same logical values,
/// group order, cost and tie rule.
fn categorical_split(
    attr: usize,
    hist: &[usize],
    n_classes: usize,
    max_branches: usize,
    imp: &dyn Impurity,
    scr: &mut DpScratch,
) -> Option<(SplitTest, f64)> {
    let mut present = [0usize; 2];
    let mut n_present = 0;
    for (v, row) in hist.chunks_exact(n_classes).enumerate() {
        if row.iter().any(|&n| n > 0) {
            if n_present == 2 || max_branches < 2 {
                return optimal_categorical_split_hist(attr, hist, n_classes, max_branches, imp);
            }
            present[n_present] = v;
            n_present += 1;
        }
    }
    if n_present < 2 {
        return None; // one value or none: no split
    }
    let row = |v: usize| &hist[v * n_classes..(v + 1) * n_classes];
    let [a, b] = present;
    // Two values pure in one class form one logical value.
    if let (Some(ca), Some(cb)) = (pure_class(row(a)), pure_class(row(b))) {
        if ca == cb {
            return None;
        }
    }
    // Group order: for two classes the stable class-0 ratio ordering, for
    // more the value order — the first ordering the general search tries,
    // and the one it keeps, since both orders of two groups cost the same.
    let ratio = |v: usize| row(v)[0] as f64 / row(v).iter().sum::<usize>() as f64;
    let (l, r) = if n_classes <= 2 && ratio(b).total_cmp(&ratio(a)).is_lt() {
        (b, a)
    } else {
        (a, b)
    };
    let cost = two_basket_cut(row(l), row(r), imp, scr)?;
    let groups = vec![vec![l as u16], vec![r as u16]];
    Some((SplitTest::CatGroups { attr, groups }, cost))
}

/// `information_gain(parent, parts)` for partitions given as flat class
/// histograms (`parts[i·k + class]`), from `parent_info = Entropy.of(parent)`.
/// Same fold order as `Impurity::aggregate`'s iterator sum, so the bits
/// agree.
fn info_gain_flat(parent_info: f64, parts: &[usize], k: usize) -> f64 {
    let total: usize = parts.iter().sum();
    let agg = if total == 0 {
        0.0
    } else {
        parts
            .chunks_exact(k)
            .map(|p| {
                let n: usize = p.iter().sum();
                n as f64 / total as f64 * Entropy.of(p)
            })
            .sum()
    };
    parent_info - agg
}

/// `gain_ratio` from the gain and split info already computed: 0 where
/// the split info vanishes.
fn ratio_of_gain(gain: f64, split_info: f64) -> f64 {
    if split_info <= f64::EPSILON {
        0.0
    } else {
        gain / split_info
    }
}

/// `split_info(parts)` for partitions given as flat class histograms, in
/// `split_info`'s fold order.
fn split_info_flat(parts: &[usize], k: usize) -> f64 {
    let total: usize = parts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    -parts
        .chunks_exact(k)
        .map(|p| p.iter().sum::<usize>())
        .filter(|&n| n > 0)
        .map(|n| {
            let f = n as f64 / total as f64;
            f * f.log2()
        })
        .sum::<f64>()
}

/// Grow a tree over `rows` using a prebuilt [`ColumnarIndex`] — the
/// engine behind [`DecisionTree::grow_indexed`].
///
/// `rows` must be distinct row ids of the dataset the index was built
/// from (every caller in this codebase passes disjoint subsets).
pub(crate) fn grow(
    data: &Dataset,
    index: &ColumnarIndex,
    rows: &[usize],
    rule: &GrowRule,
    config: &GrowConfig,
) -> DecisionTree {
    let mut tree = DecisionTree {
        nodes: Vec::new(),
        n_train: rows.len(),
    };
    let mut eng = Engine::new(data, index);
    let root = eng.root(rows);
    eng.grow_node(&mut tree, root, rule, config, 0);
    tree
}

/// The columnar engine's split chooser for a single node, NyuMiner form —
/// exposed for the equivalence suite and benches: must agree exactly with
/// [`crate::split::best_split`] on the same rows.
pub fn columnar_best_split(
    data: &Dataset,
    index: &ColumnarIndex,
    rows: &[usize],
    max_branches: usize,
    imp: &dyn Impurity,
) -> Option<(SplitTest, f64)> {
    let mut eng = Engine::new(data, index);
    let node = eng.root(rows);
    eng.best_split(&node, max_branches, imp)
}

/// The columnar engine's split chooser for a single node, C4.5 form —
/// must agree exactly with [`crate::split::c45_split`] on the same rows.
pub fn columnar_c45_split(
    data: &Dataset,
    index: &ColumnarIndex,
    rows: &[usize],
) -> Option<(SplitTest, f64)> {
    let mut eng = Engine::new(data, index);
    let node = eng.root(rows);
    let parent = eng.class_counts(&node.rows);
    eng.c45_split(&node, &parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::fixtures::heart;
    use crate::data::AttrValue;
    use crate::impurity::{gain_ratio, information_gain, split_info};
    use crate::split::{best_split, c45_split};
    use crate::tree::GrowConfig;

    /// The closed form against the general search on one flat histogram
    /// of `k` classes, under both stock impurities, cost bits included;
    /// returns the Gini answer.
    fn two_value(hist: &[usize], k: usize, max_branches: usize) -> Option<(SplitTest, f64)> {
        let mut scr = DpScratch::default();
        let [_, gini] = [&Entropy as &dyn Impurity, &Gini].map(|imp| {
            let general = optimal_categorical_split_hist(7, hist, k, max_branches, imp);
            let closed = categorical_split(7, hist, k, max_branches, imp, &mut scr);
            assert_eq!(closed, general, "hist {hist:?}, K = {max_branches}");
            let bits = |s: &Option<(SplitTest, f64)>| s.as_ref().map(|(_, c)| c.to_bits());
            assert_eq!(bits(&closed), bits(&general), "hist {hist:?}");
            closed
        });
        gini
    }

    fn groups(split: Option<(SplitTest, f64)>) -> Vec<Vec<u16>> {
        match split {
            Some((SplitTest::CatGroups { attr: 7, groups }, _)) => groups,
            other => panic!("a two-group split expected, got {other:?}"),
        }
    }

    #[test]
    fn two_value_split_with_an_empty_value() {
        assert_eq!(two_value(&[5, 3, 0, 0], 2, 2), None);
        assert_eq!(two_value(&[0, 0, 0, 0], 2, 2), None);
        // Values 0 and 2 occur; the class-0 ratio puts value 2 first.
        assert_eq!(groups(two_value(&[2, 1, 0, 0, 1, 3], 2, 2)), [[2], [0]]);
    }

    #[test]
    fn two_value_split_of_pure_values() {
        // Pure in one class: one logical value, no split.
        assert_eq!(two_value(&[4, 0, 2, 0], 2, 2), None);
        assert_eq!(two_value(&[0, 0, 3, 0, 0, 5], 3, 3), None);
        // Pure in different classes: the two values apart, at no cost.
        let split = two_value(&[4, 0, 0, 3], 2, 2);
        assert_eq!(split.as_ref().unwrap().1, 0.0);
        assert_eq!(groups(split), [[1], [0]]);
    }

    #[test]
    fn two_value_split_group_order() {
        // Two classes: ascending class-0 ratio, so value 1 (1/4) first.
        assert_eq!(groups(two_value(&[3, 1, 1, 3], 2, 3)), [[1], [0]]);
        assert_eq!(groups(two_value(&[1, 3, 3, 1], 2, 2)), [[0], [1]]);
        // Three classes: value order, though the ratio order would swap.
        assert_eq!(groups(two_value(&[2, 0, 1, 0, 3, 1], 3, 2)), [[0], [1]]);
        // Equal class-0 ratios: with three classes the values still
        // differ, and value order holds; with two classes equal ratios
        // mean equal distributions, which no cut improves.
        assert_eq!(groups(two_value(&[1, 2, 0, 1, 0, 2], 3, 4)), [[0], [1]]);
        assert_eq!(two_value(&[2, 1, 4, 2], 2, 2), None);
    }

    #[test]
    fn two_value_split_needs_two_branches() {
        for max_branches in [0, 1] {
            assert_eq!(two_value(&[4, 0, 0, 3], 2, max_branches), None);
            assert_eq!(two_value(&[3, 1, 1, 3], 2, max_branches), None);
        }
    }

    #[test]
    fn two_value_split_ties_go_to_whole() {
        // Class-0 shares 0.5 and 0.500001: the cut beats the whole node by
        // under 1e-12 (Gini and entropy alike), a tie, so no split.
        let hist = [500_000, 500_000, 500_001, 499_999];
        let left = [hist[0], hist[1]];
        let right = [hist[2], hist[3]];
        let whole = [hist[0] + hist[2], hist[1] + hist[3]];
        let cut = Gini.aggregate(&[left.to_vec(), right.to_vec()]);
        assert!(cut < Gini.of(&whole) && cut > Gini.of(&whole) - 1e-12);
        assert_eq!(two_value(&hist, 2, 2), None);
    }

    #[test]
    fn more_than_two_values_take_the_general_search() {
        assert!(two_value(&[1, 0, 0, 1, 1, 1], 2, 2).is_some());
        assert!(two_value(&[3, 0, 1, 0, 2, 0, 1, 1, 0, 0, 0, 4], 3, 3).is_some());
    }

    #[test]
    fn flat_c45_scores_match_reference() {
        // (flat parts, classes, rows missing the attribute per class)
        let cases: [(&[usize], usize, &[usize]); 6] = [
            (&[3, 1, 0, 0, 1, 4], 2, &[0, 0]), // an all-zero value row
            (&[4, 0, 0, 4], 2, &[0, 0]),
            (&[2, 2, 2, 2], 2, &[1, 0]),
            (&[1, 2, 3, 0, 0, 0, 3, 2, 1, 5, 0, 0], 3, &[0, 2, 1]),
            (&[0, 0, 0, 0], 2, &[3, 1]),
            (&[7, 0, 0, 0, 0, 0], 2, &[0, 0]),
        ];
        for (flat, k, missing) in cases {
            let parts: Vec<Vec<usize>> = flat.chunks(k).map(<[usize]>::to_vec).collect();
            let parent: Vec<usize> = (0..k)
                .map(|c| missing[c] + parts.iter().map(|p| p[c]).sum::<usize>())
                .collect();
            let gain = info_gain_flat(Entropy.of(&parent), flat, k);
            assert_eq!(
                gain.to_bits(),
                information_gain(&parent, &parts).to_bits(),
                "{flat:?}"
            );
            let si = split_info_flat(flat, k);
            assert_eq!(si.to_bits(), split_info(&parts).to_bits(), "{flat:?}");
            assert_eq!(
                ratio_of_gain(gain, si).to_bits(),
                gain_ratio(&parent, &parts).to_bits(),
                "{flat:?}"
            );
        }
    }

    fn rules() -> Vec<GrowRule<'static>> {
        vec![
            GrowRule::NyuMiner {
                max_branches: 3,
                impurity: &Gini,
            },
            GrowRule::NyuMiner {
                max_branches: 4,
                impurity: &Entropy,
            },
            GrowRule::Cart,
            GrowRule::C45,
        ]
    }

    #[test]
    fn columnar_trees_match_reference_on_heart() {
        let d = heart();
        let index = ColumnarIndex::build(&d);
        for rule in rules() {
            let a = DecisionTree::grow_reference(&d, &d.all_rows(), &rule, &GrowConfig::default());
            let b = grow(&d, &index, &d.all_rows(), &rule, &GrowConfig::default());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn columnar_choosers_match_reference_on_subsets() {
        let d = heart();
        let index = ColumnarIndex::build(&d);
        let subsets: Vec<Vec<usize>> = vec![d.all_rows(), vec![0, 2, 3, 5], vec![1, 4]];
        for rows in subsets {
            assert_eq!(
                best_split(&d, &rows, 3, &Gini),
                columnar_best_split(&d, &index, &rows, 3, &Gini),
                "rows {rows:?}"
            );
            assert_eq!(
                c45_split(&d, &rows),
                columnar_c45_split(&d, &index, &rows),
                "rows {rows:?}"
            );
        }
    }

    #[test]
    fn missing_values_follow_reference_partition() {
        let d = Dataset::new(
            vec![crate::data::Attribute::Numeric { name: "x".into() }],
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
        let index = ColumnarIndex::build(&d);
        let a = DecisionTree::grow_reference(
            &d,
            &d.all_rows(),
            &GrowRule::Cart,
            &GrowConfig::default(),
        );
        let b = grow(
            &d,
            &index,
            &d.all_rows(),
            &GrowRule::Cart,
            &GrowConfig::default(),
        );
        assert_eq!(a, b);
    }
}
