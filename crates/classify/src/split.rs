//! Splits and the optimal sub-K-ary split search (§5.3).
//!
//! NyuMiner's contribution: at every node, for any impurity function and
//! any maximum branch count `K`, find the split of least aggregate
//! impurity with the fewest branches — for numerical *and* categorical
//! variables.
//!
//! Numerical attributes: data elements collapse into **baskets** by value;
//! adjacent pure baskets of the same class merge (Figs. 5.1–5.4), leaving
//! boundaries only at Fayyad–Irani boundary points, where optimal cuts
//! provably fall (Theorem 5). A dynamic program over the `B` baskets then
//! finds the optimal sub-K-ary interval split in `O(K·B²)`.
//!
//! Categorical attributes: values whose rows are pure in the same class
//! merge into a **logical value**; every ordering of the logical values is
//! then treated as an ordered basket list and fed to the same DP
//! (`O(B!·K·B²)`, §5.3.2) — exhaustive for the small domains where it is
//! feasible, with a class-ratio ordering heuristic above that.
//!
//! The same machinery specialised to `K = 2` gives CART's binary splits,
//! and the gain-ratio chooser gives C4.5's tests, so all three learners
//! share one split vocabulary ([`SplitTest`]).

use crate::data::{AttrValue, Column, Dataset, MISSING_CODE};
use crate::impurity::{gain_ratio, Entropy, Gini, Impurity};

/// A decision-node test. Branches are numbered `0..arity`.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitTest {
    /// Numeric interval split: branch `i` holds values `< cuts[i]`, with a
    /// final branch for values `≥` the last cut. `arity = cuts.len() + 1`.
    NumRanges {
        /// Attribute index.
        attr: usize,
        /// Ascending thresholds.
        cuts: Vec<f64>,
    },
    /// Categorical grouped split: branch `i` holds the values in
    /// `groups[i]`.
    CatGroups {
        /// Attribute index.
        attr: usize,
        /// Disjoint value groups.
        groups: Vec<Vec<u16>>,
    },
    /// C4.5's m-way categorical split: branch = value index.
    CatEach {
        /// Attribute index.
        attr: usize,
        /// Domain cardinality.
        arity: usize,
    },
}

impl SplitTest {
    /// The attribute tested.
    pub fn attr(&self) -> usize {
        match self {
            SplitTest::NumRanges { attr, .. }
            | SplitTest::CatGroups { attr, .. }
            | SplitTest::CatEach { attr, .. } => *attr,
        }
    }

    /// Number of branches.
    pub fn arity(&self) -> usize {
        match self {
            SplitTest::NumRanges { cuts, .. } => cuts.len() + 1,
            SplitTest::CatGroups { groups, .. } => groups.len(),
            SplitTest::CatEach { arity, .. } => *arity,
        }
    }

    /// The branch `row` follows, or `None` for a missing value (or a
    /// categorical value unseen at training time) — the tree sends those
    /// to its majority branch.
    pub fn branch(&self, data: &Dataset, row: usize) -> Option<usize> {
        match (self, data.column(self.attr())) {
            (SplitTest::NumRanges { cuts, .. }, Column::Num(vals)) => {
                let v = vals[row];
                (!v.is_nan()).then(|| cuts.iter().position(|&c| v < c).unwrap_or(cuts.len()))
            }
            (SplitTest::CatGroups { groups, .. }, Column::Cat(codes)) => match codes[row] {
                MISSING_CODE => None,
                v => groups.iter().position(|g| g.contains(&v)),
            },
            (SplitTest::CatEach { arity, .. }, Column::Cat(codes)) => {
                Some(codes[row] as usize).filter(|v| v < arity)
            }
            _ => None,
        }
    }

    /// Human-readable description of branch `i`.
    pub fn describe_branch(&self, data: &Dataset, i: usize) -> String {
        let name = data.attributes()[self.attr()].name();
        match self {
            SplitTest::NumRanges { cuts, .. } => {
                if i == 0 {
                    format!("{name} < {:.4}", cuts[0])
                } else if i == cuts.len() {
                    format!("{name} >= {:.4}", cuts[i - 1])
                } else {
                    format!("{name} in [{:.4}, {:.4})", cuts[i - 1], cuts[i])
                }
            }
            SplitTest::CatGroups { attr, groups } => {
                let vals: Vec<&str> = groups[i]
                    .iter()
                    .map(|&v| match &data.attributes()[*attr] {
                        crate::data::Attribute::Categorical { values, .. } => {
                            values[v as usize].as_str()
                        }
                        crate::data::Attribute::Numeric { .. } => "?",
                    })
                    .collect();
                format!("{name} in {{{}}}", vals.join(","))
            }
            SplitTest::CatEach { attr, .. } => match &data.attributes()[*attr] {
                crate::data::Attribute::Categorical { values, .. } => {
                    format!("{name} = {}", values[i])
                }
                crate::data::Attribute::Numeric { .. } => format!("{name} = #{i}"),
            },
        }
    }
}

/// A value basket: all rows sharing (a run of) attribute values, with its
/// class histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Basket {
    /// Largest attribute value in the basket (numeric use).
    pub upper: f64,
    /// Class histogram.
    pub counts: Vec<usize>,
}

pub(crate) fn pure_class(counts: &[usize]) -> Option<usize> {
    let mut found = None;
    for (c, &n) in counts.iter().enumerate() {
        if n > 0 {
            if found.is_some() {
                return None;
            }
            found = Some(c);
        }
    }
    found
}

/// Group `rows` into per-distinct-value baskets of `attr` (ascending),
/// ignoring rows with missing values (Fig. 5.2).
pub fn value_baskets(data: &Dataset, rows: &[usize], attr: usize) -> Vec<Basket> {
    let mut pairs: Vec<(f64, u16)> = rows
        .iter()
        .filter_map(|&r| match data.value(r, attr) {
            AttrValue::Num(v) => Some((v, data.class(r))),
            _ => None,
        })
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<Basket> = Vec::new();
    for (v, class) in pairs {
        match out.last_mut() {
            Some(b) if b.upper == v => b.counts[class as usize] += 1,
            _ => {
                let mut counts = vec![0; data.n_classes()];
                counts[class as usize] += 1;
                out.push(Basket { upper: v, counts });
            }
        }
    }
    out
}

/// Merge adjacent pure baskets of the same class (Figs. 5.3–5.4), leaving
/// divisions only at boundary points.
pub fn boundary_collapse(baskets: Vec<Basket>) -> Vec<Basket> {
    let mut out: Vec<Basket> = Vec::new();
    for b in baskets {
        if let Some(prev) = out.last_mut() {
            if let (Some(pc), Some(bc)) = (pure_class(&prev.counts), pure_class(&b.counts)) {
                if pc == bc {
                    prev.upper = b.upper;
                    for (i, &n) in b.counts.iter().enumerate() {
                        prev.counts[i] += n;
                    }
                    continue;
                }
            }
        }
        out.push(b);
    }
    out
}

/// Result of the interval DP: chosen basket cut positions (a cut after
/// basket `i` means baskets `..=i` end a partition), aggregate impurity,
/// and arity.
#[derive(Debug, Clone)]
pub struct IntervalSplit {
    /// Cut positions into the basket list (strictly ascending, each `<
    /// baskets.len() - 1`).
    pub cut_after: Vec<usize>,
    /// Aggregate impurity of the split.
    pub impurity: f64,
    /// Number of partitions (`cut_after.len() + 1`).
    pub arity: usize,
}

/// The `O(K·B²)` dynamic program of §5.3.1: the optimal **sub-K-ary**
/// interval split of an ordered basket list — minimal aggregate impurity,
/// and among minima the fewest branches.
pub fn optimal_interval_split(
    baskets: &[Basket],
    max_branches: usize,
    imp: &dyn Impurity,
) -> Option<IntervalSplit> {
    if baskets.is_empty() {
        return None;
    }
    let n_classes = baskets[0].counts.len();
    let mut counts = Vec::with_capacity(baskets.len() * n_classes);
    for bk in baskets {
        counts.extend_from_slice(&bk.counts);
    }
    interval_split_flat(&counts, n_classes, max_branches, imp)
}

/// The concrete impurity behind a `&dyn Impurity`, resolved once per DP
/// call so the per-cell kernel dispatches on a copyable tag instead of a
/// virtual call.
#[derive(Clone, Copy)]
enum CellKind {
    Gini,
    Entropy,
    Dyn,
}

impl CellKind {
    fn of(imp: &dyn Impurity) -> CellKind {
        match imp.as_any() {
            Some(a) if a.is::<Gini>() => CellKind::Gini,
            Some(a) if a.is::<Entropy>() => CellKind::Entropy,
            _ => CellKind::Dyn,
        }
    }
}

/// Weighted impurity `n/total · imp.of(cnt)` of a basket range whose class
/// histogram is `cnt` (summing to `n`). The Gini/Entropy arms replicate
/// `Impurity::of` term by term — same fold order, same operations, so the
/// result is bit-identical to the virtual call; they only skip `of`'s
/// redundant count re-sum (`n` is exactly that usize) and the dispatch,
/// which dominate the O(B²) cost triangle.
#[inline]
fn range_cost(kind: CellKind, imp: &dyn Impurity, cnt: &[usize], n: usize, total: usize) -> f64 {
    match kind {
        CellKind::Gini => {
            if n == 0 {
                return 0.0;
            }
            let nf = n as f64;
            let mut s = 0.0f64;
            for &c in cnt {
                // No absent-class branch: the term is p = 0/n = +0.0 and
                // adding +0.0 to the non-negative running sum is the
                // identity on its bit pattern — exactly `Gini::of`.
                let p = c as f64 / nf;
                s += p * p;
            }
            n as f64 / total as f64 * (1.0 - s)
        }
        CellKind::Entropy => {
            if n == 0 {
                return 0.0;
            }
            let nf = n as f64;
            let mut s = 0.0f64;
            for &c in cnt {
                if c > 0 {
                    let p = c as f64 / nf;
                    s += p * p.log2();
                }
            }
            n as f64 / total as f64 * (-s)
        }
        CellKind::Dyn => n as f64 / total as f64 * imp.of(cnt),
    }
}

/// Cost `range_cost(left) + range_cost(right)` of one binary cut of a
/// range of `total` rows, `n_left` of them left of the cut — the score
/// of the `k ≤ 2` arm of [`interval_split_flat_in`].
#[inline]
fn cut_cost(
    kind: CellKind,
    imp: &dyn Impurity,
    left: &[usize],
    n_left: usize,
    right: &[usize],
    total: usize,
) -> f64 {
    range_cost(kind, imp, left, n_left, total) + range_cost(kind, imp, right, total - n_left, total)
}

/// The `k ≤ 2` arm of [`interval_split_flat_in`] on exactly two baskets,
/// `left` then `right`: the cost of the one cut between them, or `None`
/// when that is no better than keeping them whole (ties go to fewer
/// branches). Bit-identical to the DP on the two-basket list, with no
/// basket list: `scr` lends the whole-range histogram.
pub(crate) fn two_basket_cut(
    left: &[usize],
    right: &[usize],
    imp: &dyn Impurity,
    scr: &mut DpScratch,
) -> Option<f64> {
    let kind = CellKind::of(imp);
    let whole = &mut scr.cnt2;
    whole.clear();
    whole.extend(left.iter().zip(right).map(|(&l, &r)| l + r));
    let n_left: usize = left.iter().sum();
    let total = n_left + right.iter().sum::<usize>();
    let whole_cost = range_cost(kind, imp, whole, total, total);
    let cut = cut_cost(kind, imp, left, n_left, right, total);
    (cut < whole_cost - 1e-12).then_some(cut)
}

/// Reusable buffers for [`interval_split_flat_in`]. The columnar engine
/// owns one per tree grow, so the DP — called once per (node, numeric
/// attribute) — performs no allocation at all in steady state.
#[derive(Default)]
pub(crate) struct DpScratch {
    countsf: Vec<f64>,
    rowsum: Vec<f64>,
    cntf: Vec<f64>,
    dp: Vec<f64>,
    back: Vec<u32>,
    dyn_cnt: Vec<usize>,
    cnt2: Vec<usize>,
}

/// Fold basket row `row` into the running range histogram `cnt` and
/// return the weighted impurity `n/total · imp.of(cnt)` of the extended
/// range. `cnt` and `row` hold exact integers as f64 (far below 2^53, so
/// every add is exact and `cnt[c]` stays bit-identical to `count as f64`).
/// The Gini/Entropy arms replicate `Impurity::of` term by term — same
/// fold order, same operations — so the result matches the virtual call
/// bit for bit; absent-class terms are skipped (+0.0 into a non-negative
/// sum is the identity on its bit pattern). The `Dyn` arm round-trips
/// through `dyn_cnt` to call the virtual `of` on the usize histogram it
/// expects.
#[inline]
fn cell_cost(
    kind: CellKind,
    imp: &dyn Impurity,
    row: &[f64],
    cnt: &mut [f64],
    n: f64,
    total: f64,
    dyn_cnt: &mut Vec<usize>,
) -> f64 {
    match kind {
        CellKind::Gini => {
            // Unconditional fold, exactly like `Gini::of`: an absent
            // class contributes p = 0/n = +0.0 and p·p = +0.0, so no
            // branch is needed in the inner loop.
            let mut s = 0.0f64;
            for c in 0..row.len() {
                let t = cnt[c] + row[c];
                cnt[c] = t;
                let p = t / n;
                s += p * p;
            }
            n / total * (1.0 - s)
        }
        CellKind::Entropy => {
            let mut s = 0.0f64;
            for c in 0..row.len() {
                let t = cnt[c] + row[c];
                cnt[c] = t;
                if t > 0.0 {
                    let p = t / n;
                    s += p * p.log2();
                }
            }
            n / total * (-s)
        }
        CellKind::Dyn => {
            dyn_cnt.clear();
            for c in 0..row.len() {
                cnt[c] += row[c];
                dyn_cnt.push(cnt[c] as usize);
            }
            n / total * imp.of(dyn_cnt)
        }
    }
}

/// The fused triangle-sweep + DP fold of [`interval_split_flat_in`],
/// monomorphised on the histogram width `M`, Gini only: the per-cell
/// class loop is a compile-time-bounded unroll with the running histogram
/// in registers. Cell for cell this performs the exact operations of
/// [`cell_cost`]'s Gini arm in the same order, and folds candidates into
/// `dp`/`back` exactly as the generic loop does, so the outcome is
/// bit-identical. Returns `true` (for use in the caller's width
/// dispatch).
fn fused_gini_dp<const M: usize>(
    countsf: &[f64],
    rowsum: &[f64],
    dp: &mut [f64],
    back: &mut [u32],
    b: usize,
    k_max: usize,
    totalf: f64,
) -> bool {
    let stride = b + 1;
    for i in 0..b {
        let mut cnt = [0.0f64; M];
        let mut nf = 0.0f64;
        for (off, (row, &rs)) in countsf[i * M..b * M]
            .chunks_exact(M)
            .zip(&rowsum[i..b])
            .enumerate()
        {
            let j = i + 1 + off;
            nf += rs;
            let mut s = 0.0f64;
            for c in 0..M {
                cnt[c] += row[c];
                let p = cnt[c] / nf;
                s += p * p;
            }
            let cell = nf / totalf * (1.0 - s);
            if i == 0 {
                dp[stride + j] = cell;
            } else {
                for k in 2..=k_max {
                    let cand = dp[(k - 1) * stride + i] + cell;
                    if cand < dp[k * stride + j] - 1e-15 {
                        dp[k * stride + j] = cand;
                        back[k * stride + j] = i as u32;
                    }
                }
            }
        }
    }
    true
}

/// Flat-counts core of [`optimal_interval_split`]: `counts` is a row-major
/// `B × n_classes` basket histogram. The columnar engine calls this
/// directly so the basket list never materialises per-basket `Vec`s.
pub(crate) fn interval_split_flat(
    counts: &[usize],
    n_classes: usize,
    max_branches: usize,
    imp: &dyn Impurity,
) -> Option<IntervalSplit> {
    interval_split_flat_in(
        counts,
        n_classes,
        max_branches,
        imp,
        &mut DpScratch::default(),
    )
}

/// [`interval_split_flat`] with caller-provided scratch buffers.
pub(crate) fn interval_split_flat_in(
    counts: &[usize],
    n_classes: usize,
    max_branches: usize,
    imp: &dyn Impurity,
    scr: &mut DpScratch,
) -> Option<IntervalSplit> {
    debug_assert!(n_classes > 0 && counts.len().is_multiple_of(n_classes));
    let b = counts.len() / n_classes;
    if b == 0 {
        return None;
    }
    let k_max = max_branches.min(b).max(1);
    let total: usize = counts.iter().sum();
    if total == 0 {
        return None;
    }

    // Monomorphic cost kernel: `range_cost(kind, …)` is `n/total ·
    // imp.of(cnt)` with the virtual call replaced by an inlined copy for
    // the two stock impurities (bit-identical; see [`range_cost`]).
    let kind = CellKind::of(imp);

    if k_max <= 2 {
        // Binary (CART) fast path: a single interior cut only ever needs
        // the prefix-cost row `cost(0, ·)` and suffix-cost row `cost(·, b)`
        // — O(B) cost cells instead of the O(B²) triangle. Same cell
        // arithmetic and tie rules as the general DP below. The left
        // histogram accumulates incrementally, the right is whole − left
        // (exact usize arithmetic, so each cell sees the very histogram a
        // from-scratch range sum would produce).
        let right = &mut scr.cnt2;
        right.clear();
        right.resize(n_classes, 0);
        for i in 0..b {
            for c in 0..n_classes {
                right[c] += counts[i * n_classes + c];
            }
        }
        let whole = range_cost(kind, imp, right, total, total);
        if k_max == 1 || b < 2 {
            return Some(IntervalSplit {
                impurity: whole,
                arity: 1,
                cut_after: Vec::new(),
            });
        }
        let left = &mut scr.dyn_cnt;
        left.clear();
        left.resize(n_classes, 0);
        let mut n_left = 0usize;
        let mut best2 = f64::INFINITY;
        let mut back2 = usize::MAX;
        for split in 1..b {
            let row = &counts[(split - 1) * n_classes..split * n_classes];
            for c in 0..n_classes {
                let v = row[c];
                left[c] += v;
                right[c] -= v;
                n_left += v;
            }
            let c = cut_cost(kind, imp, left, n_left, right, total);
            if c < best2 - 1e-15 {
                best2 = c;
                back2 = split;
            }
        }
        // Ties go to fewer branches (Definition 7).
        return Some(if best2 < whole - 1e-12 {
            IntervalSplit {
                impurity: best2,
                arity: 2,
                cut_after: vec![back2 - 1],
            }
        } else {
            IntervalSplit {
                impurity: whole,
                arity: 1,
                cut_after: Vec::new(),
            }
        });
    }

    let DpScratch {
        countsf,
        rowsum,
        cntf,
        dp,
        back,
        dyn_cnt,
        ..
    } = scr;

    // Class counts as f64 (exact: integer-valued, far below 2^53), so
    // the triangle's running histogram adds need no per-cell int→float
    // conversion; per-basket weights likewise, so each cell's range size
    // is one add instead of a class loop (exact integer arithmetic, so
    // the accumulated `nf` is bit-identical to the usize sum cast once).
    countsf.clear();
    countsf.extend(counts.iter().map(|&c| c as f64));
    rowsum.clear();
    rowsum.extend(
        countsf
            .chunks_exact(n_classes)
            .map(|r| r.iter().sum::<f64>()),
    );
    let totalf = total as f64;

    // dp[k][j]: best cost splitting baskets [0, j) into exactly k parts
    // (flattened, stride b + 1). The O(B²) cost triangle and the layered
    // DP are fused: triangle row `i` (cells cost(i, j), j ∈ i+1..=b) is
    // one incremental-histogram sweep, and each cell folds into every
    // layer the moment it is produced — dp[k][j] gains the candidate
    // dp[k−1][i] + cost(i, j), so no cell is ever materialised. When row
    // `i` runs, dp[k−1][i] has received every candidate (all come from
    // rows < i), so it is final, exactly as in the layered form; and for
    // fixed (k, j) candidates still arrive in ascending split order under
    // the same `1e-15` tie rule, so dp, back, and the reconstructed cuts
    // are bit-identical to the layered form. (Candidates i < k−1 have
    // dp[k−1][i] = ∞ — a k−1-way split needs k−1 baskets — and ∞ never
    // beats anything, matching the layered form's split range.)
    let stride = b + 1;
    dp.clear();
    dp.resize((k_max + 1) * stride, f64::INFINITY);
    back.clear();
    back.resize((k_max + 1) * stride, u32::MAX);
    // Gini calls dispatch once to a width-monomorphised sweep (same
    // arithmetic; the class loop fully unrolls and the histogram lives in
    // registers). Other impurities take the generic per-cell kernel.
    let monomorphised = matches!(kind, CellKind::Gini)
        && match n_classes {
            1 => fused_gini_dp::<1>(countsf, rowsum, dp, back, b, k_max, totalf),
            2 => fused_gini_dp::<2>(countsf, rowsum, dp, back, b, k_max, totalf),
            3 => fused_gini_dp::<3>(countsf, rowsum, dp, back, b, k_max, totalf),
            4 => fused_gini_dp::<4>(countsf, rowsum, dp, back, b, k_max, totalf),
            5 => fused_gini_dp::<5>(countsf, rowsum, dp, back, b, k_max, totalf),
            6 => fused_gini_dp::<6>(countsf, rowsum, dp, back, b, k_max, totalf),
            7 => fused_gini_dp::<7>(countsf, rowsum, dp, back, b, k_max, totalf),
            8 => fused_gini_dp::<8>(countsf, rowsum, dp, back, b, k_max, totalf),
            _ => false,
        };
    if !monomorphised {
        cntf.clear();
        cntf.resize(n_classes, 0.0);
        for i in 0..b {
            cntf.iter_mut().for_each(|c| *c = 0.0);
            let mut nf = 0.0f64;
            for j in i + 1..=b {
                nf += rowsum[j - 1];
                let row = &countsf[(j - 1) * n_classes..j * n_classes];
                let cell = cell_cost(kind, imp, row, cntf, nf, totalf, dyn_cnt);
                if i == 0 {
                    dp[stride + j] = cell;
                } else {
                    for k in 2..=k_max {
                        let cand = dp[(k - 1) * stride + i] + cell;
                        if cand < dp[k * stride + j] - 1e-15 {
                            dp[k * stride + j] = cand;
                            back[k * stride + j] = i as u32;
                        }
                    }
                }
            }
        }
    }

    // Optimal sub-K-ary: least impurity; ties go to fewer branches
    // (Definition 7).
    let mut best_k = 1;
    for k in 2..=k_max {
        if dp[k * stride + b] < dp[best_k * stride + b] - 1e-12 {
            best_k = k;
        }
    }

    let mut cut_after = Vec::new();
    let (mut k, mut j) = (best_k, b);
    while k > 1 {
        let split = back[k * stride + j] as usize;
        cut_after.push(split - 1);
        j = split;
        k -= 1;
    }
    cut_after.reverse();
    Some(IntervalSplit {
        impurity: dp[best_k * stride + b],
        arity: best_k,
        cut_after,
    })
}

/// Engineering bound on the DP's basket count: nodes with more boundary
/// baskets than this are coarsened to equal-count groups first, trading
/// the exact-optimality guarantee for `O(K·160²)` per attribute on large
/// numeric nodes (the guarantee is exact whenever `B ≤ 256`, which covers
/// every modest node exactly; only large
/// largest nodes are coarsened).
pub(crate) const MAX_DP_BASKETS: usize = 160;

/// Merge adjacent baskets into at most `max` groups of near-equal weight.
fn coarsen(baskets: Vec<Basket>, max: usize) -> Vec<Basket> {
    if baskets.len() <= max {
        return baskets;
    }
    let total: usize = baskets.iter().map(|b| b.counts.iter().sum::<usize>()).sum();
    let per = total.div_ceil(max);
    let mut out: Vec<Basket> = Vec::with_capacity(max);
    let mut acc = 0usize;
    for b in baskets {
        let w: usize = b.counts.iter().sum();
        match out.last_mut() {
            // Keep filling the open group until it reaches its quota.
            Some(prev) if acc < per => {
                prev.upper = b.upper;
                for (i, &n) in b.counts.iter().enumerate() {
                    prev.counts[i] += n;
                }
                acc += w;
            }
            _ => {
                out.push(b);
                acc = w;
            }
        }
    }
    out
}

/// Optimal sub-K-ary split of a numeric attribute: basket collapse + DP.
/// Returns the test and its aggregate impurity, or `None` when no split
/// is possible (fewer than two baskets).
pub fn optimal_numeric_split(
    data: &Dataset,
    rows: &[usize],
    attr: usize,
    max_branches: usize,
    imp: &dyn Impurity,
) -> Option<(SplitTest, f64)> {
    let baskets = coarsen(
        boundary_collapse(value_baskets(data, rows, attr)),
        MAX_DP_BASKETS,
    );
    if baskets.len() < 2 {
        return None;
    }
    let s = optimal_interval_split(&baskets, max_branches, imp)?;
    if s.arity < 2 {
        return None;
    }
    let cuts: Vec<f64> = s
        .cut_after
        .iter()
        .map(|&i| midpoint(baskets[i].upper, baskets[i + 1].upper))
        .collect();
    Some((SplitTest::NumRanges { attr, cuts }, s.impurity))
}

pub(crate) fn midpoint(a: f64, b: f64) -> f64 {
    a + (b - a) / 2.0
}

/// Maximum logical-value count for which the categorical search is
/// exhaustive over orderings; larger domains — and all *two-class*
/// problems, where ordering by the class-0 proportion provably contains
/// an optimal split for concave impurities (Breiman et al.) — use the
/// single class-ratio ordering (documented deviation for tractability —
/// the dissertation itself notes "when [B] is big, the running time may
/// be a concern").
const MAX_EXHAUSTIVE_CATEGORICAL: usize = 6;

/// Optimal sub-K-ary split of a categorical attribute (§5.3.2): logical-
/// value merging, then the interval DP over orderings of the logical
/// values.
pub fn optimal_categorical_split(
    data: &Dataset,
    rows: &[usize],
    attr: usize,
    max_branches: usize,
    imp: &dyn Impurity,
) -> Option<(SplitTest, f64)> {
    let cardinality = data.attributes()[attr].cardinality();
    if cardinality < 2 {
        return None;
    }
    // Per-value class histograms over the present values, flat.
    let k = data.n_classes();
    let mut hist = vec![0; cardinality * k];
    for &r in rows {
        if let AttrValue::Cat(v) = data.value(r, attr) {
            hist[v as usize * k + data.class(r) as usize] += 1;
        }
    }
    optimal_categorical_split_hist(attr, &hist, k, max_branches, imp)
}

/// Histogram core of [`optimal_categorical_split`]: the search given the
/// per-value class histograms, flat (`hist[v·n_classes + class]`). The
/// columnar engine fills the histogram from its code columns and calls
/// this for nodes where more than two values occur.
pub(crate) fn optimal_categorical_split_hist(
    attr: usize,
    hist: &[usize],
    n_classes: usize,
    max_branches: usize,
    imp: &dyn Impurity,
) -> Option<(SplitTest, f64)> {
    // Logical values: all pure values of one class merge (provably
    // together in an optimal split, §5.3.2).
    let mut logical: Vec<(Vec<u16>, Vec<usize>)> = Vec::new(); // (values, counts)
    let mut pure_slot: Vec<Option<usize>> = vec![None; n_classes];
    for (v, counts) in hist.chunks_exact(n_classes).enumerate() {
        if counts.iter().sum::<usize>() == 0 {
            continue;
        }
        match pure_class(counts) {
            Some(c) => match pure_slot[c] {
                Some(slot) => {
                    logical[slot].0.push(v as u16);
                    for (i, &n) in counts.iter().enumerate() {
                        logical[slot].1[i] += n;
                    }
                }
                None => {
                    pure_slot[c] = Some(logical.len());
                    logical.push((vec![v as u16], counts.to_vec()));
                }
            },
            None => logical.push((vec![v as u16], counts.to_vec())),
        }
    }
    if logical.len() < 2 {
        return None;
    }

    let orderings: Vec<Vec<usize>> = if n_classes > 2 && logical.len() <= MAX_EXHAUSTIVE_CATEGORICAL
    {
        permutations(logical.len())
    } else {
        vec![ratio_ordering(&logical)]
    };

    let mut best: Option<(Vec<Vec<u16>>, f64, usize)> = None;
    for order in orderings {
        let baskets: Vec<Basket> = order
            .iter()
            .map(|&l| Basket {
                upper: 0.0,
                counts: logical[l].1.clone(),
            })
            .collect();
        if let Some(s) = optimal_interval_split(&baskets, max_branches, imp) {
            if s.arity < 2 {
                continue;
            }
            let better = match &best {
                None => true,
                Some((_, bi, ba)) => {
                    s.impurity < bi - 1e-12 || (s.impurity < bi + 1e-12 && s.arity < *ba)
                }
            };
            if better {
                // Materialise value groups from the cut positions.
                let mut groups = Vec::new();
                let mut start = 0;
                for &c in &s.cut_after {
                    groups.push(collect_values(&logical, &order[start..=c]));
                    start = c + 1;
                }
                groups.push(collect_values(&logical, &order[start..]));
                best = Some((groups, s.impurity, s.arity));
            }
        }
    }
    best.map(|(groups, impurity, _)| (SplitTest::CatGroups { attr, groups }, impurity))
}

fn collect_values(logical: &[(Vec<u16>, Vec<usize>)], idx: &[usize]) -> Vec<u16> {
    let mut vals: Vec<u16> = idx.iter().flat_map(|&l| logical[l].0.clone()).collect();
    vals.sort_unstable();
    vals
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    // Heap's algorithm, small n only.
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    heap(n, &mut items, &mut out);
    out
}

/// Order logical values by the proportion of the first class — exact for
/// two-class Gini binary splits (Breiman), a heuristic otherwise.
fn ratio_ordering(logical: &[(Vec<u16>, Vec<usize>)]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..logical.len()).collect();
    idx.sort_by(|&a, &b| {
        let ra = logical[a].1[0] as f64 / logical[a].1.iter().sum::<usize>().max(1) as f64;
        let rb = logical[b].1[0] as f64 / logical[b].1.iter().sum::<usize>().max(1) as f64;
        ra.total_cmp(&rb)
    });
    idx
}

/// NyuMiner's node chooser: the optimal sub-K-ary split across all
/// attributes (least aggregate impurity; ties to fewer branches).
pub fn best_split(
    data: &Dataset,
    rows: &[usize],
    max_branches: usize,
    imp: &dyn Impurity,
) -> Option<(SplitTest, f64)> {
    let mut best: Option<(SplitTest, f64)> = None;
    for attr in 0..data.n_attributes() {
        let cand = if data.attributes()[attr].is_numeric() {
            optimal_numeric_split(data, rows, attr, max_branches, imp)
        } else {
            optimal_categorical_split(data, rows, attr, max_branches, imp)
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

/// C4.5's node chooser (§2.1.5): binary numeric splits at boundary
/// midpoints and m-way categorical splits, scored by gain ratio among
/// tests with positive gain.
pub fn c45_split(data: &Dataset, rows: &[usize]) -> Option<(SplitTest, f64)> {
    let parent = data.class_counts(rows);
    let mut best: Option<(SplitTest, f64)> = None;
    for attr in 0..data.n_attributes() {
        let cand: Option<(SplitTest, Vec<Vec<usize>>)> = if data.attributes()[attr].is_numeric() {
            // Best threshold by information gain.
            let baskets = boundary_collapse(value_baskets(data, rows, attr));
            if baskets.len() < 2 {
                None
            } else {
                let mut best_t: Option<(f64, Vec<Vec<usize>>, f64)> = None;
                let n_classes = data.n_classes();
                let mut left = vec![0usize; n_classes];
                let all: Vec<usize> = (0..n_classes)
                    .map(|c| baskets.iter().map(|b| b.counts[c]).sum())
                    .collect();
                for i in 0..baskets.len() - 1 {
                    #[allow(clippy::needless_range_loop)]
                    for c in 0..n_classes {
                        left[c] += baskets[i].counts[c];
                    }
                    let right: Vec<usize> = (0..n_classes).map(|c| all[c] - left[c]).collect();
                    let parts = vec![left.clone(), right];
                    let g = crate::impurity::information_gain(&parent, &parts);
                    if best_t.as_ref().is_none_or(|(bg, _, _)| g > *bg) {
                        best_t = Some((g, parts, midpoint(baskets[i].upper, baskets[i + 1].upper)));
                    }
                }
                best_t.map(|(_, parts, cut)| {
                    (
                        SplitTest::NumRanges {
                            attr,
                            cuts: vec![cut],
                        },
                        parts,
                    )
                })
            }
        } else {
            let arity = data.attributes()[attr].cardinality();
            if arity < 2 {
                None
            } else {
                let mut parts = vec![vec![0usize; data.n_classes()]; arity];
                for &r in rows {
                    if let AttrValue::Cat(v) = data.value(r, attr) {
                        parts[v as usize][data.class(r) as usize] += 1;
                    }
                }
                // At least two non-empty branches required.
                let non_empty = parts.iter().filter(|p| p.iter().sum::<usize>() > 0).count();
                if non_empty < 2 {
                    None
                } else {
                    Some((SplitTest::CatEach { attr, arity }, parts))
                }
            }
        };
        if let Some((test, parts)) = cand {
            let gain = crate::impurity::information_gain(&parent, &parts);
            if gain <= 1e-12 {
                continue;
            }
            let gr = gain_ratio(&parent, &parts);
            if best.as_ref().is_none_or(|(_, b)| gr > *b) {
                best = Some((test, gr));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Attribute, Dataset};
    use crate::impurity::{Entropy, Gini};

    /// The §5.2 worked example: 27 elements, values 0..=9, classes A/B/C.
    fn example_5_2() -> Dataset {
        let values = [
            0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 6, 7, 7, 7, 8, 8, 9, 9, 9,
        ];
        let classes = [
            0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2,
        ];
        Dataset::new(
            vec![Attribute::Numeric { name: "v".into() }],
            vec![values.iter().map(|&v| AttrValue::Num(v as f64)).collect()],
            classes.to_vec(),
            vec!["A".into(), "B".into(), "C".into()],
        )
    }

    #[test]
    fn fig_5_2_ten_value_baskets() {
        let d = example_5_2();
        let baskets = value_baskets(&d, &d.all_rows(), 0);
        assert_eq!(baskets.len(), 10);
        assert_eq!(baskets[0].counts, vec![3, 0, 0]); // AAA at value 0
        assert_eq!(baskets[1].counts, vec![1, 3, 0]); // ABBB at value 1
        assert_eq!(baskets[4].counts, vec![0, 3, 1]); // BBBC at value 4
    }

    #[test]
    fn fig_5_4_seven_boundary_baskets() {
        let d = example_5_2();
        let collapsed = boundary_collapse(value_baskets(&d, &d.all_rows(), 0));
        // A | M | B | C | M | A A | C C C  ->  7 baskets.
        assert_eq!(collapsed.len(), 7);
        assert_eq!(collapsed[5].counts, vec![3, 0, 0]); // values 5,6: AA,A
        assert_eq!(collapsed[6].counts, vec![0, 0, 8]); // values 7-9
    }

    #[test]
    fn theorem_5_full_k_uses_all_boundaries() {
        let d = example_5_2();
        let collapsed = boundary_collapse(value_baskets(&d, &d.all_rows(), 0));
        let s = optimal_interval_split(&collapsed, 27, &Gini).unwrap();
        // With unlimited branches the optimum separates every boundary
        // basket (only the two M baskets contribute impurity).
        assert_eq!(s.arity, 7);
    }

    #[test]
    fn dp_is_optimal_against_brute_force() {
        let d = example_5_2();
        let baskets = boundary_collapse(value_baskets(&d, &d.all_rows(), 0));
        let b = baskets.len();
        for k_max in 2..=5 {
            let s = optimal_interval_split(&baskets, k_max, &Gini).unwrap();
            // Brute force: all cut subsets with < k_max cuts.
            let mut best = f64::INFINITY;
            for mask in 0u32..(1 << (b - 1)) {
                if (mask.count_ones() as usize) >= k_max {
                    continue;
                }
                let mut parts: Vec<Vec<usize>> = Vec::new();
                let mut cur = vec![0usize; 3];
                for (i, bk) in baskets.iter().enumerate() {
                    for (c, slot) in cur.iter_mut().enumerate() {
                        *slot += bk.counts[c];
                    }
                    if i + 1 < b && mask & (1 << i) != 0 {
                        parts.push(std::mem::replace(&mut cur, vec![0; 3]));
                    }
                }
                parts.push(cur);
                best = best.min(Gini.aggregate(&parts));
            }
            assert!(
                (s.impurity - best).abs() < 1e-9,
                "k_max={k_max}: dp {} vs brute {}",
                s.impurity,
                best
            );
        }
    }

    #[test]
    fn sub_k_prefers_fewer_branches_on_ties() {
        // Three alternating pure baskets need exactly 3 branches for zero
        // impurity; two pure baskets need exactly 2 — extra allowed
        // branches (K = 5) must not inflate the arity (Definition 7).
        let baskets = vec![
            Basket {
                upper: 0.0,
                counts: vec![4, 0],
            },
            Basket {
                upper: 1.0,
                counts: vec![0, 4],
            },
            Basket {
                upper: 2.0,
                counts: vec![4, 0],
            },
        ];
        let s = optimal_interval_split(&baskets, 5, &Gini).unwrap();
        assert_eq!(s.arity, 3);
        assert!(s.impurity < 1e-12);
        let s2 = optimal_interval_split(&baskets[..2], 5, &Gini).unwrap();
        assert_eq!(s2.arity, 2);
        assert!(s2.impurity < 1e-12);
    }

    #[test]
    fn numeric_split_cuts_at_midpoints() {
        let d = example_5_2();
        let (test, _) = optimal_numeric_split(&d, &d.all_rows(), 0, 7, &Gini).unwrap();
        let SplitTest::NumRanges { cuts, .. } = &test else {
            panic!("numeric split expected");
        };
        assert_eq!(cuts.len(), 6);
        // First boundary is between values 0 and 1.
        assert!((cuts[0] - 0.5).abs() < 1e-12);
        // All cuts ascending.
        for w in cuts.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    fn cat_dataset() -> Dataset {
        // Attribute with 5 values; values 0,1 pure class 0; 2 pure class
        // 1; 3,4 mixed.
        let vals = [0, 0, 1, 2, 2, 3, 3, 4, 4, 4];
        let classes = [0, 0, 0, 1, 1, 0, 1, 1, 1, 0];
        Dataset::new(
            vec![Attribute::Categorical {
                name: "c".into(),
                values: (0..5).map(|i| format!("v{i}")).collect(),
            }],
            vec![vals.iter().map(|&v| AttrValue::Cat(v)).collect()],
            classes.to_vec(),
            vec!["x".into(), "y".into()],
        )
    }

    #[test]
    fn categorical_logical_values_merge_pure_classes() {
        let d = cat_dataset();
        let (test, cost) = optimal_categorical_split(&d, &d.all_rows(), 0, 2, &Gini).unwrap();
        let SplitTest::CatGroups { groups, .. } = &test else {
            panic!("cat split expected");
        };
        assert_eq!(groups.len(), 2);
        // Pure values 0 and 1 (class x) must land in the same group.
        let g_of = |v: u16| groups.iter().position(|g| g.contains(&v)).unwrap();
        assert_eq!(g_of(0), g_of(1));
        assert!(cost >= 0.0);
        // Exhaustive check against all bipartitions of the 5 values.
        let mut best = f64::INFINITY;
        for mask in 1u32..(1 << 5) - 1 {
            let mut parts = vec![vec![0usize; 2]; 2];
            for r in 0..d.len() {
                let AttrValue::Cat(v) = d.value(r, 0) else {
                    unreachable!()
                };
                let side = usize::from(mask & (1 << v) != 0);
                parts[side][d.class(r) as usize] += 1;
            }
            best = best.min(Gini.aggregate(&parts));
        }
        assert!((cost - best).abs() < 1e-9, "{cost} vs brute {best}");
    }

    #[test]
    fn best_split_scans_all_attributes() {
        let d = crate::data::fixtures::heart();
        let (test, cost) = best_split(&d, &d.all_rows(), 3, &Gini).unwrap();
        assert!(cost >= 0.0);
        assert!(test.arity() >= 2);
    }

    #[test]
    fn c45_chooser_produces_positive_gain_split() {
        let d = crate::data::fixtures::heart();
        let (test, gr) = c45_split(&d, &d.all_rows()).unwrap();
        assert!(gr > 0.0);
        assert!(test.arity() >= 2);
    }

    #[test]
    fn split_with_single_value_attribute_is_none() {
        let d = Dataset::new(
            vec![Attribute::Numeric { name: "x".into() }],
            vec![vec![AttrValue::Num(1.0); 4]],
            vec![0, 1, 0, 1],
            vec!["a".into(), "b".into()],
        );
        assert!(optimal_numeric_split(&d, &d.all_rows(), 0, 3, &Entropy).is_none());
        assert!(best_split(&d, &d.all_rows(), 3, &Entropy).is_none());
        assert!(c45_split(&d, &d.all_rows()).is_none());
    }

    #[test]
    fn missing_values_are_skipped_in_baskets() {
        let d = Dataset::new(
            vec![Attribute::Numeric { name: "x".into() }],
            vec![vec![
                AttrValue::Num(1.0),
                AttrValue::Missing,
                AttrValue::Num(2.0),
            ]],
            vec![0, 1, 1],
            vec!["a".into(), "b".into()],
        );
        let baskets = value_baskets(&d, &d.all_rows(), 0);
        assert_eq!(baskets.len(), 2);
        assert_eq!(
            baskets
                .iter()
                .map(|b| b.counts.iter().sum::<usize>())
                .sum::<usize>(),
            2
        );
    }
}

#[cfg(test)]
mod coarsen_tests {
    use super::*;
    use crate::impurity::Gini;

    fn b(upper: f64, a: usize, bb: usize) -> Basket {
        Basket {
            upper,
            counts: vec![a, bb],
        }
    }

    #[test]
    fn small_lists_untouched() {
        let baskets = vec![b(0.0, 1, 0), b(1.0, 0, 1)];
        assert_eq!(coarsen(baskets.clone(), 256), baskets);
    }

    #[test]
    fn coarsening_bounds_group_count_and_preserves_totals() {
        let baskets: Vec<Basket> = (0..1000)
            .map(|i| b(i as f64, (i % 3 == 0) as usize, (i % 3 != 0) as usize))
            .collect();
        let total: usize = baskets
            .iter()
            .map(|bk| bk.counts.iter().sum::<usize>())
            .sum();
        let out = coarsen(baskets, 64);
        assert!(out.len() <= 65, "groups {}", out.len());
        let out_total: usize = out.iter().map(|bk| bk.counts.iter().sum::<usize>()).sum();
        assert_eq!(out_total, total);
        // Uppers ascend.
        for w in out.windows(2) {
            assert!(w[0].upper < w[1].upper);
        }
    }

    #[test]
    fn dp_still_works_on_coarsened_large_input() {
        let baskets: Vec<Basket> = (0..5000)
            .map(|i| b(i as f64, usize::from(i < 2500), usize::from(i >= 2500)))
            .collect();
        let out = coarsen(baskets, 128);
        let s = optimal_interval_split(&out, 2, &Gini).unwrap();
        assert_eq!(s.arity, 2);
        // The clean class boundary at 2500 survives coarsening.
        assert!(s.impurity < 0.02, "impurity {}", s.impurity);
    }
}
