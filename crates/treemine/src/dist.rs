//! Tree edit distance and approximate containment with cuttings (§4.1.2).
//!
//! The dissimilarity measure between two ordered labeled trees is the
//! edit distance: the minimum number of unit-cost node insertions,
//! deletions, and relabelings transforming one into the other
//! (Zhang–Shasha). A motif `M` *occurs in* a tree `T` within distance `d`
//! if some subtree `U` of `T` satisfies `dist(M, U) ≤ d` **allowing zero
//! or more cuttings at nodes of `U`** — cutting at `n` removes `n` and all
//! its descendants at no cost.
//!
//! [`tree_edit_distance`] is the classic Zhang–Shasha O(|A||B|·min(depth,
//! leaves)²) dynamic program; [`cut_distance`] is the same program with a
//! free transition that removes a complete data-side subtree
//! (Zhang/Shasha/Wang approximate tree matching *with cuttings*);
//! [`contains_within`] minimises the cut distance over every subtree of
//! the data tree — which the algorithm yields for free, since the DP
//! computes the distance for *all* node pairs.
//!
//! Distance 0 needs no DP. With no insertion, deletion or relabeling
//! left, the motif must be a copy of some data node's subtree minus
//! whole subtrees (the cuts): labels match, and the motif's children map
//! in order onto a subsequence of the data node's children, each with
//! the same property. [`contains_exactly`] tests that top-down from every
//! data node, taking each motif child's leftmost matching data child;
//! the leftmost choice leaves the most data children for the motif's
//! later children, so it never misses an embedding. Each data node is
//! compared with at most one motif node per root tried: `O(|T| · depth)`
//! per tree instead of the DP's `O(|M|·|T|·min(depth, leaves)²)`. The
//! miner takes this path at `Dist = 0` and the DP at `Dist > 0`.

use crate::tree::OrderedTree;

/// A tree prepared for the Zhang–Shasha program: everything the DP reads
/// of one side, computed once and reused against any other tree.
pub(crate) struct ZsTree {
    /// Labels by postorder index.
    label: Vec<u8>,
    /// `l[i]`: postorder index of the leftmost leaf of postorder node i.
    l: Vec<usize>,
    /// LR-keyroots (postorder indices), ascending.
    keyroots: Vec<usize>,
}

impl ZsTree {
    pub(crate) fn new(t: &OrderedTree) -> Self {
        let post = t.postorder();
        let n = post.len();
        let mut post_index = vec![0usize; n];
        for (i, &node) in post.iter().enumerate() {
            post_index[node] = i;
        }
        // Children precede their parent in postorder, so a node's leftmost
        // leaf is its first child's, or itself.
        let mut l = vec![0usize; n];
        for (i, &node) in post.iter().enumerate() {
            l[i] = match t.children(node).first() {
                Some(&first) => l[post_index[first]],
                None => i,
            };
        }
        // Keyroots: for each distinct l-value, the highest postorder index.
        let mut seen = vec![false; n];
        let mut keyroots: Vec<usize> = (0..n)
            .rev()
            .filter(|&i| !std::mem::replace(&mut seen[l[i]], true))
            .collect();
        keyroots.reverse();
        let label = post.iter().map(|&node| t.label(node)).collect();
        ZsTree { label, l, keyroots }
    }

    fn len(&self) -> usize {
        self.label.len()
    }
}

/// The Zhang–Shasha program's buffers, kept across runs so that grading a
/// motif against a whole tree set allocates once.
#[derive(Default)]
pub(crate) struct ZsScratch {
    /// `td[i * nb + j]`: distance between the subtree of A rooted at
    /// postorder node `i` and the subtree of B rooted at `j`.
    td: Vec<usize>,
    /// Forest-distance table, row stride `nb + 1`.
    fd: Vec<usize>,
}

impl ZsScratch {
    /// Fill the distance matrix between every subtree of `a` and every
    /// subtree of `b`, with optional free cutting of complete B-subtrees;
    /// returns it row-major (`a.len()` rows of `b.len()`).
    fn run(&mut self, a: &ZsTree, b: &ZsTree, cuts_in_b: bool) -> &[usize] {
        let (na, nb) = (a.len(), b.len());
        let stride = nb + 1;
        // Every entry either table is read from is written earlier in
        // the same run, so stale contents need no clearing.
        if self.td.len() < na * nb {
            self.td.resize(na * nb, 0);
        }
        if self.fd.len() < (na + 1) * stride {
            self.fd.resize((na + 1) * stride, 0);
        }
        let (td, fd) = (&mut self.td, &mut self.fd);

        for &ka in &a.keyroots {
            let la = a.l[ka];
            for &kb in &b.keyroots {
                let lb = b.l[kb];
                // fd[x][y]: distance between A-forest l(ka)..(la+x-1) and
                // B-forest l(kb)..(lb+y-1); x,y are counts.
                fd[0] = 0;
                for x in 1..=(ka - la + 1) {
                    fd[x * stride] = fd[(x - 1) * stride] + 1; // delete A node
                }
                for y in 1..=(kb - lb + 1) {
                    // Insert the B node... or cut it free: the prefix forest
                    // l(kb)..j is a union of complete subtrees, so with cuts
                    // enabled the empty A-forest matches any B-forest at 0.
                    fd[y] = if cuts_in_b { 0 } else { fd[y - 1] + 1 };
                }
                for x in 1..=(ka - la + 1) {
                    let i = la + x - 1; // A postorder index
                    let row = x * stride;
                    let up = row - stride;
                    let xa = (a.l[i] - la) * stride; // forest prefix before subtree i
                    let a_tree = a.l[i] == la;
                    for y in 1..=(kb - lb + 1) {
                        let j = lb + y - 1; // B postorder index
                        let yb = b.l[j] - lb; // forest prefix before subtree j
                        let mut best = (fd[up + y] + 1).min(fd[row + y - 1] + 1); // delete i, insert j
                        if cuts_in_b {
                            // Cut the whole subtree rooted at j.
                            best = best.min(fd[row + yb]);
                        }
                        if a_tree && yb == 0 {
                            // Both forests are whole subtrees: match i to j.
                            let sub = fd[up + y - 1] + usize::from(a.label[i] != b.label[j]);
                            best = best.min(sub);
                            td[i * nb + j] = best;
                        } else {
                            best = best.min(fd[xa + yb] + td[i * nb + j]);
                        }
                        fd[row + y] = best;
                    }
                }
            }
        }
        &self.td[..na * nb]
    }

    /// Distance between the whole trees.
    fn distance(&mut self, a: &ZsTree, b: &ZsTree, cuts_in_b: bool) -> usize {
        let nb = b.len();
        self.run(a, b, cuts_in_b)[a.len() * nb - 1]
    }

    /// Minimum over all subtrees `U` of `data` of the cut distance between
    /// `motif` and `U`.
    pub(crate) fn best_subtree_distance(&mut self, motif: &ZsTree, data: &ZsTree) -> usize {
        let nb = data.len();
        let td = self.run(motif, data, true);
        let root = (motif.len() - 1) * nb;
        td[root..root + nb].iter().copied().min().unwrap()
    }
}

/// Zhang–Shasha ordered tree edit distance (unit costs).
pub fn tree_edit_distance(a: &OrderedTree, b: &OrderedTree) -> usize {
    ZsScratch::default().distance(&ZsTree::new(a), &ZsTree::new(b), false)
}

/// Edit distance between `motif` and `data` allowing free cuttings of
/// complete subtrees of `data`.
pub fn cut_distance(motif: &OrderedTree, data: &OrderedTree) -> usize {
    ZsScratch::default().distance(&ZsTree::new(motif), &ZsTree::new(data), true)
}

/// Minimum over all subtrees `U` of `data` of the cut distance between
/// `motif` and `U` — "how far is the motif from occurring in the tree".
pub fn best_subtree_distance(motif: &OrderedTree, data: &OrderedTree) -> usize {
    ZsScratch::default().best_subtree_distance(&ZsTree::new(motif), &ZsTree::new(data))
}

/// Does `motif` occur in `data` within distance `d` (with cuttings)?
pub fn contains_within(motif: &OrderedTree, data: &OrderedTree, d: usize) -> bool {
    best_subtree_distance(motif, data) <= d
}

/// Does `motif` occur in `data` at cut distance 0? The same answer as
/// `best_subtree_distance(motif, data) == 0`, without the DP: some data
/// node roots a top-down, order-preserving copy of the motif.
pub fn contains_exactly(motif: &OrderedTree, data: &OrderedTree) -> bool {
    data.nodes().any(|v| embeds_at(motif, 0, data, v))
}

/// Is the motif subtree at `m` a copy of the data subtree at `v` after
/// cuttings? Each motif child takes the leftmost remaining data child
/// that embeds it (`any` consumes the iterator up to the match).
fn embeds_at(motif: &OrderedTree, m: usize, data: &OrderedTree, v: usize) -> bool {
    if motif.label(m) != data.label(v) {
        return false;
    }
    let mut rest = data.children(v).iter();
    motif
        .children(m)
        .iter()
        .all(|&c| rest.any(|&d| embeds_at(motif, c, data, d)))
}

/// Occurrence number of `motif` over a set of trees (§4.1.2):
/// `occurrence_no^d_S(M)` = number of trees containing `M` within `d`.
pub fn occurrence_number(motif: &OrderedTree, set: &[OrderedTree], d: usize) -> usize {
    let set: Vec<ZsTree> = set.iter().map(ZsTree::new).collect();
    prepared_occurrence_number(&ZsTree::new(motif), &set, d)
}

/// [`occurrence_number`] over trees prepared in advance.
pub(crate) fn prepared_occurrence_number(motif: &ZsTree, set: &[ZsTree], d: usize) -> usize {
    let mut scratch = ZsScratch::default();
    set.iter()
        .filter(|t| scratch.best_subtree_distance(motif, t) <= d)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: &str) -> OrderedTree {
        OrderedTree::parse(s)
    }

    // Brute-force ordered-forest edit distance for validation (small
    // trees only): classic recursion over forests.
    fn brute_forest(a: &OrderedTree, af: &[usize], b: &OrderedTree, bf: &[usize]) -> usize {
        fn size(t: &OrderedTree, f: &[usize]) -> usize {
            f.iter().map(|&n| t.subtree(n).len()).sum()
        }
        match (af.split_last(), bf.split_last()) {
            (None, None) => 0,
            (Some(_), None) => size(a, af),
            (None, Some(_)) => size(b, bf),
            (Some((&ra, af_rest)), Some((&rb, bf_rest))) => {
                // Delete root of last A tree.
                let mut a_minus: Vec<usize> = af_rest.to_vec();
                a_minus.extend(a.children(ra));
                let d1 = 1 + brute_forest(a, &a_minus, b, bf);
                // Insert root of last B tree.
                let mut b_minus: Vec<usize> = bf_rest.to_vec();
                b_minus.extend(b.children(rb));
                let d2 = 1 + brute_forest(a, af, b, &b_minus);
                // Match last roots.
                let d3 = brute_forest(a, a.children(ra), b, b.children(rb))
                    + brute_forest(a, af_rest, b, bf_rest)
                    + usize::from(a.label(ra) != b.label(rb));
                d1.min(d2).min(d3)
            }
        }
    }

    fn brute_dist(a: &OrderedTree, b: &OrderedTree) -> usize {
        brute_forest(a, &[0], b, &[0])
    }

    /// Brute-force "how far is `motif` from occurring in `data`": the
    /// plain edit distance to every subtree of `data` under every set of
    /// cuttings, and to the empty tree (cutting the subtree's root).
    fn brute_best_subtree(motif: &OrderedTree, data: &OrderedTree) -> usize {
        let mut best = motif.len();
        for node in data.nodes() {
            let sub = data.subtree(node);
            for cuts in 0u32..(1 << (sub.len() - 1)) {
                best = best.min(brute_dist(motif, &cut(&sub, cuts)));
            }
        }
        best
    }

    /// `tree` with cuttings: bit `i` of `cuts` cuts the preorder node
    /// `i + 1` (the root is never cut), and a node survives unless it or
    /// an ancestor is cut.
    fn cut(tree: &OrderedTree, cuts: u32) -> OrderedTree {
        let mut kept = Vec::new();
        let mut cut_depth = None;
        for (i, &(depth, label)) in tree.encode().iter().enumerate() {
            if cut_depth.is_some_and(|d| depth > d) {
                continue;
            }
            cut_depth = None;
            if i > 0 && cuts & (1 << (i - 1)) != 0 {
                cut_depth = Some(depth);
                continue;
            }
            kept.push((depth, label));
        }
        OrderedTree::decode(&kept)
    }

    /// The per-call distance matrix the prepared program replaced: both
    /// trees' postorder, leftmost leaves and keyroots rebuilt on every
    /// call, nested-vector tables. Kept as an oracle.
    fn zs_matrix_oracle(a: &OrderedTree, b: &OrderedTree, cuts_in_b: bool) -> Vec<Vec<usize>> {
        struct ZsInfo {
            post: Vec<usize>,
            l: Vec<usize>,
            label: Vec<u8>,
            keyroots: Vec<usize>,
        }
        fn zs_info(t: &OrderedTree) -> ZsInfo {
            let post = t.postorder();
            let n = post.len();
            let mut post_index = vec![0usize; t.len()];
            for (i, &node) in post.iter().enumerate() {
                post_index[node] = i;
            }
            let mut l = vec![0usize; n];
            for (i, &node) in post.iter().enumerate() {
                let mut cur = node;
                while let Some(&first) = t.children(cur).first() {
                    cur = first;
                }
                l[i] = post_index[cur];
            }
            let mut last_for_l = std::collections::HashMap::new();
            for (i, &lv) in l.iter().enumerate().take(n) {
                last_for_l.insert(lv, i);
            }
            let mut keyroots: Vec<usize> = last_for_l.into_values().collect();
            keyroots.sort_unstable();
            let label = post.iter().map(|&node| t.label(node)).collect();
            ZsInfo {
                post,
                l,
                label,
                keyroots,
            }
        }
        let ia = zs_info(a);
        let ib = zs_info(b);
        let (na, nb) = (ia.post.len(), ib.post.len());
        let mut td = vec![vec![0usize; nb]; na];
        let mut fd = vec![vec![0usize; nb + 1]; na + 1];
        for &ka in &ia.keyroots {
            for &kb in &ib.keyroots {
                let la = ia.l[ka];
                let lb = ib.l[kb];
                fd[0][0] = 0;
                for x in 1..=(ka - la + 1) {
                    fd[x][0] = fd[x - 1][0] + 1;
                }
                for y in 1..=(kb - lb + 1) {
                    fd[0][y] = if cuts_in_b { 0 } else { fd[0][y - 1] + 1 };
                }
                for x in 1..=(ka - la + 1) {
                    let i = la + x - 1;
                    for y in 1..=(kb - lb + 1) {
                        let j = lb + y - 1;
                        let both_trees = ia.l[i] == la && ib.l[j] == lb;
                        let mut best;
                        if both_trees {
                            let sub = fd[x - 1][y - 1] + usize::from(ia.label[i] != ib.label[j]);
                            best = sub;
                            best = best.min(fd[x - 1][y] + 1);
                            best = best.min(fd[x][y - 1] + 1);
                            if cuts_in_b {
                                let skip = ib.l[j] - lb;
                                best = best.min(fd[x][skip]);
                            }
                            td[i][j] = best;
                        } else {
                            best = fd[x - 1][y] + 1;
                            best = best.min(fd[x][y - 1] + 1);
                            let xa = ia.l[i] - la;
                            let yb = ib.l[j] - lb;
                            best = best.min(fd[xa][yb] + td[i][j]);
                            if cuts_in_b {
                                best = best.min(fd[x][yb]);
                            }
                        }
                        fd[x][y] = best;
                    }
                }
            }
        }
        td
    }

    /// Small trees over a 3-letter alphabet with at most `1 + max_steps`
    /// nodes, from preorder `(depth, label)` encodings.
    fn arb_small_tree(max_steps: usize) -> impl Strategy<Value = OrderedTree> {
        prop::collection::vec((0u8..3, 0u8..3), 0..max_steps + 1).prop_map(|steps| {
            let mut code: Vec<(u8, u8)> = vec![(0, b'A')];
            let mut last_depth = 0u8;
            for (jump, label) in steps {
                let depth = 1 + jump % (last_depth + 1);
                code.push((depth, b'A' + label));
                last_depth = depth;
            }
            OrderedTree::decode(&code)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prepared_program_matches_per_call_oracle(
            a in arb_small_tree(6),
            b in arb_small_tree(8),
        ) {
            for cuts in [false, true] {
                let td = zs_matrix_oracle(&a, &b, cuts);
                let got = ZsScratch::default()
                    .run(&ZsTree::new(&a), &ZsTree::new(&b), cuts)
                    .to_vec();
                let want: Vec<usize> = td.concat();
                prop_assert_eq!(got, want, "cuts={}", cuts);
            }
        }

        #[test]
        fn exact_containment_matches_the_program(
            motif in arb_small_tree(5),
            data in arb_small_tree(9),
        ) {
            prop_assert_eq!(
                contains_exactly(&motif, &data),
                best_subtree_distance(&motif, &data) == 0
            );
        }

        #[test]
        fn exact_containment_finds_every_cut_subtree(
            data in arb_small_tree(9),
            cuts in any::<u32>(),
        ) {
            // Random motifs are mostly absent; these are all present.
            for node in data.nodes() {
                let motif = cut(&data.subtree(node), cuts);
                prop_assert!(contains_exactly(&motif, &data), "{} in {}", motif, data);
            }
        }

        #[test]
        fn prepared_occurrence_matches_brute_force(
            motif in arb_small_tree(3),
            set in prop::collection::vec(arb_small_tree(4), 1..4),
        ) {
            // One scratch across the whole set, as the miner runs it.
            let prepared: Vec<ZsTree> = set.iter().map(ZsTree::new).collect();
            let m = ZsTree::new(&motif);
            let brute: Vec<usize> = set.iter().map(|t| brute_best_subtree(&motif, t)).collect();
            for d in 0..=2 {
                let want = brute.iter().filter(|&&b| b <= d).count();
                prop_assert_eq!(prepared_occurrence_number(&m, &prepared, d), want, "d={}", d);
            }
        }
    }

    #[test]
    fn identical_trees_distance_zero() {
        let x = t("A(B(C,D),E)");
        assert_eq!(tree_edit_distance(&x, &x), 0);
    }

    #[test]
    fn single_relabel() {
        assert_eq!(tree_edit_distance(&t("A(B,C)"), &t("A(B,D)")), 1);
    }

    #[test]
    fn insert_delete() {
        assert_eq!(tree_edit_distance(&t("A(B)"), &t("A(B,C)")), 1);
        assert_eq!(tree_edit_distance(&t("A(B(C))"), &t("A(C)")), 1);
        assert_eq!(tree_edit_distance(&t("A"), &t("A(B(C,D))")), 3);
    }

    #[test]
    fn matches_brute_force_on_enumerated_trees() {
        // All tree shapes with <= 4 nodes over a 2-letter alphabet would
        // be large; sample a representative set instead.
        let shapes = [
            "A",
            "B",
            "A(B)",
            "A(B,C)",
            "B(A(C))",
            "A(B(C),D)",
            "C(A,B,A)",
            "A(A(A))",
            "B(B,B)",
            "A(C(B),B(C))",
        ];
        for x in &shapes {
            for y in &shapes {
                let (tx, ty) = (t(x), t(y));
                assert_eq!(
                    tree_edit_distance(&tx, &ty),
                    brute_dist(&tx, &ty),
                    "{x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn distance_is_a_metric_on_samples() {
        let shapes = ["A", "A(B)", "A(B,C)", "B(A(C))", "A(B(C),D)"];
        for x in &shapes {
            for y in &shapes {
                let dxy = tree_edit_distance(&t(x), &t(y));
                let dyx = tree_edit_distance(&t(y), &t(x));
                assert_eq!(dxy, dyx, "symmetry {x},{y}");
                for z in &shapes {
                    let dxz = tree_edit_distance(&t(x), &t(z));
                    let dzy = tree_edit_distance(&t(z), &t(y));
                    assert!(dxy <= dxz + dzy, "triangle {x},{y} via {z}");
                }
            }
        }
    }

    #[test]
    fn exact_containment_with_cuts() {
        // Motif B(C) occurs exactly in A(B(C,D),E): take subtree B(C,D)
        // and cut D.
        assert!(contains_within(&t("B(C)"), &t("A(B(C,D),E)"), 0));
        // Motif B(D) likewise (cut C).
        assert!(contains_within(&t("B(D)"), &t("A(B(C,D),E)"), 0));
        // Motif B(E) does not: E is not below B.
        assert!(!contains_within(&t("B(E)"), &t("A(B(C,D),E)"), 0));
        assert!(contains_within(&t("B(E)"), &t("A(B(C,D),E)"), 1));
    }

    #[test]
    fn whole_tree_is_a_subtree() {
        let x = t("A(B,C)");
        assert!(contains_within(&x, &x, 0));
        assert_eq!(best_subtree_distance(&x, &x), 0);
    }

    #[test]
    fn cut_distance_never_exceeds_plain_distance() {
        let shapes = ["A", "A(B)", "A(B,C)", "B(A(C))", "A(B(C),D)", "C(A,B,A)"];
        for x in &shapes {
            for y in &shapes {
                assert!(
                    cut_distance(&t(x), &t(y)) <= tree_edit_distance(&t(x), &t(y)),
                    "{x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn cuts_remove_whole_subtrees_only() {
        // Data A(B(C)): motif A(C) needs distance 1 even with cuts —
        // cutting B would also remove C (its descendant), so B must be
        // *deleted* (cost 1) to connect C to A.
        assert_eq!(best_subtree_distance(&t("A(C)"), &t("A(B(C))")), 1);
        // Whereas motif A(B) is exact: cut C (a complete leaf subtree).
        assert_eq!(best_subtree_distance(&t("A(B)"), &t("A(B(C))")), 0);
    }

    #[test]
    fn occurrence_number_over_a_set() {
        let set = vec![t("A(B(C,D),E)"), t("X(B(C))"), t("B(C,F)"), t("Q")];
        assert_eq!(occurrence_number(&t("B(C)"), &set, 0), 3);
        // Matching B(C) against the single node Q takes two edits
        // (relabel Q, delete C), so distance 1 adds nothing...
        assert_eq!(occurrence_number(&t("B(C)"), &set, 1), 3);
        // ...and distance 2 reaches all four trees.
        assert_eq!(occurrence_number(&t("B(C)"), &set, 2), 4);
    }

    #[test]
    fn anti_monotone_under_leaf_removal() {
        // Removing a leaf from the motif can only bring it closer to any
        // data tree (the pruning property the miner relies on).
        let data = [
            t("N(M(R,H),I(B))"),
            t("M(R(H),I)"),
            t("R(H,B,M)"),
            t("N(I(B,R))"),
        ];
        let big = t("M(R,H,I)");
        let smalls = [t("M(R,H)"), t("M(R,I)"), t("M(H,I)")];
        for d in 0..3 {
            let occ_big = occurrence_number(&big, &data, d);
            for s in &smalls {
                assert!(
                    occurrence_number(s, &data, d) >= occ_big,
                    "motif {s} at distance {d}"
                );
            }
        }
    }
}
