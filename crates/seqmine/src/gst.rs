//! Generalised suffix tree (GST), built online with Ukkonen's algorithm
//! (§2.3.4, subphase A).
//!
//! The GST compactly represents the set of sequences: each suffix of each
//! sequence is a root-to-leaf path; distinct substrings are exactly the
//! prefixes of path labels. Construction is O(n) in the total length.
//!
//! The discovery algorithm uses the GST twice:
//! * **subphase B**: enumerate candidate segments — all distinct
//!   substrings of the sample meeting the length requirement
//!   ([`Gst::candidate_segments`]);
//! * **candidate generation**: during the E-dag/E-tree traversal, only
//!   extensions that actually occur in the sample are generated
//!   ([`Gst::extensions`]), which is what keeps the traversal from
//!   drowning in the 20-letter alphabet.
//!
//! Multiple sequences are concatenated with unique separator symbols; any
//! path containing a separator is not a substring of a single sequence and
//! is excluded from enumeration. Per-node *string sets* (which sequences'
//! suffixes pass below a node) give exact occurrence counts
//! ([`Gst::occurrence`]).

use crate::seq::Sequence;
use std::collections::HashMap;

/// Symbols: sequence bytes are `0..256`; separator `i` is `SEP_BASE + i`.
const SEP_BASE: u32 = 256;

const LEAF_END: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    /// Edge label into this node: `text[start..end]` (`end == LEAF_END`
    /// means "to the current end of the text" — a leaf).
    start: usize,
    end: usize,
    /// Suffix link (root for leaves / unset).
    link: usize,
    /// Children keyed by the first symbol of their edge label.
    children: HashMap<u32, usize>,
    /// Bitset of sequence ids whose suffixes pass through / end below.
    strings: Vec<u64>,
    /// Length of the root-to-node path label.
    depth: usize,
}

/// A generalised suffix tree over a set of sequences.
pub struct Gst {
    text: Vec<u32>,
    nodes: Vec<Node>,
    /// Sequence id owning each text position (separators belong to the
    /// sequence they terminate).
    seq_of_pos: Vec<usize>,
    n_strings: usize,
    bitset_words: usize,
}

impl Gst {
    /// Build the GST of `seqs` (Ukkonen, linear in total length).
    pub fn build(seqs: &[Sequence]) -> Gst {
        let total: usize = seqs.iter().map(Sequence::len).sum();
        let mut text = Vec::with_capacity(total + seqs.len());
        let mut seq_of_pos = Vec::with_capacity(total + seqs.len());
        for (i, s) in seqs.iter().enumerate() {
            for &b in s.bytes() {
                text.push(b as u32);
                seq_of_pos.push(i);
            }
            text.push(SEP_BASE + i as u32);
            seq_of_pos.push(i);
        }

        let bitset_words = seqs.len().div_ceil(64).max(1);
        let mut gst = Gst {
            text,
            nodes: vec![Node {
                start: 0,
                end: 0,
                link: 0,
                children: HashMap::new(),
                strings: Vec::new(),
                depth: 0,
            }],
            seq_of_pos,
            n_strings: seqs.len(),
            bitset_words,
        };
        gst.ukkonen();
        gst.annotate();
        gst
    }

    fn new_node(&mut self, start: usize, end: usize) -> usize {
        self.nodes.push(Node {
            start,
            end,
            link: 0,
            children: HashMap::new(),
            strings: Vec::new(),
            depth: 0,
        });
        self.nodes.len() - 1
    }

    fn edge_len(&self, node: usize, pos: usize) -> usize {
        let n = &self.nodes[node];
        n.end.min(pos + 1) - n.start
    }

    fn ukkonen(&mut self) {
        let mut active_node = 0usize;
        let mut active_edge = 0usize; // index into text of the edge symbol
        let mut active_len = 0usize;
        let mut remainder = 0usize;

        for pos in 0..self.text.len() {
            let mut last_new: Option<usize> = None;
            remainder += 1;
            while remainder > 0 {
                if active_len == 0 {
                    active_edge = pos;
                }
                let c = self.text[active_edge];
                let next = self.nodes[active_node].children.get(&c).copied();
                match next {
                    None => {
                        let leaf = self.new_node(pos, LEAF_END);
                        self.nodes[active_node].children.insert(c, leaf);
                        if let Some(n) = last_new.take() {
                            self.nodes[n].link = active_node;
                        }
                    }
                    Some(next) => {
                        let el = self.edge_len(next, pos);
                        if active_len >= el {
                            active_edge += el;
                            active_len -= el;
                            active_node = next;
                            continue;
                        }
                        if self.text[self.nodes[next].start + active_len] == self.text[pos] {
                            active_len += 1;
                            if let Some(n) = last_new.take() {
                                self.nodes[n].link = active_node;
                            }
                            break;
                        }
                        // Split the edge.
                        let split_start = self.nodes[next].start;
                        let split = self.new_node(split_start, split_start + active_len);
                        self.nodes[active_node].children.insert(c, split);
                        let leaf = self.new_node(pos, LEAF_END);
                        self.nodes[split].children.insert(self.text[pos], leaf);
                        self.nodes[next].start += active_len;
                        let next_first = self.text[self.nodes[next].start];
                        self.nodes[split].children.insert(next_first, next);
                        if let Some(n) = last_new.take() {
                            self.nodes[n].link = split;
                        }
                        last_new = Some(split);
                    }
                }
                remainder -= 1;
                if active_node == 0 && active_len > 0 {
                    active_len -= 1;
                    active_edge = pos - remainder + 1;
                } else if active_node != 0 {
                    active_node = self.nodes[active_node].link;
                }
            }
        }
    }

    /// Post-order accumulation of per-node string bitsets; records each
    /// node's path depth on the way down.
    fn annotate(&mut self) {
        let words = self.bitset_words;
        for n in &mut self.nodes {
            n.strings = vec![0u64; words];
        }
        // Iterative post-order: (node, depth_before_edge, visited?).
        let mut stack: Vec<(usize, usize, bool)> = vec![(0, 0, false)];
        while let Some((id, depth, visited)) = stack.pop() {
            let label_len = self.edge_label_len(id);
            if !visited {
                self.nodes[id].depth = depth + label_len;
                stack.push((id, depth, true));
                let children: Vec<usize> = self.nodes[id].children.values().copied().collect();
                for c in children {
                    stack.push((c, depth + label_len, false));
                }
                continue;
            }
            if self.nodes[id].children.is_empty() && id != 0 {
                // Leaf: the suffix it represents starts at
                // text.len() - (depth + label_len).
                let suffix_start = self.text.len() - (depth + label_len);
                let s = self.seq_of_pos[suffix_start];
                self.nodes[id].strings[s / 64] |= 1u64 << (s % 64);
            } else {
                let children: Vec<usize> = self.nodes[id].children.values().copied().collect();
                for c in children {
                    for w in 0..words {
                        let bits = self.nodes[c].strings[w];
                        self.nodes[id].strings[w] |= bits;
                    }
                }
            }
        }
    }

    fn popcount(bits: &[u64]) -> usize {
        bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Walk `pattern` from the root; returns the node whose subtree
    /// contains all occurrences (the locus), or `None` if absent.
    fn locus(&self, pattern: &[u8]) -> Option<usize> {
        let mut node = 0usize;
        let mut i = 0usize;
        while i < pattern.len() {
            let c = pattern[i] as u32;
            let &child = self.nodes[node].children.get(&c)?;
            let start = self.nodes[child].start;
            let end = if self.nodes[child].end == LEAF_END {
                self.text.len()
            } else {
                self.nodes[child].end
            };
            for t in start..end {
                if i == pattern.len() {
                    break;
                }
                if self.text[t] != pattern[i] as u32 {
                    return None;
                }
                i += 1;
            }
            node = child;
        }
        Some(node)
    }

    /// Number of distinct sequences containing `pattern` as an exact
    /// substring.
    pub fn occurrence(&self, pattern: &[u8]) -> usize {
        if pattern.is_empty() {
            return self.n_strings;
        }
        match self.locus(pattern) {
            Some(node) => Self::popcount(&self.nodes[node].strings),
            None => 0,
        }
    }

    /// Is `pattern` a substring of at least one sequence?
    pub fn contains(&self, pattern: &[u8]) -> bool {
        self.occurrence(pattern) > 0
    }

    /// Letters `c` such that `pattern ++ [c]` is a substring of at least
    /// one sequence — the E-dag children generator for sequence motifs.
    pub fn extensions(&self, pattern: &[u8]) -> Vec<u8> {
        let Some(node) = self.locus(pattern) else {
            return Vec::new();
        };
        // Depth of the locus path; if pattern ends mid-edge the only
        // possible extension is the next symbol on that edge.
        let depth = self.path_depth(node);
        let mut out = Vec::new();
        if depth > pattern.len() {
            // Mid-edge: next symbol of this node's incoming label.
            let start = self.nodes[node].start;
            let next = self.text[start + (self.edge_label_len(node) - (depth - pattern.len()))];
            if next < SEP_BASE {
                out.push(next as u8);
            }
        } else {
            for &c in self.nodes[node].children.keys() {
                if c < SEP_BASE {
                    out.push(c as u8);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn edge_label_len(&self, node: usize) -> usize {
        if self.nodes[node].end == LEAF_END {
            self.text.len() - self.nodes[node].start
        } else {
            self.nodes[node].end - self.nodes[node].start
        }
    }

    /// Length of the root-to-`node` path label.
    fn path_depth(&self, node: usize) -> usize {
        self.nodes[node].depth
    }

    /// All distinct separator-free substrings with length in
    /// `[min_len, max_len]` occurring in at least `min_occ` sequences,
    /// with their occurrence counts — subphase B of the discovery
    /// algorithm. Subtrees whose occurrence already fails the threshold
    /// are pruned (occurrence is anti-monotone in extension).
    pub fn candidate_segments(
        &self,
        min_len: usize,
        max_len: usize,
        min_occ: usize,
    ) -> Vec<(Vec<u8>, usize)> {
        let mut out = Vec::new();
        // DFS carrying the accumulated label.
        let mut stack: Vec<(usize, Vec<u8>)> = vec![(0, Vec::new())];
        while let Some((id, label)) = stack.pop() {
            for (&c, &child) in &self.nodes[id].children {
                if c >= SEP_BASE {
                    continue;
                }
                let occ = Self::popcount(&self.nodes[child].strings);
                if occ < min_occ {
                    continue;
                }
                let start = self.nodes[child].start;
                let end = if self.nodes[child].end == LEAF_END {
                    self.text.len()
                } else {
                    self.nodes[child].end
                };
                let mut lbl = label.clone();
                let mut truncated = false;
                for t in start..end {
                    if self.text[t] >= SEP_BASE || lbl.len() >= max_len {
                        truncated = true;
                        break;
                    }
                    lbl.push(self.text[t] as u8);
                    if lbl.len() >= min_len {
                        out.push((lbl.clone(), occ));
                    }
                }
                if !truncated {
                    stack.push((child, lbl));
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Number of tree nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(v: &[&str]) -> Vec<Sequence> {
        v.iter().map(|s| Sequence::from_str(s)).collect()
    }

    /// Brute-force occurrence count.
    fn brute_occ(set: &[Sequence], pat: &[u8]) -> usize {
        set.iter().filter(|s| s.contains(pat)).count()
    }

    #[test]
    fn occurrence_matches_brute_force_small() {
        let set = seqs(&["FFRR", "MRRM", "MTRM"]);
        let g = Gst::build(&set);
        for pat in [
            "F", "R", "M", "T", "RR", "RM", "FR", "MT", "RRM", "FFRR", "ZZZ", "RRRR",
        ] {
            assert_eq!(
                g.occurrence(pat.as_bytes()),
                brute_occ(&set, pat.as_bytes()),
                "pattern {pat}"
            );
        }
    }

    #[test]
    fn occurrence_matches_brute_force_random() {
        // Deterministic pseudo-random strings over a 3-letter alphabet.
        let mut state = 0x1234_5678_u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let alphabet = b"ABC";
        for trial in 0..20 {
            let set: Vec<Sequence> = (0..4)
                .map(|_| {
                    let len = 3 + rnd() % 10;
                    Sequence::new((0..len).map(|_| alphabet[rnd() % 3]).collect())
                })
                .collect();
            let g = Gst::build(&set);
            // All patterns up to length 4.
            let mut pats: Vec<Vec<u8>> = vec![vec![]];
            for _ in 0..4 {
                pats = pats
                    .iter()
                    .flat_map(|p| {
                        alphabet.iter().map(move |&c| {
                            let mut q = p.clone();
                            q.push(c);
                            q
                        })
                    })
                    .collect();
                for p in &pats {
                    assert_eq!(
                        g.occurrence(p),
                        brute_occ(&set, p),
                        "trial {trial} pattern {:?}",
                        String::from_utf8_lossy(p)
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_segments_complete_and_sound() {
        let set = seqs(&["ABAB", "BABA", "ABBA"]);
        let g = Gst::build(&set);
        let cands = g.candidate_segments(2, 3, 2);
        // Sound: every candidate really occurs in >= 2 sequences with the
        // reported count.
        for (seg, occ) in &cands {
            assert_eq!(brute_occ(&set, seg), *occ);
            assert!(*occ >= 2);
            assert!(seg.len() >= 2 && seg.len() <= 3);
        }
        // Complete: brute-force enumeration finds nothing extra.
        let mut brute = Vec::new();
        for s in &set {
            for i in 0..s.len() {
                for j in i + 2..=(i + 3).min(s.len()) {
                    let seg = s.bytes()[i..j].to_vec();
                    let occ = brute_occ(&set, &seg);
                    if occ >= 2 {
                        brute.push((seg, occ));
                    }
                }
            }
        }
        brute.sort();
        brute.dedup();
        assert_eq!(cands, brute);
    }

    #[test]
    fn extensions_lists_occurring_successors() {
        let set = seqs(&["ABC", "ABD", "XAB"]);
        let g = Gst::build(&set);
        let mut ext = g.extensions(b"AB");
        ext.sort_unstable();
        assert_eq!(ext, vec![b'C', b'D']);
        assert_eq!(g.extensions(b"ZZ"), Vec::<u8>::new());
        // Root extensions list every first letter present.
        let mut root_ext = g.extensions(b"");
        root_ext.sort_unstable();
        assert_eq!(root_ext, vec![b'A', b'B', b'C', b'D', b'X']);
    }

    #[test]
    fn single_repeated_letter() {
        let set = seqs(&["AAAA"]);
        let g = Gst::build(&set);
        assert_eq!(g.occurrence(b"A"), 1);
        assert_eq!(g.occurrence(b"AAAA"), 1);
        assert_eq!(g.occurrence(b"AAAAA"), 0);
        assert_eq!(g.extensions(b"AAA"), vec![b'A']);
        assert_eq!(g.extensions(b"AAAA"), Vec::<u8>::new());
    }

    #[test]
    fn empty_pattern_occurs_in_all() {
        let set = seqs(&["AB", "CD"]);
        let g = Gst::build(&set);
        assert_eq!(g.occurrence(b""), 2);
    }

    #[test]
    fn many_strings_bitsets_cross_word_boundary() {
        // 70 strings forces a 2-word bitset.
        let set: Vec<Sequence> = (0..70)
            .map(|i| Sequence::from_str(if i % 2 == 0 { "XYZ" } else { "XWW" }))
            .collect();
        let g = Gst::build(&set);
        assert_eq!(g.occurrence(b"X"), 70);
        assert_eq!(g.occurrence(b"XY"), 35);
        assert_eq!(g.occurrence(b"WW"), 35);
    }
}
