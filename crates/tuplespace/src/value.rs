//! Tuple values.
//!
//! A Linda tuple is an ordered sequence of typed values. PLinda tuples in
//! the dissertation carry strings (task tags), integers (ids, counts),
//! reals (scores), and arrays (vector chunks, serialised patterns); the
//! [`Value`] enum mirrors that set, with [`Value::List`] standing in for
//! the `x : n` array notation of C-Linda.

use std::fmt;

/// The type of a tuple field, used by formal template fields ("wildcards")
/// and by the tuple-space partitioning scheme (tuples can only ever match
/// templates with the same type signature, so each signature gets its own
/// partition — the compile-time partitioning of §2.4.5 done at runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TypeTag {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float (compared bitwise for tuple equality).
    Real,
    /// UTF-8 string.
    Str,
    /// Raw byte payload.
    Bytes,
    /// Nested list of values.
    List,
}

impl fmt::Display for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TypeTag::Int => "int",
            TypeTag::Real => "real",
            TypeTag::Str => "str",
            TypeTag::Bytes => "bytes",
            TypeTag::List => "list",
        };
        f.write_str(s)
    }
}

/// Signatures of up to this many fields pack into a single `u128`.
const SIG_PACK_MAX: usize = 32;

#[inline]
fn tag_code(t: TypeTag) -> u8 {
    t as u8 + 1 // 0 is reserved for "no field" so arity is encoded too
}

#[inline]
fn tag_from_code(c: u8) -> TypeTag {
    match c {
        1 => TypeTag::Int,
        2 => TypeTag::Real,
        3 => TypeTag::Str,
        4 => TypeTag::Bytes,
        _ => TypeTag::List,
    }
}

/// A tuple's type signature in the form the space partitions on.
///
/// Signatures are computed on every Linda operation, so the common case
/// (arity ≤ 32) packs the whole tag sequence into one `u128` — one nibble
/// per field, first field in the highest nibble — and costs nothing to
/// build, hash, or compare. Longer signatures fall back to a shared slice.
///
/// The big-endian nibble layout makes the raw `u128` order coincide with
/// lexicographic order on the tag sequence (unused low nibbles are zero,
/// below every real tag code), so sorting [`Sig`]s reproduces the exact
/// partition order the space used when it sorted `Vec<TypeTag>` keys —
/// checkpoint byte streams are unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Sig {
    /// Up to `SIG_PACK_MAX` tags, one 4-bit code each.
    Packed(u128),
    /// Signatures longer than `SIG_PACK_MAX` fields (rare).
    Heap(std::sync::Arc<[TypeTag]>),
}

impl Sig {
    /// Build a signature from a tag sequence of known length.
    pub fn from_tags<I>(tags: I) -> Sig
    where
        I: IntoIterator<Item = TypeTag>,
        I::IntoIter: ExactSizeIterator,
    {
        let it = tags.into_iter();
        if it.len() <= SIG_PACK_MAX {
            let mut bits = 0u128;
            for (i, t) in it.enumerate() {
                bits |= (tag_code(t) as u128) << (124 - 4 * i);
            }
            Sig::Packed(bits)
        } else {
            Sig::Heap(it.collect())
        }
    }

    /// The tag sequence this signature encodes.
    pub fn tags(&self) -> SigTags<'_> {
        SigTags {
            inner: match self {
                Sig::Packed(bits) => SigTagsInner::Packed(*bits),
                Sig::Heap(tags) => SigTagsInner::Heap(tags.iter()),
            },
        }
    }
}

impl PartialOrd for Sig {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sig {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            // Big-endian nibbles: raw order == lexicographic tag order.
            (Sig::Packed(a), Sig::Packed(b)) => a.cmp(b),
            _ => self.tags().cmp(other.tags()),
        }
    }
}

impl fmt::Display for Sig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.tags().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// Iterator over the tags of a [`Sig`].
pub struct SigTags<'a> {
    inner: SigTagsInner<'a>,
}

enum SigTagsInner<'a> {
    Packed(u128),
    Heap(std::slice::Iter<'a, TypeTag>),
}

impl Iterator for SigTags<'_> {
    type Item = TypeTag;

    fn next(&mut self) -> Option<TypeTag> {
        match &mut self.inner {
            SigTagsInner::Packed(bits) => {
                let nib = (*bits >> 124) as u8 & 0xF;
                if nib == 0 {
                    None
                } else {
                    *bits <<= 4;
                    Some(tag_from_code(nib))
                }
            }
            SigTagsInner::Heap(it) => it.next().copied(),
        }
    }
}

/// A single field of a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. Equality and hashing use the raw bit pattern, so a
    /// tuple containing `NaN` only matches a template actual with the same
    /// `NaN` bits; this keeps tuple matching a proper equivalence.
    Real(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw byte payload (serialised patterns, continuations, …).
    Bytes(Vec<u8>),
    /// Nested list of values.
    List(Vec<Value>),
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(i) => {
                state.write_u8(0);
                i.hash(state);
            }
            Value::Real(r) => {
                state.write_u8(1);
                r.to_bits().hash(state);
            }
            Value::Str(s) => {
                state.write_u8(2);
                s.hash(state);
            }
            Value::Bytes(b) => {
                state.write_u8(3);
                b.hash(state);
            }
            Value::List(l) => {
                state.write_u8(4);
                l.hash(state);
            }
        }
    }
}

impl Value {
    /// The runtime type of this value.
    pub fn tag(&self) -> TypeTag {
        match self {
            Value::Int(_) => TypeTag::Int,
            Value::Real(_) => TypeTag::Real,
            Value::Str(_) => TypeTag::Str,
            Value::Bytes(_) => TypeTag::Bytes,
            Value::List(_) => TypeTag::List,
        }
    }

    /// Structural equality that treats `Real` bitwise (used for matching).
    pub fn matches_actual(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Real(a), Value::Real(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// An immutable ordered sequence of [`Value`]s — the unit of communication
/// in the tuple space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple(pub Vec<Value>);

impl Tuple {
    /// Build a tuple from its fields.
    pub fn new(fields: Vec<Value>) -> Self {
        Tuple(fields)
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The type signature `(arity, tags…)` used for partitioning.
    pub fn signature(&self) -> Vec<TypeTag> {
        self.0.iter().map(Value::tag).collect()
    }

    /// The packed form of [`Tuple::signature`] — what the space actually
    /// keys its partitions on. Allocation-free for arity ≤ 32.
    pub fn sig(&self) -> Sig {
        Sig::from_tags(self.0.iter().map(Value::tag))
    }

    /// Field accessor; panics if out of range.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Integer field accessor; panics on type mismatch. PLinda programs in
    /// the dissertation freely assume field types after a successful match,
    /// which the signature partitioning guarantees.
    pub fn int(&self, i: usize) -> i64 {
        match &self.0[i] {
            Value::Int(v) => *v,
            other => panic!("tuple field {i} is {:?}, expected Int", other.tag()),
        }
    }

    /// Real field accessor; panics on type mismatch.
    pub fn real(&self, i: usize) -> f64 {
        match &self.0[i] {
            Value::Real(v) => *v,
            other => panic!("tuple field {i} is {:?}, expected Real", other.tag()),
        }
    }

    /// String field accessor; panics on type mismatch.
    pub fn str(&self, i: usize) -> &str {
        match &self.0[i] {
            Value::Str(v) => v,
            other => panic!("tuple field {i} is {:?}, expected Str", other.tag()),
        }
    }

    /// Bytes field accessor; panics on type mismatch.
    pub fn bytes(&self, i: usize) -> &[u8] {
        match &self.0[i] {
            Value::Bytes(v) => v,
            other => panic!("tuple field {i} is {:?}, expected Bytes", other.tag()),
        }
    }

    /// List field accessor; panics on type mismatch.
    pub fn list(&self, i: usize) -> &[Value] {
        match &self.0[i] {
            Value::List(v) => v,
            other => panic!("tuple field {i} is {:?}, expected List", other.tag()),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Convenience constructor: `tup!["task", 3, 4.5]` builds a [`Tuple`] with
/// each element converted via `Into<Value>`.
#[macro_export]
macro_rules! tup {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_macro_and_accessors() {
        let t = tup!["task", 3, 4.5];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.str(0), "task");
        assert_eq!(t.int(1), 3);
        assert!((t.real(2) - 4.5).abs() < 1e-12);
        assert_eq!(
            t.signature(),
            vec![TypeTag::Str, TypeTag::Int, TypeTag::Real]
        );
    }

    #[test]
    fn nested_list_values() {
        let t = Tuple::new(vec![Value::List(vec![
            Value::Int(1),
            Value::Str("x".into()),
        ])]);
        assert_eq!(t.list(0).len(), 2);
        assert_eq!(t.signature(), vec![TypeTag::List]);
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn accessor_type_mismatch_panics() {
        let t = tup!["a"];
        t.int(0);
    }

    #[test]
    fn real_equality_is_bitwise() {
        let a = Value::Real(f64::NAN);
        let b = Value::Real(f64::NAN);
        assert!(a.matches_actual(&b));
        let c = Value::Real(0.0);
        let d = Value::Real(-0.0);
        assert!(!c.matches_actual(&d));
    }

    #[test]
    fn display_forms() {
        let t = tup!["m", 1, 2.5];
        assert_eq!(format!("{t}"), "(\"m\", 1, 2.5)");
    }

    #[test]
    fn sig_roundtrips_tags() {
        let t = tup!["task", 3, 4.5];
        let sig = t.sig();
        assert!(matches!(sig, Sig::Packed(_)));
        assert_eq!(sig.tags().collect::<Vec<_>>(), t.signature());
        assert_eq!(format!("{sig}"), "(str, int, real)");
        assert_eq!(Tuple::new(vec![]).sig().tags().count(), 0);
    }

    #[test]
    fn sig_equality_matches_signature_equality() {
        let a = tup!["x", 1, 2.0];
        let b = tup!["yy", -5, 0.25];
        let c = tup!["x", 1];
        assert_eq!(a.sig(), b.sig());
        assert_ne!(a.sig(), c.sig());
    }

    #[test]
    fn sig_order_agrees_with_tag_vector_order() {
        // The space sorts partitions by signature; Sig's order must
        // reproduce the lexicographic Vec<TypeTag> order exactly,
        // including the shorter-prefix-first rule.
        use TypeTag::*;
        let seqs: Vec<Vec<TypeTag>> = vec![
            vec![],
            vec![Int],
            vec![Int, Int],
            vec![Int, List],
            vec![Real],
            vec![Str, Int],
            vec![Str, Int, Real],
            vec![Str, Real],
            vec![Bytes],
            vec![List, Bytes],
        ];
        let mut by_vec = seqs.clone();
        by_vec.sort();
        let mut by_sig: Vec<Sig> = seqs
            .iter()
            .map(|s| Sig::from_tags(s.iter().copied()))
            .collect();
        by_sig.sort();
        let decoded: Vec<Vec<TypeTag>> = by_sig.iter().map(|s| s.tags().collect()).collect();
        assert_eq!(decoded, by_vec);
    }

    #[test]
    fn sig_heap_fallback_for_wide_tuples() {
        use TypeTag::*;
        let tags: Vec<TypeTag> = (0..40)
            .map(|i| if i % 2 == 0 { Int } else { Str })
            .collect();
        let sig = Sig::from_tags(tags.iter().copied());
        assert!(matches!(sig, Sig::Heap(_)));
        assert_eq!(sig.tags().collect::<Vec<_>>(), tags);
        // A packed 32-wide sig sorts below any 33+-wide sig sharing its
        // prefix (prefix rule holds across the representation boundary).
        let wide = Sig::from_tags(std::iter::repeat_n(Int, 33));
        let narrow = Sig::from_tags(std::iter::repeat_n(Int, 32));
        assert!(narrow < wide);
        assert!(sig.cmp(&sig.clone()) == std::cmp::Ordering::Equal);
    }
}
