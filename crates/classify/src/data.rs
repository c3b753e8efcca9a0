//! Training data for classification-tree learning (§5.1).
//!
//! A training set is a set of data elements, each with values of a number
//! of independent variables (attributes) — categorical (finite unordered
//! domain) or numerical (ordered) — plus a class label (the dependent
//! variable). Attribute values may be missing, as in the `mushrooms` and
//! `vote` benchmark datasets (Table 5.2).

use crate::columnar::ColumnarIndex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// One attribute value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// Numerical value.
    Num(f64),
    /// Categorical value index (into the attribute's domain).
    Cat(u16),
    /// Missing.
    Missing,
}

impl AttrValue {
    /// Is this value missing?
    pub fn is_missing(&self) -> bool {
        matches!(self, AttrValue::Missing)
    }
}

/// Attribute schema.
#[derive(Debug, Clone)]
pub enum Attribute {
    /// Ordered numeric attribute.
    Numeric {
        /// Display name.
        name: String,
    },
    /// Unordered categorical attribute with a fixed domain.
    Categorical {
        /// Display name.
        name: String,
        /// Domain value names; categorical values index this list.
        values: Vec<String>,
    },
}

impl Attribute {
    /// The attribute's display name.
    pub fn name(&self) -> &str {
        match self {
            Attribute::Numeric { name } | Attribute::Categorical { name, .. } => name,
        }
    }

    /// Is this attribute numeric?
    pub fn is_numeric(&self) -> bool {
        matches!(self, Attribute::Numeric { .. })
    }

    /// Domain size (categorical only).
    pub fn cardinality(&self) -> usize {
        match self {
            Attribute::Numeric { .. } => 0,
            Attribute::Categorical { values, .. } => values.len(),
        }
    }
}

/// Missing-value marker of a categorical column.
pub(crate) const MISSING_CODE: u16 = u16::MAX;

/// One stored column: numeric values (`NaN` where missing) or categorical
/// codes ([`MISSING_CODE`] where missing).
#[derive(Debug, Clone)]
pub(crate) enum Column {
    Num(Vec<f64>),
    Cat(Vec<u16>),
}

/// A column-major training table: one typed column per attribute, plus
/// the presort of its numeric columns ([`Dataset::index`]), built once on
/// first use and shared by every tree grown on the table.
#[derive(Debug, Clone)]
pub struct Dataset {
    attributes: Vec<Attribute>,
    columns: Vec<Column>,
    /// Class label per row.
    classes: Vec<u16>,
    class_names: Vec<String>,
    index: OnceLock<Arc<ColumnarIndex>>,
}

impl Dataset {
    /// Build a dataset; all columns and the class vector must agree in
    /// length, and class labels must index `class_names`.
    ///
    /// Each column is stored typed, so a cell must fit its attribute:
    /// panics on a `Cat` in a numeric column, a `Num` in a categorical
    /// one, `Num(NaN)` or `Cat(u16::MAX)` (the stores' missing markers),
    /// naming the column and the row.
    pub fn new(
        attributes: Vec<Attribute>,
        columns: Vec<Vec<AttrValue>>,
        classes: Vec<u16>,
        class_names: Vec<String>,
    ) -> Self {
        assert_eq!(attributes.len(), columns.len(), "schema/column mismatch");
        let columns = attributes
            .iter()
            .zip(columns)
            .enumerate()
            .map(|(a, (schema, cells))| {
                assert_eq!(cells.len(), classes.len(), "column {a} length mismatch");
                let (mut column, kind) = if schema.is_numeric() {
                    (Column::Num(Vec::with_capacity(cells.len())), "numeric")
                } else {
                    (Column::Cat(Vec::with_capacity(cells.len())), "categorical")
                };
                for (r, v) in cells.into_iter().enumerate() {
                    match (&mut column, v) {
                        (Column::Num(c), AttrValue::Num(x)) if !x.is_nan() => c.push(x),
                        (Column::Num(c), AttrValue::Missing) => c.push(f64::NAN),
                        (Column::Cat(c), AttrValue::Cat(x)) if x != MISSING_CODE => c.push(x),
                        (Column::Cat(c), AttrValue::Missing) => c.push(MISSING_CODE),
                        _ => panic!(
                            "column {a} ({}) row {r}: cannot store {v:?} in a {kind} column",
                            schema.name()
                        ),
                    }
                }
                column
            })
            .collect();
        assert!(
            classes.iter().all(|&c| (c as usize) < class_names.len()),
            "class label out of range"
        );
        Dataset {
            attributes,
            columns,
            classes,
            class_names,
            index: OnceLock::new(),
        }
    }

    /// The presort of the numeric columns, built on the first call and
    /// shared by every later one, from any thread: cross-validation
    /// folds, windowing trials and parallel workers all grow over it.
    pub fn index(&self) -> &Arc<ColumnarIndex> {
        self.index
            .get_or_init(|| Arc::new(ColumnarIndex::build(self)))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Is the dataset empty?
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Attribute schemas.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes.
    pub fn n_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Class display names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Value of attribute `attr` in row `row`.
    pub fn value(&self, row: usize, attr: usize) -> AttrValue {
        match &self.columns[attr] {
            Column::Num(v) if !v[row].is_nan() => AttrValue::Num(v[row]),
            Column::Cat(c) if c[row] != MISSING_CODE => AttrValue::Cat(c[row]),
            _ => AttrValue::Missing,
        }
    }

    /// The stored column of attribute `attr`.
    pub(crate) fn column(&self, attr: usize) -> &Column {
        &self.columns[attr]
    }

    /// Class of row `row`.
    pub fn class(&self, row: usize) -> u16 {
        self.classes[row]
    }

    /// All row indices.
    pub fn all_rows(&self) -> Vec<usize> {
        (0..self.len()).collect()
    }

    /// Class histogram over `rows`.
    pub fn class_counts(&self, rows: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for &r in rows {
            counts[self.classes[r] as usize] += 1;
        }
        counts
    }

    /// The plurality class over `rows` and its frequency share (the
    /// "plurality rule" baseline of Table 5.3).
    pub fn plurality(&self, rows: &[usize]) -> (u16, f64) {
        let counts = self.class_counts(rows);
        let (best, n) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &n)| n)
            .map(|(c, &n)| (c as u16, n))
            .unwrap_or((0, 0));
        (best, n as f64 / rows.len().max(1) as f64)
    }

    /// Fraction of cells that are missing.
    pub fn missing_rate(&self) -> f64 {
        let cells = self.len() * self.n_attributes();
        if cells == 0 {
            return 0.0;
        }
        let missing: usize = self
            .columns
            .iter()
            .map(|c| match c {
                Column::Num(v) => v.iter().filter(|x| x.is_nan()).count(),
                Column::Cat(c) => c.iter().filter(|&&x| x == MISSING_CODE).count(),
            })
            .sum();
        missing as f64 / cells as f64
    }

    /// Fraction of rows with at least one missing value.
    pub fn rows_with_missing(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let n = (0..self.len())
            .filter(|&r| (0..self.n_attributes()).any(|a| self.value(r, a).is_missing()))
            .count();
        n as f64 / self.len() as f64
    }

    /// The §5.5.2 splitting protocol: divide into two nearly-equal halves
    /// *preserving the class distribution* — partition rows into per-class
    /// baskets, shuffle each basket, send odd-indexed elements to one half
    /// and even-indexed to the other.
    pub fn stratified_halves(&self, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut first = Vec::new();
        let mut second = Vec::new();
        for class in 0..self.n_classes() as u16 {
            let mut basket: Vec<usize> = (0..self.len())
                .filter(|&r| self.classes[r] == class)
                .collect();
            basket.shuffle(&mut rng);
            for (i, r) in basket.into_iter().enumerate() {
                if i % 2 == 0 {
                    first.push(r);
                } else {
                    second.push(r);
                }
            }
        }
        first.sort_unstable();
        second.sort_unstable();
        (first, second)
    }

    /// Random `v`-fold partition of `rows` (for cross validation),
    /// near-equal sizes.
    pub fn folds(&self, rows: &[usize], v: usize, seed: u64) -> Vec<Vec<usize>> {
        assert!(v >= 2, "cross validation needs at least 2 folds");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuffled = rows.to_vec();
        shuffled.shuffle(&mut rng);
        let mut folds = vec![Vec::new(); v];
        for (i, r) in shuffled.into_iter().enumerate() {
            folds[i % v].push(r);
        }
        folds
    }
}

/// A trained classifier over a [`Dataset`] schema.
pub trait Classifier {
    /// Predict the class of `row` in `data` (which must share the schema
    /// the classifier was trained on).
    fn predict(&self, data: &Dataset, row: usize) -> u16;

    /// Fraction of `rows` classified correctly.
    fn accuracy(&self, data: &Dataset, rows: &[usize]) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        let correct = rows
            .iter()
            .filter(|&&r| self.predict(data, r) == data.class(r))
            .count();
        correct as f64 / rows.len() as f64
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;

    /// The imaginary heart-disease table of Table 2.1 (without Karp).
    pub fn heart() -> Dataset {
        Dataset::new(
            heart_schema(),
            heart_cells(),
            // Jihai yes, Tom no, Hansoo no, Peter no, Bin yes, Dennis yes.
            vec![1, 0, 0, 0, 1, 1],
            vec!["no".into(), "yes".into()],
        )
    }

    fn heart_schema() -> Vec<Attribute> {
        vec![
            Attribute::Numeric {
                name: "weight".into(),
            },
            Attribute::Numeric { name: "age".into() },
            Attribute::Categorical {
                name: "bp".into(),
                values: vec!["low".into(), "med".into(), "high".into()],
            },
        ]
    }

    /// The cells [`heart`] is built from.
    pub fn heart_cells() -> Vec<Vec<AttrValue>> {
        let weight = [180.0, 140.0, 150.0, 150.0, 150.0, 150.0]
            .iter()
            .map(|&w| AttrValue::Num(w))
            .collect();
        let age = [27.0, 20.0, 30.0, 31.0, 35.0, 62.0]
            .iter()
            .map(|&a| AttrValue::Num(a))
            .collect();
        let bp = [0u16, 0, 1, 0, 2, 0]
            .iter()
            .map(|&b| AttrValue::Cat(b))
            .collect();
        vec![weight, age, bp]
    }

    /// Assert that `data.value` gives back every cell of `columns`, the
    /// cells `data` was built from, exactly (numbers bit for bit).
    pub fn assert_stores_exactly(data: &Dataset, columns: &[Vec<AttrValue>]) {
        assert_eq!(data.n_attributes(), columns.len());
        for (a, col) in columns.iter().enumerate() {
            assert_eq!(data.len(), col.len());
            for (r, &want) in col.iter().enumerate() {
                let got = data.value(r, a);
                let exact = match (got, want) {
                    (AttrValue::Num(x), AttrValue::Num(y)) => x.to_bits() == y.to_bits(),
                    _ => got == want,
                };
                assert!(exact, "column {a} row {r}: stored {want:?}, read {got:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{assert_stores_exactly, heart, heart_cells};
    use super::*;

    #[test]
    fn basic_accessors() {
        let d = heart();
        assert_eq!(d.len(), 6);
        assert_eq!(d.n_attributes(), 3);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.class_counts(&d.all_rows()), vec![3, 3]);
        assert_eq!(d.value(0, 0), AttrValue::Num(180.0));
        assert_eq!(d.value(4, 2), AttrValue::Cat(2));
    }

    #[test]
    fn plurality_and_missing() {
        let d = heart();
        let (_, share) = d.plurality(&d.all_rows());
        assert!((share - 0.5).abs() < 1e-12);
        assert_eq!(d.missing_rate(), 0.0);
        assert_eq!(d.rows_with_missing(), 0.0);
    }

    #[test]
    fn stratified_halves_preserve_distribution() {
        let d = heart();
        let (a, b) = d.stratified_halves(42);
        assert_eq!(a.len() + b.len(), 6);
        // Each half holds half of each class basket (sizes 3 -> 2+1).
        let ca = d.class_counts(&a);
        let cb = d.class_counts(&b);
        for c in 0..2 {
            assert!(ca[c].abs_diff(cb[c]) <= 1, "class {c}: {ca:?} vs {cb:?}");
        }
        // Disjoint and covering.
        let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, d.all_rows());
    }

    #[test]
    fn folds_partition_rows() {
        let d = heart();
        let folds = d.folds(&d.all_rows(), 3, 7);
        assert_eq!(folds.len(), 3);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, d.all_rows());
        for f in &folds {
            assert_eq!(f.len(), 2);
        }
    }

    #[test]
    fn value_reads_back_every_cell() {
        assert_stores_exactly(&heart(), &heart_cells());
        // Missing cells, negative zero and the extremes of both stores.
        let cells = vec![
            vec![
                AttrValue::Num(-0.0),
                AttrValue::Missing,
                AttrValue::Num(f64::INFINITY),
                AttrValue::Num(f64::MIN_POSITIVE),
            ],
            vec![
                AttrValue::Missing,
                AttrValue::Cat(0),
                AttrValue::Cat(u16::MAX - 1),
                AttrValue::Missing,
            ],
        ];
        let d = Dataset::new(
            vec![
                Attribute::Numeric { name: "x".into() },
                Attribute::Categorical {
                    name: "c".into(),
                    values: vec!["a".into(), "b".into()],
                },
            ],
            cells.clone(),
            vec![0; 4],
            vec!["a".into()],
        );
        assert_stores_exactly(&d, &cells);
        assert_eq!(d.missing_rate(), 3.0 / 8.0);
        assert_eq!(d.rows_with_missing(), 3.0 / 4.0);
    }

    /// A one-column dataset of `cells` under `attribute`.
    fn one_column(attribute: Attribute, cells: Vec<AttrValue>) -> Dataset {
        let n = cells.len();
        Dataset::new(vec![attribute], vec![cells], vec![0; n], vec!["a".into()])
    }

    fn numeric() -> Attribute {
        Attribute::Numeric { name: "x".into() }
    }

    fn categorical() -> Attribute {
        Attribute::Categorical {
            name: "c".into(),
            values: vec!["a".into(), "b".into()],
        }
    }

    #[test]
    #[should_panic(expected = "column 0 (x) row 1: cannot store Cat(1) in a numeric column")]
    fn a_code_in_a_numeric_column_is_rejected() {
        one_column(numeric(), vec![AttrValue::Num(1.0), AttrValue::Cat(1)]);
    }

    #[test]
    #[should_panic(expected = "column 0 (c) row 2: cannot store Num(1.0) in a categorical column")]
    fn a_number_in_a_categorical_column_is_rejected() {
        let cells = vec![AttrValue::Cat(0), AttrValue::Missing, AttrValue::Num(1.0)];
        one_column(categorical(), cells);
    }

    #[test]
    #[should_panic(expected = "column 0 (x) row 0: cannot store Num(NaN) in a numeric column")]
    fn nan_is_rejected() {
        one_column(numeric(), vec![AttrValue::Num(f64::NAN)]);
    }

    #[test]
    #[should_panic(
        expected = "column 1 (c) row 1: cannot store Cat(65535) in a categorical column"
    )]
    fn the_missing_code_is_rejected() {
        Dataset::new(
            vec![numeric(), categorical()],
            vec![
                vec![AttrValue::Num(0.0); 2],
                vec![AttrValue::Cat(1), AttrValue::Cat(u16::MAX)],
            ],
            vec![0, 0],
            vec!["a".into()],
        );
    }

    #[test]
    fn the_index_is_built_once_and_shared() {
        let data = Arc::new(heart());
        let clone = Arc::clone(&data);
        let start = std::sync::Barrier::new(4);
        // Four threads race the first call.
        let seen: Vec<Arc<ColumnarIndex>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        Arc::clone(data.index())
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for index in &seen {
            assert!(Arc::ptr_eq(index, clone.index()));
        }
        // A copy of the dataset shares the built index.
        assert!(Arc::ptr_eq((*data).clone().index(), data.index()));
        assert_eq!(data.index().n_rows(), data.len());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_columns_rejected() {
        Dataset::new(
            vec![Attribute::Numeric { name: "x".into() }],
            vec![vec![AttrValue::Num(1.0)]],
            vec![0, 0],
            vec!["a".into()],
        );
    }
}
