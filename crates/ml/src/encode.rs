//! Table → feature-matrix encoding.
//!
//! The paper trains scikit-learn models, which need complete numeric
//! matrices. This module provides the equivalent preparation: numeric
//! columns are standardised (nulls and non-numeric cells fall back to the
//! training mean — mean imputation at the model boundary), categorical
//! columns are one-hot encoded over their top categories (unknowns map to
//! the all-zero vector). Fitting happens on training data only; the same
//! transform is then applied to any compatible table.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use rein_data::{Table, Value};

use crate::linalg::Matrix;

/// Maximum number of one-hot categories per column; rarer values share the
/// all-zero "other" encoding. Keeps width bounded on high-cardinality text.
pub const MAX_ONE_HOT: usize = 20;

/// Class id of a null cell (nulls are never a category).
const NULL_CLASS: u32 = u32::MAX;

/// The numeric view of one cell.
#[derive(Debug, Clone, Copy)]
enum Number {
    Null,
    /// `Value::as_f64` succeeded.
    Parsed(f64),
    /// Non-null but not numeric.
    Text,
}

/// The interned [`Value::as_key`] strings of one column.
#[derive(Debug, Default)]
struct Keys<'a> {
    /// Per source table and row: the cell's key id.
    ids: Vec<Vec<u32>>,
    /// The distinct key strings, sorted; a key's id is its position.
    spellings: Vec<Cow<'a, str>>,
    /// Whether every non-null cell is a `Value::Str`. Then key order is
    /// value order, and a cell's key id is its value class.
    all_str: bool,
}

impl Keys<'_> {
    fn id_of(&self, key: &str) -> Option<u32> {
        self.spellings.binary_search_by(|s| s.as_ref().cmp(key)).ok().map(|id| id as u32)
    }
}

/// The value classes of one column: cells equal under `Value`'s `Eq`
/// share a class, and classes are numbered in `Value` order.
#[derive(Debug, Default)]
struct Classes {
    /// Per source table and row: the cell's class; nulls are
    /// [`NULL_CLASS`].
    ids: Vec<Vec<u32>>,
    count: usize,
}

/// One feature column across the source tables, parsed on first use.
#[derive(Debug, Default)]
struct ParsedColumn<'a> {
    numbers: OnceLock<Vec<Vec<Number>>>,
    keys: OnceLock<Keys<'a>>,
    classes: OnceLock<Classes>,
}

/// The feature columns of one or more source tables, parsed once so an
/// [`Encoder`] can be fit and applied over many row views (a source table
/// plus row indices, in model order) without cloning tables or re-parsing
/// cells. Each column's numeric view, interned keys and value classes are
/// computed on first use.
#[derive(Debug)]
pub struct ParsedTables<'a> {
    tables: Vec<&'a Table>,
    feature_cols: Vec<usize>,
    columns: Vec<ParsedColumn<'a>>,
}

impl<'a> ParsedTables<'a> {
    /// Parses the `feature_cols` of `tables`; row views then name a table
    /// by its position here.
    pub fn new(tables: &[&'a Table], feature_cols: &[usize]) -> Self {
        Self {
            tables: tables.to_vec(),
            feature_cols: feature_cols.to_vec(),
            columns: feature_cols.iter().map(|_| ParsedColumn::default()).collect(),
        }
    }

    fn cells(&self, i: usize) -> impl Iterator<Item = &'a [Value]> + '_ {
        let c = self.feature_cols[i];
        self.tables.iter().map(move |t| t.column(c))
    }

    fn numbers(&self, i: usize) -> &[Vec<Number>] {
        self.columns[i].numbers.get_or_init(|| {
            self.cells(i)
                .map(|col| {
                    col.iter()
                        .map(|v| match v.as_f64() {
                            Some(x) => Number::Parsed(x),
                            None if v.is_null() => Number::Null,
                            None => Number::Text,
                        })
                        .collect()
                })
                .collect()
        })
    }

    fn keys(&self, i: usize) -> &Keys<'a> {
        self.columns[i].keys.get_or_init(|| {
            let mut all_str = true;
            let mut cells: Vec<(Cow<'a, str>, u32, u32)> = Vec::new();
            let mut ids = Vec::new();
            for (source, col) in self.cells(i).enumerate() {
                ids.push(vec![0; col.len()]);
                for (row, v) in col.iter().enumerate() {
                    all_str &= matches!(v, Value::Str(_) | Value::Null);
                    cells.push((v.as_key(), source as u32, row as u32));
                }
            }
            cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let mut spellings: Vec<Cow<'a, str>> = Vec::new();
            for (key, source, row) in cells {
                if spellings.last() != Some(&key) {
                    spellings.push(key);
                }
                ids[source as usize][row as usize] = (spellings.len() - 1) as u32;
            }
            Keys { ids, spellings, all_str }
        })
    }

    fn classes(&self, i: usize) -> &Classes {
        self.columns[i].classes.get_or_init(|| {
            let keys = self.keys(i);
            if keys.all_str {
                let ids = self
                    .cells(i)
                    .zip(&keys.ids)
                    .map(|(col, ids)| {
                        col.iter()
                            .zip(ids)
                            .map(|(v, &key)| if v.is_null() { NULL_CLASS } else { key })
                            .collect()
                    })
                    .collect();
                return Classes { ids, count: keys.spellings.len() };
            }
            let mut order: BTreeMap<&Value, u32> = BTreeMap::new();
            for col in self.cells(i) {
                for v in col.iter().filter(|v| !v.is_null()) {
                    order.insert(v, 0);
                }
            }
            for (rank, id) in order.values_mut().enumerate() {
                *id = rank as u32;
            }
            let ids = self
                .cells(i)
                .map(|col| {
                    col.iter().map(|v| if v.is_null() { NULL_CLASS } else { order[v] }).collect()
                })
                .collect();
            Classes { ids, count: order.len() }
        })
    }
}

#[derive(Debug, Clone)]
enum ColumnPlan {
    Numeric { mean: f64, std: f64 },
    OneHot { categories: Vec<String> },
}

/// A fitted feature encoder.
#[derive(Debug, Clone)]
pub struct Encoder {
    feature_cols: Vec<usize>,
    plans: Vec<ColumnPlan>,
    width: usize,
}

impl Encoder {
    /// Fits an encoder on `table`, using the given feature columns.
    ///
    /// A column is treated as numeric when the majority of its non-null
    /// values convert to `f64` (so typo-shifted numeric columns still
    /// encode numerically, with the typo cells mean-imputed).
    pub fn fit(table: &Table, feature_cols: &[usize]) -> Self {
        let rows: Vec<usize> = (0..table.n_rows()).collect();
        Self::fit_rows(&ParsedTables::new(&[table], feature_cols), 0, &rows)
    }

    /// Fits an encoder on the row view `rows` of source table `source` —
    /// exactly [`Encoder::fit`] on `table.select_rows(rows)`. Numeric
    /// statistics sum in view order; one-hot categories rank by count,
    /// then `Value` order, and each is spelled as its first occurrence in
    /// the view.
    pub fn fit_rows(parsed: &ParsedTables<'_>, source: usize, rows: &[usize]) -> Self {
        let mut plans = Vec::with_capacity(parsed.feature_cols.len());
        let mut width = 0;
        let mut xs = Vec::with_capacity(rows.len());
        for i in 0..parsed.feature_cols.len() {
            let numbers = &parsed.numbers(i)[source];
            xs.clear();
            let mut non_null = 0;
            for &r in rows {
                match numbers[r] {
                    Number::Null => {}
                    Number::Parsed(x) => {
                        non_null += 1;
                        xs.push(x);
                    }
                    Number::Text => non_null += 1,
                }
            }
            // Numeric when a majority of the non-null cells parse, so
            // `xs` is never empty here.
            if non_null > 0 && xs.len() * 2 >= non_null {
                let mean = xs.iter().sum::<f64>() / xs.len() as f64;
                let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
                plans.push(ColumnPlan::Numeric { mean, std: var.sqrt().max(1e-9) });
                width += 1;
            } else {
                let classes = parsed.classes(i);
                let keys = parsed.keys(i);
                // (count, key of the first occurrence) per class.
                let mut seen: Vec<(usize, u32)> = vec![(0, 0); classes.count];
                for &r in rows {
                    let class = classes.ids[source][r];
                    if class != NULL_CLASS {
                        let entry = &mut seen[class as usize];
                        if entry.0 == 0 {
                            entry.1 = keys.ids[source][r];
                        }
                        entry.0 += 1;
                    }
                }
                let mut ranked: Vec<(usize, u32)> = seen.into_iter().filter(|s| s.0 > 0).collect();
                // Stable: equal counts keep class (`Value`) order.
                ranked.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
                let categories: Vec<String> = ranked
                    .into_iter()
                    .take(MAX_ONE_HOT)
                    .map(|(_, key)| keys.spellings[key as usize].clone().into_owned())
                    .collect();
                width += categories.len();
                plans.push(ColumnPlan::OneHot { categories });
            }
        }
        Self { feature_cols: parsed.feature_cols.clone(), plans, width }
    }

    /// Encoded feature width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Encodes a whole table into a feature matrix (one row per table row).
    pub fn transform(&self, table: &Table) -> Matrix {
        let rows: Vec<usize> = (0..table.n_rows()).collect();
        self.transform_rows(&ParsedTables::new(&[table], &self.feature_cols), 0, &rows)
    }

    /// Encodes the row view `rows` of source table `source`, one matrix row
    /// per view row — exactly [`Encoder::transform`] on
    /// `table.select_rows(rows)`. `parsed` must cover this encoder's
    /// feature columns.
    pub fn transform_rows(
        &self,
        parsed: &ParsedTables<'_>,
        source: usize,
        rows: &[usize],
    ) -> Matrix {
        assert_eq!(
            parsed.feature_cols, self.feature_cols,
            "parsed columns differ from the encoder's"
        );
        let mut m = Matrix::zeros(rows.len(), self.width);
        let mut pos = 0;
        for (i, plan) in self.plans.iter().enumerate() {
            match plan {
                ColumnPlan::Numeric { mean, std } => {
                    let numbers = &parsed.numbers(i)[source];
                    for (out, &r) in rows.iter().enumerate() {
                        let v = match numbers[r] {
                            Number::Parsed(x) => x,
                            Number::Null | Number::Text => *mean,
                        };
                        m[(out, pos)] = (v - mean) / std;
                    }
                    pos += 1;
                }
                ColumnPlan::OneHot { categories } => {
                    let keys = parsed.keys(i);
                    let ids = &keys.ids[source];
                    let category_ids: Vec<Option<u32>> =
                        categories.iter().map(|c| keys.id_of(c)).collect();
                    for (out, &r) in rows.iter().enumerate() {
                        let key = Some(ids[r]);
                        for (j, &cat) in category_ids.iter().enumerate() {
                            if key == cat {
                                m[(out, pos + j)] = 1.0;
                            }
                        }
                    }
                    pos += categories.len();
                }
            }
        }
        m
    }
}

/// A fitted label map for classification targets.
#[derive(Debug, Clone, Default)]
pub struct LabelMap {
    classes: Vec<String>,
    index: BTreeMap<String, usize>,
}

impl LabelMap {
    /// Fits a label map over the non-null values of `col` in the given
    /// tables (fit it over every data version so dirty/clean labels share
    /// ids).
    pub fn fit<'a>(tables: impl IntoIterator<Item = &'a Table>, col: usize) -> Self {
        let mut map = LabelMap::default();
        for t in tables {
            for v in t.column(col) {
                if v.is_null() {
                    continue;
                }
                let key = v.as_key().into_owned();
                if !map.index.contains_key(&key) {
                    map.index.insert(key.clone(), map.classes.len());
                    map.classes.push(key);
                }
            }
        }
        map
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Class id of a value, if known.
    pub fn id_of(&self, v: &Value) -> Option<usize> {
        self.index.get(v.as_key().as_ref()).copied()
    }

    /// Class name of an id.
    pub fn name_of(&self, id: usize) -> &str {
        &self.classes[id]
    }

    /// Encodes the label column: `(row_indices_kept, class_ids)`; rows whose
    /// label is null or unknown are dropped.
    pub fn encode(&self, table: &Table, col: usize) -> (Vec<usize>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for r in 0..table.n_rows() {
            if let Some(id) = self.id_of(table.cell(r, col)) {
                rows.push(r);
                ys.push(id);
            }
        }
        (rows, ys)
    }
}

/// Extracts a regression target: `(row_indices_kept, values)`; rows with a
/// non-numeric target are dropped.
pub fn regression_target(table: &Table, col: usize) -> (Vec<usize>, Vec<f64>) {
    let mut rows = Vec::new();
    let mut ys = Vec::new();
    for r in 0..table.n_rows() {
        if let Some(y) = table.cell(r, col).as_f64() {
            rows.push(r);
            ys.push(y);
        }
    }
    (rows, ys)
}

/// Selects a subset of matrix rows (for aligning features with kept labels).
pub fn select_matrix_rows(m: &Matrix, rows: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), m.cols());
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(m.row(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::{ColumnMeta, ColumnType, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("num", ColumnType::Float),
            ColumnMeta::new("cat", ColumnType::Str),
            ColumnMeta::new("y", ColumnType::Str).label(),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::Float(1.0), Value::str("a"), Value::str("pos")],
                vec![Value::Float(2.0), Value::str("b"), Value::str("neg")],
                vec![Value::Float(3.0), Value::str("a"), Value::str("pos")],
                vec![Value::Float(4.0), Value::str("c"), Value::str("neg")],
            ],
        )
    }

    #[test]
    fn numeric_columns_standardise() {
        let t = table();
        let enc = Encoder::fit(&t, &[0]);
        let m = enc.transform(&t);
        assert_eq!(m.cols(), 1);
        let mean: f64 = (0..4).map(|r| m[(r, 0)]).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        let var: f64 = (0..4).map(|r| m[(r, 0)].powi(2)).sum::<f64>() / 4.0;
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn categorical_columns_one_hot() {
        let t = table();
        let enc = Encoder::fit(&t, &[1]);
        let m = enc.transform(&t);
        assert_eq!(m.cols(), 3); // a, b, c
        for r in 0..4 {
            let s: f64 = m.row(r).iter().sum();
            assert_eq!(s, 1.0, "one-hot row sums to 1");
        }
        // Rows 0 and 2 share the "a" category.
        assert_eq!(m.row(0), m.row(2));
    }

    #[test]
    fn nulls_impute_to_training_mean() {
        let mut t = table();
        t.set_cell(0, 0, Value::Null);
        let enc = Encoder::fit(&t, &[0]);
        let m = enc.transform(&t);
        // Mean imputation -> standardised 0.
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn unknown_categories_encode_to_zero_vector() {
        let t = table();
        let enc = Encoder::fit(&t, &[1]);
        let mut t2 = t.clone();
        t2.set_cell(0, 1, Value::str("NEW"));
        let m = enc.transform(&t2);
        assert!(m.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn typo_shifted_numeric_column_stays_numeric() {
        let mut t = table();
        t.set_cell(0, 0, Value::str("1.o")); // typo
        let enc = Encoder::fit(&t, &[0]);
        let m = enc.transform(&t);
        assert_eq!(m.cols(), 1);
        assert!(m.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn label_map_roundtrip() {
        let t = table();
        let lm = LabelMap::fit([&t], 2);
        assert_eq!(lm.n_classes(), 2);
        let (rows, ys) = lm.encode(&t, 2);
        assert_eq!(rows, vec![0, 1, 2, 3]);
        assert_eq!(lm.name_of(ys[0]), "pos");
        assert_eq!(lm.name_of(ys[1]), "neg");
    }

    #[test]
    fn label_encode_drops_null_labels() {
        let mut t = table();
        t.set_cell(1, 2, Value::Null);
        let lm = LabelMap::fit([&t], 2);
        let (rows, _) = lm.encode(&t, 2);
        assert_eq!(rows, vec![0, 2, 3]);
    }

    #[test]
    fn regression_target_drops_non_numeric() {
        let schema = Schema::new(vec![ColumnMeta::new("y", ColumnType::Float).label()]);
        let t = Table::from_rows(
            schema,
            vec![vec![Value::Float(1.5)], vec![Value::str("bad")], vec![Value::Float(2.5)]],
        );
        let (rows, ys) = regression_target(&t, 0);
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(ys, vec![1.5, 2.5]);
    }

    #[test]
    fn select_matrix_rows_aligns() {
        let t = table();
        let enc = Encoder::fit(&t, &[0, 1]);
        let m = enc.transform(&t);
        let sub = select_matrix_rows(&m, &[2, 0]);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.row(0), m.row(2));
        assert_eq!(sub.row(1), m.row(0));
    }

    #[test]
    fn high_cardinality_capped() {
        let schema = Schema::new(vec![ColumnMeta::new("c", ColumnType::Str)]);
        let t = Table::from_rows(
            schema,
            (0..100).map(|i| vec![Value::str(format!("cat{i}"))]).collect(),
        );
        let enc = Encoder::fit(&t, &[0]);
        assert_eq!(enc.width(), MAX_ONE_HOT);
    }
}
