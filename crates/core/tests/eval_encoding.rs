//! The evaluation layer encodes row views of tables parsed once per call.
//! These tests pin that path bit for bit to materialise-then-encode:
//! select the split's rows into fresh tables, fit the table encoder on the
//! training table, encode both tables and keep the labelled rows. The
//! table encoder is reproduced in `reference` as it stood before row views
//! existed, so the wrappers `Encoder::fit` / `Encoder::transform` are
//! checked against it too.

use rein_core::{scenario_split, Scenario, SplitRows, VersionRole, VersionTable};
use rein_data::{ColumnMeta, ColumnType, Schema, Table, Value};
use rein_datasets::{DatasetId, GeneratedDataset, Params};
use rein_ml::encode::{regression_target, select_matrix_rows, Encoder, LabelMap, ParsedTables};
use rein_ml::linalg::Matrix;

mod reference {
    use rein_data::{Table, Value};
    use rein_ml::encode::MAX_ONE_HOT;
    use rein_ml::linalg::Matrix;

    enum Plan {
        Numeric { mean: f64, std: f64 },
        OneHot { categories: Vec<String> },
    }

    /// Fits on `train`, then encodes every table in `tables`.
    pub fn encode(train: &Table, cols: &[usize], tables: &[&Table]) -> Vec<Matrix> {
        let mut plans = Vec::new();
        for &c in cols {
            let non_null: Vec<&Value> = train.column(c).iter().filter(|v| !v.is_null()).collect();
            let numeric = non_null.iter().filter(|v| v.as_f64().is_some()).count();
            if !non_null.is_empty() && numeric * 2 >= non_null.len() {
                let xs = train.numeric_values(c);
                let mean =
                    if xs.is_empty() { 0.0 } else { xs.iter().sum::<f64>() / xs.len() as f64 };
                let var = if xs.is_empty() {
                    1.0
                } else {
                    xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64
                };
                plans.push(Plan::Numeric { mean, std: var.sqrt().max(1e-9) });
            } else {
                let categories = train
                    .value_counts(c)
                    .into_iter()
                    .take(MAX_ONE_HOT)
                    .map(|(v, _)| v.as_key().into_owned())
                    .collect();
                plans.push(Plan::OneHot { categories });
            }
        }
        let width: usize = plans
            .iter()
            .map(|p| match p {
                Plan::Numeric { .. } => 1,
                Plan::OneHot { categories } => categories.len(),
            })
            .sum();
        tables
            .iter()
            .map(|t| {
                let mut m = Matrix::zeros(t.n_rows(), width);
                for r in 0..t.n_rows() {
                    let out = m.row_mut(r);
                    let mut pos = 0;
                    for (&c, plan) in cols.iter().zip(&plans) {
                        match plan {
                            Plan::Numeric { mean, std } => {
                                let v = t.cell(r, c).as_f64().unwrap_or(*mean);
                                out[pos] = (v - mean) / std;
                                pos += 1;
                            }
                            Plan::OneHot { categories } => {
                                let key = t.cell(r, c).as_key();
                                for (i, cat) in categories.iter().enumerate() {
                                    out[pos + i] = if key.as_ref() == cat { 1.0 } else { 0.0 };
                                }
                                pos += categories.len();
                            }
                        }
                    }
                }
                m
            })
            .collect()
    }
}

fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
    (m.rows(), m.cols(), m.as_slice().iter().map(|v| v.to_bits()).collect())
}

/// The dirty table plus re-appended copies of some of its rows, mapped
/// past the clean rows (injected duplicates, which always train).
fn with_duplicates(ds: &GeneratedDataset) -> VersionTable {
    let picks = [3, 0, 7, 3, 11];
    let table = ds.dirty.vstack(&ds.dirty.select_rows(&picks));
    let base = ds.dirty.n_rows().max(ds.clean.n_rows());
    let row_map = (0..ds.dirty.n_rows()).chain((0..picks.len()).map(|k| base + k)).collect();
    VersionTable { table, row_map }
}

/// Compares the row-view path with materialise-then-encode on every
/// scenario and a few seeds; `target` keeps the labelled rows of a table.
fn check_dataset(
    ds: &GeneratedDataset,
    version: &VersionTable,
    target: impl Fn(&Table) -> Vec<usize>,
    target_of: impl Fn(&Table, usize) -> bool,
) -> usize {
    let cols = ds.clean.schema().feature_indices();
    let sources = [&ds.clean, &version.table];
    let parsed = ParsedTables::new(&sources, &cols);
    let mut ground_truth_train_sides = 0;
    for scenario in Scenario::ALL {
        for seed in 0..4 {
            let split = scenario_split(scenario, ds, version, 0.25, seed);
            if split.train.role == VersionRole::GroundTruth {
                // Ground-truth rows come in the split's shuffled order.
                let shuffled = split.train.rows.windows(2).any(|w| w[0] > w[1]);
                assert!(shuffled, "{scenario:?} seed {seed}: ground-truth train rows are sorted");
                ground_truth_train_sides += 1;
            }
            let (tr_src, te_src) = (split.train.source(), split.test.source());
            let train = sources[tr_src].select_rows(&split.train.rows);
            let test = sources[te_src].select_rows(&split.test.rows);
            let reference = reference::encode(&train, &cols, &[&train, &test]);
            let (tr_keep, te_keep) = (target(&train), target(&test));
            let want_tr = select_matrix_rows(&reference[0], &tr_keep);
            let want_te = select_matrix_rows(&reference[1], &te_keep);

            let encoder = Encoder::fit_rows(&parsed, tr_src, &split.train.rows);
            let kept = |side: &SplitRows, src: usize| -> Vec<usize> {
                side.rows.iter().copied().filter(|&r| target_of(sources[src], r)).collect()
            };
            let got_tr = encoder.transform_rows(&parsed, tr_src, &kept(&split.train, tr_src));
            let got_te = encoder.transform_rows(&parsed, te_src, &kept(&split.test, te_src));
            assert_eq!(bits(&got_tr), bits(&want_tr), "{scenario:?} seed {seed}: train matrix");
            assert_eq!(bits(&got_te), bits(&want_te), "{scenario:?} seed {seed}: test matrix");

            // The table wrappers agree with the reference as well.
            let wrapped = Encoder::fit(&train, &cols);
            assert_eq!(bits(&wrapped.transform(&train)), bits(&reference[0]));
            assert_eq!(bits(&wrapped.transform(&test)), bits(&reference[1]));
        }
    }
    ground_truth_train_sides
}

fn check_classification(ds: &GeneratedDataset, version: &VersionTable) {
    let label = ds.clean.schema().label_index().unwrap();
    let labels = LabelMap::fit([&ds.clean, &version.table], label);
    let sides = check_dataset(
        ds,
        version,
        |t| labels.encode(t, label).0,
        |t, r| labels.id_of(t.cell(r, label)).is_some(),
    );
    assert!(sides > 0);
}

fn check_regression(ds: &GeneratedDataset, version: &VersionTable) {
    let label = ds.clean.schema().label_index().unwrap();
    let sides = check_dataset(
        ds,
        version,
        |t| regression_target(t, label).0,
        |t, r| t.cell(r, label).as_f64().is_some(),
    );
    assert!(sides > 0);
}

#[test]
fn beers_row_views_encode_like_materialised_tables() {
    let ds = DatasetId::Beers.generate(&Params::scaled(0.12, 7));
    check_classification(&ds, &VersionTable::identity(ds.dirty.clone()));
    check_classification(&ds, &with_duplicates(&ds));
}

#[test]
fn nasa_row_views_encode_like_materialised_tables() {
    let ds = DatasetId::Nasa.generate(&Params::scaled(0.2, 3));
    check_regression(&ds, &VersionTable::identity(ds.dirty.clone()));
    check_regression(&ds, &with_duplicates(&ds));
}

/// Categorical corner cases. `Int(3)` and `Float(3.0)` are one value
/// class spelled two ways, and the first occurrence in the view names the
/// category; `Str("3")` is another class with the same spelling, as are
/// `Bool(true)` and `Str("true")`. `Str("")` shares its key with null
/// cells, signed zeros are distinct classes, and ties in count fall back
/// to value order. Every view but the last is majority text, so the
/// column encodes one-hot there.
#[test]
fn mixed_value_columns_encode_like_materialised_tables() {
    let schema = Schema::new(vec![
        ColumnMeta::new("mixed", ColumnType::Str),
        ColumnMeta::new("num", ColumnType::Float),
    ]);
    let cells = [
        Value::Float(3.0),
        Value::str("a"),
        Value::Int(3),
        Value::Null,
        Value::str(""),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::str("b"),
        Value::Bool(true),
        Value::str("a"),
        Value::Int(1),
        Value::str("b"),
        Value::str("c"),
        Value::str("3"),
        Value::str("true"),
        Value::str("c"),
    ];
    let rows = cells
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let num = if i % 4 == 1 { Value::str("x") } else { Value::Float(i as f64 * 0.7) };
            vec![v.clone(), num]
        })
        .collect();
    let table = Table::from_rows(schema, rows);
    let other_rows = [5, 2, 0, 3, 4, 13, 14, 8];
    let other = table.select_rows(&other_rows);
    let other_view: Vec<usize> = (0..other_rows.len()).collect();
    let cols = [0, 1];
    let parsed = ParsedTables::new(&[&table, &other], &cols);
    let views: [&[usize]; 4] = [
        &[2, 0, 1, 9, 12, 13, 7],
        &[0, 2, 4, 3, 5, 6, 1, 7, 11, 15],
        &[11, 7, 10, 8, 1, 3, 14, 12, 9],
        &[6, 5, 6, 1, 1],
    ];
    for view in views {
        let train = table.select_rows(view);
        let reference = reference::encode(&train, &cols, &[&train, &other]);
        let encoder = Encoder::fit_rows(&parsed, 0, view);
        assert_eq!(bits(&encoder.transform_rows(&parsed, 0, view)), bits(&reference[0]));
        assert_eq!(bits(&encoder.transform_rows(&parsed, 1, &other_view)), bits(&reference[1]));
        let wrapped = Encoder::fit(&train, &cols);
        assert_eq!(bits(&wrapped.transform(&other)), bits(&reference[1]));
    }
}
