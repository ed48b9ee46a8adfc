//! Negative fixture: a public API transitively reaches an unannotated
//! panic in library code; the `panic` rule blocks it at the site.

fn first_value(values: &[f64]) -> f64 {
    values.first().copied().unwrap()
}

fn summarize(values: &[f64]) -> f64 {
    first_value(values) / values.len() as f64
}

pub fn normalized_head(values: &[f64]) -> f64 {
    summarize(values)
}
