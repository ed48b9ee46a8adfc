//! CART decision trees (classification by Gini impurity, regression by
//! variance reduction), with optional per-node feature subsampling so the
//! same machinery drives random forests.

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::linalg::Matrix;
use crate::model::{Classifier, Regressor};

/// Tree growth limits.
#[derive(Debug, Clone)]
pub struct TreeParams {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split (`None` = all); forests set √d.
    pub max_features: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Leaf payload: class histogram (classification) or mean (regression,
    /// stored as a one-element histogram with the mean in `value`).
    Leaf {
        value: Vec<f64>,
    },
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

enum Target<'a> {
    Class { y: &'a [usize], n_classes: usize },
    Reg { y: &'a [f64] },
}

impl Target<'_> {
    /// Leaf payload for the given samples.
    fn leaf_value(&self, rows: &[usize]) -> Vec<f64> {
        match self {
            Target::Class { y, n_classes } => {
                let mut hist = vec![0.0; *n_classes];
                for &r in rows {
                    hist[y[r]] += 1.0;
                }
                let total: f64 = hist.iter().sum();
                if total > 0.0 {
                    for h in &mut hist {
                        *h /= total;
                    }
                }
                hist
            }
            Target::Reg { y } => {
                let mean = if rows.is_empty() {
                    0.0
                } else {
                    rows.iter().map(|&r| y[r]).sum::<f64>() / rows.len() as f64
                };
                vec![mean]
            }
        }
    }

    /// Impurity of a sample set (Gini or variance).
    fn impurity(&self, rows: &[usize]) -> f64 {
        match self {
            Target::Class { y, n_classes } => {
                let mut hist = vec![0usize; *n_classes];
                for &r in rows {
                    hist[y[r]] += 1;
                }
                gini(&hist, rows.len() as f64)
            }
            Target::Reg { y } => {
                if rows.is_empty() {
                    return 0.0;
                }
                let n = rows.len() as f64;
                let mean = rows.iter().map(|&r| y[r]).sum::<f64>() / n;
                rows.iter().map(|&r| (y[r] - mean).powi(2)).sum::<f64>() / n
            }
        }
    }
}

/// Gini impurity of a class histogram over `cnt` samples.
fn gini(hist: &[usize], cnt: f64) -> f64 {
    if cnt == 0.0 {
        return 0.0;
    }
    1.0 - hist.iter().map(|&h| (h as f64 / cnt).powi(2)).sum::<f64>()
}

/// Weighted child variance of a regression split candidate.
fn variance_score(left: (f64, f64), total: (f64, f64), nl: f64, nr: f64, n: f64) -> f64 {
    let (left_sum, left_sq) = left;
    let (total_sum, total_sq) = total;
    let var_l = left_sq / nl - (left_sum / nl).powi(2);
    let right_sum = total_sum - left_sum;
    let right_sq = total_sq - left_sq;
    let var_r = right_sq / nr - (right_sum / nr).powi(2);
    (nl / n) * var_l.max(0.0) + (nr / n) * var_r.max(0.0)
}

/// The running best split: `(score, imbalance, feature, threshold)`.
/// Ties on score prefer the more balanced split — on XOR-like data every
/// split has equal gain and the balanced choice keeps the tree shallow
/// enough to reach purity. Candidates must be offered in (feature list,
/// ascending position) order: the tie rule is order-dependent.
type Best = Option<(f64, f64, usize, f64)>;

fn offer(best: &mut Best, score: f64, nl: f64, nr: f64, feature: usize, threshold: f64) {
    let imbalance = (nl - nr).abs();
    let better = match *best {
        None => true,
        Some((bs, bi, _, _)) => {
            score < bs - 1e-12 || ((score - bs).abs() <= 1e-12 && imbalance < bi)
        }
    };
    if better {
        *best = Some((score, imbalance, feature, threshold));
    }
}

/// How the builder scans one feature.
#[derive(Debug, Clone, Copy)]
enum Column {
    /// Scanned through its presorted row order, list `slot` of
    /// [`Builder::order`].
    Sorted { slot: usize },
    /// At most two distinct values `lo < hi` (by `total_cmp`), neither NaN:
    /// one-hot and constant columns. Within any node its sorted order is
    /// the rows at `lo` then the rows at `hi`, each ascending, so the
    /// node's class counts at `lo` score its single candidate split.
    /// `rare_lo` says which value fewer training rows hold: classification
    /// counts only the rows at the rare value (see [`Builder::rare`]).
    TwoValued { lo: f64, hi: f64, rare_lo: bool },
}

/// Classifies a column: two-valued when it holds at most two distinct
/// bit patterns and no NaN.
fn column_kind(col: &[f64]) -> Option<(f64, f64)> {
    let first = *col.first()?;
    let mut second: Option<f64> = None;
    for &v in col {
        if v.is_nan() {
            return None;
        }
        if v.to_bits() == first.to_bits() {
            continue;
        }
        match second {
            None => second = Some(v),
            Some(s) if s.to_bits() == v.to_bits() => {}
            Some(_) => return None,
        }
    }
    let second = second.unwrap_or(first);
    Some(if first.total_cmp(&second).is_le() { (first, second) } else { (second, first) })
}

/// Stably moves the rows with `goes_left[r]` to the front of `rows`.
fn stable_partition(rows: &mut [usize], goes_left: &[bool], spill: &mut Vec<usize>) {
    spill.clear();
    let mut w = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        if goes_left[r] {
            rows[w] = r;
            w += 1;
        } else {
            spill.push(r);
        }
    }
    rows[w..].copy_from_slice(spill);
}

/// Presorted CART builder.
///
/// Each feature's row order is sorted once per fit by (`total_cmp` value,
/// row id) and stably partitioned down the tree, so a node owns the same
/// range `start..end` of every order list and of [`Builder::rows`] (its
/// rows in ascending id). Within a node, that range lists the node's rows
/// in exactly the order a per-node stable sort of its ascending rows would
/// produce, so candidates, sums and tie-breaks are visited in the same
/// order as a per-node re-sort, and the tree is identical.
struct Builder<'a> {
    target: &'a Target<'a>,
    params: &'a TreeParams,
    /// Training rows.
    n: usize,
    /// Column-major copy of `x`: feature `f` is `cols[f * n..(f + 1) * n]`.
    cols: Vec<f64>,
    kinds: Vec<Column>,
    /// The presorted row orders of the [`Column::Sorted`] features, `n`
    /// entries per slot.
    order: Vec<usize>,
    rows: Vec<usize>,
    features: Vec<usize>,
    goes_left: Vec<bool>,
    spill: Vec<usize>,
    node_hist: Vec<usize>,
    left_hist: Vec<usize>,
    right_hist: Vec<usize>,
    /// Classification only: row `r` holds the rare value of the two-valued
    /// features `rare[rare_start[r]..rare_start[r + 1]]`. One pass over a
    /// node's rows then counts every two-valued feature at once, touching
    /// only the sparse rare entries: one-hot columns are mostly zeros.
    rare_start: Vec<usize>,
    rare: Vec<usize>,
    /// Per two-valued feature `f`: node rows at the rare value, and their
    /// class histogram at `rare_hist[f * n_classes..]`.
    rare_n: Vec<usize>,
    rare_hist: Vec<usize>,
    lo_ys: Vec<f64>,
    hi_ys: Vec<f64>,
    rng: StdRng,
    nodes: Vec<Node>,
}

impl<'a> Builder<'a> {
    fn new(x: &Matrix, target: &'a Target<'a>, params: &'a TreeParams) -> Self {
        let (n, d) = (x.rows(), x.cols());
        let mut cols = vec![0.0; n * d];
        for r in 0..n {
            for (f, &v) in x.row(r).iter().enumerate() {
                cols[f * n + r] = v;
            }
        }
        let mut kinds = Vec::with_capacity(d);
        let mut order = Vec::new();
        for f in 0..d {
            let col = &cols[f * n..(f + 1) * n];
            kinds.push(match column_kind(col) {
                Some((lo, hi)) => {
                    let n_lo = col.iter().filter(|v| v.to_bits() == lo.to_bits()).count();
                    Column::TwoValued { lo, hi, rare_lo: n_lo < n - n_lo }
                }
                None => {
                    let slot = order.len() / n;
                    let from = order.len();
                    order.extend(0..n);
                    order[from..]
                        .sort_unstable_by(|&a, &b| col[a].total_cmp(&col[b]).then(a.cmp(&b)));
                    Column::Sorted { slot }
                }
            });
        }
        let n_classes = match target {
            Target::Class { n_classes, .. } => *n_classes,
            Target::Reg { .. } => 0,
        };
        let mut rare_start = vec![0];
        let mut rare = Vec::new();
        if n_classes > 0 {
            for r in 0..n {
                for (f, kind) in kinds.iter().enumerate() {
                    if let Column::TwoValued { lo, hi, rare_lo } = *kind {
                        let v = cols[f * n + r].to_bits();
                        if lo.to_bits() != hi.to_bits()
                            && v == if rare_lo { lo.to_bits() } else { hi.to_bits() }
                        {
                            rare.push(f);
                        }
                    }
                }
                rare_start.push(rare.len());
            }
        }
        Self {
            target,
            params,
            n,
            cols,
            kinds,
            order,
            rows: (0..n).collect(),
            features: Vec::with_capacity(d),
            goes_left: vec![false; n],
            spill: Vec::with_capacity(n),
            node_hist: vec![0; n_classes],
            left_hist: vec![0; n_classes],
            right_hist: vec![0; n_classes],
            rare_start,
            rare,
            rare_n: vec![0; d],
            rare_hist: vec![0; d * n_classes],
            lo_ys: Vec::new(),
            hi_ys: Vec::new(),
            rng: StdRng::seed_from_u64(params.seed),
            nodes: Vec::new(),
        }
    }

    /// Grows the subtree over the node range `start..end`, depth first
    /// (node, left subtree, right subtree), and returns its node id.
    fn build_node(&mut self, start: usize, end: usize, depth: usize) -> usize {
        rein_guard::checkpoint((end - start) as u64);
        let make_leaf =
            depth >= self.params.max_depth || end - start < self.params.min_samples_split;
        if !make_leaf {
            let d = self.kinds.len();
            let mut features = std::mem::take(&mut self.features);
            features.clear();
            features.extend(0..d);
            if let Some(k) = self.params.max_features.filter(|&k| k < d) {
                features.shuffle(&mut self.rng);
                features.truncate(k.max(1));
            }
            let split = self.best_split(start, end, &features);
            self.features = features;
            if let Some((feature, threshold, n_left)) = split {
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf { value: Vec::new() }); // placeholder
                let left = self.build_node(start, start + n_left, depth + 1);
                let right = self.build_node(start + n_left, end, depth + 1);
                self.nodes[id] = Node::Split { feature, threshold, left, right };
                return id;
            }
        }
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: self.target.leaf_value(&self.rows[start..end]) });
        id
    }

    /// Finds the best split of the node `start..end` over `features` and
    /// partitions the node's ranges around it; returns `(feature,
    /// threshold, left size)`, or `None` when the node stays a leaf.
    fn best_split(
        &mut self,
        start: usize,
        end: usize,
        features: &[usize],
    ) -> Option<(usize, f64, usize)> {
        let best = match *self.target {
            Target::Class { y, .. } => self.best_class_split(y, start, end, features),
            Target::Reg { y } => self.best_reg_split(y, start, end, features),
        };
        // Zero-gain splits are allowed (as in scikit-learn): on XOR-like
        // data no single split improves impurity, yet the children become
        // separable. Recursion still terminates because both children are
        // strictly smaller.
        let (_, _, f, threshold) = best?;
        let col = &self.cols[f * self.n..(f + 1) * self.n];
        let mut n_left = 0;
        for &r in &self.rows[start..end] {
            let left = col[r] <= threshold;
            self.goes_left[r] = left;
            n_left += usize::from(left);
        }
        if n_left == 0 || n_left == end - start {
            return None;
        }
        stable_partition(&mut self.rows[start..end], &self.goes_left, &mut self.spill);
        for slot in 0..self.order.len() / self.n {
            let base = slot * self.n;
            stable_partition(
                &mut self.order[base + start..base + end],
                &self.goes_left,
                &mut self.spill,
            );
        }
        Some((f, threshold, n_left))
    }

    /// Counts, per two-valued feature, the node's rows at the rare value
    /// and their classes.
    fn count_rare(&mut self, y: &[usize], start: usize, end: usize) {
        let k = self.node_hist.len();
        self.rare_n.fill(0);
        self.rare_hist.fill(0);
        for &r in &self.rows[start..end] {
            for &f in &self.rare[self.rare_start[r]..self.rare_start[r + 1]] {
                self.rare_n[f] += 1;
                self.rare_hist[f * k + y[r]] += 1;
            }
        }
    }

    fn best_class_split(
        &mut self,
        y: &[usize],
        start: usize,
        end: usize,
        features: &[usize],
    ) -> Best {
        let len = end - start;
        let n = len as f64;
        let min_leaf = self.params.min_samples_leaf;
        self.node_hist.fill(0);
        for &r in &self.rows[start..end] {
            self.node_hist[y[r]] += 1;
        }
        if gini(&self.node_hist, n) <= 1e-12 {
            return None;
        }
        self.count_rare(y, start, end);
        let k = self.node_hist.len();
        let mut best: Best = None;
        for &f in features {
            let col = &self.cols[f * self.n..(f + 1) * self.n];
            match self.kinds[f] {
                Column::Sorted { slot } => {
                    let base = slot * self.n;
                    let sorted = &self.order[base + start..base + end];
                    if col[sorted[0]] == col[sorted[len - 1]] {
                        continue; // constant in this node: no candidate
                    }
                    self.left_hist.fill(0);
                    self.right_hist.copy_from_slice(&self.node_hist);
                    for i in 0..len - 1 {
                        let r = sorted[i];
                        self.left_hist[y[r]] += 1;
                        self.right_hist[y[r]] -= 1;
                        if (i + 1) < min_leaf || (len - i - 1) < min_leaf {
                            continue;
                        }
                        let v_here = col[r];
                        let v_next = col[sorted[i + 1]];
                        if v_here == v_next {
                            continue;
                        }
                        let nl = (i + 1) as f64;
                        let nr = n - nl;
                        let score = (nl / n) * gini(&self.left_hist, nl)
                            + (nr / n) * gini(&self.right_hist, nr);
                        offer(&mut best, score, nl, nr, f, (v_here + v_next) / 2.0);
                    }
                }
                Column::TwoValued { lo, hi, rare_lo } => {
                    let rare_hist = &self.rare_hist[f * k..(f + 1) * k];
                    let n_lo = if rare_lo {
                        self.left_hist.copy_from_slice(rare_hist);
                        self.rare_n[f]
                    } else {
                        for (left, (&all, &rare)) in
                            self.left_hist.iter_mut().zip(self.node_hist.iter().zip(rare_hist))
                        {
                            *left = all - rare;
                        }
                        len - self.rare_n[f]
                    };
                    if n_lo == 0
                        || n_lo == len
                        || n_lo < min_leaf
                        || len - n_lo < min_leaf
                        || lo == hi
                    {
                        continue;
                    }
                    for (right, (&all, &left)) in
                        self.right_hist.iter_mut().zip(self.node_hist.iter().zip(&self.left_hist))
                    {
                        *right = all - left;
                    }
                    let nl = n_lo as f64;
                    let nr = n - nl;
                    let score = (nl / n) * gini(&self.left_hist, nl)
                        + (nr / n) * gini(&self.right_hist, nr);
                    offer(&mut best, score, nl, nr, f, (lo + hi) / 2.0);
                }
            }
        }
        best
    }

    fn best_reg_split(&mut self, y: &[f64], start: usize, end: usize, features: &[usize]) -> Best {
        let rows = &self.rows[start..end];
        let len = rows.len();
        let n = len as f64;
        let min_leaf = self.params.min_samples_leaf;
        if self.target.impurity(rows) <= 1e-12 {
            return None;
        }
        let mut best: Best = None;
        for &f in features {
            let col = &self.cols[f * self.n..(f + 1) * self.n];
            match self.kinds[f] {
                Column::Sorted { slot } => {
                    let base = slot * self.n;
                    let sorted = &self.order[base + start..base + end];
                    if col[sorted[0]] == col[sorted[len - 1]] {
                        continue; // constant in this node: no candidate
                    }
                    let total_sum: f64 = sorted.iter().map(|&r| y[r]).sum();
                    let total_sq: f64 = sorted.iter().map(|&r| y[r] * y[r]).sum();
                    let mut left_sum = 0.0;
                    let mut left_sq = 0.0;
                    for i in 0..len - 1 {
                        let r = sorted[i];
                        left_sum += y[r];
                        left_sq += y[r] * y[r];
                        if (i + 1) < min_leaf || (len - i - 1) < min_leaf {
                            continue;
                        }
                        let v_here = col[r];
                        let v_next = col[sorted[i + 1]];
                        if v_here == v_next {
                            continue;
                        }
                        let nl = (i + 1) as f64;
                        let nr = n - nl;
                        let score =
                            variance_score((left_sum, left_sq), (total_sum, total_sq), nl, nr, n);
                        offer(&mut best, score, nl, nr, f, (v_here + v_next) / 2.0);
                    }
                }
                Column::TwoValued { lo, hi, .. } => {
                    self.lo_ys.clear();
                    self.hi_ys.clear();
                    for &r in rows {
                        if col[r].to_bits() == lo.to_bits() {
                            self.lo_ys.push(y[r]);
                        } else {
                            self.hi_ys.push(y[r]);
                        }
                    }
                    let n_lo = self.lo_ys.len();
                    if n_lo == 0
                        || n_lo == len
                        || n_lo < min_leaf
                        || len - n_lo < min_leaf
                        || lo == hi
                    {
                        continue;
                    }
                    // Sums run in the node's sorted order: `lo` rows, then
                    // `hi` rows.
                    let sorted_ys = || self.lo_ys.iter().chain(&self.hi_ys);
                    let total_sum: f64 = sorted_ys().sum();
                    let total_sq: f64 = sorted_ys().map(|&v| v * v).sum();
                    let mut left_sum = 0.0;
                    let mut left_sq = 0.0;
                    for &v in &self.lo_ys {
                        left_sum += v;
                        left_sq += v * v;
                    }
                    let nl = n_lo as f64;
                    let nr = n - nl;
                    let score =
                        variance_score((left_sum, left_sq), (total_sum, total_sq), nl, nr, n);
                    offer(&mut best, score, nl, nr, f, (lo + hi) / 2.0);
                }
            }
        }
        best
    }
}

fn build_tree(x: &Matrix, target: &Target<'_>, params: &TreeParams) -> Tree {
    let mut builder = Builder::new(x, target, params);
    builder.build_node(0, x.rows(), 0);
    Tree { nodes: builder.nodes }
}

impl Tree {
    fn leaf_of(&self, xr: &[f64]) -> &[f64] {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Split { feature, threshold, left, right } => {
                    node = if xr[*feature] <= *threshold { *left } else { *right };
                }
                Node::Leaf { value } => return value,
            }
        }
    }
}

/// CART classifier.
#[derive(Debug, Clone)]
pub struct DecisionTreeClassifier {
    params: TreeParams,
    tree: Option<Tree>,
    n_classes: usize,
}

impl DecisionTreeClassifier {
    /// Builds an (unfitted) tree classifier.
    pub fn new(params: TreeParams) -> Self {
        Self { params, tree: None, n_classes: 0 }
    }

    /// Class-probability row for one sample (exposed for boosting/forests).
    pub fn proba_row(&self, xr: &[f64]) -> Vec<f64> {
        match &self.tree {
            Some(t) => t.leaf_of(xr).to_vec(),
            None => vec![0.0; self.n_classes],
        }
    }
}

impl Classifier for DecisionTreeClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        assert_eq!(x.rows(), y.len());
        self.n_classes = n_classes.max(1);
        if x.rows() == 0 {
            self.tree = Some(Tree { nodes: vec![Node::Leaf { value: vec![0.0; self.n_classes] }] });
            return;
        }
        let target = Target::Class { y, n_classes: self.n_classes };
        self.tree = Some(build_tree(x, &target, &self.params));
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        (0..x.rows()).map(|r| crate::linalg::argmax(&self.proba_row(x.row(r)))).collect()
    }

    fn predict_proba(&self, x: &Matrix, n_classes: usize) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), n_classes);
        for r in 0..x.rows() {
            let p = self.proba_row(x.row(r));
            let w = p.len().min(n_classes);
            out.row_mut(r)[..w].copy_from_slice(&p[..w]);
        }
        out
    }
}

/// CART regressor.
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    params: TreeParams,
    tree: Option<Tree>,
}

impl DecisionTreeRegressor {
    /// Builds an (unfitted) tree regressor.
    pub fn new(params: TreeParams) -> Self {
        Self { params, tree: None }
    }
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        assert_eq!(x.rows(), y.len());
        if x.rows() == 0 {
            self.tree = Some(Tree { nodes: vec![Node::Leaf { value: vec![0.0] }] });
            return;
        }
        let target = Target::Reg { y };
        self.tree = Some(build_tree(x, &target, &self.params));
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|r| self.tree.as_ref().map_or(0.0, |t| t.leaf_of(x.row(r))[0])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        blob_classification, linear_regression_data, train_test_accuracy, train_test_rmse,
    };

    #[test]
    fn classifier_learns_blobs() {
        let (x, y) = blob_classification(150, 3, 41);
        let mut m = DecisionTreeClassifier::new(TreeParams::default());
        let acc = train_test_accuracy(&mut m, &x, &y, 3);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn classifier_fits_xor_which_linear_models_cannot() {
        // XOR pattern with random jitter: needs at least depth 2; no single
        // split has positive gain, exercising the zero-gain/balance logic.
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..200 {
            let a = (i / 2) % 2;
            let b = i % 2;
            rows.push(vec![
                a as f64 + rng.random_range(-0.05..0.05),
                b as f64 + rng.random_range(-0.05..0.05),
            ]);
            ys.push(a ^ b);
        }
        let x = Matrix::from_rows(&rows);
        let mut m = DecisionTreeClassifier::new(TreeParams::default());
        m.fit(&x, &ys, 2);
        let acc = crate::metrics::accuracy(&ys, &m.predict(&x));
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn regressor_fits_nonlinear_target() {
        let (x, _) = linear_regression_data(300, 0.0, 43);
        // y = x0^2
        let y: Vec<f64> = (0..x.rows()).map(|r| x[(r, 0)].powi(2)).collect();
        let mut m = DecisionTreeRegressor::new(TreeParams::default());
        let err = train_test_rmse(&mut m, &x, &y);
        assert!(err < 1.0, "rmse {err}");
    }

    #[test]
    fn depth_limit_is_respected() {
        let (x, y) = blob_classification(100, 2, 47);
        let mut stump =
            DecisionTreeClassifier::new(TreeParams { max_depth: 1, ..Default::default() });
        stump.fit(&x, &y, 2);
        // Depth-1 tree has at most 3 nodes.
        assert!(stump.tree.as_ref().unwrap().nodes.len() <= 3);
    }

    #[test]
    fn pure_node_stops_splitting() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let mut m = DecisionTreeClassifier::new(TreeParams::default());
        m.fit(&x, &[1, 1, 1, 1], 2);
        assert_eq!(m.tree.as_ref().unwrap().nodes.len(), 1);
        assert_eq!(m.predict(&x), vec![1, 1, 1, 1]);
    }

    #[test]
    fn proba_rows_are_distributions() {
        let (x, y) = blob_classification(90, 3, 53);
        let mut m = DecisionTreeClassifier::new(TreeParams::default());
        m.fit(&x, &y, 3);
        let p = m.predict_proba(&x, 3);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn signed_zeros_offer_no_split() {
        // Column 0 separates the classes by bit pattern only: -0.0 == 0.0,
        // so it has no threshold, and the tree must split on column 1.
        let x =
            Matrix::from_rows(&[vec![-0.0, 1.0], vec![0.0, 1.0], vec![-0.0, 2.0], vec![0.0, 2.0]]);
        let params = TreeParams { min_samples_split: 2, min_samples_leaf: 1, ..Default::default() };
        let mut clf = DecisionTreeClassifier::new(params.clone());
        clf.fit(&x, &[0, 1, 0, 1], 2);
        let mut reg = DecisionTreeRegressor::new(params);
        reg.fit(&x, &[0.0, 1.0, 0.0, 1.0]);
        for tree in [clf.tree.unwrap(), reg.tree.unwrap()] {
            assert!(matches!(tree.nodes[0], Node::Split { feature: 1, .. }), "{:?}", tree.nodes);
        }
    }

    #[test]
    fn empty_fit_safe() {
        let mut m = DecisionTreeRegressor::new(TreeParams::default());
        m.fit(&Matrix::zeros(0, 2), &[]);
        assert_eq!(m.predict(&Matrix::zeros(2, 2)), vec![0.0, 0.0]);
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let (x, y) = blob_classification(150, 3, 59);
        let mut m = DecisionTreeClassifier::new(TreeParams {
            max_features: Some(1),
            seed: 3,
            ..Default::default()
        });
        let acc = train_test_accuracy(&mut m, &x, &y, 3);
        assert!(acc > 0.7, "accuracy {acc}");
    }

    /// The per-node-sort CART the presorted [`Builder`] replaced, kept as
    /// the reference it must match node for node.
    mod reference {
        use super::super::*;

        /// The per-node-sort reference: re-sorts every feature at every node.
        fn best_split(
            x: &Matrix,
            target: &Target<'_>,
            rows: &[usize],
            features: &[usize],
            min_leaf: usize,
        ) -> Option<(usize, f64, Vec<usize>, Vec<usize>)> {
            let parent_impurity = target.impurity(rows);
            if parent_impurity <= 1e-12 {
                return None;
            }
            let n = rows.len() as f64;
            // (score, imbalance, feature, threshold); ties on score prefer the more
            // balanced split — on XOR-like data every split has equal gain and the
            // balanced choice keeps the tree shallow enough to reach purity.
            let mut best: Option<(f64, f64, usize, f64)> = None;

            for &f in features {
                // Sort row indices by feature value.
                let mut sorted: Vec<usize> = rows.to_vec();
                sorted.sort_by(|&a, &b| x[(a, f)].total_cmp(&x[(b, f)]));
                // Candidate thresholds at value changes; evaluate impurity
                // incrementally by walking the sorted order.
                match target {
                    Target::Class { y, n_classes } => {
                        let mut left_hist = vec![0usize; *n_classes];
                        let mut right_hist = vec![0usize; *n_classes];
                        for &r in &sorted {
                            right_hist[y[r]] += 1;
                        }
                        let gini = |hist: &[usize], cnt: f64| -> f64 {
                            if cnt == 0.0 {
                                return 0.0;
                            }
                            1.0 - hist.iter().map(|&h| (h as f64 / cnt).powi(2)).sum::<f64>()
                        };
                        for i in 0..sorted.len() - 1 {
                            let r = sorted[i];
                            left_hist[y[r]] += 1;
                            right_hist[y[r]] -= 1;
                            let nl = (i + 1) as f64;
                            let nr = n - nl;
                            if (i + 1) < min_leaf || (sorted.len() - i - 1) < min_leaf {
                                continue;
                            }
                            let v_here = x[(r, f)];
                            let v_next = x[(sorted[i + 1], f)];
                            if v_here == v_next {
                                continue;
                            }
                            let score =
                                (nl / n) * gini(&left_hist, nl) + (nr / n) * gini(&right_hist, nr);
                            let imbalance = (nl - nr).abs();
                            let better = match best {
                                None => true,
                                Some((bs, bi, _, _)) => {
                                    score < bs - 1e-12
                                        || ((score - bs).abs() <= 1e-12 && imbalance < bi)
                                }
                            };
                            if better {
                                best = Some((score, imbalance, f, (v_here + v_next) / 2.0));
                            }
                        }
                    }
                    Target::Reg { y } => {
                        let total_sum: f64 = sorted.iter().map(|&r| y[r]).sum();
                        let total_sq: f64 = sorted.iter().map(|&r| y[r] * y[r]).sum();
                        let mut left_sum = 0.0;
                        let mut left_sq = 0.0;
                        for i in 0..sorted.len() - 1 {
                            let r = sorted[i];
                            left_sum += y[r];
                            left_sq += y[r] * y[r];
                            let nl = (i + 1) as f64;
                            let nr = n - nl;
                            if (i + 1) < min_leaf || (sorted.len() - i - 1) < min_leaf {
                                continue;
                            }
                            let v_here = x[(r, f)];
                            let v_next = x[(sorted[i + 1], f)];
                            if v_here == v_next {
                                continue;
                            }
                            let var_l = left_sq / nl - (left_sum / nl).powi(2);
                            let right_sum = total_sum - left_sum;
                            let right_sq = total_sq - left_sq;
                            let var_r = right_sq / nr - (right_sum / nr).powi(2);
                            let score = (nl / n) * var_l.max(0.0) + (nr / n) * var_r.max(0.0);
                            let imbalance = (nl - nr).abs();
                            let better = match best {
                                None => true,
                                Some((bs, bi, _, _)) => {
                                    score < bs - 1e-12
                                        || ((score - bs).abs() <= 1e-12 && imbalance < bi)
                                }
                            };
                            if better {
                                best = Some((score, imbalance, f, (v_here + v_next) / 2.0));
                            }
                        }
                    }
                }
            }

            // Zero-gain splits are allowed (as in scikit-learn): on XOR-like data
            // no single split improves impurity, yet the children become separable.
            // Recursion still terminates because both children are strictly smaller.
            let (_, _, f, threshold) = best?;
            let (left, right): (Vec<usize>, Vec<usize>) =
                rows.iter().partition(|&&r| x[(r, f)] <= threshold);
            if left.is_empty() || right.is_empty() {
                return None;
            }
            Some((f, threshold, left, right))
        }

        pub(super) fn build_tree(x: &Matrix, target: &Target<'_>, params: &TreeParams) -> Tree {
            let rows: Vec<usize> = (0..x.rows()).collect();
            let mut tree = Tree { nodes: Vec::new() };
            let mut rng = StdRng::seed_from_u64(params.seed);
            build_node(x, target, &rows, params, 0, &mut tree, &mut rng);
            tree
        }

        fn build_node(
            x: &Matrix,
            target: &Target<'_>,
            rows: &[usize],
            params: &TreeParams,
            depth: usize,
            tree: &mut Tree,
            rng: &mut StdRng,
        ) -> usize {
            rein_guard::checkpoint(rows.len() as u64);
            let make_leaf = depth >= params.max_depth || rows.len() < params.min_samples_split;
            if !make_leaf {
                let all: Vec<usize> = (0..x.cols()).collect();
                let features: Vec<usize> = match params.max_features {
                    Some(k) if k < x.cols() => {
                        let mut f = all.clone();
                        f.shuffle(rng);
                        f.truncate(k.max(1));
                        f
                    }
                    _ => all,
                };
                if let Some((f, thr, left_rows, right_rows)) =
                    best_split(x, target, rows, &features, params.min_samples_leaf)
                {
                    let id = tree.nodes.len();
                    tree.nodes.push(Node::Leaf { value: Vec::new() }); // placeholder
                    let left = build_node(x, target, &left_rows, params, depth + 1, tree, rng);
                    let right = build_node(x, target, &right_rows, params, depth + 1, tree, rng);
                    tree.nodes[id] = Node::Split { feature: f, threshold: thr, left, right };
                    return id;
                }
            }
            let id = tree.nodes.len();
            tree.nodes.push(Node::Leaf { value: target.leaf_value(rows) });
            id
        }
    }

    mod equivalence {
        use super::super::*;
        use super::reference;
        use proptest::prelude::*;
        use rein_guard::{GuardPolicy, GuardSpec, Phase};

        /// Runs `f` under a guard with an unbounded budget and returns its
        /// output with the checkpoint ticks it spent.
        fn with_ticks<T>(f: impl FnMut(u64) -> T) -> (T, u64) {
            let spec = GuardSpec {
                phase: Phase::Model,
                strategy: "tree-equivalence",
                dataset: "proptest",
                scope: "",
                cells: 0,
                seed: 0,
            };
            let policy = GuardPolicy { budget_override: Some(u64::MAX), ..GuardPolicy::default() };
            let mut f = f;
            let report = rein_guard::run(
                &spec,
                &policy,
                |seed| {
                    let out = f(seed);
                    let (spent, _) = rein_guard::current_budget().expect("budget installed");
                    (out, spent)
                },
                |_| Ok(()),
                |_| {},
            );
            report.outcome.expect("fit completes")
        }

        /// A random training set: `n` rows, `d` columns, each column free
        /// (ties, signed zeros, infinities and NaNs of both signs),
        /// one-hot, two-valued over a random pair, signed zeros (two bit
        /// patterns that compare equal) or constant; targets with ties; random growth limits with and
        /// without `max_features` subsampling.
        struct Cases;

        fn cell(rng: &mut proptest::TestRng) -> f64 {
            const SPECIAL: [f64; 6] =
                [-0.0, 0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            match rng.below(8) {
                0..=3 => (rng.below(7) as f64 - 3.0) * 0.5,
                4 | 5 => rng.unit_f64() * 20.0 - 10.0,
                _ => SPECIAL[rng.below(6) as usize],
            }
        }

        impl Strategy for Cases {
            type Value = (Matrix, Vec<f64>, TreeParams);

            fn generate(&self, rng: &mut proptest::TestRng) -> Self::Value {
                let n = 1 + rng.below(47) as usize;
                let d = 1 + rng.below(6) as usize;
                let mut cols = Vec::with_capacity(d);
                for _ in 0..d {
                    let col: Vec<f64> = match rng.below(7) {
                        0 | 1 => (0..n).map(|_| cell(rng)).collect(),
                        2 | 3 => (0..n).map(|_| rng.below(2) as f64).collect(),
                        4 => {
                            let (a, b) = (cell(rng), cell(rng));
                            (0..n).map(|_| if rng.below(2) == 0 { a } else { b }).collect()
                        }
                        5 => (0..n).map(|_| if rng.below(2) == 0 { -0.0 } else { 0.0 }).collect(),
                        _ => vec![cell(rng); n],
                    };
                    cols.push(col);
                }
                let data = (0..n).flat_map(|r| cols.iter().map(move |c| c[r])).collect();
                let y = (0..n)
                    .map(|_| match rng.below(6) {
                        0..=3 => rng.below(4) as f64,
                        4 => rng.unit_f64() * 10.0 - 5.0,
                        _ => -0.0,
                    })
                    .collect();
                let params = TreeParams {
                    max_depth: 1 + rng.below(8) as usize,
                    min_samples_split: rng.below(6) as usize,
                    min_samples_leaf: rng.below(4) as usize,
                    max_features: match rng.below(2) {
                        0 => None,
                        _ => Some(rng.below(8) as usize),
                    },
                    seed: rng.next_u64(),
                };
                (Matrix::from_vec(n, d, data), y, params)
            }
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            #[test]
            fn presorted_classifier_matches_per_node_sort((x, ys, params) in Cases, k in 1usize..5) {
                let y: Vec<usize> = ys.iter().map(|v| (v.abs() as usize) % k).collect();
                let target = Target::Class { y: &y, n_classes: k };
                let (fast, fast_ticks) = with_ticks(|_| build_tree(&x, &target, &params));
                let (slow, slow_ticks) = with_ticks(|_| reference::build_tree(&x, &target, &params));
                prop_assert_eq!(format!("{:?}", fast.nodes), format!("{:?}", slow.nodes));
                prop_assert_eq!(fast_ticks, slow_ticks);
                for r in 0..x.rows() {
                    prop_assert_eq!(bits(fast.leaf_of(x.row(r))), bits(slow.leaf_of(x.row(r))));
                }
            }

            #[test]
            fn presorted_regressor_matches_per_node_sort((x, y, params) in Cases) {
                let target = Target::Reg { y: &y };
                let (fast, fast_ticks) = with_ticks(|_| build_tree(&x, &target, &params));
                let (slow, slow_ticks) = with_ticks(|_| reference::build_tree(&x, &target, &params));
                prop_assert_eq!(format!("{:?}", fast.nodes), format!("{:?}", slow.nodes));
                prop_assert_eq!(fast_ticks, slow_ticks);
                for r in 0..x.rows() {
                    prop_assert_eq!(bits(fast.leaf_of(x.row(r))), bits(slow.leaf_of(x.row(r))));
                }
            }
        }
    }
}
