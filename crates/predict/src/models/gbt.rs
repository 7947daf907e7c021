//! Gradient-boosted regression trees (the XGBoost stand-in).
//!
//! Squared loss on `ln(runtime)`, depth-limited trees with exact split
//! search, shrinkage, and a minimum leaf size. Deterministic: no feature or
//! row subsampling.
//!
//! # How a fit searches
//!
//! The feature matrix never changes during a fit, so each column is
//! sorted **once**: a stable sort of the row ids by value, ties therefore
//! in row order. A tree grows level by level with a node id per row; one
//! linear pass over a column's sorted order serves every node of the
//! level at once, each node keeping its own running left sum and count.
//! Columns whose first and last sorted values are equal are constant (the
//! elapsed-time feature of Fig. 12 is one) and are never scanned.
//!
//! # Contract
//!
//! Exact greedy search: every boundary between two distinct values of a
//! feature inside a node is a candidate, a candidate needs `min_leaf`
//! rows on both sides and a score more than `1e-12` above the unsplit
//! node's, the first best candidate in feature-then-position order wins,
//! the threshold is the midpoint of the two values, and node totals and
//! leaf means are summed in ascending row order. Where no two rows of a
//! node share a feature value that determines every bit of the fit. Inside
//! a run of equal values the order in which residuals enter the left sum
//! is by row; the builder this one replaced left them in whatever order
//! an unstable sort on the *previous* feature had produced, which was
//! never a contract. Thresholds and leaf values do not depend on that
//! order, so two builders can disagree on a tree only if two candidate
//! scores an ulp apart swap rank (`tests::reference` holds the recursive
//! builder the tests compare with).

use crate::models::Model;

/// One split node or leaf of a [`Tree`].
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the `≤ threshold` child; the other child follows it.
        left: usize,
    },
}

/// A regression tree as a flat list of nodes, the root first.
#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn eval(&self, x: &[f64]) -> f64 {
        let mut at = 0;
        loop {
            match self.nodes[at] {
                Node::Leaf(v) => return v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                } => at = left + usize::from(x[feature] > threshold),
            }
        }
    }
}

/// One column of the feature matrix in ascending order.
struct SortedColumn {
    feature: usize,
    /// Row ids by ascending value, equal values in row order.
    rows: Vec<u32>,
    /// The column's values in that order.
    values: Vec<f64>,
}

/// Every non-constant column of `x`, sorted.
fn sort_columns(x: &[Vec<f64>]) -> Vec<SortedColumn> {
    let n = u32::try_from(x.len()).expect("row ids fit in 32 bits");
    (0..x[0].len())
        .filter_map(|feature| {
            let mut rows: Vec<u32> = (0..n).collect();
            rows.sort_by(|&a, &b| {
                x[a as usize][feature]
                    .partial_cmp(&x[b as usize][feature])
                    .expect("finite features")
            });
            let values: Vec<f64> = rows.iter().map(|&r| x[r as usize][feature]).collect();
            (values[0] != values[values.len() - 1]).then_some(SortedColumn {
                feature,
                rows,
                values,
            })
        })
        .collect()
}

/// A node of the level being grown.
#[derive(Default)]
struct Open {
    /// Rows in the node and the sum of their residuals.
    n: usize,
    total: f64,
    /// Whether the node is large enough to be split at all, and the score
    /// a candidate has to beat: the unsplit node's plus `1e-12`.
    splittable: bool,
    bar: f64,
    /// Running state of the scan over one column.
    left_n: usize,
    left_sum: f64,
    last: f64,
    /// Best candidate so far: `(feature, threshold, score)`.
    best: Option<(usize, f64, f64)>,
}

impl Open {
    fn add(&mut self, residual: f64) {
        self.n += 1;
        self.total += residual;
    }
}

/// Gradient-boosted tree ensemble.
#[derive(Debug, Clone)]
pub struct Gbt {
    n_trees: usize,
    max_depth: usize,
    min_leaf: usize,
    learning_rate: f64,
    base: f64,
    trees: Vec<Tree>,
}

impl Gbt {
    /// Creates an ensemble configuration.
    #[must_use]
    pub fn new(n_trees: usize, max_depth: usize, min_leaf: usize, learning_rate: f64) -> Self {
        assert!(n_trees > 0 && max_depth > 0 && min_leaf > 0);
        assert!(learning_rate > 0.0 && learning_rate <= 1.0);
        Self {
            n_trees,
            max_depth,
            min_leaf,
            learning_rate,
            base: 0.0,
            trees: Vec::new(),
        }
    }

    /// Grows one tree on `residuals`, level by level. On return
    /// `node_of[r]` is the leaf row `r` falls in.
    fn grow(
        &self,
        x: &[Vec<f64>],
        columns: &[SortedColumn],
        residuals: &[f64],
        node_of: &mut [u32],
    ) -> Tree {
        let mut nodes: Vec<Node> = Vec::new();
        // The level's nodes are `nodes[first..]`, with `level[k]` the
        // state of `nodes[first + k]`. Totals are summed in row order.
        let mut first = 0;
        let mut level = vec![Open::default()];
        node_of.fill(0);
        for &r in residuals {
            level[0].add(r);
        }
        for depth in 0.. {
            for open in &mut level {
                open.splittable = depth < self.max_depth && open.n >= 2 * self.min_leaf;
                open.bar = open.total * open.total / open.n as f64 + 1e-12;
            }
            if level.iter().any(|open| open.splittable) {
                for column in columns {
                    self.scan(column, residuals, node_of, first, &mut level);
                }
            }

            // Turn the level into leaves and splits; the children of its
            // splits are the next level.
            let next_first = first + level.len();
            let mut next: Vec<Open> = Vec::new();
            for open in &level {
                nodes.push(match open.best {
                    None => Node::Leaf(open.total / open.n as f64),
                    Some((feature, threshold, _)) => {
                        next.extend([Open::default(), Open::default()]);
                        Node::Split {
                            feature,
                            threshold,
                            left: next_first + next.len() - 2,
                        }
                    }
                });
            }
            if next.is_empty() {
                break;
            }
            for (r, node) in node_of.iter_mut().enumerate() {
                let Some(k) = (*node as usize).checked_sub(first) else {
                    continue;
                };
                if let Node::Split {
                    feature,
                    threshold,
                    left,
                } = nodes[first + k]
                {
                    let child = left + usize::from(x[r][feature] > threshold);
                    *node = child as u32;
                    next[child - next_first].add(residuals[r]);
                }
            }
            first = next_first;
            level = next;
        }
        Tree { nodes }
    }

    /// One pass over a sorted column: every boundary between two distinct
    /// values inside a splittable node of the level is scored against the
    /// node's best so far.
    fn scan(
        &self,
        column: &SortedColumn,
        residuals: &[f64],
        node_of: &[u32],
        first: usize,
        level: &mut [Open],
    ) {
        for open in level.iter_mut() {
            open.left_n = 0;
            open.left_sum = 0.0;
        }
        for (&r, &value) in column.rows.iter().zip(&column.values) {
            let Some(k) = (node_of[r as usize] as usize).checked_sub(first) else {
                continue;
            };
            let open = &mut level[k];
            if !open.splittable {
                continue;
            }
            // Can't split between equal feature values (`min_leaf ≥ 1`, so
            // `last` is a value of this node whenever it is read).
            if open.last != value
                && open.left_n >= self.min_leaf
                && open.n - open.left_n >= self.min_leaf
            {
                let left_n = open.left_n as f64;
                let right_sum = open.total - open.left_sum;
                let right_n = open.n as f64 - left_n;
                let score =
                    open.left_sum * open.left_sum / left_n + right_sum * right_sum / right_n;
                if score > open.bar && open.best.is_none_or(|(_, _, s)| score > s) {
                    open.best = Some((column.feature, 0.5 * (open.last + value), score));
                }
            }
            open.left_sum += residuals[r as usize];
            open.left_n += 1;
            open.last = value;
        }
    }
}

impl Default for Gbt {
    fn default() -> Self {
        Self::new(40, 3, 5, 0.15)
    }
}

impl Model for Gbt {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64], _censored: &[bool]) {
        assert_eq!(x.len(), y.len());
        self.trees.clear();
        if x.is_empty() {
            return;
        }
        let logs: Vec<f64> = y.iter().map(|&v| v.max(1.0).ln()).collect();
        self.base = logs.iter().sum::<f64>() / logs.len() as f64;
        let columns = sort_columns(x);
        let mut predictions = vec![self.base; logs.len()];
        let mut residuals = vec![0.0; logs.len()];
        let mut node_of = vec![0u32; logs.len()];
        for _ in 0..self.n_trees {
            for ((r, t), p) in residuals.iter_mut().zip(&logs).zip(&predictions) {
                *r = t - p;
            }
            let tree = self.grow(x, &columns, &residuals, &mut node_of);
            for (p, &leaf) in predictions.iter_mut().zip(&node_of) {
                let Node::Leaf(value) = tree.nodes[leaf as usize] else {
                    unreachable!("every row ends in a leaf");
                };
                *p += self.learning_rate * value;
            }
            self.trees.push(tree);
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let mut acc = self.base;
        for t in &self.trees {
            acc += self.learning_rate * t.eval(x);
        }
        acc.clamp(-5.0, 20.0).exp()
    }

    fn name(&self) -> &'static str {
        "XGBoost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_stats::Rng;
    use proptest::prelude::*;

    /// The recursive builder `Gbt::grow` replaced, kept as the oracle:
    /// every node re-sorts its own rows once per feature.
    mod reference {
        use super::super::{Gbt, Node, Tree};

        enum RefNode {
            Leaf(f64),
            Split {
                feature: usize,
                threshold: f64,
                left: Box<RefNode>,
                right: Box<RefNode>,
            },
        }

        impl RefNode {
            fn eval(&self, x: &[f64]) -> f64 {
                match self {
                    RefNode::Leaf(v) => *v,
                    RefNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        if x[*feature] <= *threshold {
                            left.eval(x)
                        } else {
                            right.eval(x)
                        }
                    }
                }
            }

            /// Lays the tree out as `Gbt::grow` does: level by level, the
            /// two children of a split next to each other.
            fn flatten(&self) -> Tree {
                let mut nodes = Vec::new();
                let mut level = vec![self];
                while !level.is_empty() {
                    let next_first = nodes.len() + level.len();
                    let mut next = Vec::new();
                    for node in level {
                        nodes.push(match node {
                            RefNode::Leaf(v) => Node::Leaf(*v),
                            RefNode::Split {
                                feature,
                                threshold,
                                left,
                                right,
                            } => {
                                next.extend([&**left, &**right]);
                                Node::Split {
                                    feature: *feature,
                                    threshold: *threshold,
                                    left: next_first + next.len() - 2,
                                }
                            }
                        });
                    }
                    level = next;
                }
                Tree { nodes }
            }
        }

        #[allow(clippy::needless_range_loop)] // `f` indexes columns, not rows of `x`
        fn build(
            gbt: &Gbt,
            x: &[Vec<f64>],
            residuals: &[f64],
            indices: &mut [usize],
            depth: usize,
        ) -> RefNode {
            let mean = indices.iter().map(|&i| residuals[i]).sum::<f64>() / indices.len() as f64;
            if depth >= gbt.max_depth || indices.len() < 2 * gbt.min_leaf {
                return RefNode::Leaf(mean);
            }
            let n_features = x[0].len();
            let total_sum: f64 = indices.iter().map(|&i| residuals[i]).sum();
            let n = indices.len() as f64;
            let parent_score = total_sum * total_sum / n;

            let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
            let mut sorted = indices.to_vec();
            for f in 0..n_features {
                sorted.sort_unstable_by(|&a, &b| {
                    x[a][f].partial_cmp(&x[b][f]).expect("finite features")
                });
                let mut left_sum = 0.0;
                for (k, &i) in sorted.iter().enumerate().take(sorted.len() - 1) {
                    left_sum += residuals[i];
                    let left_n = (k + 1) as f64;
                    // Can't split between equal feature values.
                    if x[i][f] == x[sorted[k + 1]][f] {
                        continue;
                    }
                    if k + 1 < gbt.min_leaf || sorted.len() - k - 1 < gbt.min_leaf {
                        continue;
                    }
                    let right_sum = total_sum - left_sum;
                    let right_n = n - left_n;
                    let score = left_sum * left_sum / left_n + right_sum * right_sum / right_n;
                    if score > parent_score + 1e-12 && best.is_none_or(|(_, _, s)| score > s) {
                        let threshold = 0.5 * (x[i][f] + x[sorted[k + 1]][f]);
                        best = Some((f, threshold, score));
                    }
                }
            }
            match best {
                None => RefNode::Leaf(mean),
                Some((feature, threshold, _)) => {
                    let (mut left_idx, mut right_idx): (Vec<usize>, Vec<usize>) =
                        indices.iter().partition(|&&i| x[i][feature] <= threshold);
                    let left = build(gbt, x, residuals, &mut left_idx, depth + 1);
                    let right = build(gbt, x, residuals, &mut right_idx, depth + 1);
                    RefNode::Split {
                        feature,
                        threshold,
                        left: Box::new(left),
                        right: Box::new(right),
                    }
                }
            }
        }

        /// `Model::fit` as it was before the columns were sorted once.
        pub fn fit(gbt: &mut Gbt, x: &[Vec<f64>], y: &[f64]) {
            gbt.trees.clear();
            let logs: Vec<f64> = y.iter().map(|&v| v.max(1.0).ln()).collect();
            gbt.base = logs.iter().sum::<f64>() / logs.len() as f64;
            let mut predictions = vec![gbt.base; logs.len()];
            let mut indices: Vec<usize> = (0..logs.len()).collect();
            for _ in 0..gbt.n_trees {
                let residuals: Vec<f64> =
                    logs.iter().zip(&predictions).map(|(t, p)| t - p).collect();
                let tree = build(gbt, x, &residuals, &mut indices, 0);
                for (p, row) in predictions.iter_mut().zip(x) {
                    *p += gbt.learning_rate * tree.eval(row);
                }
                gbt.trees.push(tree.flatten());
            }
        }
    }

    /// A configuration, as `Gbt::new` takes it.
    fn arb_config() -> impl Strategy<Value = (usize, usize, usize, f64)> {
        (1usize..6, 1usize..5, 1usize..8, 0.05f64..1.0)
    }

    /// Fits both builders on `(x, y)`.
    fn fit_both(config: (usize, usize, usize, f64), x: &[Vec<f64>], y: &[f64]) -> (Gbt, Gbt) {
        let (n_trees, depth, min_leaf, rate) = config;
        let mut new = Gbt::new(n_trees, depth, min_leaf, rate);
        new.fit(x, y, &vec![false; y.len()]);
        let mut old = Gbt::new(n_trees, depth, min_leaf, rate);
        reference::fit(&mut old, x, y);
        (new, old)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tie_free_fits_equal_the_reference_bit_for_bit(
            seed in any::<u64>(),
            n in 1usize..150,
            d in 1usize..5,
            config in arb_config(),
        ) {
            // Every column a shuffle of distinct values: one sorted order,
            // so the two builders add the same numbers in the same order.
            let mut rng = Rng::new(seed);
            let mut x = vec![vec![0.0; d]; n];
            for f in 0..d {
                let mut ranks: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut ranks);
                for (row, rank) in x.iter_mut().zip(ranks) {
                    row[f] = rank as f64 + 0.5 * rng.next_f64();
                }
            }
            let y: Vec<f64> = (0..n).map(|_| (rng.next_f64() * 12.0).exp()).collect();
            let (new, old) = fit_both(config, &x, &y);
            for _ in 0..50 {
                let probe: Vec<f64> = (0..d).map(|_| rng.next_f64() * n as f64).collect();
                prop_assert_eq!(new.predict(&probe).to_bits(), old.predict(&probe).to_bits());
            }
        }

        #[test]
        fn tie_heavy_fits_grow_the_reference_trees(
            seed in any::<u64>(),
            n in 1usize..200,
            constant_target in any::<bool>(),
            config in arb_config(),
        ) {
            // An integer column, a categorical one, a constant one and a
            // continuous one; `n` may be below `2 · min_leaf`.
            let mut rng = Rng::new(seed);
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    vec![
                        rng.next_below(6) as f64,
                        f64::from(rng.chance(0.3)),
                        7.25,
                        rng.next_f64(),
                    ]
                })
                .collect();
            let y: Vec<f64> = (0..n)
                .map(|_| if constant_target { 500.0 } else { (rng.next_f64() * 12.0).exp() })
                .collect();
            let (new, old) = fit_both(config, &x, &y);
            prop_assert_eq!(new.trees.len(), old.trees.len());
            for (a, b) in new.trees.iter().zip(&old.trees) {
                prop_assert_eq!(a.nodes.len(), b.nodes.len());
                for pair in a.nodes.iter().zip(&b.nodes) {
                    match pair {
                        (Node::Leaf(v), Node::Leaf(w)) => prop_assert!((v - w).abs() <= 1e-12),
                        (split, other) => prop_assert_eq!(split, other),
                    }
                }
            }
        }
    }

    #[test]
    fn fits_a_step_function() {
        // runtime = 100 if x<5 else 10000 — trees nail this, lines cannot.
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 10) as f64]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] < 5.0 { 100.0 } else { 10_000.0 })
            .collect();
        let mut m = Gbt::default();
        m.fit(&x, &y, &vec![false; y.len()]);
        assert_eq!(m.trees.len(), 40);
        let lo = m.predict(&[2.0]);
        let hi = m.predict(&[8.0]);
        assert!((lo / 100.0 - 1.0).abs() < 0.2, "lo {lo}");
        assert!((hi / 10_000.0 - 1.0).abs() < 0.2, "hi {hi}");
    }

    #[test]
    fn constant_target_yields_leaves() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y = vec![500.0; 50];
        let mut m = Gbt::default();
        m.fit(&x, &y, &[false; 50]);
        let p = m.predict(&[25.0]);
        assert!((p / 500.0 - 1.0).abs() < 0.01, "p {p}");
    }

    #[test]
    fn min_leaf_is_respected_on_tiny_data() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![1.0, 10.0, 100.0];
        let mut m = Gbt::new(5, 3, 5, 0.5);
        m.fit(&x, &y, &[false, false, false]);
        // 3 samples < 2×min_leaf ⇒ all trees are single leaves; prediction
        // is the geometric-ish mean.
        let p = m.predict(&[1.0]);
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn unfit_model_is_safe() {
        let m = Gbt::default();
        assert!((m.predict(&[1.0]) - 1.0).abs() < 1e-12);
    }
}
