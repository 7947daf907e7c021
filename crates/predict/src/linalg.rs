//! Minimal dense linear algebra: the normal equations of a ridge
//! regression with a bias column, and `A x = b` by Gaussian elimination
//! with partial pivoting.

/// `XᵀX + ridge·I` of the normal equations `(XᵀX + λI) w = Xᵀt`, with a
/// bias column of ones appended to `x` (so the bias is the last weight).
#[must_use]
#[allow(clippy::needless_range_loop)] // index form mirrors the math
pub(crate) fn ridge_gram(x: &[Vec<f64>], ridge: f64) -> Vec<Vec<f64>> {
    let d = x[0].len() + 1;
    let mut xtx = vec![vec![0.0f64; d]; d];
    for row in x {
        debug_assert_eq!(row.len(), d - 1);
        for i in 0..d {
            let xi = if i == d - 1 { 1.0 } else { row[i] };
            for j in i..d {
                let xj = if j == d - 1 { 1.0 } else { row[j] };
                xtx[i][j] += xi * xj;
            }
        }
    }
    for i in 0..d {
        for j in 0..i {
            xtx[i][j] = xtx[j][i];
        }
        xtx[i][i] += ridge;
    }
    xtx
}

/// `Xᵀt`, the right-hand side to [`ridge_gram`]'s matrix.
#[must_use]
pub(crate) fn moments(x: &[Vec<f64>], targets: &[f64]) -> Vec<f64> {
    let d = x[0].len() + 1;
    let mut xty = vec![0.0f64; d];
    for (row, &t) in x.iter().zip(targets) {
        for (acc, xi) in xty.iter_mut().zip(row) {
            *acc += xi * t;
        }
        xty[d - 1] += t;
    }
    xty
}

/// Solves `A x = b` in place. `a` is row-major `n × n`.
/// Returns `None` when the matrix is numerically singular.
#[must_use]
#[allow(clippy::needless_range_loop)] // index form mirrors the math
pub(crate) fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    assert_eq!(a.len(), n, "A must be n × n");
    for row in &a {
        assert_eq!(row.len(), n, "A must be n × n");
    }
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite matrix entries")
            })
            .expect("non-empty range");
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve(a, vec![3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solves_general_system() {
        // 2x + y = 5; x + 3y = 10 ⇒ x = 1, y = 3.
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let x = solve(a, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve(a, vec![2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }
}
