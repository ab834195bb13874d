//! Dense integer and rational matrices.
//!
//! `IntMat` is the workhorse for loop transformations and access functions
//! (coefficients are always small integers). `RatMat` is used by analyses
//! that need exact elimination (subspaces, Fourier–Motzkin).

use crate::rational::Rat;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `i64`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IntMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IntMat {
    pub fn zeros(rows: usize, cols: usize) -> IntMat {
        IntMat { rows, cols, data: vec![0; rows * cols] }
    }

    pub fn identity(n: usize) -> IntMat {
        let mut m = IntMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Build from a slice of rows; all rows must have equal length.
    pub fn from_rows(rows: &[Vec<i64>]) -> IntMat {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        IntMat { rows: r, cols: c, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    pub fn row(&self, i: usize) -> &[i64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn row_mut(&mut self, i: usize) -> &mut [i64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn col(&self, j: usize) -> Vec<i64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    pub fn transpose(&self) -> IntMat {
        let mut t = IntMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    pub fn mul(&self, o: &IntMat) -> IntMat {
        assert_eq!(self.cols, o.rows, "dimension mismatch in matrix multiply");
        let mut out = IntMat::zeros(self.rows, o.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0 {
                    continue;
                }
                for j in 0..o.cols {
                    out[(i, j)] = out[(i, j)]
                        .checked_add(a.checked_mul(o[(k, j)]).expect("matmul overflow"))
                        .expect("matmul overflow");
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<i64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch in matrix-vector multiply");
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(v)
                    .map(|(&a, &b)| a.checked_mul(b).expect("overflow"))
                    .fold(0i64, |s, x| s.checked_add(x).expect("overflow"))
            })
            .collect()
    }

    /// Append the rows of `o` below `self`.
    pub fn vstack(&self, o: &IntMat) -> IntMat {
        if self.rows == 0 {
            return o.clone();
        }
        if o.rows == 0 {
            return self.clone();
        }
        assert_eq!(self.cols, o.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&o.data);
        IntMat { rows: self.rows + o.rows, cols: self.cols, data }
    }

    /// Append the columns of `o` to the right of `self`.
    pub fn hstack(&self, o: &IntMat) -> IntMat {
        assert_eq!(self.rows, o.rows, "hstack row mismatch");
        let mut out = IntMat::zeros(self.rows, self.cols + o.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(o.row(i));
        }
        out
    }

    /// The submatrix of the given rows.
    pub fn select_rows(&self, idx: &[usize]) -> IntMat {
        IntMat::from_rows(&idx.iter().map(|&i| self.row(i).to_vec()).collect::<Vec<_>>())
    }

    /// Convert to a rational matrix.
    pub fn to_rat(&self) -> RatMat {
        RatMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| Rat::int(x)).collect(),
        }
    }

    /// Rank over the rationals.
    pub fn rank(&self) -> usize {
        self.to_rat().rank()
    }

    /// True if square with determinant ±1.
    pub fn is_unimodular(&self) -> bool {
        self.rows == self.cols && self.determinant().is_some_and(|d| d.abs() == 1)
    }

    /// Determinant (None if not square), computed exactly via rationals.
    pub fn determinant(&self) -> Option<i64> {
        if self.rows != self.cols {
            return None;
        }
        let d = self.to_rat().determinant();
        Some(d.to_i64())
    }

    /// True if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&x| x == 0)
    }
}

impl Index<(usize, usize)> for IntMat {
    type Output = i64;
    fn index(&self, (i, j): (usize, usize)) -> &i64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of {}x{}", self.rows, self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for IntMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut i64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of {}x{}", self.rows, self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for IntMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IntMat {}x{}", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        Ok(())
    }
}

/// A dense row-major matrix of exact rationals.
#[derive(Clone, PartialEq, Eq)]
pub struct RatMat {
    rows: usize,
    cols: usize,
    data: Vec<Rat>,
}

impl RatMat {
    pub fn zeros(rows: usize, cols: usize) -> RatMat {
        RatMat { rows, cols, data: vec![Rat::ZERO; rows * cols] }
    }

    pub fn identity(n: usize) -> RatMat {
        let mut m = RatMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Rat::ONE;
        }
        m
    }

    pub fn from_rows(rows: &[Vec<Rat>]) -> RatMat {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        RatMat { rows: r, cols: c, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn row(&self, i: usize) -> &[Rat] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn row_mut(&mut self, i: usize) -> &mut [Rat] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn transpose(&self) -> RatMat {
        let mut t = RatMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    pub fn mul(&self, o: &RatMat) -> RatMat {
        assert_eq!(self.cols, o.rows, "dimension mismatch");
        let mut out = RatMat::zeros(self.rows, o.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..o.cols {
                    out[(i, j)] += a * o[(k, j)];
                }
            }
        }
        out
    }

    pub fn vstack(&self, o: &RatMat) -> RatMat {
        if self.rows == 0 {
            return o.clone();
        }
        if o.rows == 0 {
            return self.clone();
        }
        assert_eq!(self.cols, o.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&o.data);
        RatMat { rows: self.rows + o.rows, cols: self.cols, data }
    }

    /// Reduced row-echelon form, returning (rref, pivot columns).
    pub fn rref(&self) -> (RatMat, Vec<usize>) {
        let mut m = self.clone();
        let mut pivots = Vec::new();
        let mut r = 0;
        for c in 0..m.cols {
            if r >= m.rows {
                break;
            }
            // Find a pivot in column c at or below row r.
            let Some(p) = (r..m.rows).find(|&i| !m[(i, c)].is_zero()) else {
                continue;
            };
            m.swap_rows(r, p);
            let inv = m[(r, c)].recip();
            for j in c..m.cols {
                m[(r, j)] *= inv;
            }
            for i in 0..m.rows {
                if i != r && !m[(i, c)].is_zero() {
                    let f = m[(i, c)];
                    for j in c..m.cols {
                        let sub = f * m[(r, j)];
                        m[(i, j)] -= sub;
                    }
                }
            }
            pivots.push(c);
            r += 1;
        }
        (m, pivots)
    }

    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            let t = self[(a, j)];
            self[(a, j)] = self[(b, j)];
            self[(b, j)] = t;
        }
    }

    pub fn rank(&self) -> usize {
        self.rref().1.len()
    }

    /// Determinant of a square matrix (panics if not square).
    pub fn determinant(&self) -> Rat {
        assert_eq!(self.rows, self.cols, "determinant of non-square matrix");
        let mut m = self.clone();
        let mut det = Rat::ONE;
        for c in 0..m.cols {
            let Some(p) = (c..m.rows).find(|&i| !m[(i, c)].is_zero()) else {
                return Rat::ZERO;
            };
            if p != c {
                m.swap_rows(c, p);
                det = -det;
            }
            det *= m[(c, c)];
            let inv = m[(c, c)].recip();
            for i in c + 1..m.rows {
                if !m[(i, c)].is_zero() {
                    let f = m[(i, c)] * inv;
                    for j in c..m.cols {
                        let sub = f * m[(c, j)];
                        m[(i, j)] -= sub;
                    }
                }
            }
        }
        det
    }

    /// Basis of the (right) nullspace `{x : A x = 0}`, one basis vector per
    /// returned row.
    pub fn nullspace(&self) -> RatMat {
        let (r, pivots) = self.rref();
        let free: Vec<usize> = (0..self.cols).filter(|c| !pivots.contains(c)).collect();
        let mut basis = Vec::new();
        for &fc in &free {
            let mut v = vec![Rat::ZERO; self.cols];
            v[fc] = Rat::ONE;
            for (ri, &pc) in pivots.iter().enumerate() {
                v[pc] = -r[(ri, fc)];
            }
            basis.push(v);
        }
        if basis.is_empty() {
            // Preserve the ambient dimension even when the nullspace is {0}.
            return RatMat::zeros(0, self.cols);
        }
        RatMat::from_rows(&basis)
    }

    /// Solve `A x = b`; returns one solution if consistent.
    pub fn solve(&self, b: &[Rat]) -> Option<Vec<Rat>> {
        assert_eq!(b.len(), self.rows);
        let mut aug = RatMat::zeros(self.rows, self.cols + 1);
        for i in 0..self.rows {
            aug.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            aug[(i, self.cols)] = b[i];
        }
        let (r, pivots) = aug.rref();
        // Inconsistent iff a pivot lands in the augmented column.
        if pivots.contains(&self.cols) {
            return None;
        }
        let mut x = vec![Rat::ZERO; self.cols];
        for (ri, &pc) in pivots.iter().enumerate() {
            x[pc] = r[(ri, self.cols)];
        }
        Some(x)
    }

    /// Scale rows to clear denominators and divide by the row gcd, giving an
    /// integer matrix spanning the same row space.
    pub fn integerize_rows(&self) -> IntMat {
        let mut out = IntMat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let mut l: i128 = 1;
            for x in self.row(i) {
                l = l / crate::rational::gcd_i128(l, x.den()) * x.den();
            }
            let mut ints: Vec<i128> = self.row(i).iter().map(|x| x.num() * (l / x.den())).collect();
            let mut g: i128 = 0;
            for &x in &ints {
                g = crate::rational::gcd_i128(g, x);
            }
            if g > 1 {
                for x in &mut ints {
                    *x /= g;
                }
            }
            for (j, x) in ints.iter().enumerate() {
                out[(i, j)] = i64::try_from(*x).expect("integerize overflow");
            }
        }
        out
    }
}

impl Index<(usize, usize)> for RatMat {
    type Output = Rat;
    fn index(&self, (i, j): (usize, usize)) -> &Rat {
        assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for RatMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Rat {
        assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for RatMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RatMat {}x{}", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[i64]]) -> IntMat {
        IntMat::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn multiply_identity() {
        let a = m(&[&[1, 2], &[3, 4]]);
        assert_eq!(a.mul(&IntMat::identity(2)), a);
        assert_eq!(IntMat::identity(2).mul(&a), a);
    }

    #[test]
    fn multiply() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let b = m(&[&[0, 1], &[1, 0]]);
        assert_eq!(a.mul(&b), m(&[&[2, 1], &[4, 3]]));
    }

    #[test]
    fn mul_vec() {
        let a = m(&[&[1, 2, 3], &[0, 1, 0]]);
        assert_eq!(a.mul_vec(&[1, 1, 1]), vec![6, 1]);
    }

    #[test]
    fn transpose_stack() {
        let a = m(&[&[1, 2], &[3, 4]]);
        assert_eq!(a.transpose(), m(&[&[1, 3], &[2, 4]]));
        assert_eq!(a.vstack(&m(&[&[5, 6]])).rows(), 3);
        assert_eq!(a.hstack(&m(&[&[5], &[6]])).cols(), 3);
    }

    #[test]
    fn rank_det() {
        assert_eq!(m(&[&[1, 2], &[2, 4]]).rank(), 1);
        assert_eq!(m(&[&[1, 2], &[3, 4]]).rank(), 2);
        assert_eq!(m(&[&[1, 2], &[3, 4]]).determinant(), Some(-2));
        assert!(m(&[&[0, 1], &[1, 0]]).is_unimodular());
        assert!(!m(&[&[2, 0], &[0, 1]]).is_unimodular());
    }

    #[test]
    fn rref_nullspace() {
        let a = m(&[&[1, 2, 3], &[2, 4, 6]]).to_rat();
        let ns = a.nullspace();
        assert_eq!(ns.rows(), 2);
        // Each basis vector is in the nullspace.
        for i in 0..ns.rows() {
            let v = ns.row(i);
            for r in 0..a.rows() {
                let dot = a
                    .row(r)
                    .iter()
                    .zip(v)
                    .fold(Rat::ZERO, |s, (&x, &y)| s + x * y);
                assert!(dot.is_zero());
            }
        }
    }

    #[test]
    fn solve_consistent() {
        let a = m(&[&[1, 1], &[1, -1]]).to_rat();
        let x = a.solve(&[Rat::int(3), Rat::int(1)]).unwrap();
        assert_eq!(x, vec![Rat::int(2), Rat::int(1)]);
    }

    #[test]
    fn solve_inconsistent() {
        let a = m(&[&[1, 1], &[2, 2]]).to_rat();
        assert!(a.solve(&[Rat::int(1), Rat::int(3)]).is_none());
    }

    #[test]
    fn integerize() {
        let r = RatMat::from_rows(&[vec![Rat::new(1, 2), Rat::new(1, 3)]]);
        let i = r.integerize_rows();
        assert_eq!(i.row(0), &[3, 2]);
    }
}
