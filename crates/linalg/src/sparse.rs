//! The nonzero pattern of a matrix in compressed sparse row (CSR) layout.
//!
//! The engine's reuse model (`sophie-core`) counts, after every global
//! synchronization, the fields a delta-driven datapath would recompute:
//! for each flipped spin, the rows its column of `C` touches. [`SparseCsr`]
//! holds exactly that pattern — row offsets and ascending column indices,
//! 4 bytes per nonzero — and no values, since nothing multiplies through
//! it.

use crate::error::{LinalgError, Result};

/// The nonzero pattern of a matrix in CSR layout: per row, the ascending
/// column indices of its nonzero entries.
#[derive(Debug, Clone)]
pub struct SparseCsr {
    /// `rows + 1` offsets into `col_idx`.
    row_ptr: Vec<u32>,
    /// Column index of each nonzero entry, ascending within a row.
    col_idx: Vec<u32>,
}

impl SparseCsr {
    /// Builds the pattern of a flat row-major dense buffer: every entry
    /// that compares unequal to zero (so `-0.0` is dropped too).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `data.len() != rows · cols`,
    /// [`LinalgError::Empty`] if either dimension is zero.
    pub fn from_dense(rows: usize, cols: usize, data: &[f32]) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty);
        }
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "CSR indices are u32"
        );
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0u32);
        for r in 0..rows {
            for (c, &v) in data[r * cols..(r + 1) * cols].iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c as u32);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Ok(SparseCsr { row_ptr, col_idx })
    }

    /// Count of nonzero entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices of row `r`'s nonzero entries, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a row index.
    #[must_use]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_drops_zeros_and_negative_zero() {
        let m =
            SparseCsr::from_dense(3, 3, &[1.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), &[0u32][..]);
        assert!(m.row(1).is_empty());
        assert_eq!(m.row(2), &[1u32, 2][..]);
    }

    #[test]
    fn from_dense_validates() {
        assert!(SparseCsr::from_dense(0, 3, &[]).is_err());
        assert!(SparseCsr::from_dense(2, 2, &[0.0; 3]).is_err());
    }
}
