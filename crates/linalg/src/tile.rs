//! Matrix tiling for SOPHIE's blocked execution model.
//!
//! The accelerator decomposes the `n × n` transformation matrix into square
//! tiles of a fixed size (64 in the paper's optimal configuration). A
//! [`TileGrid`] describes that decomposition, [`Tile`] stores a single
//! (zero-padded) block in `f32` — mirroring the reduced-precision OPCM cells —
//! and [`TiledMatrix`] stores all blocks for reference computations.

use crate::error::{LinalgError, Result};
use crate::Matrix;

/// Describes the tiling of an `n × n` matrix into `tile`-sized square blocks.
///
/// The final block row/column is zero-padded, so every tile has the same
/// physical shape, matching the fixed-size OPCM arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TileGrid {
    n: usize,
    tile: usize,
}

/// Identifies one logical tile by block row and block column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TileIndex {
    /// Block-row index.
    pub row: usize,
    /// Block-column index.
    pub col: usize,
}

impl TileIndex {
    /// The index of the symmetric partner tile (transposed position).
    #[must_use]
    pub fn transposed(self) -> TileIndex {
        TileIndex {
            row: self.col,
            col: self.row,
        }
    }

    /// True for tiles on the main block diagonal (their own partner).
    #[must_use]
    pub fn is_diagonal(self) -> bool {
        self.row == self.col
    }
}

/// A symmetric pair of logical tiles sharing one physical OPCM array
/// (paper §III-D, symmetric tile mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum TilePair {
    /// A diagonal tile, which is its own transpose.
    Diagonal(usize),
    /// An off-diagonal pair `{(row, col), (col, row)}` with `row < col`.
    OffDiagonal {
        /// Block-row of the upper-triangular member (`row < col`).
        row: usize,
        /// Block-column of the upper-triangular member.
        col: usize,
    },
}

impl TilePair {
    /// The canonical (upper-triangular or diagonal) tile of the pair.
    #[must_use]
    pub fn primary(self) -> TileIndex {
        match self {
            TilePair::Diagonal(b) => TileIndex { row: b, col: b },
            TilePair::OffDiagonal { row, col } => TileIndex { row, col },
        }
    }

    /// Both logical tiles covered by this pair (one entry for diagonals).
    #[must_use]
    pub fn members(self) -> Vec<TileIndex> {
        match self {
            TilePair::Diagonal(b) => vec![TileIndex { row: b, col: b }],
            TilePair::OffDiagonal { row, col } => {
                vec![TileIndex { row, col }, TileIndex { row: col, col: row }]
            }
        }
    }

    /// Number of logical tiles covered (1 for diagonal, 2 otherwise).
    #[must_use]
    pub fn logical_tiles(self) -> usize {
        match self {
            TilePair::Diagonal(_) => 1,
            TilePair::OffDiagonal { .. } => 2,
        }
    }
}

impl TileGrid {
    /// Creates a grid for an `n × n` matrix with `tile`-sized blocks.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if `n == 0` or `tile == 0`.
    pub fn new(n: usize, tile: usize) -> Result<Self> {
        if n == 0 || tile == 0 {
            return Err(LinalgError::Empty);
        }
        Ok(TileGrid { n, tile })
    }

    /// Matrix dimension being tiled.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile edge length.
    #[must_use]
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Number of block rows (= block columns).
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.n.div_ceil(self.tile)
    }

    /// Dimension after zero padding to a whole number of tiles.
    #[must_use]
    pub fn padded_len(&self) -> usize {
        self.blocks() * self.tile
    }

    /// Half-open index range `[start, end)` covered by block `b`, clamped to
    /// the true (unpadded) dimension.
    ///
    /// # Panics
    ///
    /// Panics if `b >= self.blocks()`.
    #[must_use]
    pub fn range(&self, b: usize) -> std::ops::Range<usize> {
        assert!(b < self.blocks(), "block index {b} out of bounds");
        let start = b * self.tile;
        start..((start + self.tile).min(self.n))
    }

    /// Number of valid (unpadded) rows in block `b`.
    #[must_use]
    pub fn block_len(&self, b: usize) -> usize {
        self.range(b).len()
    }

    /// Total count of logical tiles (`blocks²`).
    #[must_use]
    pub fn logical_tiles(&self) -> usize {
        self.blocks() * self.blocks()
    }

    /// Enumerates the symmetric pairs: all diagonal tiles plus each
    /// unordered off-diagonal pair once. Their count is
    /// `blocks · (blocks + 1) / 2`, which is also the number of physical
    /// OPCM arrays required — roughly half of [`Self::logical_tiles`]
    /// (the paper's ≈2× area saving).
    #[must_use]
    pub fn symmetric_pairs(&self) -> Vec<TilePair> {
        let b = self.blocks();
        let mut out = Vec::with_capacity(b * (b + 1) / 2);
        for r in 0..b {
            out.push(TilePair::Diagonal(r));
            for c in (r + 1)..b {
                out.push(TilePair::OffDiagonal { row: r, col: c });
            }
        }
        out
    }
}

/// One zero-padded square tile stored in `f32`.
///
/// `f32` matches the compute substrate: OPCM cells hold only a handful of
/// bits, so double precision would misrepresent the hardware and waste
/// memory bandwidth in the functional simulator.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Tile {
    size: usize,
    data: Vec<f32>,
    /// Column-major mirror of `data` (the transpose, row-major). Both MVM
    /// directions read their operand with unit stride: `mvm` sweeps the
    /// columns stored here, `mvm_transposed` sweeps the rows of `data`.
    data_t: Vec<f32>,
    /// Live `(rows, cols)` extent for zero-padded fringe tiles — `None`
    /// means the whole tile is live. Kernels trim their sweeps to this
    /// extent; because padded rows/columns are exactly zero, trimming is
    /// bitwise invisible (padded outputs are `+0.0` either way) and only
    /// saves the fringe's wasted kernel work. Normalized: a full extent
    /// is always stored as `None` so trim state never affects equality.
    #[cfg_attr(feature = "serde", serde(default))]
    used: Option<(usize, usize)>,
}

impl Tile {
    /// Extracts block `(idx.row, idx.col)` of `m` under `grid`, zero-padding
    /// the fringe.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not `grid.n() × grid.n()` or the index is out of
    /// bounds.
    #[must_use]
    pub fn from_matrix(m: &Matrix, grid: &TileGrid, idx: TileIndex) -> Self {
        assert_eq!(m.rows(), grid.n(), "matrix/grid mismatch");
        assert_eq!(m.cols(), grid.n(), "matrix/grid mismatch");
        let t = grid.tile();
        let rows = grid.range(idx.row);
        let cols = grid.range(idx.col);
        let mut data = vec![0.0_f32; t * t];
        for (local_r, r) in rows.clone().enumerate() {
            let src = &m.row(r)[cols.clone()];
            let dst = &mut data[local_r * t..local_r * t + src.len()];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s as f32;
            }
        }
        let data_t = transpose_flat(t, &data);
        let mut tile = Tile {
            size: t,
            data,
            data_t,
            used: None,
        };
        tile.set_used(rows.len(), cols.len());
        tile
    }

    /// Builds a tile directly from a flat row-major `f32` buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != size²`.
    pub fn from_vec(size: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != size * size {
            return Err(LinalgError::DimensionMismatch {
                expected: (size, size),
                found: (data.len(), 1),
            });
        }
        let data_t = transpose_flat(size, &data);
        Ok(Tile {
            size,
            data,
            data_t,
            used: None,
        })
    }

    /// Tile edge length.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Flat row-major contents.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat row-major contents of the transposed mirror (column-major view
    /// of the tile) — the k-major operand of the forward kernel sweep.
    #[must_use]
    pub fn data_t_slice(&self) -> &[f32] {
        &self.data_t
    }

    /// Live row count (rows beyond this are all-zero padding).
    #[must_use]
    pub fn rows_used(&self) -> usize {
        self.used.map_or(self.size, |(r, _)| r)
    }

    /// Live column count (columns beyond this are all-zero padding).
    #[must_use]
    pub fn cols_used(&self) -> usize {
        self.used.map_or(self.size, |(_, c)| c)
    }

    /// Declares the live `(rows, cols)` extent; everything outside it must
    /// already be zero. A full extent normalizes to "untrimmed" so trim
    /// state never makes otherwise-equal tiles compare unequal.
    ///
    /// # Panics
    ///
    /// Panics if either extent exceeds the tile size.
    pub fn set_used(&mut self, rows: usize, cols: usize) {
        assert!(
            rows <= self.size && cols <= self.size,
            "set_used: extent exceeds tile size"
        );
        self.used = if rows == self.size && cols == self.size {
            None
        } else {
            Some((rows, cols))
        };
    }

    /// Column `c` as a contiguous slice (read from the transposed mirror).
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.size()`.
    #[must_use]
    pub fn col_slice(&self, c: usize) -> &[f32] {
        assert!(c < self.size, "col_slice: column {c} out of bounds");
        &self.data_t[c * self.size..(c + 1) * self.size]
    }

    /// `y = T · x` (length `size` each).
    ///
    /// Implemented as a unit-stride column sweep over the transposed
    /// mirror (`y += x[c] · T[:,c]` for ascending `c`, skipping zero
    /// inputs), the same shape as [`Self::mvm_transposed`] — the row-dot
    /// form cannot be autovectorized under strict float semantics, which
    /// made the forward read ~3× slower than the transposed one.
    ///
    /// The accumulation contract both kernels share: every `y[i]` is a
    /// sequential sum of `T[i,c]·x[c]` in ascending `c` starting from
    /// `+0.0`, and terms that are exact zeros (zero weight or zero input)
    /// never change the accumulated bits — `+0.0 + ±0.0 == +0.0` and the
    /// accumulator can never become `-0.0`. Every kernel variant relies
    /// on this to skip zero terms while staying bit-identical.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn mvm(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.size, "mvm: input length mismatch");
        assert_eq!(y.len(), self.size, "mvm: output length mismatch");
        // Spin inputs are 0/1-sparse, so the zero-skipping axpy sweep is a
        // sensible default for direct callers; hot paths pick faster
        // variants through a [`crate::kernel::KernelPlan`].
        crate::kernel::scalar::axpy_sweep(
            &self.data_t,
            self.size,
            self.cols_used(),
            self.rows_used(),
            x,
            y,
        );
    }

    /// `y = Tᵀ · x`, i.e. the same stored array read in the other optical
    /// direction (paper Eq. 8/9, bidirectional OPCM array).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn mvm_transposed(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.size, "mvm_transposed: input length mismatch");
        assert_eq!(y.len(), self.size, "mvm_transposed: output length mismatch");
        crate::kernel::scalar::axpy_sweep(
            &self.data,
            self.size,
            self.rows_used(),
            self.cols_used(),
            x,
            y,
        );
    }

    /// Sum of each row (used for thresholds).
    #[must_use]
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.size)
            .map(|r| crate::vector::sum_f32(&self.data[r * self.size..(r + 1) * self.size]))
            .collect()
    }

    /// Sum of each column (row sums of the transposed tile).
    #[must_use]
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0_f32; self.size];
        for r in 0..self.size {
            let row = &self.data[r * self.size..(r + 1) * self.size];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }
}

/// Row-major transpose of a flat `size × size` buffer.
fn transpose_flat(size: usize, data: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0_f32; size * size];
    for r in 0..size {
        for c in 0..size {
            out[c * size + r] = data[r * size + c];
        }
    }
    out
}

/// All tiles of a matrix, for reference/validation computations.
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    grid: TileGrid,
    tiles: Vec<Tile>,
}

impl TiledMatrix {
    /// Tiles the whole matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `m` is rectangular, or an error
    /// from [`TileGrid::new`].
    pub fn new(m: &Matrix, tile: usize) -> Result<Self> {
        if !m.is_square() {
            return Err(LinalgError::NotSquare {
                rows: m.rows(),
                cols: m.cols(),
            });
        }
        let grid = TileGrid::new(m.rows(), tile)?;
        let b = grid.blocks();
        let mut tiles = Vec::with_capacity(b * b);
        for r in 0..b {
            for c in 0..b {
                tiles.push(Tile::from_matrix(m, &grid, TileIndex { row: r, col: c }));
            }
        }
        Ok(TiledMatrix { grid, tiles })
    }

    /// The tiling descriptor.
    #[must_use]
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Borrows the tile at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[must_use]
    pub fn tile(&self, idx: TileIndex) -> &Tile {
        let b = self.grid.blocks();
        assert!(idx.row < b && idx.col < b, "tile index out of bounds");
        &self.tiles[idx.row * b + idx.col]
    }

    /// Full matrix-vector product computed tile-by-tile on the padded
    /// vector; used to validate tiled execution against [`Matrix::matvec`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != grid.n()`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.grid.n(), "matvec: length mismatch");
        let t = self.grid.tile();
        let b = self.grid.blocks();
        let mut xpad = vec![0.0_f32; self.grid.padded_len()];
        for (i, &v) in x.iter().enumerate() {
            xpad[i] = v as f32;
        }
        let mut ypad = vec![0.0_f64; self.grid.padded_len()];
        let mut ytile = vec![0.0_f32; t];
        for br in 0..b {
            for bc in 0..b {
                let tile = self.tile(TileIndex { row: br, col: bc });
                tile.mvm(&xpad[bc * t..(bc + 1) * t], &mut ytile);
                for (acc, &v) in ypad[br * t..(br + 1) * t].iter_mut().zip(&ytile) {
                    *acc += f64::from(v);
                }
            }
        }
        ypad.truncate(self.grid.n());
        ypad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_geometry() {
        let g = TileGrid::new(130, 64).unwrap();
        assert_eq!(g.blocks(), 3);
        assert_eq!(g.padded_len(), 192);
        assert_eq!(g.range(0), 0..64);
        assert_eq!(g.range(2), 128..130);
        assert_eq!(g.block_len(2), 2);
    }

    #[test]
    fn grid_rejects_zero() {
        assert!(TileGrid::new(0, 4).is_err());
        assert!(TileGrid::new(4, 0).is_err());
    }

    #[test]
    fn exact_division_has_no_padding() {
        let g = TileGrid::new(128, 64).unwrap();
        assert_eq!(g.blocks(), 2);
        assert_eq!(g.padded_len(), 128);
    }

    #[test]
    fn symmetric_pair_count_is_triangular_number() {
        let g = TileGrid::new(256, 64).unwrap(); // 4 blocks
        let pairs = g.symmetric_pairs();
        assert_eq!(pairs.len(), 4 * 5 / 2);
        let diag = pairs
            .iter()
            .filter(|p| matches!(p, TilePair::Diagonal(_)))
            .count();
        assert_eq!(diag, 4);
        // Physical arrays ≈ half the logical tiles (the paper's area claim).
        assert_eq!(g.logical_tiles(), 16);
        assert!(pairs.len() * 2 >= g.logical_tiles());
        assert!(pairs.len() <= g.logical_tiles() / 2 + g.blocks());
    }

    #[test]
    fn pair_members_cover_every_logical_tile_once() {
        let g = TileGrid::new(192, 64).unwrap();
        let mut seen = std::collections::HashSet::new();
        for p in g.symmetric_pairs() {
            for m in p.members() {
                assert!(seen.insert((m.row, m.col)), "duplicate {m:?}");
            }
        }
        assert_eq!(seen.len(), g.logical_tiles());
    }

    #[test]
    fn tile_index_transposed() {
        let i = TileIndex { row: 1, col: 3 };
        assert_eq!(i.transposed(), TileIndex { row: 3, col: 1 });
        assert!(!i.is_diagonal());
        assert!(TileIndex { row: 2, col: 2 }.is_diagonal());
    }

    #[test]
    fn tile_extraction_pads_with_zeros() {
        let m = Matrix::from_fn(5, 5, |r, c| (r * 5 + c) as f64);
        let g = TileGrid::new(5, 4).unwrap();
        let t = Tile::from_matrix(&m, &g, TileIndex { row: 1, col: 1 });
        assert_eq!(t.size(), 4);
        assert_eq!(t.as_slice()[0], 24.0); // m[4][4]
        assert!(t.as_slice()[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn tile_mvm_matches_dense() {
        let m = Matrix::from_fn(4, 4, |r, c| (r as f64) - (c as f64) * 0.5);
        let g = TileGrid::new(4, 4).unwrap();
        let t = Tile::from_matrix(&m, &g, TileIndex { row: 0, col: 0 });
        let x = [1.0_f32, 2.0, 0.0, -1.0];
        let mut y = [0.0_f32; 4];
        t.mvm(&x, &mut y);
        let dense = m.matvec(&[1.0, 2.0, 0.0, -1.0]);
        for (a, b) in y.iter().zip(&dense) {
            assert!((f64::from(*a) - b).abs() < 1e-6);
        }
    }

    #[test]
    fn transposed_mvm_equals_mvm_of_partner_tile() {
        let m = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c * 7) % 5) as f64 - 2.0);
        let g = TileGrid::new(8, 4).unwrap();
        let t01 = Tile::from_matrix(&m, &g, TileIndex { row: 0, col: 1 });
        let t10 = Tile::from_matrix(&m, &g, TileIndex { row: 1, col: 0 });
        let x = [1.0_f32, -1.0, 0.5, 2.0];
        let mut a = [0.0_f32; 4];
        let mut b = [0.0_f32; 4];
        // For symmetric m, tile(1,0) = tile(0,1)ᵀ; for general m this checks
        // the bidirectional read: t01ᵀ·x == t10·x only if m symmetric, so
        // compare t01.mvm_transposed against explicit transpose instead.
        t01.mvm_transposed(&x, &mut a);
        let mt = m.transposed();
        let t01t = Tile::from_matrix(&mt, &g, TileIndex { row: 1, col: 0 });
        t01t.mvm(&x, &mut b);
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 1e-6);
        }
        let _ = t10;
    }

    #[test]
    fn tiled_matvec_matches_dense_matvec() {
        let n = 37;
        let m = Matrix::from_fn(n, n, |r, c| (((r * 13 + c * 29) % 9) as f64) - 4.0);
        let tm = TiledMatrix::new(&m, 8).unwrap();
        let x: Vec<f64> = (0..n).map(|i| ((i % 3) as f64) - 1.0).collect();
        let dense = m.matvec(&x);
        let tiled = tm.matvec(&x);
        for (a, b) in dense.iter().zip(&tiled) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn forward_matches_sequential_column_sweep_bitwise() {
        // The documented accumulation contract: y[i] is the sequential sum
        // of T[i,c]·x[c] for ascending c with zero inputs skipped. Every
        // kernel variant is held to this exactly.
        let size = 13;
        let t = Tile::from_vec(
            size,
            (0..size * size)
                .map(|i| ((i * 31 + 7) % 11) as f32 / 3.0 - 1.5)
                .collect(),
        )
        .unwrap();
        let x: Vec<f32> = (0..size)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    (i % 5) as f32 - 2.0
                }
            })
            .collect();
        let mut y = vec![0.0_f32; size];
        t.mvm(&x, &mut y);
        for (i, &yi) in y.iter().enumerate() {
            let mut acc = 0.0_f32;
            for (c, &xc) in x.iter().enumerate() {
                if xc != 0.0 {
                    acc += t.as_slice()[i * size + c] * xc;
                }
            }
            assert_eq!(yi.to_bits(), acc.to_bits(), "row {i}");
        }
    }

    #[test]
    fn col_slice_mirrors_rows() {
        let t = Tile::from_vec(3, (0..9).map(|i| i as f32).collect()).unwrap();
        assert_eq!(t.col_slice(1), &[1.0, 4.0, 7.0]);
        for c in 0..3 {
            for r in 0..3 {
                assert_eq!(t.col_slice(c)[r], t.as_slice()[r * 3 + c]);
            }
        }
    }

    #[test]
    fn row_and_col_sums() {
        let t = Tile::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.row_sums(), vec![3.0, 7.0]);
        assert_eq!(t.col_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tile::from_vec(2, vec![0.0; 3]).is_err());
    }
}
