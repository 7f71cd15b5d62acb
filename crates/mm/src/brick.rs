//! Distributed-layout abstraction and the 3D brick layouts of Appendix B.
//!
//! [`DistLayout`] describes which rank owns each entry of a distributed
//! matrix and in what order a rank's entries appear in its local dense
//! buffer. Layouts are pure metadata — every rank computes identical maps
//! locally, which is what lets [`crate::redist::redistribute`] route
//! entries without headers.
//!
//! **The product-set contract.** Every layout hands each rank a
//! [`LocalBlock`]: a strictly ascending set of global rows × a strictly
//! ascending set of global columns, stored row-major or column-major.
//! Row-cyclic layouts own "every P-th row × all columns", bricks own a
//! contiguous row range × a contiguous column range, and
//! [`TransposedDist`] swaps the two sets and flips the order. The entry
//! list ([`DistLayout::entries`]) and count ([`DistLayout::local_count`])
//! are derived from the block, so a layout states its ownership once and
//! the redistribution can intersect index sets instead of walking entries.
//!
//! The brick layouts implement Appendix B.1: for `C = A·B` with `A` of
//! shape `I × K` and `B` of shape `K × J` on a `Q × R × S` grid,
//!
//! * grid processor `(q, r, s)` owns a balanced share of `A[I_q, K_s]`
//!   (partitioned among the `R` fiber by rows),
//! * a balanced share of `B[K_s, J_r]` (partitioned among the `Q` fiber
//!   by rows),
//! * and, at the end, a balanced share of `C[I_q, J_r]` (partitioned
//!   among the `S` fiber by rows),
//!
//! with all partitions balanced and contiguous ("take any balanced
//! partitions {I_q}, {J_r}, {K_s}").

use qr3d_matrix::layout::RowCyclic;
use qr3d_matrix::partition::balanced_ranges;
use std::ops::Range;

use crate::dmm3d::Grid3;

/// Storage order of a rank's local buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Entry `(rows[a], cols[b])` sits at `a·cols.len() + b`.
    RowMajor,
    /// Entry `(rows[a], cols[b])` sits at `b·rows.len() + a`.
    ColMajor,
}

/// The entries one rank owns: every pair of `rows × cols`, both strictly
/// ascending global indices, stored in `order`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalBlock {
    /// Owned global rows, strictly ascending.
    pub rows: Vec<usize>,
    /// Owned global columns, strictly ascending.
    pub cols: Vec<usize>,
    /// Local buffer order.
    pub order: Order,
}

impl LocalBlock {
    /// Row-major block of contiguous row and column ranges.
    pub fn ranges(rows: Range<usize>, cols: Range<usize>) -> Self {
        LocalBlock {
            rows: rows.collect(),
            cols: cols.collect(),
            order: Order::RowMajor,
        }
    }

    /// The block of an idle rank.
    pub fn empty() -> Self {
        LocalBlock::ranges(0..0, 0..0)
    }

    /// Number of owned entries.
    pub fn len(&self) -> usize {
        self.rows.len() * self.cols.len()
    }

    /// Whether the rank owns nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Buffer position of entry `(rows[a], cols[b])`.
    pub fn slot(&self, a: usize, b: usize) -> usize {
        match self.order {
            Order::RowMajor => a * self.cols.len() + b,
            Order::ColMajor => b * self.rows.len() + a,
        }
    }

    /// The same buffer read as the block of the transposed matrix.
    pub fn transposed(self) -> Self {
        LocalBlock {
            rows: self.cols,
            cols: self.rows,
            order: match self.order {
                Order::RowMajor => Order::ColMajor,
                Order::ColMajor => Order::RowMajor,
            },
        }
    }
}

/// A distributed layout: ownership and local-buffer order.
pub trait DistLayout {
    /// Global matrix height.
    fn rows(&self) -> usize;
    /// Global matrix width.
    fn cols(&self) -> usize;
    /// Number of ranks the layout is defined over.
    fn procs(&self) -> usize;
    /// Owner rank of global entry `(i, j)`.
    fn owner(&self, i: usize, j: usize) -> usize;
    /// The product set `rank` owns and its buffer order. Blocks of
    /// distinct ranks are disjoint and together cover the matrix.
    fn local_block(&self, rank: usize) -> LocalBlock;
    /// The entries owned by `rank`, in local-buffer order.
    fn entries(&self, rank: usize) -> Vec<(usize, usize)> {
        let b = self.local_block(rank);
        let mut out = vec![(0, 0); b.len()];
        for (a, &i) in b.rows.iter().enumerate() {
            for (c, &j) in b.cols.iter().enumerate() {
                out[b.slot(a, c)] = (i, j);
            }
        }
        out
    }
    /// Number of entries owned by `rank`.
    fn local_count(&self, rank: usize) -> usize {
        self.local_block(rank).len()
    }
}

/// Row-cyclic layout as a [`DistLayout`] (local buffer = owned rows in
/// ascending global order, row-major).
#[derive(Debug, Clone)]
pub struct RowCyclicDist(pub RowCyclic);

impl RowCyclicDist {
    /// Row-cyclic distribution of an `rows × cols` matrix over `p` ranks.
    pub fn new(rows: usize, cols: usize, p: usize) -> Self {
        RowCyclicDist(RowCyclic::new(rows, cols, p))
    }
}

impl DistLayout for RowCyclicDist {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    fn procs(&self) -> usize {
        self.0.procs()
    }
    fn owner(&self, i: usize, _j: usize) -> usize {
        self.0.owner(i)
    }
    fn local_block(&self, rank: usize) -> LocalBlock {
        LocalBlock {
            rows: self.0.local_rows(rank),
            cols: (0..self.0.cols()).collect(),
            order: Order::RowMajor,
        }
    }
}

/// View a layout of an `r × c` matrix as the layout of its `c × r`
/// transpose: entry `(i, j)` of the transposed matrix is entry `(j, i)`
/// of the inner one, and local buffers hold the *inner* (untransposed)
/// matrix. Used for "the left factor is row-cyclic, transposed"
/// (Section 7.2, Line 6).
#[derive(Debug, Clone)]
pub struct TransposedDist<L: DistLayout>(pub L);

impl<L: DistLayout> DistLayout for TransposedDist<L> {
    fn rows(&self) -> usize {
        self.0.cols()
    }
    fn cols(&self) -> usize {
        self.0.rows()
    }
    fn procs(&self) -> usize {
        self.0.procs()
    }
    fn owner(&self, i: usize, j: usize) -> usize {
        self.0.owner(j, i)
    }
    fn local_block(&self, rank: usize) -> LocalBlock {
        self.0.local_block(rank).transposed()
    }
}

/// The block of grid coordinates `coords` under a brick layout, or the
/// empty block for idle ranks beyond `Q·R·S`.
fn brick_block(
    coords: Option<(usize, usize, usize)>,
    block_of: impl Fn(usize, usize, usize) -> (Range<usize>, Range<usize>),
) -> LocalBlock {
    match coords {
        Some((q, r, s)) => {
            let (rows, cols) = block_of(q, r, s);
            LocalBlock::ranges(rows, cols)
        }
        None => LocalBlock::empty(),
    }
}

/// Brick layout of the left operand `A` (`I × K`): processor `(q, r, s)`
/// owns the `r`-th balanced slice of `I_q`'s rows, columns `K_s`.
#[derive(Debug, Clone)]
pub struct BrickA {
    grid: Grid3,
    i: usize,
    k: usize,
    p: usize,
}

/// Brick layout of the right operand `B` (`K × J`): processor `(q, r, s)`
/// owns the `q`-th balanced slice of `K_s`'s rows, columns `J_r`.
#[derive(Debug, Clone)]
pub struct BrickB {
    grid: Grid3,
    k: usize,
    j: usize,
    p: usize,
}

/// Brick layout of the output `C` (`I × J`): processor `(q, r, s)` owns
/// the `s`-th balanced slice of `I_q`'s rows, columns `J_r`.
#[derive(Debug, Clone)]
pub struct BrickC {
    grid: Grid3,
    i: usize,
    j: usize,
    p: usize,
}

impl BrickA {
    /// Layout over `p` ranks (ranks `≥ grid.procs()` idle).
    pub fn new(grid: Grid3, i: usize, k: usize, p: usize) -> Self {
        assert!(grid.procs() <= p, "grid larger than communicator");
        BrickA { grid, i, k, p }
    }

    /// The (row range, col range) owned by grid coordinates `(q, r, s)`.
    pub fn block_of(&self, q: usize, r: usize, s: usize) -> (Range<usize>, Range<usize>) {
        let iq = balanced_ranges(self.i, self.grid.q)[q].clone();
        let sub = balanced_ranges(iq.len(), self.grid.r)[r].clone();
        let rows = iq.start + sub.start..iq.start + sub.end;
        let cols = balanced_ranges(self.k, self.grid.s)[s].clone();
        (rows, cols)
    }
}

impl DistLayout for BrickA {
    fn rows(&self) -> usize {
        self.i
    }
    fn cols(&self) -> usize {
        self.k
    }
    fn procs(&self) -> usize {
        self.p
    }
    fn owner(&self, i: usize, j: usize) -> usize {
        let q = qr3d_matrix::partition::part_of(i, self.i, self.grid.q);
        let iq = balanced_ranges(self.i, self.grid.q)[q].clone();
        let r = qr3d_matrix::partition::part_of(i - iq.start, iq.len(), self.grid.r);
        let s = qr3d_matrix::partition::part_of(j, self.k, self.grid.s);
        self.grid.flat(q, r, s)
    }
    fn local_block(&self, rank: usize) -> LocalBlock {
        brick_block(self.grid.coords(rank), |q, r, s| self.block_of(q, r, s))
    }
}

impl BrickB {
    /// Layout over `p` ranks (ranks `≥ grid.procs()` idle).
    pub fn new(grid: Grid3, k: usize, j: usize, p: usize) -> Self {
        assert!(grid.procs() <= p, "grid larger than communicator");
        BrickB { grid, k, j, p }
    }

    /// The (row range, col range) owned by grid coordinates `(q, r, s)`.
    pub fn block_of(&self, q: usize, r: usize, s: usize) -> (Range<usize>, Range<usize>) {
        let ks = balanced_ranges(self.k, self.grid.s)[s].clone();
        let sub = balanced_ranges(ks.len(), self.grid.q)[q].clone();
        let rows = ks.start + sub.start..ks.start + sub.end;
        let cols = balanced_ranges(self.j, self.grid.r)[r].clone();
        (rows, cols)
    }
}

impl DistLayout for BrickB {
    fn rows(&self) -> usize {
        self.k
    }
    fn cols(&self) -> usize {
        self.j
    }
    fn procs(&self) -> usize {
        self.p
    }
    fn owner(&self, i: usize, j: usize) -> usize {
        let s = qr3d_matrix::partition::part_of(i, self.k, self.grid.s);
        let ks = balanced_ranges(self.k, self.grid.s)[s].clone();
        let q = qr3d_matrix::partition::part_of(i - ks.start, ks.len(), self.grid.q);
        let r = qr3d_matrix::partition::part_of(j, self.j, self.grid.r);
        self.grid.flat(q, r, s)
    }
    fn local_block(&self, rank: usize) -> LocalBlock {
        brick_block(self.grid.coords(rank), |q, r, s| self.block_of(q, r, s))
    }
}

impl BrickC {
    /// Layout over `p` ranks (ranks `≥ grid.procs()` idle).
    pub fn new(grid: Grid3, i: usize, j: usize, p: usize) -> Self {
        assert!(grid.procs() <= p, "grid larger than communicator");
        BrickC { grid, i, j, p }
    }

    /// The (row range, col range) owned by grid coordinates `(q, r, s)`.
    pub fn block_of(&self, q: usize, r: usize, s: usize) -> (Range<usize>, Range<usize>) {
        let iq = balanced_ranges(self.i, self.grid.q)[q].clone();
        let sub = balanced_ranges(iq.len(), self.grid.s)[s].clone();
        let rows = iq.start + sub.start..iq.start + sub.end;
        let cols = balanced_ranges(self.j, self.grid.r)[r].clone();
        (rows, cols)
    }
}

impl DistLayout for BrickC {
    fn rows(&self) -> usize {
        self.i
    }
    fn cols(&self) -> usize {
        self.j
    }
    fn procs(&self) -> usize {
        self.p
    }
    fn owner(&self, i: usize, j: usize) -> usize {
        let q = qr3d_matrix::partition::part_of(i, self.i, self.grid.q);
        let iq = balanced_ranges(self.i, self.grid.q)[q].clone();
        let s = qr3d_matrix::partition::part_of(i - iq.start, iq.len(), self.grid.s);
        let r = qr3d_matrix::partition::part_of(j, self.j, self.grid.r);
        self.grid.flat(q, r, s)
    }
    fn local_block(&self, rank: usize) -> LocalBlock {
        brick_block(self.grid.coords(rank), |q, r, s| self.block_of(q, r, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_layout(l: &dyn DistLayout) {
        // Each block is a product of strictly ascending in-range index
        // sets; the derived entries agree with `owner`, cover every entry
        // exactly once, and the counts add up.
        let (m, n) = (l.rows(), l.cols());
        let mut seen = vec![false; m * n];
        let mut total = 0;
        for rank in 0..l.procs() {
            let b = l.local_block(rank);
            for (set, bound) in [(&b.rows, m), (&b.cols, n)] {
                assert!(set.windows(2).all(|w| w[0] < w[1]), "ascending");
                assert!(set.iter().all(|&x| x < bound), "index in range");
            }
            let es = l.entries(rank);
            assert_eq!(es.len(), l.local_count(rank));
            // Row-major buffers list entries by (row, col), column-major
            // ones by (col, row).
            let key = |&(i, j): &(usize, usize)| match b.order {
                Order::RowMajor => (i, j),
                Order::ColMajor => (j, i),
            };
            assert!(
                es.windows(2).all(|w| key(&w[0]) < key(&w[1])),
                "buffer order"
            );
            for &(i, j) in &es {
                assert!(i < m && j < n, "entry in range");
                assert_eq!(l.owner(i, j), rank, "owner consistent at ({i},{j})");
                assert!(!seen[i * n + j], "entry ({i},{j}) owned twice");
                seen[i * n + j] = true;
                total += 1;
            }
        }
        assert_eq!(total, m * n, "all entries covered");
    }

    #[test]
    fn row_cyclic_dist_covers() {
        check_layout(&RowCyclicDist::new(11, 3, 4));
        check_layout(&RowCyclicDist::new(2, 5, 4)); // idle ranks
        check_layout(&RowCyclicDist::new(8, 1, 1));
    }

    #[test]
    fn transposed_dist_covers_and_flips() {
        let base = RowCyclicDist::new(10, 4, 3);
        let t = TransposedDist(base.clone());
        check_layout(&t);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 10);
        assert_eq!(t.owner(2, 7), base.owner(7, 2));
    }

    #[test]
    fn brick_layouts_cover_all_grids() {
        for (q, r, s) in [(1, 1, 1), (2, 2, 2), (2, 3, 1), (3, 1, 2), (1, 4, 2)] {
            let grid = Grid3::new(q, r, s);
            let p = grid.procs() + 1; // one idle rank
            check_layout(&BrickA::new(grid, 13, 7, p));
            check_layout(&BrickB::new(grid, 7, 9, p));
            check_layout(&BrickC::new(grid, 13, 9, p));
            check_layout(&TransposedDist(BrickA::new(grid, 13, 7, p)));
            check_layout(&TransposedDist(BrickC::new(grid, 13, 9, p)));
        }
    }

    #[test]
    fn brick_a_blocks_are_balanced() {
        let grid = Grid3::new(2, 2, 2);
        let a = BrickA::new(grid, 16, 8, 8);
        let mut counts = Vec::new();
        for rank in 0..8 {
            counts.push(a.local_count(rank));
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // (I/Q/R)·(K/S) = 4·4 = 16 per rank, perfectly balanced here.
        assert_eq!(max, 16);
        assert_eq!(min, 16);
    }

    #[test]
    fn idle_ranks_own_nothing() {
        let grid = Grid3::new(2, 1, 1);
        let c = BrickC::new(grid, 6, 6, 5);
        assert_eq!(c.local_count(2), 0);
        assert_eq!(c.local_count(4), 0);
        assert!(c.entries(3).is_empty());
    }

    #[test]
    fn tiny_matrices_dont_break_bricks() {
        let grid = Grid3::new(2, 2, 2);
        // Fewer rows than Q: some parts empty.
        check_layout(&BrickA::new(grid, 1, 1, 8));
        check_layout(&BrickB::new(grid, 1, 1, 8));
        check_layout(&BrickC::new(grid, 1, 1, 8));
    }
}
