//! Layout-to-layout redistribution via two-phase all-to-all.
//!
//! "The first all-to-all redistributes the input matrices from column- and
//! row-cyclic to dmm layout [...]; the second all-to-all converts the
//! output matrix from dmm layout to row-cyclic layout" (Section 7.2).
//!
//! Every layout owns product sets (the [`LocalBlock`] contract of
//! [`crate::brick`]): rank `s` under `from` holds rows `Rₛ` × cols `Cₛ`,
//! rank `d` under `to` holds `R′_d × C′_d`. So the words `s` sends `d` are
//! exactly `(Rₛ ∩ R′_d) × (Cₛ ∩ C′_d)`, and the plan is computed in closed
//! form from index-set intersections:
//!
//! * the `P × P` block sizes are `|Rₛ ∩ R′_d| · |Cₛ ∩ C′_d|`;
//! * a sender packs its share for `d` in its own buffer order, restricted
//!   to the intersection;
//! * a receiver walks the same intersection in the *sender's* order and
//!   drops each value at its own buffer position.
//!
//! Each rank does `O(P · Σᵣ (|Rᵣ| + |Cᵣ|))` index work — linear in the
//! layouts' index lists, independent of how many entries other ranks own
//! — plus `O(local)` copies. Both endpoints derive the same order, so no
//! indices travel: the words charged are exactly the matrix entries moved,
//! as in the paper's analysis.

use qr3d_collectives::alltoall::all_to_all;
use qr3d_collectives::BlockSizes;
use qr3d_machine::{Comm, Rank};

use crate::brick::{DistLayout, LocalBlock, Order};

/// Convert this rank's local buffer from layout `from` to layout `to`
/// using one two-phase all-to-all. `local` must hold this rank's entries
/// in `from`'s buffer order ([`DistLayout::entries`]); the result holds
/// them in `to`'s.
pub fn redistribute(
    rank: &mut Rank,
    comm: &Comm,
    local: &[f64],
    from: &dyn DistLayout,
    to: &dyn DistLayout,
) -> Vec<f64> {
    let p = comm.size();
    let me = comm.rank();
    assert_eq!(from.procs(), p, "source layout rank count");
    assert_eq!(to.procs(), p, "target layout rank count");
    assert_eq!(from.rows(), to.rows(), "layout shape mismatch");
    assert_eq!(from.cols(), to.cols(), "layout shape mismatch");

    let src: Vec<LocalBlock> = (0..p).map(|r| from.local_block(r)).collect();
    let dst: Vec<LocalBlock> = (0..p).map(|r| to.local_block(r)).collect();
    assert_eq!(local.len(), src[me].len(), "local buffer size mismatch");

    // Every rank derives the full size matrix from the layouts.
    let sizes = BlockSizes::from_fn(p, |s, d| {
        overlap_len(&src[s].rows, &dst[d].rows) * overlap_len(&src[s].cols, &dst[d].cols)
    });

    let blocks: Vec<Vec<f64>> = (0..p)
        .map(|d| {
            let mut block = Vec::with_capacity(sizes.get(me, d));
            for_each_shared(&src[me], &dst[d], |from_slot, _| {
                block.push(local[from_slot])
            });
            block
        })
        .collect();

    let incoming = all_to_all(rank, comm, blocks, &sizes);

    // The values from source s arrive in s's buffer order, restricted to
    // the entries I own under `to`.
    let mut out = vec![0.0; dst[me].len()];
    for (s, bundle) in incoming.iter().enumerate() {
        assert_eq!(bundle.len(), sizes.get(s, me), "bundle size mismatch");
        let mut next = bundle.iter();
        for_each_shared(&src[s], &dst[me], |_, to_slot| {
            out[to_slot] = *next.next().expect("bundle length checked above");
        });
    }
    out
}

/// Call `f(slot in a, slot in b)` for every entry both blocks own, in
/// `a`'s buffer order.
fn for_each_shared(a: &LocalBlock, b: &LocalBlock, mut f: impl FnMut(usize, usize)) {
    let rows = overlap(&a.rows, &b.rows);
    let cols = overlap(&a.cols, &b.cols);
    match a.order {
        Order::RowMajor => {
            for &(ra, rb) in &rows {
                for &(ca, cb) in &cols {
                    f(a.slot(ra, ca), b.slot(rb, cb));
                }
            }
        }
        Order::ColMajor => {
            for &(ca, cb) in &cols {
                for &(ra, rb) in &rows {
                    f(a.slot(ra, ca), b.slot(rb, cb));
                }
            }
        }
    }
}

/// Positions `(in x, in y)` of the common elements of two strictly
/// ascending lists, ascending.
fn overlap(x: &[usize], y: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    merge_common(x, y, |a, b| out.push((a, b)));
    out
}

/// Number of common elements of two strictly ascending lists.
fn overlap_len(x: &[usize], y: &[usize]) -> usize {
    let mut n = 0;
    merge_common(x, y, |_, _| n += 1);
    n
}

/// Two-pointer merge: call `f(a, b)` for every `x[a] == y[b]`.
fn merge_common(x: &[usize], y: &[usize], mut f: impl FnMut(usize, usize)) {
    let (mut a, mut b) = (0, 0);
    while a < x.len() && b < y.len() {
        match x[a].cmp(&y[b]) {
            std::cmp::Ordering::Less => a += 1,
            std::cmp::Ordering::Greater => b += 1,
            std::cmp::Ordering::Equal => {
                f(a, b);
                a += 1;
                b += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brick::{BrickA, BrickC, RowCyclicDist, TransposedDist};
    use crate::dmm3d::Grid3;
    use qr3d_machine::{CostParams, Machine};
    use qr3d_matrix::Matrix;

    /// Scatter a full matrix into layout-ordered local buffers, run a
    /// redistribution, and check the result matches the target layout's
    /// scattering of the same matrix.
    fn roundtrip(p: usize, from: &(dyn DistLayout + Sync), to: &(dyn DistLayout + Sync)) {
        let (m, n) = (from.rows(), from.cols());
        let full = Matrix::from_fn(m, n, |i, j| (i * n + j) as f64);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let local: Vec<f64> = from
                .entries(me)
                .iter()
                .map(|&(i, j)| full[(i, j)])
                .collect();
            redistribute(rank, &w, &local, from, to)
        });
        for (r, res) in out.results.iter().enumerate() {
            let expect: Vec<f64> = to.entries(r).iter().map(|&(i, j)| full[(i, j)]).collect();
            assert_eq!(res, &expect, "rank {r} local buffer");
        }
    }

    #[test]
    fn row_cyclic_to_brick_and_back() {
        let p = 8;
        let (i, k) = (20, 12);
        let grid = Grid3::new(2, 2, 2);
        let rc = RowCyclicDist::new(i, k, p);
        let brick = BrickA::new(grid, i, k, p);
        roundtrip(p, &rc, &brick);
        roundtrip(p, &brick, &rc);
    }

    #[test]
    fn transposed_row_cyclic_to_brick() {
        // The 3D-CAQR-EG Line 6 case: left factor stored row-cyclic,
        // used transposed.
        let p = 6;
        let (m, half_n) = (18, 5); // V is m × n/2; A-operand is (n/2) × m
        let v_lay = TransposedDist(RowCyclicDist::new(m, half_n, p));
        let grid = Grid3::choose(half_n, half_n, m, p);
        let brick = BrickA::new(grid, half_n, m, p);
        roundtrip(p, &v_lay, &brick);
    }

    #[test]
    fn brick_c_to_row_cyclic() {
        let p = 7;
        let (i, j) = (15, 9);
        let grid = Grid3::new(3, 2, 1);
        roundtrip(p, &BrickC::new(grid, i, j, p), &RowCyclicDist::new(i, j, p));
    }

    #[test]
    fn identity_redistribution_is_lossless() {
        let p = 4;
        let rc = RowCyclicDist::new(10, 3, p);
        roundtrip(p, &rc, &rc.clone());
    }

    #[test]
    fn single_rank_redistribution() {
        let rc = RowCyclicDist::new(5, 4, 1);
        let grid = Grid3::new(1, 1, 1);
        roundtrip(1, &rc, &BrickA::new(grid, 5, 4, 1));
    }

    #[test]
    fn empty_matrix_redistribution() {
        let p = 3;
        let rc = RowCyclicDist::new(0, 4, p);
        let rc2 = RowCyclicDist::new(0, 4, p);
        roundtrip(p, &rc, &rc2);
    }

    #[test]
    fn redistribution_moves_only_matrix_words() {
        // Total volume ≤ 2 × (entries not already in place) × small
        // two-phase overhead; sanity check it's bounded by ~2× total size
        // plus the per-message latency blocks.
        let p = 4;
        let (m, n) = (16, 8);
        let full = Matrix::random(m, n, 3);
        let from = RowCyclicDist::new(m, n, p);
        let grid = Grid3::new(2, 2, 1);
        let to = BrickA::new(grid, m, n, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let local: Vec<f64> = from
                .entries(me)
                .iter()
                .map(|&(i, j)| full[(i, j)])
                .collect();
            redistribute(rank, &w, &local, &from, &to)
        });
        // Two-phase all-to-all moves each word at most twice (to the
        // intermediate and to the destination), counted at both endpoints.
        let bound = 4.0 * (m * n) as f64 + 100.0;
        assert!(
            out.stats.total_volume() <= bound,
            "volume {} exceeds {bound}",
            out.stats.total_volume()
        );
    }
}
