//! Property tests: the distributed multiplies agree with the serial
//! product for arbitrary dimensions, grids, and processor counts, and
//! redistribution between arbitrary layout pairs is lossless and
//! bitwise identical to the entry-enumeration reference.

mod reference;

use proptest::prelude::*;
use qr3d_machine::{Clock, CostParams, Machine};
use qr3d_matrix::gemm::matmul;
use qr3d_matrix::layout::BlockRow;
use qr3d_matrix::Matrix;
use qr3d_mm::brick::{BrickA, BrickB, BrickC, DistLayout, RowCyclicDist, TransposedDist};
use qr3d_mm::dmm1d::{dmm1d_broadcast, dmm1d_reduce};
use qr3d_mm::dmm3d::{dmm3d, dmm3d_redistributed, Grid3};
use qr3d_mm::redist::redistribute;

use reference::{redistribute_reference, Redistribute};

/// Every `DistLayout` this crate defines for an `m × n` matrix over `p`
/// ranks, the bricks on `grid`.
fn all_layouts(m: usize, n: usize, p: usize, grid: Grid3) -> Vec<Box<dyn DistLayout + Sync>> {
    vec![
        Box::new(RowCyclicDist::new(m, n, p)),
        Box::new(BrickA::new(grid, m, n, p)),
        Box::new(BrickB::new(grid, m, n, p)),
        Box::new(BrickC::new(grid, m, n, p)),
        Box::new(TransposedDist(RowCyclicDist::new(n, m, p))),
        Box::new(TransposedDist(BrickA::new(grid, n, m, p))),
        Box::new(TransposedDist(BrickB::new(grid, n, m, p))),
        Box::new(TransposedDist(BrickC::new(grid, n, m, p))),
    ]
}

/// Run `f` for every `(from, to)` pair, one after another on one
/// machine; per rank, each call's output buffer and the clock after it.
fn run_pairs(
    f: Redistribute,
    p: usize,
    full: &Matrix,
    froms: &[Box<dyn DistLayout + Sync>],
    tos: &[Box<dyn DistLayout + Sync>],
) -> Vec<Vec<(Vec<u64>, Clock)>> {
    let machine = Machine::new(p, CostParams::laptop());
    let out = machine.run(|rank| {
        let w = rank.world();
        let me = w.rank();
        let mut calls = Vec::new();
        for from in froms {
            for to in tos {
                let local: Vec<f64> = from
                    .entries(me)
                    .iter()
                    .map(|&(i, j)| full[(i, j)])
                    .collect();
                let res = f(rank, &w, &local, from.as_ref(), to.as_ref());
                let expect: Vec<f64> = to.entries(me).iter().map(|&(i, j)| full[(i, j)]).collect();
                assert_eq!(res, expect, "rank {me} holds its target entries");
                calls.push((res.iter().map(|v| v.to_bits()).collect(), rank.clock()));
            }
        }
        calls
    });
    out.results
}

/// `redistribute` and the reference agree bitwise, buffers and clocks,
/// on every layout pair for an `m × n` matrix over `p` ranks. The target
/// bricks use a permutation of `grid`, so source and target cuts differ.
fn assert_matches_reference(m: usize, n: usize, p: usize, grid: Grid3, seed: u64) {
    let full = Matrix::random(m, n, seed);
    let froms = all_layouts(m, n, p, grid);
    let tos = all_layouts(m, n, p, Grid3::new(grid.s, grid.q, grid.r));
    let fast = run_pairs(redistribute, p, &full, &froms, &tos);
    let reference = run_pairs(redistribute_reference, p, &full, &froms, &tos);
    assert_eq!(fast, reference, "{m} x {n} over {p} ranks on {grid:?}");
}

#[test]
fn redistribute_matches_reference_on_edge_shapes() {
    // No rows, one column, a single rank, and idle ranks up to P = 9.
    for (m, n, (q, r, s), p) in [
        (0, 3, (1, 1, 1), 1),
        (0, 1, (2, 1, 2), 5),
        (7, 4, (1, 1, 1), 1),
        (5, 1, (2, 2, 2), 9),
        (1, 1, (3, 3, 1), 9),
        (9, 1, (1, 3, 1), 7),
    ] {
        assert_matches_reference(m, n, p, Grid3::new(q, r, s), 11);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn redistribute_is_bitwise_the_enumeration_reference(
        m in 0usize..12, n in 1usize..7,
        gq in 1usize..4, gr in 1usize..4, gs in 1usize..3,
        idle in 0usize..3,
        seed in 0u64..500,
    ) {
        prop_assume!(gq * gr * gs <= 9);
        let grid = Grid3::new(gq, gr, gs);
        assert_matches_reference(m, n, (grid.procs() + idle).min(9), grid, seed);
    }

    #[test]
    fn dmm3d_matches_serial(
        i in 1usize..14, j in 1usize..14, k in 1usize..14,
        gq in 1usize..4, gr in 1usize..4, gs in 1usize..4,
        idle in 0usize..3,
        seed in 0u64..500,
    ) {
        let grid = Grid3::new(gq, gr, gs);
        let p = grid.procs() + idle;
        let a = Matrix::random(i, k, seed);
        let b = Matrix::random(k, j, seed + 1);
        let expect = matmul(&a, &b);
        let brick_a = BrickA::new(grid, i, k, p);
        let brick_b = BrickB::new(grid, k, j, p);
        let brick_c = BrickC::new(grid, i, j, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let (a_loc, b_loc) = match grid.coords(w.rank()) {
                Some((q, r, s)) => {
                    let (ar, ac) = brick_a.block_of(q, r, s);
                    let (br, bc) = brick_b.block_of(q, r, s);
                    (
                        a.submatrix(ar.start, ar.end, ac.start, ac.end),
                        b.submatrix(br.start, br.end, bc.start, bc.end),
                    )
                }
                None => (Matrix::zeros(0, 0), Matrix::zeros(0, 0)),
            };
            dmm3d(rank, &w, grid, &a_loc, &b_loc, i, j, k)
        });
        let mut c = Matrix::zeros(i, j);
        for rank in 0..p {
            if let Some((q, r, s)) = grid.coords(rank) {
                let (rows, cols) = brick_c.block_of(q, r, s);
                c.set_submatrix(rows.start, cols.start, &out.results[rank]);
            }
        }
        prop_assert!(c.sub(&expect).max_abs() < 1e-10);
    }

    #[test]
    fn dmm3d_redistributed_matches_serial(
        i in 1usize..16, j in 1usize..8, k in 1usize..8,
        p in 1usize..7,
        seed in 0u64..500,
    ) {
        let a = Matrix::random(i, k, seed);
        let b = Matrix::random(k, j, seed + 2);
        let expect = matmul(&a, &b);
        let a_lay = RowCyclicDist::new(i, k, p);
        let b_lay = RowCyclicDist::new(k, j, p);
        let c_lay = RowCyclicDist::new(i, j, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let a_loc: Vec<f64> =
                a_lay.entries(me).iter().map(|&(r, c)| a[(r, c)]).collect();
            let b_loc: Vec<f64> =
                b_lay.entries(me).iter().map(|&(r, c)| b[(r, c)]).collect();
            dmm3d_redistributed(rank, &w, &a_loc, &a_lay, &b_loc, &b_lay, &c_lay)
        });
        let mut c = Matrix::zeros(i, j);
        for (rank, res) in out.results.iter().enumerate() {
            for (&(r, col), &v) in c_lay.entries(rank).iter().zip(res.iter()) {
                c[(r, col)] = v;
            }
        }
        prop_assert!(c.sub(&expect).max_abs() < 1e-10);
    }

    #[test]
    fn dmm1d_cases_match_serial(
        m in 1usize..40, i in 1usize..6, j in 1usize..6,
        p in 1usize..6, root_sel in 0usize..6,
        seed in 0u64..500,
    ) {
        let root = root_sel % p;
        let left = Matrix::random(m, i, seed);
        let right = Matrix::random(m, j, seed + 3);
        let lay = BlockRow::balanced(m, 1, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            dmm1d_reduce(rank, &w, &left.take_rows(&rows), &right.take_rows(&rows), root)
        });
        let expect = matmul(&left.transpose(), &right);
        let got = out.results[root].as_ref().unwrap();
        prop_assert!(got.sub(&expect).max_abs() < 1e-10);

        // Broadcast case: C = right_rows · Bsmall.
        let bsmall = Matrix::random(j, i, seed + 4);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let b_root = (w.rank() == root).then(|| bsmall.clone());
            dmm1d_broadcast(rank, &w, &right.take_rows(&rows), b_root, j, i, root)
        });
        let expect = matmul(&right, &bsmall);
        let starts = lay.starts();
        for (r, res) in out.results.iter().enumerate() {
            let piece = expect.submatrix(starts[r], starts[r + 1], 0, i);
            prop_assert!(res.sub(&piece).max_abs() < 1e-10);
        }
    }

    #[test]
    fn redistribution_roundtrip_arbitrary_layout_pairs(
        rows in 1usize..16, cols in 1usize..6,
        gq in 1usize..3, gr in 1usize..3, gs in 1usize..3,
        idle in 0usize..2,
        transposed in proptest::bool::ANY,
    ) {
        let grid = Grid3::new(gq, gr, gs);
        let p = grid.procs() + idle;
        let full = Matrix::from_fn(rows, cols, |i, j| (i * cols + j + 1) as f64);
        let rc = RowCyclicDist::new(rows, cols, p);
        let brick = BrickA::new(grid, rows, cols, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            if transposed {
                // transpose-adapted source: the same physical data viewed
                // as the layout of the transpose.
                let src = TransposedDist(rc.clone());
                let dst = TransposedDist(brick.clone());
                let local: Vec<f64> =
                    src.entries(me).iter().map(|&(i, j)| full[(j, i)]).collect();
                let fwd = redistribute(rank, &w, &local, &src, &dst);
                redistribute(rank, &w, &fwd, &dst, &src)
            } else {
                let local: Vec<f64> =
                    rc.entries(me).iter().map(|&(i, j)| full[(i, j)]).collect();
                let fwd = redistribute(rank, &w, &local, &rc, &brick);
                redistribute(rank, &w, &fwd, &brick, &rc)
            }
        });
        for (rank, res) in out.results.iter().enumerate() {
            let expect: Vec<f64> = if transposed {
                TransposedDist(rc.clone())
                    .entries(rank)
                    .iter()
                    .map(|&(i, j)| full[(j, i)])
                    .collect()
            } else {
                rc.entries(rank).iter().map(|&(i, j)| full[(i, j)]).collect()
            };
            prop_assert_eq!(res, &expect);
        }
    }
}
