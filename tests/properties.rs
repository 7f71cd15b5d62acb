//! Property-based tests (proptest) on the core invariants, across random
//! shapes, processor counts, block sizes, and seeds.

#[path = "../crates/mm/tests/reference/mod.rs"]
mod reference;

use proptest::prelude::*;
use qr3d::matrix::layout::BlockRow;
use qr3d::prelude::*;

/// Redistribute `full` from `from` to `to` with `redistribute` and with
/// the entry-enumeration reference; both must leave every rank the same
/// bits and the same clock.
fn assert_redistribution_matches_reference(
    full: &Matrix,
    p: usize,
    from: &(dyn DistLayout + Sync),
    to: &(dyn DistLayout + Sync),
) {
    let run = |f: reference::Redistribute| {
        let out = Machine::new(p, CostParams::laptop()).run(|rank| {
            let w = rank.world();
            let local: Vec<f64> = from
                .entries(w.rank())
                .iter()
                .map(|&(i, j)| full[(i, j)])
                .collect();
            let res = f(rank, &w, &local, from, to);
            (
                res.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                rank.clock(),
            )
        });
        out.results
    };
    let fast = run(redistribute);
    for (r, (bits, _)) in fast.iter().enumerate() {
        let expect: Vec<u64> = to
            .entries(r)
            .iter()
            .map(|&(i, j)| full[(i, j)].to_bits())
            .collect();
        assert_eq!(bits, &expect, "rank {r} holds its target entries");
    }
    assert_eq!(fast, run(reference::redistribute_reference));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// tsqr invariants for arbitrary tall-skinny inputs: structure,
    /// residual, orthogonality, nonnegative R diagonal.
    #[test]
    fn tsqr_invariants(
        n in 1usize..8,
        rows_per in 1usize..5,
        p in 1usize..6,
        seed in 0u64..1000,
    ) {
        let m = p * n * rows_per;
        let a = Matrix::random(m, n, seed);
        let lay = BlockRow::balanced(m, 1, p);
        prop_assume!(lay.counts().iter().all(|&c| c >= n));
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            tsqr_factor(rank, &w, &a.take_rows(&lay.local_rows(w.rank())))
        });
        let fac = qr3d::core::verify::assemble_block_row(&out.results, lay.counts());
        prop_assert!(fac.structure_ok(1e-10));
        prop_assert!(fac.residual(&a) < 1e-10);
        prop_assert!(fac.orthogonality() < 1e-10);
        // Note: the [BDG+15] reconstruction's sign matrix S may flip R's
        // diagonal signs (R = −S·R_tree), so nonnegativity is NOT an
        // invariant here — but R is still unique given A: S derives from
        // W = A·R_tree⁻¹, which is tree- and P-independent.
    }

    /// 1D-CAQR-EG equals tsqr's R for any threshold b (R uniqueness).
    #[test]
    fn caqr1d_r_independent_of_threshold(
        n in 2usize..8,
        p in 1usize..5,
        b in 1usize..8,
        seed in 0u64..1000,
    ) {
        let m = p.max(2) * n * 2;
        let a = Matrix::random(m, n, seed);
        let lay = BlockRow::balanced(m, 1, p);
        prop_assume!(lay.counts().iter().all(|&c| c >= n));
        let run_b = |bb: usize| {
            let machine = Machine::new(p, CostParams::unit());
            let cfg = Caqr1dConfig::new(bb);
            let out = machine.run(|rank| {
                let w = rank.world();
                caqr1d_factor(rank, &w, &a.take_rows(&lay.local_rows(w.rank())), &cfg)
            });
            out.results[0].r.clone().unwrap()
        };
        let r_b = run_b(b);
        let r_n = run_b(n);
        prop_assert!(r_b.sub(&r_n).max_abs() < 1e-9,
            "R must not depend on the recursion threshold");
    }

    /// 3D-CAQR-EG invariants for arbitrary shapes, P, and thresholds.
    #[test]
    fn caqr3d_invariants(
        n in 1usize..10,
        aspect in 1usize..5,
        p in 1usize..6,
        b in 1usize..10,
        bstar in 1usize..6,
        seed in 0u64..1000,
    ) {
        let m = n * aspect.max(1);
        let a = Matrix::random(m, n, seed);
        let cyc = ShiftedRowCyclic::new(m, n, p, 0);
        let cfg = Caqr3dConfig::new(b, bstar);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            caqr3d_factor(rank, &w, &cyc.scatter_from_full(&a, rank.id()), m, n, &cfg)
        });
        let fac = assemble_factorization(&out.results, m, n, p);
        prop_assert!(fac.structure_ok(1e-9));
        prop_assert!(fac.residual(&a) < 1e-9, "residual {}", fac.residual(&a));
        prop_assert!(fac.orthogonality() < 1e-9);
    }

    /// Collectives: all-to-all (two-phase) routes arbitrary block-size
    /// matrices correctly.
    #[test]
    fn all_to_all_routes_correctly(
        p in 1usize..7,
        sizes_seed in 0u64..500,
    ) {
        use qr3d::collectives::prelude::*;
        let sizes = BlockSizes::from_fn(p, |s, d| {
            ((sizes_seed as usize)
                .wrapping_mul(31 + s)
                .wrapping_mul(17 + d))
                % 9
        });
        let machine = Machine::new(p, CostParams::unit());
        let sz = sizes.clone();
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let blocks: Vec<Vec<f64>> = (0..p)
                .map(|d| {
                    (0..sz.get(me, d))
                        .map(|k| (me * 10000 + d * 100 + k) as f64)
                        .collect()
                })
                .collect();
            all_to_all(rank, &w, blocks, &sz)
        });
        for (me, res) in out.results.iter().enumerate() {
            for (s, block) in res.iter().enumerate() {
                let expect: Vec<f64> = (0..sizes.get(s, me))
                    .map(|k| (s * 10000 + me * 100 + k) as f64)
                    .collect();
                prop_assert_eq!(block, &expect);
            }
        }
    }

    /// Redistribution between any two (shifted) row-cyclic layouts
    /// preserves all entries.
    #[test]
    fn redistribution_preserves_entries(
        rows in 1usize..20,
        cols in 1usize..6,
        p in 1usize..6,
        s1 in 0usize..4,
        s2 in 0usize..4,
    ) {
        use qr3d::mm::redist::redistribute;
        let from = ShiftedRowCyclic::new(rows, cols, p, s1);
        let to = ShiftedRowCyclic::new(rows, cols, p, s2);
        let full = Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let local: Vec<f64> =
                from.scatter_from_full(&full, w.rank()).into_vec();
            redistribute(rank, &w, &local, &from, &to)
        });
        for (r, res) in out.results.iter().enumerate() {
            let expect = to.scatter_from_full(&full, r).into_vec();
            prop_assert_eq!(res, &expect);
        }
    }

    /// 3D-CAQR-EG's own conversions — `V_L` (shifted row-cyclic, used
    /// transposed) into the left brick, and the output brick back to
    /// shifted row-cyclic — match the reference bitwise.
    #[test]
    fn shifted_redistribution_matches_reference(
        m in 1usize..24,
        n in 1usize..7,
        p in 1usize..10,
        shift in 1usize..9,
        seed in 0u64..500,
    ) {
        let lay = ShiftedRowCyclic::new(m, n, p, shift);
        let left = Grid3::choose(n, n, m, p);
        let v_t = Matrix::random(n, m, seed);
        assert_redistribution_matches_reference(
            &v_t,
            p,
            &TransposedDist(lay.clone()),
            &BrickA::new(left, n, m, p),
        );
        let out = Grid3::choose(m, n, n, p);
        let c = Matrix::random(m, n, seed + 1);
        assert_redistribution_matches_reference(&c, p, &BrickC::new(out, m, n, p), &lay);
    }

    /// The critical-path clock dominates every per-rank clock and the
    /// modeled time is consistent with its components.
    #[test]
    fn clock_invariants(
        n in 1usize..6,
        p in 1usize..6,
        seed in 0u64..100,
    ) {
        let m = (n * p).max(n) * 2;
        let a = Matrix::random(m, n, seed);
        let lay = BlockRow::balanced(m, 1, p);
        prop_assume!(lay.counts().iter().all(|&c| c >= n));
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            tsqr_factor(rank, &w, &a.take_rows(&lay.local_rows(w.rank())))
        });
        let crit = out.stats.critical();
        for c in &out.stats.per_rank {
            prop_assert!(c.flops <= crit.flops);
            prop_assert!(c.words <= crit.words);
            prop_assert!(c.msgs <= crit.msgs);
            prop_assert!(c.time <= crit.time);
            // Unit params: time = F + W + S along one path, so each
            // rank's time is bounded by the sum of its components.
            prop_assert!(c.time <= c.flops + c.words + c.msgs + 1e-9);
        }
        // Total volume ≤ critical words × P (each message counted once).
        prop_assert!(out.stats.total_volume() <= crit.words * p as f64 + 1e-9);
    }
}
