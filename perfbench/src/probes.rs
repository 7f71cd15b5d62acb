//! Per-layer probes: each times one public call of one layer, at the
//! shapes and rank counts the workloads use.
//!
//! Probes that run on ranks synchronize with a one-word all-reduce,
//! then time the call from inside the job closure; the probe's time is
//! the slowest rank's, so executor dispatch never enters it.

use std::time::Instant;

use qr3d_collectives::alltoall::all_to_all;
use qr3d_collectives::auto::all_reduce;
use qr3d_collectives::BlockSizes;
use qr3d_core::session::Session;
use qr3d_core::shifted::ShiftedRowCyclic;
use qr3d_machine::Rank;
use qr3d_matrix::gemm::{gemm, Trans};
use qr3d_matrix::par::with_forced_fanout;
use qr3d_matrix::partition::balanced_sizes;
use qr3d_matrix::qr::{geqrt, thin_q};
use qr3d_matrix::Matrix;
use qr3d_mm::brick::{BrickA, BrickB, DistLayout, TransposedDist};
use qr3d_mm::dmm3d::{dmm3d, dmm3d_redistributed, Grid3};
use qr3d_mm::redist::redistribute;

use crate::spec::SQUARE_SHAPE;
use crate::stats::{median, median_time};

/// Words in the bandwidth ping-pong message (1 MiB).
const BANDWIDTH_WORDS: usize = 1 << 17;
/// Round trips of the latency ping-pong.
const LATENCY_TRIPS: usize = 2000;
/// Round trips of the bandwidth ping-pong.
const BANDWIDTH_TRIPS: usize = 40;
/// Repetitions of each rank-level probe (the median is reported).
const REPS: usize = 7;
/// Target measuring time of each kernel probe, in seconds.
const KERNEL_TARGET_S: f64 = 0.05;

/// Householder QR flops of an `m × n` factorization.
pub fn geqrt_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    2.0 * m * n * n - 2.0 * n * n * n / 3.0
}

/// Median wall time of an empty executor job.
pub fn dispatch_s(session: &mut Session) -> f64 {
    for _ in 0..20 {
        session.run(|_| ());
    }
    median_time(400, || {
        session.run(|_| ());
    })
}

fn barrier(rank: &mut Rank) {
    let w = rank.world();
    all_reduce(rank, &w, vec![0.0]);
}

/// Median over [`REPS`] jobs of the slowest rank's time in `f`, each
/// rank entering `f` after a barrier. `f` returns its own timed span
/// (so it can exclude its set-up), see [`timed_after_barrier`].
fn slowest_rank(session: &mut Session, f: impl Fn(&mut Rank) -> f64 + Sync) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| session.run(&f).results.into_iter().fold(0.0f64, f64::max))
        .collect();
    median(&samples)
}

/// Barrier, then time `f` on this rank.
fn timed_after_barrier(rank: &mut Rank, f: impl FnOnce(&mut Rank)) -> f64 {
    barrier(rank);
    let t = Instant::now();
    f(rank);
    t.elapsed().as_secs_f64()
}

/// One-way time of a `words`-word message between ranks 0 and 1,
/// from a ping-pong of `trips` round trips timed on rank 0. Messages
/// are sent from a borrowed slice: one copy per send, as a send of
/// caller-owned data costs.
pub fn ping_pong_s(session: &mut Session, words: usize, trips: usize) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let out = session.run(|rank| {
                let w = rank.world();
                let me = w.rank();
                if me > 1 {
                    return 0.0;
                }
                let buf = vec![1.0; words];
                let t = Instant::now();
                for i in 0..trips as u64 {
                    if me == 0 {
                        rank.send(&w, 1, i, &buf[..]);
                        let back = rank.recv(&w, 1, i);
                        std::hint::black_box(&back);
                    } else {
                        let got = rank.recv(&w, 0, i);
                        std::hint::black_box(&got);
                        rank.send(&w, 0, i, &buf[..]);
                    }
                }
                t.elapsed().as_secs_f64() / (2 * trips) as f64
            });
            out.results[0]
        })
        .collect();
    median(&samples)
}

/// `(α, β)`: measured message latency and per-word time.
pub fn alpha_beta(session: &mut Session) -> (f64, f64) {
    let alpha = ping_pong_s(session, 1, LATENCY_TRIPS);
    let big = ping_pong_s(session, BANDWIDTH_WORDS, BANDWIDTH_TRIPS);
    (alpha, (big - alpha).max(0.0) / BANDWIDTH_WORDS as f64)
}

/// Median time of `f`, repeated until about [`KERNEL_TARGET_S`] of
/// samples (5 to 200 of them).
fn kernel_time(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let reps = ((KERNEL_TARGET_S / once) as usize).clamp(5, 200);
    median_time(reps, f)
}

/// `geqrt` rate in GF/s summed over `shapes` (total flops over total
/// median time), on the calling thread.
pub fn geqrt_gflops(shapes: &[(usize, usize)]) -> f64 {
    let (mut flops, mut secs) = (0.0, 0.0);
    for (i, &(m, n)) in shapes.iter().enumerate() {
        let a = Matrix::random(m, n, 0xa11 + i as u64);
        secs += kernel_time(|| {
            std::hint::black_box(geqrt(&a));
        });
        flops += geqrt_flops(m, n);
    }
    flops / secs * 1e-9
}

/// The local product one rank computes in the top-level `dmm3d` of
/// `square_caqr3d`'s first split (`I = J = n/2`, `K = m`) on `p`
/// ranks: `(rows of A, inner, cols of B)`.
pub fn dmm_local_shape(p: usize) -> (usize, usize, usize) {
    let (m, n) = SQUARE_SHAPE;
    let (i, j, k) = (n / 2, n - n / 2, m);
    let g = Grid3::choose(i, j, k, p);
    (
        balanced_sizes(i, g.q)[0],
        balanced_sizes(k, g.s)[0],
        balanced_sizes(j, g.r)[0],
    )
}

/// `gemm` rate in GF/s at [`dmm_local_shape`].
pub fn gemm_gflops(p: usize) -> f64 {
    let (m, k, n) = dmm_local_shape(p);
    let a = Matrix::random(m, k, 0x9e);
    let b = Matrix::random(k, n, 0x9f);
    let mut c = Matrix::zeros(m, n);
    let secs = kernel_time(|| {
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        std::hint::black_box(&c);
    });
    2.0 * (m * k * n) as f64 / secs * 1e-9
}

/// Median time of host-side `thin_q` on `a`'s Householder factors.
pub fn thin_q_s(a: &Matrix) -> f64 {
    let f = geqrt(a);
    median_time(3, || {
        std::hint::black_box(thin_q(&f.v, &f.t));
    })
}

/// Median time of `geqrt` + `thin_q` of `a` on one thread — the plain
/// serial baseline.
pub fn serial_qr_s(a: &Matrix) -> f64 {
    with_forced_fanout(1, || {
        median_time(3, || {
            let f = geqrt(a);
            std::hint::black_box(thin_q(&f.v, &f.t));
        })
    })
}

/// The first redistribution of `square_caqr3d`'s top-level product at
/// `p` ranks: `V_L` (`m × n/2`, shifted row-cyclic, transposed) to the
/// left brick of `dmm3d(I = n/2, J = n/2, K = m)`.
struct TopLevel {
    from: TransposedDist<ShiftedRowCyclic>,
    to: BrickA,
    right: BrickB,
    grid: Grid3,
    lay: ShiftedRowCyclic,
    small: ShiftedRowCyclic,
    i: usize,
    j: usize,
    k: usize,
}

impl TopLevel {
    fn new(p: usize) -> TopLevel {
        let (m, n) = SQUARE_SHAPE;
        let (i, j, k) = (n / 2, n - n / 2, m);
        let grid = Grid3::choose(i, j, k, p);
        let lay = ShiftedRowCyclic::new(m, i, p, 0);
        TopLevel {
            from: TransposedDist(lay.clone()),
            to: BrickA::new(grid, i, k, p),
            right: BrickB::new(grid, k, j, p),
            grid,
            small: ShiftedRowCyclic::new(i, j, p, 0),
            lay,
            i,
            j,
            k,
        }
    }

    /// The all-to-all block sizes of the redistribution.
    fn sizes(&self) -> BlockSizes {
        let p = self.from.procs();
        let mut counts = vec![0usize; p * p];
        for s in 0..p {
            for (i, j) in self.from.entries(s) {
                counts[s * p + self.to.owner(i, j)] += 1;
            }
        }
        BlockSizes::from_fn(p, |s, d| counts[s * p + d])
    }
}

/// Two-phase `all_to_all` at the volume of [`TopLevel`]'s
/// redistribution.
pub fn all_to_all_s(session: &mut Session) -> f64 {
    let sizes = TopLevel::new(session.procs()).sizes();
    slowest_rank(session, |rank| {
        let me = rank.id();
        let blocks: Vec<Vec<f64>> = (0..sizes.procs())
            .map(|d| vec![1.0; sizes.get(me, d)])
            .collect();
        timed_after_barrier(rank, |rank| {
            let w = rank.world();
            std::hint::black_box(all_to_all(rank, &w, blocks, &sizes));
        })
    })
}

/// `all_reduce` of an `n × n` buffer.
pub fn all_reduce_s(session: &mut Session, n: usize) -> f64 {
    slowest_rank(session, |rank| {
        let data = vec![1.0; n * n];
        timed_after_barrier(rank, |rank| {
            let w = rank.world();
            std::hint::black_box(all_reduce(rank, &w, data));
        })
    })
}

/// `(redistribute, dmm3d on bricks, dmm3d_redistributed)` times of
/// `square_caqr3d`'s top-level product at `session`'s rank count.
pub fn mm_s(session: &mut Session) -> (f64, f64, f64) {
    let top = TopLevel::new(session.procs());
    let redist = slowest_rank(session, |rank| {
        let local = vec![1.0; top.from.local_count(rank.id())];
        timed_after_barrier(rank, |rank| {
            let w = rank.world();
            std::hint::black_box(redistribute(rank, &w, &local, &top.from, &top.to));
        })
    });
    let bricks = slowest_rank(session, |rank| {
        let (a, b) = match top.grid.coords(rank.id()) {
            Some((q, r, s)) => {
                let (ar, ac) = top.to.block_of(q, r, s);
                let (br, bc) = top.right.block_of(q, r, s);
                (
                    Matrix::random(ar.len(), ac.len(), 1),
                    Matrix::random(br.len(), bc.len(), 2),
                )
            }
            None => (Matrix::zeros(0, 0), Matrix::zeros(0, 0)),
        };
        timed_after_barrier(rank, |rank| {
            let w = rank.world();
            let c = dmm3d(rank, &w, top.grid, &a, &b, top.i, top.j, top.k);
            std::hint::black_box(c);
        })
    });
    let full = slowest_rank(session, |rank| {
        let rows = ShiftedRowCyclic::local_count(&top.lay, rank.id());
        let vl = Matrix::random(rows, top.i, 3);
        let right = Matrix::random(rows, top.j, 4);
        timed_after_barrier(rank, |rank| {
            let w = rank.world();
            let c = dmm3d_redistributed(
                rank,
                &w,
                vl.as_slice(),
                &top.from,
                right.as_slice(),
                &top.lay,
                &top.small,
            );
            std::hint::black_box(c);
        })
    });
    (redist, bricks, full)
}
