//! `factor_on` replayed from the same public calls in the same order —
//! layout scatter, one executor job running the distributed algorithm,
//! host-side assembly of the explicit `Q` — with each step timed, and
//! each rank's algorithm call timed from inside the job closure.
//!
//! The scatter moves out of the job closure (it runs host-side, before
//! the job), which changes no arithmetic: the replay's `Q` and `R` must
//! be bitwise identical to `Session::factor` on the same input, and the
//! benchmark checks that they are.

use std::time::Instant;

use qr3d_core::backend::QrBackend;
use qr3d_core::caqr3d::{caqr3d_factor, Caqr3dConfig};
use qr3d_core::cholqr::cholqr2_factor;
use qr3d_core::session::Session;
use qr3d_core::shifted::ShiftedRowCyclic;
use qr3d_core::tsqr::tsqr_factor;
use qr3d_core::verify::{assemble_block_row, assemble_factorization};
use qr3d_machine::Clock;
use qr3d_matrix::layout::BlockRow;
use qr3d_matrix::qr::thin_q;
use qr3d_matrix::Matrix;

use crate::stats::median;
use crate::trace::Tracer;

/// The replayed factorization and where its time went.
#[derive(Debug)]
pub struct Replay {
    /// Explicit thin Q.
    pub q: Matrix,
    /// Upper-triangular R.
    pub r: Matrix,
    /// Critical path of the job.
    pub critical: Clock,
    /// Host-side layout scatter.
    pub scatter_s: f64,
    /// The executor job, submit to return.
    pub job_s: f64,
    /// Host-side assembly and explicit-Q formation (median over the
    /// repetitions).
    pub assemble_s: f64,
    /// When the first assembly finished: the factorization was complete
    /// from then on; later repetitions only re-measure the assembly.
    pub ready: Instant,
    /// Each rank's time inside the algorithm call.
    pub rank_busy_s: Vec<f64>,
}

type RankSpan<T> = (T, Instant, Instant);

fn timed<T>(f: impl FnOnce() -> T) -> RankSpan<T> {
    let t0 = Instant::now();
    let out = f();
    (out, t0, Instant::now())
}

/// Run the host-side assembly `reps` times on the same rank results;
/// returns the last output, the median time, and when the first run
/// finished.
fn assemble<T>(
    tracer: &mut Tracer,
    op: u64,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (T, f64, Instant) {
    let mut times = Vec::with_capacity(reps);
    let mut ready = None;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        out = Some(tracer.span("core.assemble", op, &mut f));
        let done = Instant::now();
        ready.get_or_insert(done);
        times.push((done - t).as_secs_f64());
    }
    (
        out.expect("at least one repetition"),
        median(&times),
        ready.expect("at least one repetition"),
    )
}

/// Replay `Session::factor(a, backend)` on `session`, running the
/// host-side assembly `assemble_reps` times (≥ 1) to time it. Supports
/// the backends the workloads run: `Caqr3d`, `Tsqr` and `CholQr2`.
///
/// # Errors
/// A CholeskyQR2 breakdown, or a backend the replay does not cover.
pub fn replay(
    session: &mut Session,
    a: &Matrix,
    backend: QrBackend,
    tracer: &mut Tracer,
    op: u64,
    assemble_reps: usize,
) -> Result<Replay, String> {
    let (m, n) = (a.rows(), a.cols());
    let p = session.procs();
    let whole = tracer.enter("core.factor_replay", op);

    // Every backend's job returns per-rank (result, start, end); the
    // closure-local clock reads bracket the algorithm call only.
    macro_rules! job {
        ($locals:expr, $name:literal, |$rank:ident, $w:ident, $local:ident| $call:expr) => {{
            let locals = &$locals;
            let span = tracer.enter("machine.submit", op);
            let t = Instant::now();
            let out = session.run(|$rank| {
                let $w = $rank.world();
                let $local = &locals[$w.rank()];
                timed(|| $call)
            });
            let job_s = t.elapsed().as_secs_f64();
            let mut busy = Vec::with_capacity(p);
            let mut results = Vec::with_capacity(p);
            for (r, (res, t0, t1)) in out.results.into_iter().enumerate() {
                tracer.record($name, op, r as u32 + 1, t0, t1, span);
                busy.push((t1 - t0).as_secs_f64());
                results.push(res);
            }
            tracer.exit(span);
            (results, out.stats.critical(), job_s, busy)
        }};
    }

    let t = Instant::now();
    let replay = match backend {
        QrBackend::Caqr3d { delta } => {
            let lay = ShiftedRowCyclic::new(m, n, p, 0);
            let cfg = Caqr3dConfig::auto(m, n, p, delta);
            let locals: Vec<Matrix> = tracer.span("core.scatter", op, || {
                (0..p).map(|r| lay.scatter_from_full(a, r)).collect()
            });
            let scatter_s = t.elapsed().as_secs_f64();
            let (results, critical, job_s, rank_busy_s) =
                job!(locals, "core.caqr3d_factor", |rank, w, local| {
                    caqr3d_factor(rank, &w, local, m, n, &cfg)
                });
            let ((q, r), assemble_s, ready) = assemble(tracer, op, assemble_reps, || {
                let fac = assemble_factorization(&results, m, n, p);
                (thin_q(&fac.v, &fac.t), fac.r)
            });
            Replay {
                q,
                r,
                critical,
                scatter_s,
                job_s,
                assemble_s,
                ready,
                rank_busy_s,
            }
        }
        QrBackend::Tsqr => {
            let lay = BlockRow::balanced(m, 1, p);
            let locals: Vec<Matrix> = tracer.span("core.scatter", op, || {
                (0..p).map(|r| a.take_rows(&lay.local_rows(r))).collect()
            });
            let scatter_s = t.elapsed().as_secs_f64();
            let (results, critical, job_s, rank_busy_s) =
                job!(locals, "core.tsqr_factor", |rank, w, local| {
                    tsqr_factor(rank, &w, local)
                });
            let ((q, r), assemble_s, ready) = assemble(tracer, op, assemble_reps, || {
                let fac = assemble_block_row(&results, lay.counts());
                (thin_q(&fac.v, &fac.t), fac.r)
            });
            Replay {
                q,
                r,
                critical,
                scatter_s,
                job_s,
                assemble_s,
                ready,
                rank_busy_s,
            }
        }
        QrBackend::CholQr2 => {
            let lay = BlockRow::balanced(m, 1, p);
            let locals: Vec<Matrix> = tracer.span("core.scatter", op, || {
                (0..p).map(|r| a.take_rows(&lay.local_rows(r))).collect()
            });
            let scatter_s = t.elapsed().as_secs_f64();
            let (results, critical, job_s, rank_busy_s) =
                job!(locals, "core.cholqr2_factor", |rank, w, local| {
                    cholqr2_factor(rank, &w, local)
                });
            let (assembled, assemble_s, ready) = assemble(tracer, op, assemble_reps, || {
                // The session's CholeskyQR2 assembly: row blocks of the
                // distributed Q in rank order; R is replicated.
                let mut q = Matrix::zeros(m, n);
                let mut r = None;
                for (start, res) in lay.starts().into_iter().zip(&results) {
                    let fac = res
                        .as_ref()
                        .map_err(|e| format!("CholeskyQR2 breakdown: {e}"))?;
                    q.set_submatrix(start, 0, &fac.q_local);
                    r.get_or_insert_with(|| fac.r.clone());
                }
                Ok::<_, String>((q, r.expect("at least one rank")))
            });
            let (q, r) = assembled?;
            Replay {
                q,
                r,
                critical,
                scatter_s,
                job_s,
                assemble_s,
                ready,
                rank_busy_s,
            }
        }
        other => return Err(format!("replay does not cover {other:?}")),
    };
    tracer.exit(whole);
    Ok(replay)
}

/// Whether two matrices have the same shape and bit-identical entries.
pub fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
