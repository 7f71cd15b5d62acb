//! The three closed-loop drivers. Each driver sets up (construct + warm
//! up), runs its loop for a time budget, and closes; all of it from one
//! driver thread, through the library's public entry points only.

use std::collections::VecDeque;
use std::time::Instant;

use qr3d_core::backend::{FactorOutput, QrBackend};
use qr3d_core::service::{JobHandle, JobResult, QrService, ServiceConfig, ServiceStats};
use qr3d_core::session::Session;
use qr3d_core::updating::UpdatingQr;
use qr3d_machine::Clock;
use qr3d_matrix::Matrix;

use crate::check::check_qr;
use crate::gen::{self, RequestMix};
use crate::replay::replay;
use crate::spec::{Workload, SERVICE_IN_FLIGHT, SQUARE_DELTA, STREAM_APPENDS};
use crate::stats::median;
use crate::trace::{Open, Tracer, SERVICE_LANES};

/// Appends in the warm-up stream of `streaming_append`.
const WARM_APPENDS: usize = 8;
/// Repetitions of a replayed host-side assembly per finalize sample.
const ASSEMBLE_REPS: usize = 5;
/// Backlog flushes per finalize sample of `service_tallskinny`.
const FLUSHES: usize = 5;
/// Failure messages kept for the report.
const KEEP_ERRORS: usize = 5;

/// The generated inputs of one workload.
#[derive(Debug)]
pub enum Inputs {
    /// `square_caqr3d`: the matrices the loop cycles through.
    Square(Vec<Matrix>),
    /// `service_tallskinny`: per request shape, its input pool.
    Service(Vec<Vec<Matrix>>),
    /// `streaming_append`: the block pool every stream appends.
    Streaming(Vec<Matrix>),
}

impl Inputs {
    /// Generate `w`'s inputs from `seed`.
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        match w {
            Workload::SquareCaqr3d => Inputs::Square(gen::square_inputs(seed)),
            Workload::ServiceTallSkinny => Inputs::Service(gen::service_inputs(seed)),
            Workload::StreamingAppend => Inputs::Streaming(gen::stream_blocks(seed)),
        }
    }

    /// Every generated matrix, in a fixed order.
    pub fn matrices(&self) -> Vec<&Matrix> {
        match self {
            Inputs::Square(v) | Inputs::Streaming(v) => v.iter().collect(),
            Inputs::Service(v) => v.iter().flatten().collect(),
        }
    }
}

/// What one or more loop runs observed.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Latency of every verified operation completed inside a window.
    pub latencies: Vec<f64>,
    /// Verified operations completed inside a window.
    pub ops: u64,
    /// Total window time.
    pub window_s: f64,
    /// Operations attempted, warm-ups and drained requests included.
    pub attempted: u64,
    /// Operations failed: error, rejection, or a failed check.
    pub failed: u64,
    /// Set-up samples (construct + warm-up).
    pub setup: Vec<f64>,
    /// Finalize samples (see [`Driver::close`] and the workloads).
    pub finalize: Vec<f64>,
    /// Critical path per operation, for the exact-repeat check.
    pub critical: Vec<Clock>,
    /// Service-side queue wait of each job.
    pub queue_wait: Vec<f64>,
    /// Service-side execution time (`wall − queue_wait`) of each job.
    pub exec: Vec<f64>,
    /// Stream durations (appends + finish) of `streaming_append`.
    pub streams: Vec<f64>,
    /// The first few failure messages.
    pub errors: Vec<String>,
    next_op: u64,
}

impl LoopStats {
    /// Verified operations per second of window time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.window_s
    }

    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Count one failure, keeping the first few messages.
    pub(crate) fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < KEEP_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Count and verify a warm-up result.
    fn check_warm(&mut self, a: &[&Matrix], q: &Matrix, r: &Matrix) {
        self.attempted += 1;
        if let Err(e) = check_qr(a, q, r) {
            self.fail(format!("warm-up: {e:?}"));
        }
    }

    /// Count one attempted operation and verify its result; true when
    /// it passed.
    fn verify(&mut self, what: &str, a: &[&Matrix], out: &FactorOutput) -> bool {
        self.attempted += 1;
        match check_qr(a, &out.q, &out.r) {
            Ok(_) => true,
            Err(e) => {
                self.fail(format!("{what}: {e:?}"));
                false
            }
        }
    }
}

/// A set-up workload, ready to run its loop.
pub enum Driver<'a> {
    /// `square_caqr3d`.
    Square {
        /// The warm P = 8 session.
        session: Session,
        /// Inputs cycled by the loop.
        inputs: &'a [Matrix],
        /// Index of the next input.
        next: usize,
    },
    /// `service_tallskinny`.
    Service {
        /// The running service.
        svc: QrService,
        /// Input pools per shape.
        inputs: &'a [Vec<Matrix>],
        /// Request order of the loop.
        mix: RequestMix,
        /// Request order of the closing burst.
        burst: RequestMix,
        /// Requests in flight, oldest first.
        pending: VecDeque<(JobHandle, Pending)>,
        /// Counters after warm-up.
        base: ServiceStats,
    },
    /// `streaming_append`.
    Streaming {
        /// The warm P = 4 session.
        session: Session,
        /// The block pool.
        blocks: &'a [Matrix],
        /// Workload seed (for stream orders).
        seed: u64,
        /// Streams started so far.
        stream: u64,
    },
}

/// What the driver remembers about a request in flight.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    shape: usize,
    idx: usize,
    submitted: Instant,
    op: u64,
}

fn caqr3d() -> QrBackend {
    QrBackend::Caqr3d {
        delta: SQUARE_DELTA,
    }
}

impl<'a> Driver<'a> {
    /// Construct and warm up `w` (round `round` of a run), recording
    /// the set-up time — until the warm-up's results are in, before the
    /// benchmark checks them — in `stats.setup`.
    pub fn setup(
        w: Workload,
        inputs: &'a Inputs,
        seed: u64,
        round: u64,
        stats: &mut LoopStats,
    ) -> Driver<'a> {
        let t = Instant::now();
        let (driver, ready) = match (w, inputs) {
            (Workload::SquareCaqr3d, Inputs::Square(inputs)) => {
                let mut session = Session::new(w.procs(), w.params());
                // Warm up with the replayed factorization: the same job
                // `Session::factor` runs, its host-side assembly then
                // re-run to time it — the workload's finalize sample. Set-up
                // ends when the first assembly does.
                let a = &inputs[0];
                let ready = match replay(
                    &mut session,
                    a,
                    caqr3d(),
                    &mut Tracer::off(),
                    0,
                    ASSEMBLE_REPS,
                ) {
                    Ok(rep) => {
                        stats.check_warm(&[a], &rep.q, &rep.r);
                        stats.finalize.push(rep.assemble_s);
                        rep.ready
                    }
                    Err(e) => {
                        stats.attempted += 1;
                        stats.fail(format!("warm-up: {e}"));
                        Instant::now()
                    }
                };
                let d = Driver::Square {
                    session,
                    inputs,
                    next: round as usize % inputs.len(),
                };
                (d, ready)
            }
            (Workload::ServiceTallSkinny, Inputs::Service(inputs)) => {
                let svc = QrService::start(ServiceConfig::new(w.procs(), w.params()));
                let warm: Vec<JobHandle> = inputs
                    .iter()
                    .map(|pool| svc.submit(pool[0].clone()).expect("empty queue admits"))
                    .collect();
                let outs: Vec<JobResult> = warm.into_iter().map(JobHandle::wait).collect();
                let ready = Instant::now();
                for (res, pool) in outs.into_iter().zip(inputs) {
                    match res.output {
                        Ok(out) => stats.check_warm(&[&pool[0]], &out.q, &out.r),
                        Err(e) => {
                            stats.attempted += 1;
                            stats.fail(format!("warm-up: {e}"));
                        }
                    }
                }
                let base = svc.stats();
                let d = Driver::Service {
                    svc,
                    inputs,
                    mix: RequestMix::new(seed.wrapping_add(round)),
                    burst: RequestMix::new(!seed.wrapping_add(round)),
                    pending: VecDeque::new(),
                    base,
                };
                (d, ready)
            }
            (Workload::StreamingAppend, Inputs::Streaming(blocks)) => {
                let mut session = Session::new(w.procs(), w.params());
                let mut upd = UpdatingQr::new();
                for b in &blocks[..WARM_APPENDS] {
                    upd.append_rows(&mut session, b);
                }
                let out = upd.finish(&mut session);
                let ready = Instant::now();
                let warm: Vec<&Matrix> = blocks[..WARM_APPENDS].iter().collect();
                stats.check_warm(&warm, &out.q, &out.r);
                let d = Driver::Streaming {
                    session,
                    blocks,
                    seed,
                    stream: round << 32,
                };
                (d, ready)
            }
            _ => unreachable!("inputs are generated for their own workload"),
        };
        stats.setup.push((ready - t).as_secs_f64());
        driver
    }

    /// Run the closed loop for `budget` seconds of window time.
    pub fn run_for(&mut self, budget: f64, tracer: &mut Tracer, stats: &mut LoopStats) {
        let t0 = Instant::now();
        let open = || t0.elapsed().as_secs_f64() < budget;
        match self {
            Driver::Square {
                session,
                inputs,
                next,
            } => {
                while open() {
                    let a = &inputs[*next];
                    *next = (*next + 1) % inputs.len();
                    let op = stats.op_id();
                    let t = Instant::now();
                    let res =
                        tracer.span("core.session_factor", op, || session.factor(a, caqr3d()));
                    let lat = t.elapsed().as_secs_f64();
                    let ok = tracer.span("bench.verify", op, || match res {
                        Ok(out) => {
                            stats.critical.push(out.critical);
                            stats.verify("factor", &[a], &out)
                        }
                        Err(e) => {
                            stats.attempted += 1;
                            stats.fail(format!("factor: {e}"));
                            false
                        }
                    });
                    if ok {
                        stats.ops += 1;
                        stats.latencies.push(lat);
                    }
                }
            }
            Driver::Service {
                svc,
                inputs,
                mix,
                pending,
                ..
            } => {
                while open() {
                    while pending.len() < SERVICE_IN_FLIGHT {
                        let (shape, idx) = mix.next().expect("endless mix");
                        let a = inputs[shape][idx].clone();
                        let op = stats.op_id();
                        let submitted = Instant::now();
                        match tracer.span("service.submit", op, || svc.submit(a)) {
                            Ok(handle) => pending.push_back((
                                handle,
                                Pending {
                                    shape,
                                    idx,
                                    submitted,
                                    op,
                                },
                            )),
                            Err(e) => {
                                stats.attempted += 1;
                                stats.fail(format!("submit: {e}"));
                            }
                        }
                    }
                    let (handle, p) = pending.pop_front().expect("requests in flight");
                    let res = tracer.span("service.wait", p.op, || handle.wait());
                    let lat = p.submitted.elapsed().as_secs_f64();
                    if service_result(tracer, stats, inputs, &p, res) {
                        stats.ops += 1;
                        stats.latencies.push(lat);
                    }
                }
            }
            Driver::Streaming {
                session,
                blocks,
                seed,
                stream,
            } => {
                while open() {
                    let order = gen::stream_order(*seed, *stream);
                    *stream += 1;
                    let t_stream = Instant::now();
                    let mut upd = UpdatingQr::new();
                    let mut lats = Vec::with_capacity(STREAM_APPENDS);
                    let mut finite = true;
                    let op = stats.op_id();
                    for &k in &order {
                        let t = Instant::now();
                        tracer.span("core.append_rows", op, || {
                            upd.append_rows(session, &blocks[k])
                        });
                        lats.push(t.elapsed().as_secs_f64());
                        finite &= upd
                            .r()
                            .is_none_or(|r| r.as_slice().iter().all(|v| v.is_finite()));
                    }
                    let critical = upd.critical();
                    let t = Instant::now();
                    let out = tracer.span("core.finish", op, || upd.finish(session));
                    let fin = t.elapsed().as_secs_f64();
                    let stream_s = t_stream.elapsed().as_secs_f64();
                    let a: Vec<&Matrix> = order.iter().map(|&k| &blocks[k]).collect();
                    let ok = tracer.span("bench.verify", op, || {
                        let ok = stats.verify("stream", &a, &out);
                        if ok && !finite {
                            stats.fail("stream: non-finite running R".to_string());
                        }
                        ok && finite
                    });
                    // The appends succeed or fail with the stream that
                    // verifies them.
                    stats.attempted += STREAM_APPENDS as u64 - 1;
                    if ok {
                        stats.ops += STREAM_APPENDS as u64;
                        stats.latencies.extend(lats);
                        stats.finalize.push(fin);
                        stats.streams.push(stream_s);
                        stats.critical.push(critical);
                    } else {
                        stats.failed += STREAM_APPENDS as u64 - 1;
                    }
                }
            }
        }
        stats.window_s += t0.elapsed().as_secs_f64();
    }

    /// The service's counters since warm-up (`service_tallskinny` only).
    pub fn service_stats(&self) -> Option<(ServiceStats, ServiceStats)> {
        match self {
            Driver::Service { svc, base, .. } => Some((*base, svc.stats())),
            _ => None,
        }
    }

    /// Close the workload. For the service this takes its finalize
    /// samples: the requests still in flight drain (verified and counted,
    /// outside the window), then [`FLUSHES`] times a burst of
    /// [`SERVICE_IN_FLIGHT`] requests is submitted to the idle service
    /// and timed until the last one resolves; the sample is the median.
    /// The bursts are fixed by the seed and round, so the sample does not
    /// depend on where the loop stopped. Then the service shuts down.
    pub fn close(self, tracer: &mut Tracer, stats: &mut LoopStats) {
        if let Driver::Service {
            svc,
            inputs,
            mut burst,
            pending,
            ..
        } = self
        {
            for (h, p) in pending {
                let res = h.wait();
                service_result(tracer, stats, inputs, &p, res);
            }
            let mut flushes = Vec::with_capacity(FLUSHES);
            for _ in 0..FLUSHES {
                let t = Instant::now();
                let sent: Vec<(Result<JobHandle, _>, Pending)> = (0..SERVICE_IN_FLIGHT)
                    .map(|_| {
                        let (shape, idx) = burst.next().expect("endless mix");
                        let op = stats.op_id();
                        let p = Pending {
                            shape,
                            idx,
                            submitted: Instant::now(),
                            op,
                        };
                        (svc.submit(inputs[shape][idx].clone()), p)
                    })
                    .collect();
                let done: Vec<_> = sent
                    .into_iter()
                    .map(|(h, p)| (h.map(JobHandle::wait), p))
                    .collect();
                flushes.push(t.elapsed().as_secs_f64());
                for (res, p) in done {
                    match res {
                        Ok(res) => {
                            service_result(tracer, stats, inputs, &p, res);
                        }
                        Err(e) => {
                            stats.attempted += 1;
                            stats.fail(format!("submit: {e}"));
                        }
                    }
                }
            }
            stats.finalize.push(median(&flushes));
            tracer.span("service.shutdown", 0, || svc.shutdown());
        }
    }
}

/// Verify one service result and record its job statistics; true when
/// it passed.
fn service_result(
    tracer: &mut Tracer,
    stats: &mut LoopStats,
    inputs: &[Vec<Matrix>],
    p: &Pending,
    res: JobResult,
) -> bool {
    let js = res.stats;
    let queued = js.queue_wait.as_secs_f64();
    let wall = js.wall.as_secs_f64();
    stats.queue_wait.push(queued);
    stats.exec.push(wall - queued);
    if tracer.is_on() {
        let lane = SERVICE_LANES + (p.op % SERVICE_IN_FLIGHT as u64) as u32;
        let dispatched = p.submitted + js.queue_wait;
        let done = p.submitted + js.wall;
        tracer.record(
            "service.queue_wait",
            p.op,
            lane,
            p.submitted,
            dispatched,
            Open::ROOT,
        );
        tracer.record("service.exec", p.op, lane, dispatched, done, Open::ROOT);
    }
    let a = &inputs[p.shape][p.idx];
    tracer.span("bench.verify", p.op, || match res.output {
        Ok(out) => stats.verify("service job", &[a], &out),
        Err(e) => {
            stats.attempted += 1;
            stats.fail(format!("service job: {e}"));
            false
        }
    })
}
