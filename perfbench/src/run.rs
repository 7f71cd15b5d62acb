//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics, spans, and the Chrome trace file).

use std::path::Path;
use std::time::Instant;

use qr3d_core::backend::QrBackend;
use qr3d_core::caqr3d::Caqr3dConfig;
use qr3d_core::service::{QrService, ServiceConfig, ServiceStats};
use qr3d_core::session::Session;
use qr3d_core::updating::UpdatingQr;
use qr3d_machine::Clock;
use qr3d_matrix::Matrix;

use crate::check::check_qr;
use crate::gen;
use crate::probes;
use crate::replay::{bitwise_eq, replay, Replay};
use crate::report::{peak_rss_mib, Report, END_TO_END, PER_LAYER};
use crate::spec::{Workload, SQUARE_DELTA, STREAM_APPENDS};
use crate::stats::{median, median_time, quantile};
use crate::trace::Tracer;
use crate::workloads::{Driver, Inputs, LoopStats};

/// Set-ups per untraced run: the run's time is split into this many
/// rounds, each constructing, warming up, looping and closing.
pub const ROUNDS: u64 = 10;
/// Repetitions of the replay and reference factorizations.
const REF_REPS: usize = 3;
/// Jobs of the service probe on workloads that do not run the service.
const SERVICE_PROBE_JOBS: usize = 4;
/// Appends per stream in the service probe of `streaming_append`.
const SERVICE_PROBE_APPENDS: usize = 16;

/// The run's arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Loop time to measure, in seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn finish(report: &mut Report, parts: &[&LoopStats]) {
    report.attempted = parts.iter().map(|s| s.attempted).sum();
    report.failed = parts.iter().map(|s| s.failed).sum();
    report.correct = report.failed == 0 && report.attempted > 0;
    for s in parts {
        report.notes.extend(s.errors.iter().cloned());
    }
    let mut critical = parts.iter().flat_map(|s| &s.critical);
    if let Some(first) = critical.next() {
        if critical.any(|c| c != first) {
            report.correct = false;
            report
                .notes
                .push("critical-path counts differ between operations".into());
        }
    }
}

/// The untraced run: [`ROUNDS`] rounds of set-up, loop and close. Each
/// metric is taken per round; the run reports the median over rounds,
/// so one round disturbed by the host does not move it.
pub fn untraced(args: &Args, inputs: &Inputs) -> Report {
    let w = args.workload;
    let mut off = Tracer::off();
    let budget = args.seconds as f64 / ROUNDS as f64;
    let rounds: Vec<LoopStats> = (0..ROUNDS)
        .map(|round| {
            let mut stats = LoopStats::default();
            let mut d = Driver::setup(w, inputs, args.seed, round, &mut stats);
            d.run_for(budget, &mut off, &mut stats);
            d.close(&mut off, &mut stats);
            stats
        })
        .collect();
    let per_round =
        |f: &dyn Fn(&LoopStats) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut report = Report::default();
    finish(&mut report, &rounds.iter().collect::<Vec<_>>());
    report.set("setup_s", per_round(&|s| median(&s.setup)));
    report.set("ops_per_s", per_round(&|s| s.ops_per_s()));
    report.set("latency_p50_s", per_round(&|s| median(&s.latencies)));
    report.set("finalize_s", per_round(&|s| median(&s.finalize)));
    report.set("peak_rss_mib", peak_rss_mib());
    let all: Vec<f64> = rounds
        .iter()
        .flat_map(|s| s.latencies.iter().copied())
        .collect();
    let fin: Vec<f64> = rounds
        .iter()
        .flat_map(|s| s.finalize.iter().copied())
        .collect();
    // Printed, not gated: on an oversubscribed shared host the tail is
    // scheduler stalls and varies several-fold between runs.
    report.notes.push(format!(
        "latency_p99_s = {} s  (pooled over rounds; not in the JSON, see README)",
        quantile(&all, 0.99)
    ));
    report.notes.push(format!(
        "samples: {} latencies, {} set-ups, {} finalize over {ROUNDS} rounds",
        all.len(),
        rounds.len(),
        fin.len()
    ));
    report.validate(END_TO_END);
    report
}

/// Service-layer observations of one traced run.
#[derive(Debug)]
struct ServiceView {
    queue_wait: Vec<f64>,
    exec: Vec<f64>,
    before: ServiceStats,
    after: ServiceStats,
}

/// On workloads that do not run the service, submit a few of the
/// workload's own operations to a `QrService` at its P.
fn service_probe(w: Workload, inputs: &Inputs, seed: u64, stats: &mut LoopStats) -> ServiceView {
    let svc = QrService::start(ServiceConfig::new(w.procs(), w.params()));
    let before = svc.stats();
    let jobs: Vec<(Vec<&Matrix>, _)> = (0..SERVICE_PROBE_JOBS)
        .map(|i| match inputs {
            Inputs::Square(v) => {
                let a = &v[i % v.len()];
                let backend = QrBackend::Caqr3d {
                    delta: SQUARE_DELTA,
                };
                (vec![a], svc.submit_with(a.clone(), backend))
            }
            Inputs::Streaming(blocks) => {
                let order = gen::stream_order(seed, u64::MAX - i as u64);
                let stream: Vec<&Matrix> = order[..SERVICE_PROBE_APPENDS]
                    .iter()
                    .map(|&k| &blocks[k])
                    .collect();
                let owned = stream.iter().map(|&b| b.clone()).collect();
                (stream, svc.submit_streaming(owned))
            }
            Inputs::Service(_) => unreachable!("the service workload observes itself"),
        })
        .collect();
    let (mut queue_wait, mut exec) = (Vec::new(), Vec::new());
    for (a, handle) in jobs {
        stats.attempted += 1;
        let res = match handle {
            Ok(h) => h.wait(),
            Err(e) => {
                stats.fail(format!("service probe: {e}"));
                continue;
            }
        };
        let q = res.stats.queue_wait.as_secs_f64();
        queue_wait.push(q);
        exec.push(res.stats.wall.as_secs_f64() - q);
        match res.output {
            Ok(out) => {
                if let Err(e) = check_qr(&a, &out.q, &out.r) {
                    stats.fail(format!("service probe: {e:?}"));
                }
            }
            Err(e) => stats.fail(format!("service probe: {e}")),
        }
    }
    let after = svc.stats();
    svc.shutdown();
    ServiceView {
        queue_wait,
        exec,
        before,
        after,
    }
}

fn per_op(c: Clock, k: f64) -> Clock {
    Clock {
        flops: c.flops / k,
        words: c.words / k,
        msgs: c.msgs / k,
        time: c.time / k,
    }
}

/// The traced run: one set-up, an untraced loop, a traced loop of the
/// same length, then the per-layer probes; writes the Chrome trace to
/// `trace_dir`.
pub fn traced(args: &Args, inputs: &Inputs, trace_dir: &Path) -> Report {
    let w = args.workload;
    let p = w.procs();
    let half = args.seconds as f64 / 2.0;
    let mut tracer = Tracer::on(Instant::now());
    let mut su = LoopStats::default();
    let mut st = LoopStats::default();

    tracer.set_on(false);
    let mut d = Driver::setup(w, inputs, args.seed, 0, &mut su);
    d.run_for(half, &mut tracer, &mut su);
    tracer.set_on(true);
    d.run_for(half, &mut tracer, &mut st);
    let svc_counters = d.service_stats();
    // Job statistics of the loop only, not of the closing flushes.
    let loop_jobs = st.queue_wait.len();
    d.close(&mut tracer, &mut st);

    let mut report = Report::default();
    let lat_p50 = median(&su.latencies);

    // Service layer.
    let view = match svc_counters {
        Some((before, after)) => ServiceView {
            queue_wait: [&su.queue_wait[..], &st.queue_wait[..loop_jobs]].concat(),
            exec: [&su.exec[..], &st.exec[..loop_jobs]].concat(),
            before,
            after,
        },
        None => service_probe(w, inputs, args.seed, &mut st),
    };
    let (b, a) = (view.before, view.after);
    let share = |x: u64, of: u64| x as f64 / of.max(1) as f64;
    report.set("service.queue_wait_p50_s", median(&view.queue_wait));
    report.set("service.exec_p50_s", median(&view.exec));
    report.set(
        "service.coalesced_share",
        share(
            a.coalesced_jobs - b.coalesced_jobs,
            a.completed - b.completed,
        ),
    );
    report.set(
        "service.fused_share",
        share(a.fused_batches - b.fused_batches, a.batches - b.batches),
    );
    report.set("service.rejected", (a.rejected - b.rejected) as f64);
    report.set("service.retried", (a.retried - b.retried) as f64);

    let mut session = Session::new(p, w.params());

    // Machine layer.
    let dispatch = probes::dispatch_s(&mut session);
    let (alpha, beta) = probes::alpha_beta(&mut session);
    report.set("machine.dispatch_s", dispatch);
    report.set("machine.msg_latency_s", alpha);
    report.set("machine.word_time_s", beta);

    // Matrix layer.
    let leaf_shapes: Vec<(usize, usize)> = w
        .op_shapes()
        .iter()
        .map(|&((m, n), backend)| match backend {
            QrBackend::Caqr3d { delta } => {
                let cfg = Caqr3dConfig::auto(m, n, p, delta);
                (m / p, cfg.bstar.min(n))
            }
            _ => (m / p, n),
        })
        .collect();
    let leaf = probes::geqrt_gflops(&leaf_shapes);
    let gemm = probes::gemm_gflops(p);
    report.set("matrix.geqrt_leaf_gflops", leaf);
    report.set("matrix.gemm_gflops", gemm);
    let full = full_inputs(inputs);
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    report.set(
        "matrix.thin_q_s",
        mean(full.iter().map(probes::thin_q_s).collect()),
    );
    let serial = mean(full.iter().map(probes::serial_qr_s).collect());
    report.set("matrix.serial_qr_s", serial);
    let op_time = match w {
        Workload::StreamingAppend => median(&su.streams),
        _ => lat_p50,
    };
    report.set("core.speedup_over_serial", serial / op_time);

    // Collectives and mm at the top-level product of square_caqr3d.
    report.set(
        "collectives.all_to_all_s",
        probes::all_to_all_s(&mut session),
    );
    let n = w.op_shapes()[0].0 .1;
    report.set(
        "collectives.all_reduce_s",
        probes::all_reduce_s(&mut session, n),
    );
    let (redist, bricks, product) = probes::mm_s(&mut session);
    report.set("mm.redistribute_s", redist);
    report.set("mm.dmm3d_s", bricks);
    report.set("mm.dmm3d_redistributed_s", product);
    report.set("mm.redistribute_share", (product - bricks) / product);

    // Core: the replayed factorization, bitwise against Session::factor.
    let (ref_a, ref_backend) = reference(w, inputs);
    let expect = session.factor(ref_a, ref_backend);
    let mut reps = Vec::new();
    for i in 0..REF_REPS {
        match replay(
            &mut session,
            ref_a,
            ref_backend,
            &mut tracer,
            1_000_000 + i as u64,
            1,
        ) {
            Ok(r) => reps.push(r),
            Err(e) => report.notes.push(format!("replay failed: {e}")),
        }
    }
    let mut consistent = match (&expect, reps.first()) {
        (Ok(out), Some(r)) => {
            reps.iter()
                .all(|r2| bitwise_eq(&r2.q, &out.q) && bitwise_eq(&r2.r, &out.r))
                && r.critical == out.critical
        }
        _ => false,
    };
    if !consistent {
        report
            .notes
            .push("replayed Q/R differ from Session::factor".into());
    }
    let med = |f: &dyn Fn(&Replay) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let busy_max = med(&|r| r.rank_busy_s.iter().copied().fold(0.0, f64::max));
    let busy_min = med(&|r| r.rank_busy_s.iter().copied().fold(f64::INFINITY, f64::min));
    report.set("core.scatter_s", med(&|r| r.scatter_s));
    report.set("core.rank_job_s", med(&|r| r.job_s));
    report.set("core.assemble_s", med(&|r| r.assemble_s));
    report.set("core.rank_busy_max_s", busy_max);
    report.set("core.rank_busy_min_s", busy_min);
    report.set("core.rank_imbalance", busy_max / busy_min);

    let caqr3d = QrBackend::Caqr3d {
        delta: SQUARE_DELTA,
    };
    let _ = session.factor(ref_a, QrBackend::Caqr2d);
    let caqr2d_s = median_time(REF_REPS, || {
        std::hint::black_box(session.factor(ref_a, QrBackend::Caqr2d).ok());
    });
    let caqr3d_s = match w {
        Workload::SquareCaqr3d => lat_p50,
        _ => {
            let _ = session.factor(ref_a, caqr3d);
            median_time(REF_REPS, || {
                std::hint::black_box(session.factor(ref_a, caqr3d).ok());
            })
        }
    };
    report.set("core.caqr2d_ref_s", caqr2d_s);
    report.set("core.caqr3d_over_caqr2d", caqr3d_s / caqr2d_s);

    // Cost model beside measurement.
    let critical = cost_per_op(w, inputs, args.seed, &mut session).unwrap_or_else(|e| {
        report.notes.push(format!("cost probe: {e}"));
        Clock::zero()
    });
    let looped = match w {
        Workload::SquareCaqr3d => su.critical.first().copied(),
        Workload::StreamingAppend => su
            .critical
            .first()
            .map(|c| per_op(*c, STREAM_APPENDS as f64)),
        Workload::ServiceTallSkinny => None,
    };
    if looped.is_some_and(|c| c != critical) {
        consistent = false;
        report
            .notes
            .push("critical-path counts of the loop differ from the cost probe".into());
    }
    let gamma = 0.5 * (1.0 / (gemm * 1e9) + 1.0 / (leaf * 1e9));
    let fitted = gamma * critical.flops + beta * critical.words + alpha * critical.msgs;
    report.set("cost.critical_flops", critical.flops);
    report.set("cost.critical_words", critical.words);
    report.set("cost.critical_msgs", critical.msgs);
    report.set("cost.model_s", critical.time);
    report.set("cost.wall_over_model", lat_p50 / critical.time);
    report.set("cost.fit_alpha_s", alpha);
    report.set("cost.fit_beta_s", beta);
    report.set("cost.fit_gamma_s", gamma);
    report.set("cost.model_fitted_s", fitted);
    report.set("cost.wall_over_model_fitted", lat_p50 / fitted);
    report.set("bench.trace_overhead", su.ops_per_s() / st.ops_per_s());
    report.set("bench.latency_p99_s", quantile(&su.latencies, 0.99));
    drop(session);

    // Totals, checks, spans.
    finish(&mut report, &[&su, &st]);
    report.correct &= consistent;
    for (layer, secs) in tracer.self_times() {
        report.notes.push(format!("self time {layer}: {secs:.6} s"));
    }
    let path = trace_dir.join(format!("trace-{}-{}.json", w.name(), args.seed));
    let written = std::fs::create_dir_all(trace_dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_json(w.name())));
    match written {
        Ok(()) => report.notes.push(format!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report
            .notes
            .push(format!("trace not written to {}: {e}", path.display())),
    }
    report.validate(PER_LAYER);
    report
}

/// Critical-path counts of one operation of `w`, from the program's own
/// clocks: one factorization of the first input (square); the unfused
/// single-job path of each request shape, averaged over the shapes (the
/// service — fused batch clocks depend on timing); one stream's
/// `UpdatingQr::critical` over its appends (streaming).
///
/// # Errors
/// A factorization that returned an error.
pub fn cost_per_op(
    w: Workload,
    inputs: &Inputs,
    seed: u64,
    session: &mut Session,
) -> Result<Clock, String> {
    match inputs {
        Inputs::Square(v) => {
            let backend = w.op_shapes()[0].1;
            let out = session.factor(&v[0], backend).map_err(|e| e.to_string())?;
            Ok(out.critical)
        }
        Inputs::Service(pools) => {
            let mut sum = Clock::zero();
            for ((_, backend), pool) in w.op_shapes().into_iter().zip(pools) {
                let out = session
                    .factor(&pool[0], backend)
                    .map_err(|e| e.to_string())?;
                sum.merge_sum(&out.critical);
            }
            Ok(per_op(sum, pools.len() as f64))
        }
        Inputs::Streaming(blocks) => {
            let mut upd = UpdatingQr::new();
            for k in gen::stream_order(seed, 0) {
                upd.append_rows(session, &blocks[k]);
            }
            Ok(per_op(upd.critical(), STREAM_APPENDS as f64))
        }
    }
}

/// The input the replay and reference probes factor, with the backend
/// the workload runs on it.
fn reference(w: Workload, inputs: &Inputs) -> (&Matrix, QrBackend) {
    let backend = w.op_shapes()[0].1;
    let a = match inputs {
        Inputs::Square(v) | Inputs::Streaming(v) => &v[0],
        Inputs::Service(pools) => &pools[0][0],
    };
    (a, backend)
}

/// The matrices whose full host-side Q the workload forms: one input per
/// operation shape, or a whole stream.
fn full_inputs(inputs: &Inputs) -> Vec<Matrix> {
    match inputs {
        Inputs::Square(v) => vec![v[0].clone()],
        Inputs::Service(pools) => pools.iter().map(|p| p[0].clone()).collect(),
        Inputs::Streaming(blocks) => {
            let (b, n) = (blocks[0].rows(), blocks[0].cols());
            let mut a = Matrix::zeros(b * blocks.len(), n);
            for (i, blk) in blocks.iter().enumerate() {
                a.set_submatrix(i * b, 0, blk);
            }
            vec![a]
        }
    }
}
