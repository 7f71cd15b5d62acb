//! Surviving a rank death mid-factorization, at two layers:
//!
//! 1. **Algorithmic fault tolerance** — `tsqr_factor_ft` XOR-encodes
//!    every compute rank's local block onto checksum spares before the
//!    reduction tree starts. When a [`FaultPlan`] silently kills a rank
//!    mid-tree, the survivors detect the silence, the stripe's spare
//!    reconstructs the dead rank's input from the checksum, replays its
//!    role, and every factor comes out **bitwise identical** to the
//!    fault-free run.
//! 2. **Service-level retry** — a plain (uncoded) job whose executor a
//!    fault kills is wedged until the receive timeouts poison the
//!    executor; under a [`RetryPolicy`] the [`QrService`] replaces the
//!    executor and transparently re-dispatches the bucket, so the
//!    caller sees a result, not an error.
//!
//! Run with: `cargo run --release --example qr_fault_tolerant`

use std::sync::Arc;
use std::time::Duration;

use qr3d::prelude::*;
use qr3d_machine::{CostParams, FaultPlan, FaultyTransport, Machine, MpscTransport};

fn main() {
    let (p, c, mp, n) = (4usize, 1usize, 8usize, 4usize);
    let a = Matrix::random(p * mp, n, 42);
    let locals: Vec<Matrix> = (0..p)
        .map(|r| a.take_rows(&(r * mp..(r + 1) * mp).collect::<Vec<_>>()))
        .collect();

    // -- The fault-free reference: plain tsqr on p ranks. --
    let reference = {
        let locals = locals.clone();
        Machine::new(p, CostParams::unit())
            .run(move |rank| {
                let w = rank.world();
                tsqr_factor(rank, &w, &locals[w.rank()])
            })
            .results
    };

    // -- Kill rank 2 at tree level 1, mid-reduction. The machine gets
    //    p + c ranks: the extra one is the checksum spare. --
    let plan = FaultPlan::new().kill_at_level(2, 1);
    let transport = Arc::new(FaultyTransport::wrap(
        Arc::new(MpscTransport::default()),
        plan,
    ));
    let machine = Machine::new(p + c, CostParams::unit())
        .with_recv_timeout(Duration::from_secs(10))
        .with_transport(transport);
    let cfg = FtConfig {
        spares: c,
        ..FtConfig::default()
    };
    let out = machine.run(move |rank| {
        let w = rank.world();
        let a_loc = if w.rank() < p {
            locals[w.rank()].clone()
        } else {
            Matrix::zeros(mp, n) // spares carry no input
        };
        tsqr_factor_ft(rank, &w, &a_loc, &cfg)
    });

    assert!(matches!(out.results[2], FtResult::Dead), "rank 2 died");
    let recovered = match &out.results[p] {
        FtResult::Spare {
            recovered: Some((r, f)),
        } => {
            assert_eq!(*r, 2, "the spare recovered the dead rank");
            f
        }
        other => panic!("spare did not recover: {other:?}"),
    };
    for r in 0..p {
        let got = if r == 2 {
            recovered
        } else {
            match &out.results[r] {
                FtResult::Compute(f) => f,
                other => panic!("rank {r} returned {other:?}"),
            }
        };
        assert_eq!(got.v_local, reference[r].v_local, "rank {r}: V bitwise");
        assert_eq!(got.r, reference[r].r, "rank {r}: R bitwise");
    }
    println!(
        "coded TSQR: rank 2 killed at tree level 1 — spare reconstructed \
         its block and every factor is bitwise the fault-free result"
    );

    // -- Service-level retry: an uncoded job stream over a transport
    //    that kills a rank. The wedged bucket poisons its executor; the
    //    retry policy re-dispatches it on the replacement (the one-shot
    //    fault is already consumed), so every submission completes. --
    //
    // The kill makes the executor's rank threads panic by design (the
    // victim fast, the survivors at their deadlock window); mute those
    // expected reports so the walkthrough output stays readable, while
    // main-thread panics keep the default hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("rank-"));
        if !expected {
            default_hook(info);
        }
    }));
    let params = FactorParams::default();
    let plan = FaultPlan::new().kill_at_send(1, 1);
    let machine = Machine::new(p, params.machine)
        .with_recv_timeout(Duration::from_millis(200))
        .with_transport(Arc::new(FaultyTransport::wrap(
            Arc::new(MpscTransport::default()),
            plan,
        )));
    let svc_cfg = ServiceConfig::new(p, params)
        .with_pool(1)
        .with_admission(Admission::Block {
            timeout: Duration::from_secs(60),
        })
        .with_retry(RetryPolicy::retries(2).with_backoff(Duration::from_millis(10)))
        .uncoalesced();
    let svc = QrService::start_on_machine(machine, svc_cfg);
    for seed in 0..4u64 {
        let a = Matrix::random(64, 8, seed);
        let res = svc
            .submit_with(a.clone(), QrBackend::Tsqr)
            .expect("admitted")
            .wait();
        let out = res.output.expect("retried, not surfaced");
        assert!(out.residual(&a) < 1e-12);
        if res.stats.retries > 0 {
            println!(
                "service retry: job {seed} survived an executor kill \
                 ({} re-dispatch)",
                res.stats.retries
            );
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.completed, stats.submitted);
    assert!(stats.retried > 0 && stats.executors_replaced >= 1);
    println!(
        "service retry: {}/{} jobs completed, {} retried, {} executor(s) replaced",
        stats.completed, stats.submitted, stats.retried, stats.executors_replaced
    );
}
