//! Gate: `Session::factor` results are bitwise-identical across message
//! substrates. The transport moves envelopes; every flop, word, and
//! clock merge happens above the [`Transport`] boundary, so bounding the
//! channel per (sender, receiver) pair must not perturb a single bit of
//! Q, R, the pivoting decisions, or the charged critical path.

use std::sync::Arc;

use qr3d::prelude::*;

fn factor_over(
    transport: Arc<dyn Transport>,
    a: &Matrix,
    backend: QrBackend,
) -> (Matrix, Matrix, Option<Vec<usize>>, usize, Clock) {
    let params = FactorParams::new(CostParams::supercomputer()).with_kappa(1e3);
    let machine = Machine::new(8, params.machine).with_transport(transport);
    let mut session = Session::on_machine(machine, params);
    let out = session.factor(a, backend).expect("factorization succeeds");
    (out.q, out.r, out.perm, out.detected_rank, out.critical)
}

#[test]
fn session_factor_is_bitwise_identical_across_transports() {
    for backend in [QrBackend::Tsqr, QrBackend::CholQr2, QrBackend::PivotQr] {
        let a = Matrix::random(512, 16, 7);
        let mpsc = factor_over(Arc::new(MpscTransport::default()), &a, backend);
        for bounded in [
            MpscTransport::bounded(64),
            // A tiny capacity forces the backpressure path through the
            // same reduction trees.
            MpscTransport::bounded(2),
        ] {
            let got = factor_over(Arc::new(bounded), &a, backend);
            assert_eq!(mpsc.0, got.0, "{backend:?}: Q diverged on bounded channel");
            assert_eq!(mpsc.1, got.1, "{backend:?}: R diverged on bounded channel");
            assert_eq!(mpsc.2, got.2, "{backend:?}: permutation diverged");
            assert_eq!(mpsc.3, got.3, "{backend:?}: detected_rank diverged");
            assert_eq!(mpsc.4, got.4, "{backend:?}: critical-path clock diverged");
        }
    }
}

#[test]
fn batched_factorization_is_transport_independent() {
    // The fused batch path shares one reduction tree across problems —
    // the heaviest messaging pattern in the repo; it too must be
    // substrate-blind.
    let problems: Vec<Matrix> = (0..4).map(|s| Matrix::random(256, 8, s)).collect();
    let run = |transport: Arc<dyn Transport>| {
        let params = FactorParams::new(CostParams::cluster()).with_kappa(1e3);
        let machine = Machine::new(4, params.machine).with_transport(transport);
        let mut session = Session::on_machine(machine, params);
        let batch = session.factor_batch(&problems, QrBackend::Tsqr);
        batch
            .outputs
            .into_iter()
            .map(|o| {
                let o = o.expect("batch member succeeds");
                (o.q, o.r)
            })
            .collect::<Vec<_>>()
    };
    let mpsc = run(Arc::new(MpscTransport::default()));
    let bounded = run(Arc::new(MpscTransport::bounded(64)));
    assert_eq!(mpsc, bounded, "fused batch Q/R diverged across transports");
}
