//! The three workloads: shapes, machine prices, and which per-layer
//! metric each end-to-end metric is expected to answer to.

use qr3d_core::backend::{FactorParams, QrBackend};
use qr3d_machine::CostParams;

/// `square_caqr3d`: input shape and pool size.
pub const SQUARE_SHAPE: (usize, usize) = (1024, 256);
/// `square_caqr3d`: distinct inputs the closed loop cycles through.
pub const SQUARE_INPUTS: usize = 3;
/// `square_caqr3d`: the Theorem 1 tradeoff parameter.
pub const SQUARE_DELTA: f64 = 0.5;

/// `service_tallskinny`: the request shapes.
pub const SERVICE_SHAPES: [(usize, usize); 3] = [(4096, 32), (2048, 64), (8192, 16)];
/// `service_tallskinny`: requests per same-shape run.
pub const SERVICE_RUN: usize = 8;
/// `service_tallskinny`: requests the driver keeps in flight.
pub const SERVICE_IN_FLIGHT: usize = 16;
/// `service_tallskinny`: condition number of the inputs and of the
/// service's κ assertion.
pub const SERVICE_KAPPA: f64 = 1e3;
/// `service_tallskinny`: generated inputs per shape.
pub const SERVICE_INPUTS_PER_SHAPE: usize = 8;

/// `streaming_append`: rows × columns of one appended block.
pub const STREAM_BLOCK: (usize, usize) = (1024, 32);
/// `streaming_append`: appends per stream before `finish`.
pub const STREAM_APPENDS: usize = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Back-to-back `Session::factor` with 3D-CAQR-EG on a warm P = 8
    /// session.
    SquareCaqr3d,
    /// A `QrService` kept 16 requests deep by one driver thread.
    ServiceTallSkinny,
    /// Streams of `UpdatingQr::append_rows` closed by `finish`.
    StreamingAppend,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SquareCaqr3d,
        Workload::ServiceTallSkinny,
        Workload::StreamingAppend,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SquareCaqr3d => "square_caqr3d",
            Workload::ServiceTallSkinny => "service_tallskinny",
            Workload::StreamingAppend => "streaming_append",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ranks per executor.
    pub fn procs(self) -> usize {
        match self {
            Workload::SquareCaqr3d => 8,
            Workload::ServiceTallSkinny | Workload::StreamingAppend => 4,
        }
    }

    /// The advisory context and machine prices of the workload's
    /// sessions.
    pub fn params(self) -> FactorParams {
        match self {
            Workload::SquareCaqr3d | Workload::StreamingAppend => {
                FactorParams::new(CostParams::laptop())
            }
            Workload::ServiceTallSkinny => {
                FactorParams::new(CostParams::cluster()).with_kappa(SERVICE_KAPPA)
            }
        }
    }

    /// The shapes one operation factors, with the backend the program
    /// runs on them (for the service, the one its advisor picks).
    pub fn op_shapes(self) -> Vec<((usize, usize), QrBackend)> {
        let p = self.procs();
        let params = self.params();
        match self {
            Workload::SquareCaqr3d => vec![(
                SQUARE_SHAPE,
                QrBackend::Caqr3d {
                    delta: SQUARE_DELTA,
                },
            )],
            Workload::ServiceTallSkinny => SERVICE_SHAPES
                .iter()
                .map(|&(m, n)| ((m, n), QrBackend::auto(m, n, p, &params)))
                .collect(),
            // One append runs the TSQR leaf and tree on the new block.
            Workload::StreamingAppend => vec![(STREAM_BLOCK, QrBackend::Tsqr)],
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SquareCaqr3d => {
                "the paper's 3D-CAQR-EG: time goes to mm redistribution, dmm3d and the \
                 collectives; never touches the service or the TSQR tree"
            }
            Workload::ServiceTallSkinny => {
                "admission, coalescing, fused CholeskyQR2 batches, executor dispatch and host-side \
                 Q assembly; never calls mm, so 3D work should not move it"
            }
            Workload::StreamingAppend => {
                "many small TSQR jobs then one large host-side Q formation: splits per-job \
                 overhead from big-job throughput"
            }
        }
    }

    /// Which end-to-end metric each per-layer metric should move on this
    /// workload; layers not listed should leave it unchanged.
    pub fn layer_map(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::SquareCaqr3d => &[
                ("machine.word_time_s", "latency_p50_s"),
                ("matrix.gemm_gflops", "ops_per_s"),
                ("collectives.all_to_all_s", "latency_p50_s"),
                ("mm.redistribute_s", "latency_p50_s"),
                ("mm.dmm3d_redistributed_s", "latency_p50_s"),
                ("mm.redistribute_share", "ops_per_s"),
                ("core.assemble_s", "finalize_s"),
                ("core.rank_busy_max_s", "latency_p50_s"),
                ("core.caqr3d_over_caqr2d", "latency_p50_s"),
            ],
            // The advisor runs CholeskyQR2 on every request shape, so
            // geqrt and thin_q are off this workload's path.
            Workload::ServiceTallSkinny => &[
                ("machine.msg_latency_s", "latency_p50_s"),
                ("collectives.all_reduce_s", "latency_p50_s"),
                ("core.rank_busy_max_s", "ops_per_s"),
                ("core.assemble_s", "finalize_s"),
                ("service.queue_wait_p50_s", "latency_p50_s"),
                ("service.coalesced_share", "ops_per_s"),
                ("service.fused_share", "ops_per_s"),
            ],
            Workload::StreamingAppend => &[
                ("machine.dispatch_s", "latency_p50_s"),
                ("machine.msg_latency_s", "latency_p50_s"),
                ("matrix.geqrt_leaf_gflops", "latency_p50_s"),
                ("matrix.thin_q_s", "finalize_s"),
            ],
        }
    }
}
