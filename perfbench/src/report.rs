//! The metric catalogue and the report: human-readable lines followed by
//! the one-line JSON result.

use std::fmt::Write as _;

use qr3d_matrix::simd::detected_level;

use crate::spec::Workload;
use crate::trace::json_str;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One catalogued metric: name, unit, direction, and meaning.
pub type MetricDef = (&'static str, &'static str, Better, &'static str);

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    (
        "setup_s",
        "s",
        Lower,
        "construct the session or service and warm it up",
    ),
    (
        "ops_per_s",
        "1/s",
        Higher,
        "verified operations per second of loop time",
    ),
    ("latency_p50_s", "s", Lower, "median operation latency"),
    (
        "finalize_s",
        "s",
        Lower,
        "the workload's closing step (see README)",
    ),
    (
        "peak_rss_mib",
        "MiB",
        Lower,
        "peak resident memory of the process",
    ),
];

/// The per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    (
        "machine.dispatch_s",
        "s",
        Lower,
        "empty warm executor job at the workload's P",
    ),
    (
        "machine.msg_latency_s",
        "s",
        Lower,
        "one-way 1-word message (measured alpha)",
    ),
    (
        "machine.word_time_s",
        "s",
        Lower,
        "per-word time of a 1 MiB message (measured beta)",
    ),
    (
        "matrix.geqrt_leaf_gflops",
        "GF/s",
        Higher,
        "geqrt at the per-rank leaf shape(s)",
    ),
    (
        "matrix.gemm_gflops",
        "GF/s",
        Higher,
        "gemm at the local shape of the top-level dmm3d",
    ),
    (
        "matrix.thin_q_s",
        "s",
        Lower,
        "host-side thin_q at the full m x n",
    ),
    (
        "matrix.serial_qr_s",
        "s",
        Lower,
        "geqrt + thin_q of one input on one thread",
    ),
    (
        "core.speedup_over_serial",
        "ratio",
        Higher,
        "serial_qr_s over the operation's latency",
    ),
    (
        "collectives.all_to_all_s",
        "s",
        Lower,
        "all_to_all at the top-level redistribution volume",
    ),
    (
        "collectives.all_reduce_s",
        "s",
        Lower,
        "all_reduce of n x n words",
    ),
    (
        "mm.redistribute_s",
        "s",
        Lower,
        "one redistribute of V_L to the A brick",
    ),
    (
        "mm.dmm3d_s",
        "s",
        Lower,
        "dmm3d on bricks, no redistribution",
    ),
    (
        "mm.dmm3d_redistributed_s",
        "s",
        Lower,
        "the full top-level product",
    ),
    (
        "mm.redistribute_share",
        "ratio",
        Lower,
        "share of the top-level product spent redistributing",
    ),
    (
        "core.scatter_s",
        "s",
        Lower,
        "replayed factor: host-side layout scatter",
    ),
    (
        "core.rank_job_s",
        "s",
        Lower,
        "replayed factor: the executor job",
    ),
    (
        "core.assemble_s",
        "s",
        Lower,
        "replayed factor: host-side assembly and Q formation",
    ),
    (
        "core.rank_busy_max_s",
        "s",
        Lower,
        "slowest rank inside the algorithm call",
    ),
    (
        "core.rank_busy_min_s",
        "s",
        Lower,
        "fastest rank inside the algorithm call",
    ),
    (
        "core.rank_imbalance",
        "ratio",
        Lower,
        "rank_busy_max_s over rank_busy_min_s",
    ),
    (
        "core.caqr2d_ref_s",
        "s",
        Lower,
        "Session::factor with Caqr2d on the reference input",
    ),
    (
        "core.caqr3d_over_caqr2d",
        "ratio",
        Lower,
        "Caqr3d over Caqr2d wall time on the reference input",
    ),
    (
        "service.queue_wait_p50_s",
        "s",
        Lower,
        "median JobStats.queue_wait",
    ),
    (
        "service.exec_p50_s",
        "s",
        Lower,
        "median JobStats.wall - queue_wait",
    ),
    (
        "service.coalesced_share",
        "ratio",
        Higher,
        "jobs that shared a bucket, over jobs completed",
    ),
    (
        "service.fused_share",
        "ratio",
        Higher,
        "buckets that ran fused, over buckets dispatched",
    ),
    (
        "service.rejected",
        "count",
        Lower,
        "submissions turned away",
    ),
    (
        "service.retried",
        "count",
        Lower,
        "jobs re-dispatched after an executor death",
    ),
    (
        "cost.critical_flops",
        "flops",
        Lower,
        "critical-path flops per operation",
    ),
    (
        "cost.critical_words",
        "words",
        Lower,
        "critical-path words per operation",
    ),
    (
        "cost.critical_msgs",
        "msgs",
        Lower,
        "critical-path messages per operation",
    ),
    (
        "cost.model_s",
        "s",
        Lower,
        "modeled time per operation at the workload's CostParams",
    ),
    (
        "cost.wall_over_model",
        "ratio",
        Lower,
        "latency_p50_s over cost.model_s",
    ),
    (
        "cost.fit_alpha_s",
        "s",
        Lower,
        "alpha fitted from the machine probes",
    ),
    (
        "cost.fit_beta_s",
        "s",
        Lower,
        "beta fitted from the machine probes",
    ),
    (
        "cost.fit_gamma_s",
        "s",
        Lower,
        "gamma fitted from the matrix probes",
    ),
    (
        "cost.model_fitted_s",
        "s",
        Lower,
        "critical path re-priced with the fitted alpha, beta, gamma",
    ),
    (
        "cost.wall_over_model_fitted",
        "ratio",
        Lower,
        "latency_p50_s over cost.model_fitted_s",
    ),
    (
        "bench.trace_overhead",
        "ratio",
        Lower,
        "untraced over traced ops_per_s",
    ),
    (
        "bench.latency_p99_s",
        "s",
        Lower,
        "99th-percentile operation latency of the untraced loop (nearest rank)",
    ),
];

/// A finished run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value)` for every metric of the run's catalogue.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Report {
    /// Record `name`'s value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Check the run reported exactly the catalogue's metrics, all
    /// finite; clears `correct` and notes the problem otherwise.
    pub fn validate(&mut self, catalogue: &[MetricDef]) {
        for (name, ..) in catalogue {
            match self.value(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => {
                    self.correct = false;
                    self.notes
                        .push(format!("metric {name} is not finite ({v})"));
                }
                None => {
                    self.correct = false;
                    self.notes.push(format!("metric {name} was not measured"));
                }
            }
        }
        self.metrics
            .retain(|(n, v)| catalogue.iter().any(|(c, ..)| c == n) && v.is_finite());
    }

    /// The human-readable report: one `# name = value unit` line per
    /// metric, then the notes.
    pub fn human(&self, catalogue: &[MetricDef]) -> String {
        let mut s = String::new();
        for (name, unit, better, what) in catalogue {
            if let Some(v) = self.value(name) {
                let dir = if *better == Higher { "higher" } else { "lower" };
                let _ = writeln!(s, "# {name} = {v} {unit}  ({dir} is better; {what})");
            }
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "# error_rate = {rate} ratio  ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        s
    }

    /// The one-line JSON result.
    pub fn json(&self, catalogue: &[MetricDef]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        let mut first = true;
        for (name, unit, ..) in catalogue {
            if let Some(v) = self.value(name) {
                if !first {
                    s.push_str(", ");
                }
                first = false;
                let _ = write!(
                    s,
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                );
            }
        }
        s.push_str("}}");
        s
    }
}

/// The host and configuration a result was measured under, as one JSON
/// object: core count, SIMD level, `QR3D_*` overrides, machine prices,
/// rank count, and the run's arguments.
pub fn fingerprint(w: Workload, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("QR3D_"))
        .collect();
    env.sort();
    let env = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let params = w.params();
    let c = params.machine;
    let kappa = params.kappa.map_or("null".to_string(), |k| k.to_string());
    format!(
        "{{\"workload\": {}, \"procs\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"nproc\": {nproc}, \"simd\": {}, \"env\": {{{env}}}, \
         \"cost_params\": {{\"alpha\": {}, \"beta\": {}, \"gamma\": {}}}, \"kappa\": {kappa}}}",
        json_str(w.name()),
        w.procs(),
        u8::from(trace),
        json_str(detected_level().name()),
        c.alpha,
        c.beta,
        c.gamma,
    )
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
