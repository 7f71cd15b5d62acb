//! Seeded input generation. Every matrix the program receives comes from
//! here, derived from the workload seed alone, so the same seed replays
//! the same inputs and request order.

use qr3d_matrix::qr::random_with_condition;
use qr3d_matrix::Matrix;

use crate::spec::{
    SERVICE_INPUTS_PER_SHAPE, SERVICE_KAPPA, SERVICE_RUN, SERVICE_SHAPES, SQUARE_INPUTS,
    SQUARE_SHAPE, STREAM_APPENDS, STREAM_BLOCK,
};

/// SplitMix64: a small, fast, well-mixed generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `(seed, stream)`, so independent uses of
    /// one workload seed draw from unrelated sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform on `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal sample (Box–Muller).
    pub fn gaussian(&mut self) -> f64 {
        let u = 1.0 - self.unit(); // (0, 1]: keeps ln finite
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// Stream identifiers keeping the workloads' draws independent.
const SQUARE: u64 = 1;
const SERVICE: u64 = 2;
const STREAMING: u64 = 3;

/// The `square_caqr3d` inputs: dense uniform `1024 × 256` matrices,
/// cycled by the closed loop.
pub fn square_inputs(seed: u64) -> Vec<Matrix> {
    let mut rng = Rng::new(seed, SQUARE);
    let (m, n) = SQUARE_SHAPE;
    (0..SQUARE_INPUTS)
        .map(|_| Matrix::random(m, n, rng.next_u64()))
        .collect()
}

/// The `service_tallskinny` inputs: per request shape, a pool of
/// matrices with 2-norm condition number [`SERVICE_KAPPA`] — the κ the
/// service is told to assume, so its CholeskyQR2 guard holds.
pub fn service_inputs(seed: u64) -> Vec<Vec<Matrix>> {
    let mut rng = Rng::new(seed, SERVICE);
    SERVICE_SHAPES
        .iter()
        .map(|&(m, n)| {
            (0..SERVICE_INPUTS_PER_SHAPE)
                .map(|_| random_with_condition(m, n, SERVICE_KAPPA, rng.next_u64()))
                .collect()
        })
        .collect()
}

/// The service's request order: same-shape runs of [`SERVICE_RUN`]
/// requests, each run's shape drawn uniformly, each request naming
/// `(shape index, input index)` in [`service_inputs`].
#[derive(Debug, Clone)]
pub struct RequestMix {
    rng: Rng,
    shape: usize,
    left: usize,
    next: usize,
}

impl RequestMix {
    /// The request order of `seed`.
    pub fn new(seed: u64) -> RequestMix {
        RequestMix {
            rng: Rng::new(seed, SERVICE + 100),
            shape: 0,
            left: 0,
            next: 0,
        }
    }
}

impl Iterator for RequestMix {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.left == 0 {
            self.shape = self.rng.below(SERVICE_SHAPES.len());
            self.next = self.rng.below(SERVICE_INPUTS_PER_SHAPE);
            self.left = SERVICE_RUN;
        }
        self.left -= 1;
        let idx = self.next;
        self.next = (self.next + 1) % SERVICE_INPUTS_PER_SHAPE;
        Some((self.shape, idx))
    }
}

/// The `streaming_append` block pool: [`STREAM_APPENDS`] dense uniform
/// `1024 × 32` blocks. Each stream appends all of them in its own order.
pub fn stream_blocks(seed: u64) -> Vec<Matrix> {
    let mut rng = Rng::new(seed, STREAMING);
    let (b, n) = STREAM_BLOCK;
    (0..STREAM_APPENDS)
        .map(|_| Matrix::random(b, n, rng.next_u64()))
        .collect()
}

/// The append order of stream number `stream` (a seeded permutation of
/// the block pool), so consecutive streams factor different matrices.
pub fn stream_order(seed: u64, stream: u64) -> Vec<usize> {
    let mut rng = Rng::new(
        seed ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d),
        STREAMING + 100,
    );
    let mut order: Vec<usize> = (0..STREAM_APPENDS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}
