//! The entry-enumeration redistribution `redistribute` replaced, kept as
//! a test oracle.
//!
//! Every rank walks every rank's `from.entries(s)` and asks `to.owner`
//! for each entry: `O(P·m·n)` work per call, but the pack order, block
//! sizes and unpack positions follow directly from the `DistLayout`
//! definitions. The closed-form plan must reproduce its buffers and
//! clocks bitwise.

use std::collections::HashMap;

use qr3d_collectives::alltoall::all_to_all;
use qr3d_collectives::BlockSizes;
use qr3d_machine::{Comm, Rank};
use qr3d_mm::brick::DistLayout;

/// A redistribution routine: `redistribute` or the reference.
pub type Redistribute = fn(&mut Rank, &Comm, &[f64], &dyn DistLayout, &dyn DistLayout) -> Vec<f64>;

/// Convert this rank's buffer from `from` to `to` by enumerating entries.
pub fn redistribute_reference(
    rank: &mut Rank,
    comm: &Comm,
    local: &[f64],
    from: &dyn DistLayout,
    to: &dyn DistLayout,
) -> Vec<f64> {
    let p = comm.size();
    let me = comm.rank();
    let my_entries = from.entries(me);
    assert_eq!(local.len(), my_entries.len(), "local buffer size mismatch");

    // Pack outgoing blocks in enumeration order.
    let mut blocks: Vec<Vec<f64>> = (0..p).map(|_| Vec::new()).collect();
    for (&v, &(i, j)) in local.iter().zip(&my_entries) {
        blocks[to.owner(i, j)].push(v);
    }

    // Every rank derives the full size matrix from the layouts.
    let mut counts = vec![0usize; p * p];
    for s in 0..p {
        for (i, j) in from.entries(s) {
            counts[s * p + to.owner(i, j)] += 1;
        }
    }
    let sizes = BlockSizes::from_fn(p, |s, d| counts[s * p + d]);

    let incoming = all_to_all(rank, comm, blocks, &sizes);

    // Unpack: the values from source s arrive in s's enumeration order,
    // restricted to the entries I own under `to`.
    let to_entries = to.entries(me);
    let pos: HashMap<(usize, usize), usize> = to_entries
        .iter()
        .enumerate()
        .map(|(idx, &e)| (e, idx))
        .collect();
    let mut out = vec![0.0; to_entries.len()];
    for (s, bundle) in incoming.iter().enumerate() {
        let mut it = bundle.iter();
        for (i, j) in from.entries(s) {
            if to.owner(i, j) == me {
                let v = *it.next().expect("bundle shorter than expected");
                out[pos[&(i, j)]] = v;
            }
        }
        assert!(it.next().is_none(), "bundle longer than expected");
    }
    out
}
