//! Golden pins for the power-iteration embedding and the decomposition it
//! drives.
//!
//! Every chunk reduction in `power_iteration_embedding` is folded in a
//! fixed order, so the embedding is a pure function of the graph and the
//! iteration count. These tests pin the bits of that function on graphs
//! spanning two to four 2048-vertex chunks, plus what `decompose` makes
//! of them (clusters, remainder, charged rounds and messages). A faster
//! power iteration that reorders a floating-point sum fails here.

use congest::graph::Graph;
use expander_decomp::decompose;
use expander_decomp::sweep::{default_iterations, power_iteration_embedding};

/// FNV-1a 64 over the little-endian bytes of each entry's `f64::to_bits`.
fn embedding_digest(x: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(embedding digest, clusters, remainder edges, rounds, messages)`.
fn pin(g: &Graph) -> (u64, usize, usize, u64, u64) {
    let x = power_iteration_embedding(g, default_iterations(g.n()));
    let d = decompose(g, 0.05);
    (embedding_digest(&x), d.clusters.len(), d.remainder.len(), d.report.rounds, d.report.messages)
}

#[test]
fn random_regular_2500_is_pinned() {
    let g = graphs::random_regular(2500, 6, 7);
    assert_eq!(pin(&g), (0x9738_d16d_400f_700a, 1, 0, 593, 7_619_730));
}

#[test]
fn random_regular_4000_is_pinned() {
    let g = graphs::random_regular(4000, 8, 3);
    assert_eq!(pin(&g), (0xabc1_015c_9e87_3e91, 1, 0, 656, 18_285_696));
}

#[test]
fn random_regular_7000_is_pinned() {
    let g = graphs::random_regular(7000, 7, 9);
    assert_eq!(pin(&g), (0x087d_937b_c7a9_c500, 1, 0, 743, 31_932_352));
}

#[test]
fn hypercube_12_is_pinned() {
    let g = graphs::hypercube(12);
    assert_eq!(pin(&g), (0xdd67_7d95_591a_d17f, 1, 0, 732, 28_311_552));
}

#[test]
fn pins_hold_on_a_dedicated_pool_of_any_size() {
    // the chunk split depends on n alone, so neither the inline path (one
    // worker) nor a pool larger than the chunk count moves a bit
    use runtime::{with_ambient_pool, WorkerPool};
    use std::sync::Arc;
    let g = graphs::random_regular(4000, 8, 3);
    for size in [1, 2, 5] {
        let pool = Arc::new(WorkerPool::new(size));
        let x =
            with_ambient_pool(&pool, || power_iteration_embedding(&g, default_iterations(4000)));
        assert_eq!(embedding_digest(&x), 0xabc1_015c_9e87_3e91, "pool of {size}");
    }
}
