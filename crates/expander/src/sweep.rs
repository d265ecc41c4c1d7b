//! Deterministic spectral embedding and Cheeger sweep cuts.
//!
//! The embedding is computed by power iteration of the lazy random-walk
//! matrix `M = ½(I + D⁻¹A)` starting from a fixed pseudo-random vector
//! (SplitMix64 of the vertex id — no RNG state, fully deterministic),
//! deflating the stationary component after every step. A sweep over the
//! sorted embedding then returns the best prefix cut.
//!
//! By Cheeger's inequality, if the graph has a cut of conductance `φ`, the
//! sweep finds a cut of conductance `O(√φ)`; conversely if no sweep prefix
//! beats `φ_target`, the graph is certified as a `φ_target`-cluster for the
//! purposes of the decomposition (validated against exact conductance on
//! small graphs in the test suite).

use congest::graph::{Graph, VertexId};
use runtime::{ambient_pool, SlicePtr};

/// SplitMix64: a fixed bijective scrambler used to derive the deterministic
/// start vector.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fixed width of one parallel work chunk. The chunk split — and with it
/// every floating-point reduction order below — depends only on `n`, never
/// on the worker count, so the embedding is bit-identical whether it runs
/// inline, on a 1-thread pool, or on 64 shards.
const PAR_CHUNK: usize = 2048;

/// The vertex range of parallel chunk `c`.
fn chunk_bounds(c: usize, n: usize) -> (usize, usize) {
    (c * PAR_CHUNK, ((c + 1) * PAR_CHUNK).min(n))
}

/// Runs `f(0..chunks)` — on the [`ambient_pool`] when there is real
/// parallelism to gain, inline otherwise. The ambient pool is the process
/// [`runtime::global_pool`] unless an enclosing
/// [`runtime::with_ambient_pool`] scope redirected it: the batch query
/// service wraps each *admitted* job in such a scope, so decomposition
/// bursts land on the pool the job's admission `PoolLease` is held on and
/// respect the `CLIQUE_ADMIT` gate instead of sneaking onto the global
/// pool. On the pool the calling thread runs chunks too, so a burst costs
/// at most `min(chunks − 1, pool size)` worker wake-ups. Either path
/// performs the exact same per-chunk arithmetic, so results never depend
/// on the dispatch. Power iteration makes three such bursts per iteration.
fn for_chunks(chunks: usize, f: impl Fn(usize) + Sync) {
    // one chunk batch per burst, whichever dispatch path runs it — lets
    // operators see how much of the pool traffic is decomposition work
    obs::metrics().expander_chunk_batches.inc();
    let pool = ambient_pool();
    if chunks > 1 && pool.size() > 1 {
        pool.run_indexed(chunks, f);
    } else {
        for c in 0..chunks {
            f(c);
        }
    }
}

/// Σ `deg(v)·x[v]` over the chunk `xc` starting at vertex `lo`,
/// accumulated in vertex order.
fn weighted_sum(g: &Graph, xc: &[f64], lo: usize) -> f64 {
    let mut acc = 0.0;
    for (i, xv) in xc.iter().enumerate() {
        acc += g.degree((lo + i) as VertexId) as f64 * xv;
    }
    acc
}

/// Computes a deterministic approximate second eigenvector of the lazy
/// walk matrix, using `iterations` matvec steps. Each matvec corresponds
/// to one CONGEST round of neighbor exchange, which is how callers charge
/// rounds for it.
///
/// The start vector is deflated once (degree-weighted mean removed); then
/// each iteration runs as three chunk passes on the ambient
/// [`runtime::WorkerPool`] (see `for_chunks`):
///
/// 1. `y = ½(I + D⁻¹A)x`, plus each chunk's partial `Σ deg·y`;
/// 2. subtract the degree-weighted mean (the stationary direction), plus
///    each chunk's partial sum of squares;
/// 3. divide by the norm, to avoid underflow.
///
/// Partial sums are folded in chunk order between passes. The chunk split
/// is a pure function of `n` (never of the worker count) and every chunk
/// does its arithmetic in vertex order, so the result is bit-for-bit
/// identical at every pool size; pieces spanning at most one chunk run
/// inline. Like every pool client, this must not be called from a task
/// already running on the global pool (see the `runtime::pool` deadlock
/// rule).
///
/// Isolated vertices receive embedding value 0.
pub fn power_iteration_embedding(g: &Graph, iterations: usize) -> Vec<f64> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let chunks = n.div_ceil(PAR_CHUNK);
    let total_vol: f64 = (0..n).map(|v| g.degree(v as VertexId) as f64).sum();
    let mut x: Vec<f64> =
        (0..n).map(|v| (splitmix64(v as u64) as f64 / u64::MAX as f64) - 0.5).collect();
    // both working buffers persist across iterations — the loop allocates
    // nothing
    let mut y = vec![0.0f64; n];
    let mut partials = vec![0.0f64; chunks];
    // `total_vol == 0` means no edges: there is no stationary direction to
    // remove, and every matvec below yields the zero vector
    if total_vol != 0.0 {
        {
            let x_ref = &x[..];
            let pp = SlicePtr::new(&mut partials);
            for_chunks(chunks, |c| {
                let (lo, hi) = chunk_bounds(c, n);
                // SAFETY: chunk c is claimed exactly once per batch
                *unsafe { pp.index_mut(c) } = weighted_sum(g, &x_ref[lo..hi], lo);
            });
        }
        let mean = partials.iter().sum::<f64>() / total_vol;
        let xp = SlicePtr::new(&mut x);
        for_chunks(chunks, |c| {
            let (lo, hi) = chunk_bounds(c, n);
            // SAFETY: chunk ranges are disjoint
            for v in unsafe { xp.slice_mut(lo, hi - lo) } {
                *v -= mean;
            }
        });
    }
    for _ in 0..iterations {
        // pass 1: matvec and the deflation partials of its result
        {
            let x_ref = &x[..];
            let yp = SlicePtr::new(&mut y);
            let pp = SlicePtr::new(&mut partials);
            for_chunks(chunks, |c| {
                let (lo, hi) = chunk_bounds(c, n);
                // SAFETY: chunk ranges are disjoint
                let yc = unsafe { yp.slice_mut(lo, hi - lo) };
                for (i, v) in (lo..hi).enumerate() {
                    let d = g.degree(v as VertexId);
                    if d == 0 {
                        yc[i] = 0.0;
                        continue;
                    }
                    let mut acc = 0.0;
                    for &u in g.neighbors(v as VertexId) {
                        acc += x_ref[u as usize];
                    }
                    yc[i] = 0.5 * x_ref[v] + 0.5 * acc / d as f64;
                }
                // SAFETY: chunk c is claimed exactly once per batch
                *unsafe { pp.index_mut(c) } = weighted_sum(g, yc, lo);
            });
        }
        std::mem::swap(&mut x, &mut y);
        // pass 2: deflation and the norm partials of its result
        {
            let mean = (total_vol != 0.0).then(|| partials.iter().sum::<f64>() / total_vol);
            let xp = SlicePtr::new(&mut x);
            let pp = SlicePtr::new(&mut partials);
            for_chunks(chunks, |c| {
                let (lo, hi) = chunk_bounds(c, n);
                // SAFETY: chunk ranges are disjoint
                let xc = unsafe { xp.slice_mut(lo, hi - lo) };
                if let Some(mean) = mean {
                    for v in xc.iter_mut() {
                        *v -= mean;
                    }
                }
                // SAFETY: chunk c is claimed exactly once per batch
                *unsafe { pp.index_mut(c) } = xc.iter().map(|a| a * a).sum::<f64>();
            });
        }
        // pass 3: normalization
        let norm: f64 = partials.iter().sum::<f64>().sqrt();
        if norm > 0.0 {
            let xp = SlicePtr::new(&mut x);
            for_chunks(chunks, |c| {
                let (lo, hi) = chunk_bounds(c, n);
                // SAFETY: chunk ranges are disjoint
                for v in unsafe { xp.slice_mut(lo, hi - lo) } {
                    *v /= norm;
                }
            });
        } else {
            break;
        }
    }
    x
}

/// A cut found by a sweep over an embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCut {
    /// The smaller-volume side of the cut (vertex ids of the input graph).
    pub side: Vec<VertexId>,
    /// Conductance of the cut.
    pub conductance: f64,
}

/// Sweeps the sorted embedding and returns the minimum-conductance prefix
/// cut, or `None` if the graph has no edges or fewer than 2 vertices.
///
/// Only vertices with positive degree participate in the sweep.
pub fn sweep_cut(g: &Graph, embedding: &[f64]) -> Option<SweepCut> {
    let n = g.n();
    if n < 2 || g.m() == 0 {
        return None;
    }
    let mut order: Vec<VertexId> = (0..n as VertexId).filter(|&v| g.degree(v) > 0).collect();
    if order.len() < 2 {
        return None;
    }
    order.sort_by(|&a, &b| {
        embedding[a as usize]
            .partial_cmp(&embedding[b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let total_vol = 2 * g.m();
    let mut in_prefix = vec![false; n];
    let mut boundary: i64 = 0;
    let mut vol: usize = 0;
    let mut best: Option<(f64, usize)> = None;
    for (idx, &v) in order.iter().enumerate().take(order.len() - 1) {
        in_prefix[v as usize] = true;
        vol += g.degree(v);
        for &u in g.neighbors(v) {
            if in_prefix[u as usize] {
                boundary -= 1;
            } else {
                boundary += 1;
            }
        }
        let denom = vol.min(total_vol - vol);
        if denom == 0 {
            continue;
        }
        let phi = boundary as f64 / denom as f64;
        if best.map(|(b, _)| phi < b).unwrap_or(true) {
            best = Some((phi, idx));
        }
    }
    best.map(|(phi, idx)| {
        let prefix: Vec<VertexId> = order[..=idx].to_vec();
        // report the smaller-volume side
        let vol_prefix: usize = prefix.iter().map(|&v| g.degree(v)).sum();
        let side = if 2 * vol_prefix <= total_vol {
            prefix
        } else {
            let chosen: std::collections::HashSet<VertexId> = prefix.into_iter().collect();
            order.iter().copied().filter(|v| !chosen.contains(v)).collect()
        };
        let mut side = side;
        side.sort_unstable();
        SweepCut { side, conductance: phi }
    })
}

/// Default iteration budget for an `n`-vertex piece: `Θ(log² n)`, the
/// mixing-time scale of a polylog-conductance cluster.
pub fn default_iterations(n: usize) -> usize {
    let log = (n.max(2) as f64).log2();
    ((4.0 * log * log) as usize).clamp(16, 4000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique_pair(side: usize) -> Graph {
        // two cliques joined by one edge
        let mut e = Vec::new();
        for u in 0..side as VertexId {
            for v in u + 1..side as VertexId {
                e.push((u, v));
                e.push((u + side as VertexId, v + side as VertexId));
            }
        }
        e.push((0, side as VertexId));
        Graph::from_edges(2 * side, &e)
    }

    #[test]
    fn embedding_is_deterministic() {
        let g = clique_pair(8);
        let a = power_iteration_embedding(&g, 50);
        let b = power_iteration_embedding(&g, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn multi_chunk_embedding_is_deterministic_deflated_and_normalized() {
        // n > PAR_CHUNK exercises the chunked pool path; the result must be
        // reproducible and keep the power-iteration invariants
        let edges: Vec<_> = (0..4999u32).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(5000, &edges);
        let a = power_iteration_embedding(&g, 8);
        let b = power_iteration_embedding(&g, 8);
        assert_eq!(a, b);
        let mean: f64 = (0..5000).map(|v| g.degree(v as u32) as f64 * a[v]).sum();
        assert!(mean.abs() < 1e-6, "degree-weighted mean must be ~0, got {mean}");
        let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9, "embedding must be normalized, got {norm}");
    }

    #[test]
    fn chunk_batches_follow_the_ambient_pool_without_changing_the_result() {
        use runtime::{with_ambient_pool, WorkerPool};
        use std::sync::Arc;
        // n > PAR_CHUNK so the chunked pool path engages
        let edges: Vec<_> = (0..4999u32).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(5000, &edges);
        let dedicated = Arc::new(WorkerPool::new(2));
        let baseline = power_iteration_embedding(&g, 4);
        let before = dedicated.batches_run();
        let redirected = with_ambient_pool(&dedicated, || power_iteration_embedding(&g, 4));
        assert!(
            dedicated.batches_run() > before,
            "power-iteration bursts must land on the ambient pool"
        );
        assert_eq!(redirected, baseline, "the dispatch pool must never change the embedding");
    }

    #[test]
    fn sweep_separates_two_cliques() {
        let g = clique_pair(8);
        let emb = power_iteration_embedding(&g, 80);
        let cut = sweep_cut(&g, &emb).unwrap();
        assert_eq!(cut.side.len(), 8, "side = {:?}", cut.side);
        // the bridge is a single edge: conductance = 1 / vol(side)
        assert!(cut.conductance < 0.05, "phi = {}", cut.conductance);
        // side must be exactly one of the cliques
        let first: Vec<VertexId> = (0..8).collect();
        let second: Vec<VertexId> = (8..16).collect();
        assert!(cut.side == first || cut.side == second);
    }

    #[test]
    fn sweep_on_expander_finds_no_sparse_cut() {
        // hypercube of dimension 5: conductance ~ 1/5
        let mut edges = Vec::new();
        for v in 0..32u32 {
            for b in 0..5 {
                let u = v ^ (1 << b);
                if u > v {
                    edges.push((v, u));
                }
            }
        }
        let g = Graph::from_edges(32, &edges);
        let emb = power_iteration_embedding(&g, 100);
        let cut = sweep_cut(&g, &emb).unwrap();
        assert!(cut.conductance > 0.1, "phi = {}", cut.conductance);
    }

    #[test]
    fn sweep_none_for_edgeless() {
        let g = Graph::empty(5);
        assert!(sweep_cut(&g, &[0.0; 5]).is_none());
    }

    #[test]
    fn sweep_side_is_smaller_volume_side() {
        // star with a tail: cut should isolate low-volume side
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]);
        let emb = power_iteration_embedding(&g, 60);
        let cut = sweep_cut(&g, &emb).unwrap();
        let vol_side: usize = cut.side.iter().map(|&v| g.degree(v)).sum();
        assert!(2 * vol_side <= 2 * g.m());
    }
}
