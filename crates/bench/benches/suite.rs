//! Criterion wall-time benches, one group per experiment/ablation target.
//!
//! Round counts (the paper's metric) are produced by the `experiments`
//! binary; these benches track the *simulator's* wall-time cost so that
//! performance regressions in the substrate are caught.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use clique_listing::baselines::{dlp12_congested_clique, naive_exhaustive};
use clique_listing::{list_cliques_congest, ListingConfig};
use congest::cluster::CommunicationCluster;
use congest::graph::VertexId;
use congest::routing::{route, Packet};
use expander_decomp::decompose;
use expander_decomp::sweep::{default_iterations, power_iteration_embedding};
use partition_trees::build_k3::build_k3_tree;
use ppstream::{simulate, Budgets, Chunk, Emitter, InstanceInput, MainAction, PartialPass, Token};

/// E1 bench target: full deterministic K3 listing.
fn k3_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("k3_listing");
    group.sample_size(10);
    for n in [48usize, 96] {
        let g = graphs::erdos_renyi(n, 0.2, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| list_cliques_congest(g, 3, &ListingConfig::default()))
        });
    }
    group.finish();
}

/// E2 bench target: K4 listing.
fn kp_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("k4_listing");
    group.sample_size(10);
    for n in [32usize, 48] {
        let g = graphs::erdos_renyi(n, 0.3, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| list_cliques_congest(g, 4, &ListingConfig::default()))
        });
    }
    group.finish();
}

/// E4 bench target: K3-partition-tree construction.
fn ptree_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("k3_tree_build");
    group.sample_size(10);
    for n in [64usize, 128] {
        let g = graphs::erdos_renyi(n, 0.3, 3);
        let cluster =
            CommunicationCluster::new(g.clone(), (0..g.n() as VertexId).collect(), 3, 0.3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &cluster, |b, cl| {
            b.iter(|| build_k3_tree(cl, 1))
        });
    }
    group.finish();
}

struct Summer {
    acc: u64,
}
impl PartialPass for Summer {
    fn on_main(&mut self, t: &[Token], _o: &mut Emitter) -> MainAction {
        self.acc += t[0];
        MainAction::Continue
    }
    fn on_aux(&mut self, _t: &[Token], _o: &mut Emitter) {}
    fn finish(&mut self, o: &mut Emitter) {
        o.write(self.acc);
    }
}

/// E5/A1 bench target: Theorem 11 simulation across λ.
fn ppstream_sim(c: &mut Criterion) {
    let g = graphs::hypercube(6);
    let cluster = CommunicationCluster::new(g.clone(), (0..g.n() as VertexId).collect(), 1, 0.2);
    let chunks: Vec<Chunk> = (0..64).map(|i| Chunk::main_only(i % 5)).collect();
    let budgets = Budgets { n_in: 64, n_out: 4, b_aux: 0, b_write: 4, state_words: 4 };
    let mut group = c.benchmark_group("ppstream_simulate");
    group.sample_size(20);
    for lambda in [1usize, 4, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(lambda), &lambda, |b, &lambda| {
            b.iter(|| {
                let mut algo = Summer { acc: 0 };
                let inputs: Vec<Vec<Chunk>> = chunks.iter().map(|c| vec![c.clone()]).collect();
                simulate(
                    &cluster,
                    vec![InstanceInput { algo: &mut algo, budgets, inputs }],
                    lambda,
                    1,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

/// E6/A2 bench target: expander decomposition. The clustered graphs fit
/// in one 2048-vertex chunk and run inline; the power-iteration cases span
/// two chunks each (the `sparse-lowdeg` shapes), so their chunk batches go
/// through the runtime pool.
fn expander_decomp_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("expander_decomposition");
    group.sample_size(10);
    for n in [128usize, 256] {
        let g = graphs::clustered(n, 4, 0.4, 0.02, 4);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| decompose(g, 0.25))
        });
    }
    for (name, g) in
        [("rr4000_d8", graphs::random_regular(4000, 8, 3)), ("hypercube12", graphs::hypercube(12))]
    {
        let iterations = default_iterations(g.n());
        group.bench_with_input(BenchmarkId::new("power_iteration", name), &g, |b, g| {
            b.iter(|| power_iteration_embedding(g, iterations))
        });
    }
    group.finish();
}

/// E7 bench target: bulk routing. Scattered hypercube traffic, plus the
/// listing's learning traffic — many sources onto a few owners of a dense
/// ER graph at bandwidth 1, where most packet-rounds are spent blocked.
fn routing_bench(c: &mut Criterion) {
    let g = graphs::hypercube(7);
    let n = g.n();
    let mut group = c.benchmark_group("routing");
    group.sample_size(20);
    for l in [2usize, 8] {
        let pkts: Vec<Packet> = (0..n * l * 7)
            .map(|i| Packet {
                src: (i % n) as VertexId,
                dst: ((i * 13 + 1) % n) as VertexId,
                payload: i as u64,
            })
            .filter(|p| p.src != p.dst)
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(l), &pkts, |b, pkts| {
            b.iter(|| route(&g, pkts.clone(), 1))
        });
    }
    let dense = graphs::erdos_renyi(80, 0.3, 7);
    let owners: [VertexId; 4] = [0, 1, 2, 3];
    let learn: Vec<Packet> = (0..dense.n() * 40)
        .map(|i| Packet {
            src: (i % dense.n()) as VertexId,
            dst: owners[i % owners.len()],
            payload: i as u64,
        })
        .filter(|p| p.src != p.dst)
        .collect();
    group.bench_with_input(BenchmarkId::new("learn", "er80"), &learn, |b, pkts| {
        b.iter(|| route(&dense, pkts.clone(), 1))
    });
    group.finish();
}

/// E9 bench target: baselines on the same graph.
fn baselines_bench(c: &mut Criterion) {
    let g = graphs::erdos_renyi(96, 0.15, 5);
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    group.bench_function("deterministic", |b| {
        b.iter(|| list_cliques_congest(&g, 3, &ListingConfig::default()))
    });
    group.bench_function("naive", |b| b.iter(|| naive_exhaustive(&g, 3, 1)));
    group.bench_function("dlp12", |b| b.iter(|| dlp12_congested_clique(&g, 3)));
    group.finish();
}

/// Engine bench target: raw round throughput of the sequential vs the
/// sharded engine on the heartbeat workload (every vertex messages all its
/// neighbors each round). Tracks the `crates/runtime` speedup across PRs.
fn engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    let shards = runtime::available_shards();
    for (n, rounds) in [(1_000usize, 20u64), (10_000, 5), (50_000, 2)] {
        let g = bench::throughput_graph(n);
        group.bench_with_input(BenchmarkId::new("sequential", n), &g, |b, g| {
            b.iter(|| bench::engine_round_checksum(&congest::Sequential, g, rounds))
        });
        group.bench_with_input(BenchmarkId::new(format!("sharded{shards}"), n), &g, |b, g| {
            b.iter(|| bench::engine_round_checksum(&runtime::Sharded::new(shards), g, rounds))
        });
    }
    group.finish();
}

/// Hot-path bench target: per-step cost of both engines at fixed n, under
/// a dense (every vertex speaks: [`bench::Heartbeat`]) and a sparse
/// (1-in-16 speaks: [`bench::SparseBeat`]) message mix. This is the group
/// CI runs in smoke mode (`BENCH_SAMPLES=1 cargo bench -p bench --
/// round_hot_path`) so a regression in the zero-allocation round loop
/// fails loud.
fn round_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_hot_path");
    group.sample_size(10);
    let shards = runtime::available_shards();
    let n = 20_000usize;
    let g = bench::throughput_graph(n);
    for (mix, rounds) in [("dense", 4u64), ("sparse", 16)] {
        group.bench_with_input(BenchmarkId::new(format!("sequential_{mix}"), n), &g, |b, g| {
            b.iter(|| match mix {
                "dense" => bench::engine_round_checksum(&congest::Sequential, g, rounds),
                _ => bench::sparse_round_checksum(&congest::Sequential, g, rounds),
            })
        });
        group.bench_with_input(
            BenchmarkId::new(format!("sharded{shards}_{mix}"), n),
            &g,
            |b, g| {
                b.iter(|| match mix {
                    "dense" => {
                        bench::engine_round_checksum(&runtime::Sharded::new(shards), g, rounds)
                    }
                    _ => bench::sparse_round_checksum(&runtime::Sharded::new(shards), g, rounds),
                })
            },
        );
    }
    group.finish();
}

/// A4 ablation: bandwidth sensitivity of the full pipeline.
fn ablation_bandwidth(c: &mut Criterion) {
    let g = graphs::erdos_renyi(64, 0.2, 6);
    let mut group = c.benchmark_group("ablation_bandwidth");
    group.sample_size(10);
    for bw in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(bw), &bw, |b, &bw| {
            b.iter(|| {
                list_cliques_congest(
                    &g,
                    3,
                    &ListingConfig { bandwidth: bw, ..ListingConfig::default() },
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    k3_rounds,
    kp_rounds,
    ptree_build,
    ppstream_sim,
    expander_decomp_bench,
    routing_bench,
    baselines_bench,
    engine_throughput,
    round_hot_path,
    ablation_bandwidth
);
criterion_main!(benches);
