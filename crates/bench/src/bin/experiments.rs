//! The experiment harness: prints the E1–E9 result tables to stdout.
//!
//! Usage: `cargo run --release -p bench --bin experiments [e1 e2 … e9 a2 eng svc timing | all]`
//!
//! Transcript subcommands (never part of `all`; see `bench::trc`):
//!
//! ```text
//! experiments record <out.trace> [--scenario S] [--protocol P] [--engine E]
//!                    [--fidelity digest|full] [--chrome out.json]
//! experiments replay <in.trace> [--engine E]     # exits 1 on divergence
//! experiments diff <a.trace> <b.trace>           # exits 1 unless identical
//! ```
//!
//! `timing` (the old `timing_probe` binary) is NOT part of `all`: it is the
//! heavier dense-G(n, 1/2) scaling probe, now reporting the per-phase
//! (compute vs exchange) breakdown via the telemetry layer.
//!
//! The paper has no evaluation section (it is a pure theory paper), so the
//! experiments reproduce its quantitative *claims* — see DESIGN.md for the
//! claim ↔ experiment mapping.

use bench::{dense_er, fitted_exponent, Table};
use clique_listing::baselines::{
    dlp12_congested_clique, list_cliques_randomized, naive_exhaustive,
};
use clique_listing::{list_cliques_congest, ListingConfig};
use congest::cluster::CommunicationCluster;
use congest::graph::VertexId;
use congest::routing::{route, Packet};
use expander_decomp::decompose;
use partition_trees::build_k3::build_k3_tree;
use partition_trees::htree::check_htree;
use ppstream::{simulate, Budgets, Chunk, Emitter, InstanceInput, MainAction, PartialPass, Token};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Transcript subcommands consume the rest of the argument list and are
    // never part of `all` (they take paths, not experiment names).
    match args.first().map(String::as_str) {
        Some("record") => return bench::trc::record_cmd(&args[1..]),
        Some("replay") => return bench::trc::replay_cmd(&args[1..]),
        Some("diff") => return bench::trc::diff_cmd(&args[1..]),
        _ => {}
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |e: &str| all || args.iter().any(|a| a == e);
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("a2") {
        a2();
    }
    if want("eng") {
        eng();
    }
    if want("svc") {
        svc();
    }
    // opt-in only: heavier than the E1 sweep (a few minutes at n = 512)
    if args.iter().any(|a| a == "timing") {
        timing();
    }
}

/// TIMING: dense-graph scaling probe (the old `timing_probe` binary) —
/// K3-listing rounds and wall time on dense `G(n, 1/2)` up to n = 512 (the
/// headline-scaling table), with the engine's per-round compute/exchange
/// split from the telemetry layer.
///
/// The engine split covers only *physically executed* protocol rounds. On
/// dense inputs the paper driver accounts most of its round cost
/// analytically (decomposition reports, two-hop budgets with no low-degree
/// participants), so near-zero engine time alongside large wall time is
/// the honest reading: the wall is local computation, not simulated
/// communication. `experiments eng` is the benchmark that drives real
/// step loops.
fn timing() {
    obs::set_level(obs::Level::On);
    let mut prev: Option<(f64, f64)> = None;
    println!("\n## TIMING — dense G(n, 1/2), K3 listing; claim: n^(1/3 + o(1)) rounds\n");
    for n in [64usize, 128, 256, 512] {
        let g = graphs::erdos_renyi(n, 0.5, 1);
        let before = phase_totals_ns();
        let t = std::time::Instant::now();
        let out = list_cliques_congest(&g, 3, &ListingConfig::default());
        let wall = t.elapsed();
        let after = phase_totals_ns();
        assert_eq!(out.cliques.len(), graphs::list_cliques(&g, 3).len());
        let (compute_ms, exchange_ms) = (
            after.0.saturating_sub(before.0) as f64 / 1e6,
            after.1.saturating_sub(before.1) as f64 / 1e6,
        );
        let r = out.report.rounds() as f64;
        let exp = prev.map(|(pn, pr)| (r / pr).ln() / (n as f64 / pn).ln());
        let exp_str = exp.map_or(String::new(), |e| format!(" local exponent={e:.2}"));
        println!(
            "n={n:<4} rounds={:<6}{exp_str}  wall={wall:?}  \
             engine compute={compute_ms:.1}ms exchange={exchange_ms:.1}ms",
            out.report.rounds()
        );
        prev = Some((n as f64, r));
    }
}

/// SVC: batch query service smoke — the small scenario corpus replayed at
/// worker counts {1, available_shards()}, with the `BENCH_service.json`
/// trajectory record (jobs/s, p50/p95 latency, cache hit rate).
fn svc() {
    use bench::svc::{
        replay, report, small_scenarios, tenant_mix_and_persistence, trace_overhead,
        trajectory_worker_counts,
    };
    let scenarios = small_scenarios();
    let workers = trajectory_worker_counts();
    let total: usize = scenarios.iter().map(|s| s.jobs.len()).sum();
    println!(
        "\n## SVC — batch query service: {} jobs over {} scenarios, worker counts {:?}\n",
        total,
        scenarios.len(),
        workers
    );
    let rows = replay(&workers, &scenarios);
    let mix = tenant_mix_and_persistence();
    let overhead = trace_overhead();
    report(&scenarios, &rows, &mix, &overhead, None, None, None);
    for r in &rows {
        assert!(r.hit_rate > 0.0, "the smoke corpus repeats specs; hit rate must be > 0");
    }
    assert!(mix.starvation_free, "aging must unstarve the bulk job");
    assert!(mix.restart_hit_rate > 0.0, "cross-restart cache hit rate must be > 0");
}

/// ENG: raw engine throughput — sequential vs sharded — with a
/// machine-readable trajectory record in `BENCH_engine.json`.
fn eng() {
    println!("\n## ENG — engine throughput: sequential vs sharded (heartbeat workload)\n");
    // Per-phase (compute vs exchange) timing rides on the telemetry layer;
    // the BENCH artifact always carries the columns, whatever CLIQUE_OBS
    // says in the environment.
    obs::set_level(obs::Level::On);
    let shards = runtime::available_shards();
    println!("available worker shards: {shards}\n");
    let mut t = Table::new(&[
        "n",
        "m",
        "engine",
        "rounds",
        "wall ms",
        "compute ms",
        "exchange ms",
        "rounds/sec",
        "speedup",
    ]);
    let mut rows_json: Vec<String> = Vec::new();
    let mut last_speedup = f64::NAN;
    let mut seq_rps_50k = f64::NAN;
    for (n, rounds) in [(1_000usize, 30u64), (10_000, 8), (50_000, 3)] {
        let g = bench::throughput_graph(n);
        let mut seq_secs = f64::NAN;
        let seq_out = time_engine(&congest::Sequential, &g, rounds);
        let par_out = time_engine(&runtime::Sharded::new(shards), &g, rounds);
        assert_eq!(seq_out.1, par_out.1, "engines must produce identical checksums");
        for (name, engine_shards, (secs, (messages, _), (compute_ms, exchange_ms))) in
            [("sequential", 1usize, seq_out), ("sharded", shards, par_out)]
        {
            let rps = rounds as f64 / secs;
            let speedup = if name == "sequential" {
                seq_secs = secs;
                1.0
            } else {
                seq_secs / secs
            };
            if n == 50_000 {
                if name == "sharded" {
                    last_speedup = speedup;
                } else {
                    seq_rps_50k = rps;
                }
            }
            t.row(vec![
                n.to_string(),
                g.m().to_string(),
                format!("{name}:{engine_shards}"),
                rounds.to_string(),
                format!("{:.1}", secs * 1e3),
                format!("{compute_ms:.1}"),
                format!("{exchange_ms:.1}"),
                format!("{rps:.1}"),
                format!("{speedup:.2}x"),
            ]);
            rows_json.push(format!(
                concat!(
                    "    {{\"n\": {}, \"m\": {}, \"engine\": \"{}\", \"shards\": {}, ",
                    "\"rounds\": {}, \"messages\": {}, \"wall_ms\": {:.3}, ",
                    "\"compute_ms\": {:.3}, \"exchange_ms\": {:.3}, ",
                    "\"rounds_per_sec\": {:.3}, \"speedup\": {:.4}}}"
                ),
                n,
                g.m(),
                name,
                engine_shards,
                rounds,
                messages,
                secs * 1e3,
                compute_ms,
                exchange_ms,
                rps,
                speedup,
            ));
        }
    }
    t.print();
    // The PR-3 figures on the 1-CPU dev container, kept as a fixed
    // baseline row so the trajectory of the hot-path work stays visible in
    // the artifact itself (PR-4 targets: seq ≥ 1.5× this rounds/sec at
    // n = 50k, sharded/sequential ratio at 1 shard ≥ 0.85).
    let baseline = concat!(
        "{\"pr\": 3, \"runner\": \"1-cpu dev container\", ",
        "\"seq_rounds_per_sec_50k\": 12.620, \"speedup_50k\": 0.5884}"
    );
    let json = format!(
        "{{\n  \"experiment\": \"engine_throughput\",\n  \"workload\": \"heartbeat on random_regular(n, 8)\",\n  \"available_shards\": {shards},\n  \"speedup_50k\": {last_speedup:.4},\n  \"seq_rounds_per_sec_50k\": {seq_rps_50k:.3},\n  \"baseline_pr3\": {baseline},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows_json.join(",\n")
    );
    match std::fs::write("BENCH_engine.json", &json) {
        Ok(()) => println!(
            "\nwrote BENCH_engine.json (n=50k: seq {seq_rps_50k:.1} rounds/s, \
             sharded speedup {last_speedup:.2}x)"
        ),
        Err(e) => obs::warn(
            obs::WarnKind::BenchWrite,
            format_args!("could not write BENCH_engine.json: {e}"),
        ),
    }
    if shards == 1 {
        println!("note: single-CPU host — the sharded engine cannot beat sequential here;");
        println!("on a multi-core runner expect ≥ 2x at n = 50k.");
    }
}

/// Wall-times one engine over the heartbeat workload, splitting the wall
/// time into the compute and exchange phases via the telemetry layer's
/// per-round phase timers (only one engine's stats advance per call, so
/// summing both engines' deltas attributes correctly).
fn time_engine<S: congest::engine::EngineSelect>(
    sel: &S,
    g: &congest::graph::Graph,
    rounds: u64,
) -> (f64, (u64, u64), (f64, f64)) {
    let before = phase_totals_ns();
    let start = std::time::Instant::now();
    let out = bench::engine_round_checksum(sel, g, rounds);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let after = phase_totals_ns();
    let compute_ms = after.0.saturating_sub(before.0) as f64 / 1e6;
    let exchange_ms = after.1.saturating_sub(before.1) as f64 / 1e6;
    (secs, out, (compute_ms, exchange_ms))
}

/// Combined (compute_ns, exchange_ns) across both engines' phase stats.
fn phase_totals_ns() -> (u64, u64) {
    let m = obs::metrics();
    let (_, sc, se) = m.engine_seq.totals();
    let (_, pc, pe) = m.engine_sharded.totals();
    (sc + pc, se + pe)
}

/// A2 ablation: decomposition sweep-cut iteration budget vs quality/cost.
fn a2() {
    println!("\n## A2 — ablation: power-iteration budget vs decomposition quality\n");
    let g = graphs::clustered(160, 5, 0.4, 0.015, 8);
    let mut t = Table::new(&["iterations", "clusters", "remainder frac", "charged rounds"]);
    for iters in [4usize, 16, 64, 256] {
        let d = expander_decomp::decompose_with(&g, 0.3, Some(iters));
        t.row(vec![
            iters.to_string(),
            d.clusters.len().to_string(),
            format!("{:.3}", d.remainder_fraction(&g)),
            d.report.rounds.to_string(),
        ]);
    }
    t.print();
    println!("note: at this ε the conductance target sits below the community cuts,");
    println!("so the graph stays whole at every budget and only charged rounds grow;");
    println!("raise ε (or see the decompose doctest) to observe splitting.");
}

/// E1: K3 round scaling — deterministic vs randomized vs naive on dense ER.
fn e1() {
    println!("\n## E1 — K3 listing rounds vs n (dense G(n, 1/2)); claim: n^(1/3+o(1)), det ≈ rand shape\n");
    let cfg = ListingConfig::default();
    let mut t = Table::new(&["n", "m", "det rounds", "rand rounds", "naive rounds", "det msgs"]);
    let mut det_pts = Vec::new();
    let mut rand_pts = Vec::new();
    let mut naive_pts = Vec::new();
    for n in [64usize, 96, 128, 192, 256] {
        let g = dense_er(n, 1);
        let det = list_cliques_congest(&g, 3, &cfg);
        let rnd = list_cliques_randomized(&g, 3, &cfg, 7);
        let (_, naive) = naive_exhaustive(&g, 3, cfg.bandwidth);
        assert_eq!(det.cliques, rnd.cliques);
        det_pts.push((n as f64, det.report.rounds() as f64));
        rand_pts.push((n as f64, rnd.report.rounds() as f64));
        naive_pts.push((n as f64, naive.rounds as f64));
        t.row(vec![
            n.to_string(),
            g.m().to_string(),
            det.report.rounds().to_string(),
            rnd.report.rounds().to_string(),
            naive.rounds.to_string(),
            det.report.messages().to_string(),
        ]);
    }
    t.print();
    println!(
        "fitted exponents: det {:.2}, rand {:.2}, naive {:.2} (theory: 1/3+o(1), 1/3, 1)",
        fitted_exponent(&det_pts),
        fitted_exponent(&rand_pts),
        fitted_exponent(&naive_pts)
    );
}

/// E2: K_p round scaling for p = 4, 5.
fn e2() {
    println!("\n## E2 — K_p listing rounds vs n (p = 4, 5); claim: n^(1-2/p+o(1))\n");
    let cfg = ListingConfig::default();
    for (p, sizes) in [(4usize, vec![32usize, 48, 64]), (5, vec![24, 36])] {
        let mut t = Table::new(&["n", "m", "rounds", "messages", "cliques", "depth"]);
        let mut pts = Vec::new();
        for &n in &sizes {
            let g = graphs::erdos_renyi(n, 0.35, 3);
            let out = list_cliques_congest(&g, p, &cfg);
            assert_eq!(out.cliques, graphs::list_cliques(&g, p));
            pts.push((n as f64, out.report.rounds() as f64));
            t.row(vec![
                n.to_string(),
                g.m().to_string(),
                out.report.rounds().to_string(),
                out.report.messages().to_string(),
                out.cliques.len().to_string(),
                out.report.depth.to_string(),
            ]);
        }
        println!("### p = {p} (theory exponent {:.2})", 1.0 - 2.0 / p as f64);
        t.print();
        println!("fitted exponent: {:.2}\n", fitted_exponent(&pts));
    }
}

/// E3: exactness across families and p.
fn e3() {
    println!("\n## E3 — exactness: distributed listing vs centralized oracle\n");
    let cfg = ListingConfig::default();
    let mut t = Table::new(&["family", "n", "p", "oracle", "listed", "dupes", "exact"]);
    let families: Vec<(&str, congest::graph::Graph)> = vec![
        ("erdos-renyi", graphs::erdos_renyi(56, 0.14, 1)),
        ("clustered", graphs::clustered(56, 4, 0.45, 0.02, 2)),
        ("power-law", graphs::power_law(56, 4, 3)),
        ("random-regular", graphs::random_regular(56, 9, 4)),
        ("planted-K5", graphs::planted_cliques(56, 0.07, 5, 4, 5)),
        ("barbell", graphs::barbell(14, 4)),
        ("hypercube", graphs::hypercube(6)),
    ];
    for (name, g) in &families {
        for p in [3usize, 4, 5] {
            let out = list_cliques_congest(g, p, &cfg);
            let oracle = graphs::list_cliques(g, p);
            let exact = out.cliques == oracle;
            t.row(vec![
                name.to_string(),
                g.n().to_string(),
                p.to_string(),
                oracle.len().to_string(),
                out.cliques.len().to_string(),
                out.report.duplicates(out.cliques.len()).to_string(),
                if exact { "yes".into() } else { "NO".into() },
            ]);
            assert!(exact, "{name} p={p} MISMATCH");
        }
    }
    t.print();
}

/// E4: partition-tree balance quality.
fn e4() {
    println!("\n## E4 — K3-partition-tree balance (Def. 14, c1=9 c2=36 c3=4); claim: 0 violations, ≤ x parts\n");
    let mut t = Table::new(&[
        "cluster",
        "k",
        "x",
        "violations",
        "max parts/node",
        "max part vol / (m̃/x)",
        "leaf parts",
    ]);
    for (name, g) in [
        ("dense-ER", graphs::erdos_renyi(128, 0.5, 1)),
        ("sparse-ER", graphs::erdos_renyi(128, 0.08, 2)),
        ("regular", graphs::random_regular(128, 16, 3)),
    ] {
        let cluster =
            CommunicationCluster::new(g.clone(), (0..g.n() as VertexId).collect(), 3, 0.3);
        let out = build_k3_tree(&cluster, 1);
        let violations = check_htree(&out.rank_graph, &out.tree, &out.params);
        let mut max_parts = 0usize;
        let mut max_vol = 0u64;
        for level in 0..3 {
            for path in out.tree.paths_at_level(level) {
                let node = out.tree.node(path).unwrap();
                max_parts = max_parts.max(node.parts().count());
                for (_, s, e) in node.parts() {
                    let vol: u64 = (s..e).map(|r| out.rank_graph.degree(r) as u64).sum();
                    max_vol = max_vol.max(vol);
                }
            }
        }
        let unit = out.params.m_tilde() as f64 / out.params.x as f64;
        t.row(vec![
            name.to_string(),
            out.params.k.to_string(),
            out.params.x.to_string(),
            violations.len().to_string(),
            max_parts.to_string(),
            format!("{:.2}", max_vol as f64 / unit),
            out.tree.leaf_parts().len().to_string(),
        ]);
    }
    t.print();
}

/// The interval partitioner used by E5 (same shape as the tree builders).
struct Partitioner {
    threshold: u64,
    acc: u64,
    idx: u64,
    start: u64,
}

impl PartialPass for Partitioner {
    fn on_main(&mut self, token: &[Token], _out: &mut Emitter) -> MainAction {
        if self.acc + token[0] > self.threshold {
            MainAction::RequestAux
        } else {
            self.acc += token[0];
            self.idx += 1;
            MainAction::Continue
        }
    }
    fn on_aux(&mut self, token: &[Token], out: &mut Emitter) {
        if self.acc + token[0] > self.threshold {
            out.write((self.start << 32) | self.idx);
            self.start = self.idx;
            self.acc = 0;
        }
        self.acc += token[0];
        self.idx += 1;
    }
    fn finish(&mut self, out: &mut Emitter) {
        out.write((self.start << 32) | self.idx);
    }
}

/// E5: partial-pass simulation trade-off across chain lengths λ.
fn e5() {
    println!("\n## E5 — Theorem 11 simulation: λ sweep (k = 128 hypercube cluster)\n");
    println!("claim: λ=1 (Leader) maximizes per-vertex token load; λ=k (State-Passing)");
    println!("maximizes state passes; intermediate λ balances both.\n");
    let g = graphs::hypercube(7);
    let cluster = CommunicationCluster::new(g.clone(), (0..g.n() as VertexId).collect(), 1, 0.2);
    let chunks: Vec<Chunk> = (0..128u64)
        .map(|i| {
            let aux: Vec<Vec<Token>> = (0..6u64).map(|j| vec![(i * 31 + j * 7) % 19]).collect();
            let sum = aux.iter().map(|a| a[0]).sum();
            Chunk { main: vec![sum], aux }
        })
        .collect();
    let budgets = Budgets { n_in: 128, n_out: 400, b_aux: 400, b_write: 400, state_words: 6 };
    let mut t = Table::new(&["λ", "rounds", "messages", "state passes", "max tokens/vertex"]);
    for lambda in [1usize, 2, 5, 16, 64, 128] {
        let mut algo = Partitioner { threshold: 48, acc: 0, idx: 0, start: 0 };
        let inputs: Vec<Vec<Chunk>> = chunks.iter().map(|c| vec![c.clone()]).collect();
        let out =
            simulate(&cluster, vec![InstanceInput { algo: &mut algo, budgets, inputs }], lambda, 1)
                .unwrap();
        t.row(vec![
            lambda.to_string(),
            out.report.rounds.to_string(),
            out.report.messages.to_string(),
            out.state_passes.to_string(),
            out.max_tokens_learned.to_string(),
        ]);
    }
    t.print();
}

/// E6: expander decomposition quality.
fn e6() {
    println!("\n## E6 — (ε,φ)-decomposition: claim |E_r| ≤ ε|E|, clusters certified φ\n");
    let mut t = Table::new(&["family", "n", "m", "ε", "remainder frac", "clusters", "rounds"]);
    for (name, g) in [
        ("clustered", graphs::clustered(160, 5, 0.4, 0.01, 1)),
        ("erdos-renyi", graphs::erdos_renyi(160, 0.08, 2)),
        ("barbell", graphs::barbell(30, 4)),
        ("hypercube", graphs::hypercube(7)),
        ("power-law", graphs::power_law(160, 4, 3)),
    ] {
        for eps in [0.15f64, 0.3] {
            let d = decompose(&g, eps);
            assert!(d.remainder_fraction(&g) <= eps + 1e-9);
            t.row(vec![
                name.to_string(),
                g.n().to_string(),
                g.m().to_string(),
                format!("{eps:.2}"),
                format!("{:.3}", d.remainder_fraction(&g)),
                d.clusters.len().to_string(),
                d.report.rounds.to_string(),
            ]);
        }
    }
    t.print();
}

/// E7: routing rounds vs per-vertex load L.
fn e7() {
    println!("\n## E7 — routing (Thm 6 substitute): rounds vs per-vertex load L·deg(v)\n");
    let g = graphs::hypercube(7); // 128-vertex expander, deg 7
    let n = g.n();
    let mut t = Table::new(&["L", "packets", "rounds", "max edge congestion", "rounds/L"]);
    for l in [1usize, 2, 4, 8, 16] {
        let mut pkts = Vec::new();
        for v in 0..n as VertexId {
            for i in 0..l * g.degree(v) {
                let dst = ((v as usize * 31 + i * 17 + 5) % n) as VertexId;
                if dst != v {
                    pkts.push(Packet { src: v, dst, payload: i as u64 });
                }
            }
        }
        let count = pkts.len();
        let out = route(&g, pkts, 1);
        t.row(vec![
            l.to_string(),
            count.to_string(),
            out.report.rounds.to_string(),
            out.max_edge_congestion.to_string(),
            format!("{:.1}", out.report.rounds as f64 / l as f64),
        ]);
    }
    t.print();
    println!("claim shape: rounds grow linearly in L (the L·poly(φ⁻¹)·n^o(1) bound).");
}

/// E8: recursion depth is logarithmic.
fn e8() {
    println!("\n## E8 — recursion depth vs n; claim: constant edge fraction resolved per level (Lemma 8)\n");
    let cfg = ListingConfig::default();
    let mut t = Table::new(&["n", "m", "depth", "min resolved frac/level", "fallback"]);
    for n in [64usize, 128, 256, 384] {
        let g = graphs::erdos_renyi(n, 0.1, 9);
        let out = list_cliques_congest(&g, 3, &cfg);
        let min_frac = out
            .report
            .levels
            .iter()
            .filter(|l| l.edges > 0)
            .map(|l| l.resolved as f64 / l.edges as f64)
            .fold(f64::INFINITY, f64::min);
        t.row(vec![
            n.to_string(),
            g.m().to_string(),
            out.report.depth.to_string(),
            format!("{min_frac:.2}"),
            out.report.fallback_used.to_string(),
        ]);
    }
    t.print();
}

/// E9: baseline comparison — who wins where.
fn e9() {
    println!("\n## E9 — baselines: deterministic CONGEST vs randomized vs naive vs DLP12 (CONGESTED CLIQUE)\n");
    let cfg = ListingConfig::default();
    let mut t = Table::new(&["graph", "n", "Δ", "det", "rand", "naive", "dlp12 (CC)"]);
    for (name, g) in [
        ("sparse", graphs::erdos_renyi(128, 0.05, 1)),
        ("medium", graphs::erdos_renyi(128, 0.15, 2)),
        ("dense", graphs::erdos_renyi(128, 0.5, 3)),
        ("clustered", graphs::clustered(128, 5, 0.45, 0.01, 4)),
    ] {
        let det = list_cliques_congest(&g, 3, &cfg);
        let rnd = list_cliques_randomized(&g, 3, &cfg, 11);
        let (_, naive) = naive_exhaustive(&g, 3, 1);
        let dlp = dlp12_congested_clique(&g, 3);
        t.row(vec![
            name.to_string(),
            g.n().to_string(),
            g.max_degree().to_string(),
            det.report.rounds().to_string(),
            rnd.report.rounds().to_string(),
            naive.rounds.to_string(),
            dlp.report.rounds.to_string(),
        ]);
    }
    t.print();
    println!("\nnote: DLP12 runs in the all-to-all CONGESTED CLIQUE (different model);");
    println!("naive wins at simulable scales because the tree constants (c1=9, c2=36)");
    println!("dominate until Δ ≫ c·n^(1/3).");
}
