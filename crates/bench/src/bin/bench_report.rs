//! Timing harness: one kernel table plus the timing floors no test can
//! hold, written as machine-readable JSON.
//!
//! ```bash
//! cargo run --release -p freehgc_bench --bin bench_report            # full scales → target/bench_report.json
//! cargo run --release -p freehgc_bench --bin bench_report -- --quick # smoke scales (CI)
//! cargo run --release -p freehgc_bench --bin bench_report -- --threads=8 --out=path.json
//! ```
//!
//! **Kernel table.** Each row times, serially (thread override pinned
//! to 1), the row's retained reference implementation if it has one,
//! then the public kernel; then the public kernel again at `--threads`
//! (default: the machine's parallelism, at least 2). Both kernel
//! outputs are checked bitwise against the row's oracle: the
//! reference's output where the row has one, the serial output
//! otherwise. For `spmv` and `matmul_nt` the reference computes the
//! canonical 8-lane order the public kernel keeps; `spgemm`, `matmul`
//! and `matmul_tn` keep the reference's contribution order (the
//! `matmul_tn` reference transposes, then runs `matmul_ref`); `spmv_t`
//! and `spmm_dense` run their references' loops, so their rows time the
//! partitioning and buffer handling around the same loop. Only `spgemm`
//! carries a floor. The
//! `tanh/<n>` row times the training path's vectorized `tanh` on a
//! predict-sized input against the per-element `f32::tanh` loop, with
//! outputs compared as bit patterns; it is serial at every budget and
//! ungated, and its `build` field names the build (`avx512`, `avx2` or
//! `baseline`) `tanh_in_place` dispatched to. The `father_influence_acm`
//! row times the seeded PPR influence kernel on every father path of a
//! larger ACM graph than the other end-to-end rows (scale 4 quick, 16
//! full), so one call takes milliseconds and best-of-N resolves it; its
//! reference is the kernel's baseline build, and its `build` field names
//! the build `bipartite_influence` dispatched to.
//!
//! **Floors.** The timing gates, each fatal:
//! * `spgemm` ≥ 1.5× over its reference;
//! * serving: warm p95 < cold p95 over one `ServeHandle`;
//! * an in-process delta update beats a cold rebuild, and (at full
//!   scale only, where the precompute dwarfs file I/O) so does a
//!   snapshot-seeded one.
//!
//! A gated kernel row that misses its floor gets one re-measurement at
//! 10× reps before it can fail the run: at quick scale one scheduling
//! hiccup can swallow a whole best-of-N window.
//!
//! Correctness contracts — shared-context reuse, the registry,
//! snapshots, deltas, fault recovery, serving — are
//! pinned bit for bit by the equivalence suites (`tests/*_equivalence.rs`,
//! `tests/chaos_failpoints.rs`, `crates/serve/tests/serve_equivalence.rs`,
//! the `warm_pool_*` tests in `crates/sparse/tests/prop_kernels.rs`),
//! not here.

use freehgc_core::selection::{condense_target, SelectionConfig};
use freehgc_core::{influence_scores, synthesize_leaf, top_k_by_score, FreeHgc, ImportanceMethod};
use freehgc_datasets::{generate, DatasetKind};
use freehgc_hetgraph::{
    CondenseContext, CondenseSpec, Condenser, ContextRegistry, GraphDelta, Role,
};
use freehgc_hgnn::propagation::{propagate, propagate_ctx};
use freehgc_parallel as par;
use freehgc_serve::{GraphRef, Request, ServeConfig, ServeHandle};
use freehgc_sparse::ppr::{
    bipartite_influence, bipartite_influence_build, ppr_build, ppr_push, PprConfig,
};
use freehgc_sparse::CsrMatrix;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

struct KernelRow {
    name: String,
    /// The retained reference's name and serial time, if the row has one.
    reference: Option<(&'static str, f64)>,
    serial_ms: f64,
    parallel_ms: f64,
    bitwise_equal: bool,
    /// The floor the serial public kernel must clear over the retained
    /// reference, if the row is gated.
    min_vs_reference: Option<f64>,
    /// The build the kernel dispatched to, for a kernel compiled more
    /// than once.
    build: Option<&'static str>,
}

impl KernelRow {
    fn vs_reference(&self) -> Option<f64> {
        self.reference.map(|(_, ms)| ms / self.serial_ms.max(1e-9))
    }

    fn parallel_speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms.max(1e-9)
    }

    fn floor(&self) -> Option<Floor> {
        let bound = self.min_vs_reference?;
        let name = format!("{} vs {}", self.name, self.reference?.0);
        Some(floor(name, self.vs_reference()?, ">=", bound))
    }

    fn json(&self) -> String {
        format!(
            "{{ \"name\": {}, \"reference\": {}, \"reference_ms\": {}, \"serial_ms\": {}, \
             \"parallel_ms\": {}, \"vs_reference\": {}, \"parallel_speedup\": {}, \
             \"bitwise_equal\": {}, \"build\": {} }}",
            text(&self.name),
            self.reference.map_or("null".into(), |(r, _)| text(r)),
            num(self.reference.map_or(f64::NAN, |(_, ms)| ms)),
            num(self.serial_ms),
            num(self.parallel_ms),
            num(self.vs_reference().unwrap_or(f64::NAN)),
            num(self.parallel_speedup()),
            self.bitwise_equal,
            self.build.map_or("null".into(), text)
        )
    }
}

/// One timing gate: `value >= bound` (a speedup floor) or
/// `value < bound` (a latency that must beat another).
struct Floor {
    name: String,
    value: f64,
    op: &'static str,
    bound: f64,
}

fn floor(name: impl Into<String>, value: f64, op: &'static str, bound: f64) -> Floor {
    let name = name.into();
    Floor {
        name,
        value,
        op,
        bound,
    }
}

impl Floor {
    fn holds(&self) -> bool {
        match self.op {
            ">=" => self.value >= self.bound,
            _ => self.value < self.bound,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{ \"name\": {}, \"value\": {}, \"op\": \"{}\", \"bound\": {}, \"holds\": {} }}",
            text(&self.name),
            num(self.value),
            self.op,
            num(self.bound),
            self.holds()
        )
    }
}

/// A JSON number, or `null` when not finite (e.g. an absent reference).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

fn text(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn list(items: impl Iterator<Item = String>) -> String {
    format!("[\n    {}\n  ]", items.collect::<Vec<_>>().join(",\n    "))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Best-of-`reps` wall time in milliseconds plus the last output. One
/// untimed warmup run precedes the timed ones.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        out = f();
        best = best.min(ms_since(start));
    }
    (best, out)
}

/// Best of `reps` runs of `once`, which times itself in milliseconds.
fn best_of(reps: usize, mut once: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| once()).fold(f64::INFINITY, f64::min)
}

/// The kernel table under construction.
struct Table {
    reps: usize,
    threads: usize,
    rows: Vec<KernelRow>,
    /// The build the next rows' kernel dispatches to, if it has several.
    build: Option<&'static str>,
}

impl Table {
    /// Times one row (see the module docs) and checks both kernel
    /// outputs against the oracle. A gated row below its floor is
    /// re-measured once at 10× reps.
    fn row<T: PartialEq>(
        &mut self,
        name: String,
        min_vs_reference: Option<f64>,
        mut reference: Option<(&'static str, &mut dyn FnMut() -> T)>,
        kernel: &mut dyn FnMut() -> T,
    ) {
        let (threads, build) = (self.threads, self.build);
        let mut time_row = |reps: usize| {
            par::set_thread_override(Some(1));
            let oracle = reference.as_mut().map(|(r, f)| {
                let (ms, out) = time_best(reps, &mut **f);
                (*r, ms, out)
            });
            let (serial_ms, serial_out) = time_best(reps, &mut *kernel);
            par::set_thread_override(Some(threads));
            let (parallel_ms, parallel_out) = time_best(reps, &mut *kernel);
            par::set_thread_override(None);
            let want = oracle.as_ref().map_or(&serial_out, |(_, _, out)| out);
            KernelRow {
                name: name.clone(),
                reference: oracle.as_ref().map(|(r, ms, _)| (*r, *ms)),
                serial_ms,
                parallel_ms,
                bitwise_equal: serial_out == *want && parallel_out == *want,
                min_vs_reference,
                build,
            }
        };
        let mut row = time_row(self.reps);
        if row.floor().is_some_and(|f| !f.holds()) {
            eprintln!("{}: below its floor, re-measuring at 10x reps", row.name);
            row = time_row(self.reps * 10);
        }
        eprintln!("{}", row.json());
        self.rows.push(row);
    }
}

fn random_sparse(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(rows * nnz_per_row);
    for r in 0..rows {
        for _ in 0..nnz_per_row {
            edges.push((r as u32, rng.gen_range(0..cols as u32)));
        }
    }
    CsrMatrix::from_edges(rows, cols, &edges)
}

/// The kernel table. The SpGEMM operand is dense on purpose: every
/// product bound lands well past half the output width, so the row
/// times the dense-row mode. Meta-path composition (Eq. 1) rarely takes
/// that mode; its multi-entry rows mostly run the marker accumulator.
fn kernel_rows(quick: bool, reps: usize, threads: usize) -> Vec<KernelRow> {
    let (sp_n, sp_nnz, mv_n, dim, tn, td, dm_rows, scale, father_scale) = if quick {
        (400, 24, 2000, 16, 40_000, 8, 256, 0.2, 4.0)
    } else {
        (1500, 48, 20_000, 64, 150_000, 24, 1024, 0.5, 16.0)
    };
    let mut t = Table {
        reps,
        threads,
        rows: Vec::new(),
        build: None,
    };

    let a = random_sparse(sp_n, sp_n, sp_nnz, 11);
    let b = random_sparse(sp_n, sp_n, sp_nnz, 12);
    t.row(
        format!("spgemm/{sp_n}x{sp_nnz}"),
        Some(1.5),
        Some(("spgemm_serial", &mut || a.spgemm_serial(&b))),
        &mut || a.spgemm(&b),
    );

    let m = random_sparse(mv_n, mv_n, 16, 13);
    let x: Vec<f32> = (0..mv_n).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    t.row(
        format!("spmv/{mv_n}"),
        None,
        Some(("spmv_ref", &mut || m.spmv_ref(&x))),
        &mut || m.spmv(&x),
    );
    t.row(format!("transpose/{mv_n}"), None, None, &mut || {
        m.transpose()
    });
    // SpMVᵀ runs serially at every thread budget; its row stays
    // ungated, bitwise-checked against its reference.
    let mt = random_sparse(tn, tn, td, 7);
    let xt: Vec<f32> = (0..tn).map(|i| (i % 7) as f32 * 0.5 - 1.5).collect();
    t.row(
        format!("spmv_t/{tn}x{td}"),
        None,
        Some(("spmv_t_ref", &mut || mt.spmv_t_ref(&xt))),
        &mut || mt.spmv_t(&xt),
    );
    let xd: Vec<f32> = (0..mv_n * dim)
        .map(|i| (i % 13) as f32 * 0.1 - 0.6)
        .collect();
    t.row(
        format!("spmm_dense/{mv_n}x{dim}"),
        None,
        Some(("spmm_dense_ref", &mut || m.spmm_dense_ref(&xd, dim))),
        &mut || m.spmm_dense(&xd, dim),
    );

    // Truncated-series PPR (Eq. 10–13) through the in-place SpMVᵀ.
    let sym = random_sparse(mv_n / 2, mv_n / 2, 8, 4)
        .symmetrize()
        .sym_normalized();
    let mut seed_vec = vec![0f32; sym.nrows()];
    seed_vec[0] = 1.0;
    let ppr_cfg = PprConfig::default();
    t.row("ppr_push".into(), None, None, &mut || {
        ppr_push(&sym, &seed_vec, &ppr_cfg)
    });

    // Dense matmul as the trainer uses it (features × weights).
    let am = freehgc_autograd::Matrix::xavier(dm_rows, 256, 5);
    let bm = freehgc_autograd::Matrix::xavier(256, 256, 6);
    t.row(
        format!("matmul/{dm_rows}x256x256"),
        None,
        Some(("matmul_ref", &mut || am.matmul_ref(&bm).data)),
        &mut || am.matmul(&bm).data,
    );
    t.row(
        format!("matmul_nt/{dm_rows}x256x256"),
        None,
        Some(("matmul_nt_ref", &mut || am.matmul_nt_ref(&bm).data)),
        &mut || am.matmul_nt(&bm).data,
    );
    // The trainer's own shapes: a projection `X·W` and its weight
    // gradient `Xᵀ·G` at predict size (an ACM test split at scale 2,
    // hidden 64). Both stay below the parallel grain, so the parallel
    // column runs the serial path.
    let (tr_rows, hid) = (1680, 64);
    let xm = freehgc_autograd::Matrix::xavier(tr_rows, hid, 15);
    let wm = freehgc_autograd::Matrix::xavier(hid, hid, 16);
    let gm = freehgc_autograd::Matrix::xavier(tr_rows, hid, 17);
    t.row(
        format!("matmul/{tr_rows}x{hid}x{hid}"),
        None,
        Some(("matmul_ref", &mut || xm.matmul_ref(&wm).data)),
        &mut || xm.matmul(&wm).data,
    );
    t.row(
        format!("matmul_tn/{tr_rows}x{hid}x{hid}"),
        None,
        Some(("transpose_matmul_ref", &mut || {
            xm.transpose().matmul_ref(&gm).data
        })),
        &mut || xm.matmul_tn(&gm).data,
    );

    // Semantic attention's activation at predict size: an ACM test
    // split at scale 2 (1680 rows) times hidden 64. The reference is
    // the per-element libm loop the vectorized kernel replaced; outputs
    // are compared as bit patterns.
    let th_n = 1680 * 64;
    let mut th_rng = StdRng::seed_from_u64(14);
    let th_x: Vec<f32> = (0..th_n).map(|_| th_rng.gen_range(-4.0f32..4.0)).collect();
    t.build = Some(freehgc_autograd::tanh::tanh_build());
    t.row(
        format!("tanh/{th_n}"),
        None,
        Some(("tanh_libm", &mut || {
            th_x.iter().map(|x| x.tanh().to_bits()).collect::<Vec<_>>()
        })),
        &mut || {
            let mut v = th_x.clone();
            freehgc_autograd::tanh::tanh_in_place(&mut v);
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        },
    );
    t.build = None;

    // End to end: feature propagation and Algorithm-1 target selection
    // on the ACM family at bench scale, at most 3 reps each.
    let g = generate(DatasetKind::Acm, scale, 42);
    let sel_cfg = SelectionConfig {
        max_paths: 16,
        ..Default::default()
    };
    t.reps = reps.min(3);
    t.row("propagate_acm_k2".into(), None, None, &mut || {
        let pf = propagate(&g, 2, 12);
        pf.blocks.into_iter().map(|m| m.data).collect::<Vec<_>>()
    });
    t.row("condense_target_acm".into(), None, None, &mut || {
        let sel = condense_target(&CondenseContext::new(&g), 64, &sel_cfg);
        (sel.selected, sel.scores)
    });
    // Father influence (Eq. 10–11) on a larger ACM graph, so one call
    // takes milliseconds: every target → father meta-path is composed up
    // front, so the row times the seeded PPR kernel alone, seeded from
    // the targets Algorithm 1 selects. Its reference is the kernel's
    // baseline build, and `build` names the build it dispatched to.
    let target = g.schema().target();
    {
        let fg = generate(DatasetKind::Acm, father_scale, 42);
        let fctx = CondenseContext::new(&fg);
        let fseeds = condense_target(&fctx, 64, &sel_cfg).selected;
        let father_adjs: Vec<Arc<CsrMatrix>> = fg
            .schema()
            .types_with_role(Role::Father)
            .into_iter()
            .flat_map(|f| fctx.metapaths_to(target, f, sel_cfg.max_hops, sel_cfg.max_paths))
            .map(|p| fctx.adjacency(&p))
            .collect();
        let father_influence = |build: Option<&str>| {
            father_adjs
                .iter()
                .map(|a| match build {
                    Some(b) => bipartite_influence_build(b, a, Some(&fseeds), &ppr_cfg),
                    None => bipartite_influence(a, Some(&fseeds), &ppr_cfg),
                })
                .collect::<Vec<_>>()
        };
        t.build = Some(ppr_build());
        t.row(
            "father_influence_acm".into(),
            None,
            Some(("baseline_build", &mut || father_influence(Some("baseline")))),
            &mut || father_influence(None),
        );
        t.build = None;
    }
    let ctx = CondenseContext::new(&g);
    let seeds = condense_target(&CondenseContext::new(&g), 64, &sel_cfg).selected;
    // Eq. 13's top-k over each father type's aggregate influence (from
    // the context's cache after the first call), kept at a 5% budget:
    // the row times the selection alone.
    let father_scores: Vec<Arc<Vec<f64>>> = g
        .schema()
        .types_with_role(Role::Father)
        .into_iter()
        .map(|f| {
            influence_scores(
                &ctx,
                f,
                Some(&seeds),
                sel_cfg.max_hops,
                sel_cfg.max_paths,
                ImportanceMethod::default(),
                0,
            )
        })
        .collect();
    t.row("father_top_k_acm".into(), None, None, &mut || {
        father_scores
            .iter()
            .map(|s| top_k_by_score(s, s.len() / 20))
            .collect::<Vec<_>>()
    });
    // Leaf synthesis (Eq. 14–16) of the largest leaf type around the
    // same selected targets, merged down to a quarter of them so the
    // Eq. 16 merge loop runs; the oriented adjacencies stay cached in
    // `ctx`, so the row times the synthesis alone.
    let leaf = g
        .schema()
        .types_with_role(Role::Leaf)
        .into_iter()
        .filter(|&t| g.schema().edge_between(target, t).is_some())
        .max_by_key(|&t| g.num_nodes(t))
        .expect("ACM has a leaf type hanging off the target");
    t.row("leaf_synthesis_acm".into(), None, None, &mut || {
        let syn = synthesize_leaf(&ctx, leaf, target, &seeds, seeds.len() / 4);
        (syn.members, syn.features.data().to_vec())
    });
    t.rows
}

/// Delta floors: resolve the context of a graph after an edges-only
/// `GraphDelta` on one relation — cold, delta-seeded in-process from
/// the old context, and (full scale only) delta-filtered from the old
/// fingerprint's snapshot in a fresh registry. Each timed unit is the
/// resolution plus the precompute a serving process pays on a graph
/// swap: one FreeHGC condensation and feature propagation.
fn delta_floors(quick: bool) -> Vec<Floor> {
    // Full scale is sized so the precompute dwarfs the fixed snapshot
    // read/checksum cost; at --quick that fixed cost is on the order of
    // the whole rebuild, so only the in-process floor applies there.
    let scale = if quick { 0.1 } else { 0.5 };
    let reps = if quick { 2 } else { 3 };
    let g_old = Arc::new(generate(DatasetKind::Acm, scale, 43));
    let spec = CondenseSpec::new(0.1).with_max_hops(4).with_seed(7);

    // Edges-only delta on the last relation: the feature matrices, and
    // with them the propagated blocks, survive for the delta paths.
    let e = g_old.schema().edge_type_ids().last().unwrap();
    let adj = g_old.adjacency(e);
    let (r, c) = (0..adj.nrows())
        .find_map(|row| adj.row_indices(row).first().map(|&col| (row as u32, col)))
        .expect("fixture relation has edges");
    let mut delta = GraphDelta::new();
    delta
        .remove_edge(e, r, c)
        .add_edge(e, r, ((c as usize + 1) % adj.ncols()) as u32);
    let mut mutated = (*g_old).clone();
    mutated.apply_delta(&delta);
    let g_new = Arc::new(mutated);
    let seed = Some((g_old.fingerprint(), &delta));

    let warm_up = |ctx: &CondenseContext<'static>| {
        FreeHgc::default().condense_in(ctx, &spec);
        propagate_ctx(ctx, 2, 12);
    };
    let cold_ms = best_of(reps, || {
        let reg = ContextRegistry::new();
        let t = Instant::now();
        warm_up(&reg.context_for(&g_new, &spec));
        ms_since(t)
    });
    let warm_ms = best_of(reps, || {
        let reg = ContextRegistry::new();
        warm_up(&reg.context_for(&g_old, &spec));
        let t = Instant::now();
        warm_up(&reg.resolve(&g_new, None, seed).0);
        ms_since(t)
    });
    let mut floors = vec![floor(
        "delta in-process vs cold rebuild (ms)",
        warm_ms,
        "<",
        cold_ms,
    )];

    if !quick {
        let dir = std::env::temp_dir().join(format!("fhgc-bench-delta-{}", std::process::id()));
        let reg = ContextRegistry::new();
        warm_up(&reg.context_for(&g_old, &spec));
        reg.persist(&dir, &g_old).expect("persist old snapshot");
        let snapshot_ms = best_of(reps, || {
            let reg = ContextRegistry::new();
            let t = Instant::now();
            warm_up(&reg.resolve(&g_new, Some(&dir), seed).0);
            ms_since(t)
        });
        std::fs::remove_dir_all(&dir).ok();
        floors.push(floor(
            "delta snapshot-seeded vs cold rebuild (ms)",
            snapshot_ms,
            "<",
            cold_ms,
        ));
    }
    floors
}

/// Serve floor: one client runs a method × ratio grid through one
/// `ServeHandle` cold, then again warm. Warm requests answer from the
/// reply memo without touching the pool, so warm p95 must beat cold p95.
fn serve_floor(quick: bool) -> Floor {
    let scale = if quick { 0.08 } else { 0.15 };
    let methods = ["FreeHGC", "Random-HG", "Herding-HG", "K-Center-HG"];
    let mut grid = Vec::new();
    for method in &methods[..if quick { 3 } else { 4 }] {
        for ratio in [0.25, 0.5] {
            grid.push(Request::Condense {
                graph: GraphRef::Id("acm".into()),
                method: method.to_string(),
                ratio,
                seed: 11,
                max_hops: 2,
                max_paths: 64,
                deadline_ms: 0,
            });
        }
    }
    let handle = ServeHandle::new(ServeConfig::default());
    handle.register_graph("acm", Arc::new(generate(DatasetKind::Acm, scale, 47)));
    // Nearest-rank 95th percentile of one sequential pass.
    let p95 = || {
        let mut ms: Vec<f64> = grid
            .iter()
            .map(|req| {
                let t = Instant::now();
                let reply = handle.call(req);
                assert!(reply.error_code().is_none(), "serve floor: {reply:?}");
                ms_since(t)
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[(0.95 * ms.len() as f64).ceil() as usize - 1]
    };
    let (cold, warm) = (p95(), p95());
    handle.shutdown();
    floor("serve warm p95 vs cold p95 (ms)", warm, "<", cold)
}

fn main() {
    let mut quick = false;
    let mut threads = par::machine_parallelism().max(2);
    let mut out_path = "target/bench_report.json".to_string();
    // The effective FREEHGC_THREADS / machine default, captured before
    // the measurement loops start flipping the runtime override.
    let freehgc_threads = par::max_threads();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            threads = v.parse().expect("--threads takes an integer >= 2");
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out_path = v.to_string();
        } else {
            // A typo must not silently produce a default-config report.
            eprintln!("unknown argument {arg:?}; options: --quick --threads=<n> --out=<path>");
            std::process::exit(2);
        }
    }
    assert!(threads >= 2, "--threads must be at least 2");
    let reps = if quick { 2 } else { 5 };
    let avail = par::machine_parallelism();
    eprintln!("bench_report: quick={quick} threads={threads} available_parallelism={avail}");

    let rows = kernel_rows(quick, reps, threads);
    let mut floors: Vec<Floor> = rows.iter().filter_map(KernelRow::floor).collect();
    floors.push(serve_floor(quick));
    floors.extend(delta_floors(quick));
    for f in &floors {
        eprintln!("{}", f.json());
    }

    let (os, arch) = (text(std::env::consts::OS), text(std::env::consts::ARCH));
    let report = format!(
        "{{\n  \"created_by\": \"bench_report\",\n  \"quick\": {quick},\n  \"machine\": {{ \
         \"available_parallelism\": {avail}, \"freehgc_threads\": {freehgc_threads}, \
         \"os\": {os}, \"arch\": {arch} }},\n  \"threads\": {{ \"serial\": 1, \"parallel\": \
         {threads} }},\n  \"samples_per_kernel\": {reps},\n  \"kernels\": {},\n  \"floors\": {}\n}}\n",
        list(rows.iter().map(KernelRow::json)),
        list(floors.iter().map(Floor::json)),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out_path, report).expect("write bench report");
    eprintln!("wrote {out_path}");

    let mut fatal = false;
    for r in rows.iter().filter(|r| !r.bitwise_equal) {
        eprintln!("FATAL: {} diverged bitwise from its oracle", r.name);
        fatal = true;
    }
    for f in floors.iter().filter(|f| !f.holds()) {
        eprintln!(
            "FATAL: floor {:?} missed: {} {} {} does not hold",
            f.name, f.value, f.op, f.bound
        );
        fatal = true;
    }
    if fatal {
        std::process::exit(1);
    }
}
