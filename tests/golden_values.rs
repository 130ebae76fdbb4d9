//! Golden values computed by hand from the paper's equations on
//! hand-sized graphs, so the selection kernels are pinned to the paper
//! and not only to earlier versions of the code.

use freehgc::core::selection::{celf_greedy, condense_target, diversity_bonuses, SelectionConfig};
use freehgc::core::{assemble, synthesize_leaf, TypePlan};
use freehgc::hetgraph::{
    CondenseContext, FeatureMatrix, HeteroGraph, HeteroGraphBuilder, Schema, Split,
};
use freehgc::sparse::ppr::{bipartite_influence, PprConfig};
use freehgc::sparse::CsrMatrix;
use std::sync::Arc;

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-6 * w.abs().max(1.0),
            "{what}[{i}]: got {g}, want {w}"
        );
    }
}

/// Eq. 6–7 on one 3-path group: three meta-paths from 3 target nodes
/// to the same 4-node source type. Their receptive fields per target:
///
/// | target | P0        | P1    | P2     |
/// |--------|-----------|-------|--------|
/// | v0     | {0,1}     | {1,2} | {0,1}  |
/// | v1     | {}        | {}    | {3}    |
/// | v2     | {0,1,2,3} | {2}   | {0,3}  |
///
/// Pairwise Jaccard (Eq. 5, two empty fields count as J = 1):
/// * v0: J01 = 1/3, J02 = 1, J12 = 1/3;
/// * v1: J01 = 1, J02 = 0, J12 = 0;
/// * v2: J01 = 1/4, J02 = 2/4, J12 = 0/3.
///
/// The bonus is `1 − mean over siblings`, e.g. P0 at v2:
/// `1 − (1/4 + 1/2)/2 = 5/8`.
#[test]
fn diversity_bonus_of_a_three_path_group_matches_eq_6_7() {
    let path = |edges: &[(u32, u32)]| Arc::new(CsrMatrix::from_edges(3, 4, edges));
    let adjs = vec![
        path(&[(0, 0), (0, 1), (2, 0), (2, 1), (2, 2), (2, 3)]),
        path(&[(0, 1), (0, 2), (2, 2)]),
        path(&[(0, 0), (0, 1), (1, 3), (2, 0), (2, 3)]),
    ];
    let bonuses = diversity_bonuses(&[0, 1, 2], &adjs, 3);
    assert_eq!(bonuses.len(), 3);
    assert_close(&bonuses[0], &[1.0 / 3.0, 0.5, 5.0 / 8.0], "P0");
    assert_close(&bonuses[1], &[2.0 / 3.0, 0.5, 7.0 / 8.0], "P1");
    assert_close(&bonuses[2], &[1.0 / 3.0, 1.0, 3.0 / 4.0], "P2");
}

/// Eq. 10–11 with α = 1/2 and ε = 0.2, so the series keeps the terms
/// `k = 0..=3` (`⌈ln 0.2 / ln 0.5⌉ = 3`). The meta-path adjacency links
/// 3 papers to 2 authors: p0–{a0,a1}, p1–a0, p2–a1. Symmetric
/// normalization `D_r^-½ A D_c^-½` (row degrees 2, 1, 1; column degrees
/// 2, 2) gives `Â = [[1/2, 1/2], [1/√2, 0], [0, 1/√2]]`.
///
/// Author mass is `α(1−α)·x1 + α(1−α)³·x3` with `x1 = x0ᵀÂ` and
/// `x3 = (Â x1)ᵀ Â`:
/// * seeded at p1: `x1 = [1/√2, 0]`, `Â x1 = [1/(2√2), 1/2, 0]`,
///   `x3 = [3/(4√2), 1/(4√2)]`, so the influence is
///   `[19/(64√2), 1/(64√2)]`;
/// * uniform seed (1/3 each): `x1 = x3 = s·[1, 1]` with
///   `s = (1/2 + 1/√2)/3`, so both authors get `5/16 · s = 5(1+√2)/96`.
#[test]
fn ppr_influence_with_three_terms_matches_eq_10_11() {
    let cfg = PprConfig {
        alpha: 0.5,
        epsilon: 0.2,
        max_iters: 64,
    };
    assert_eq!(cfg.num_terms(), 3);
    let a = CsrMatrix::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (2, 1)]);
    let widen = |v: Vec<f32>| v.into_iter().map(f64::from).collect::<Vec<_>>();
    let r2 = 2f64.sqrt();

    let seeded = widen(bipartite_influence(&a, Some(&[1]), &cfg));
    assert_close(
        &seeded,
        &[19.0 / (64.0 * r2), 1.0 / (64.0 * r2)],
        "seeded at p1",
    );

    let uniform = widen(bipartite_influence(&a, None, &cfg));
    let each = 5.0 * (1.0 + r2) / 96.0;
    assert_close(&uniform, &[each, each], "uniform seed");
}

/// Eq. 8 through CELF on one meta-path. Four targets with receptive
/// fields v0 = {0,1,2}, v1 = {2,3}, v2 = {3,4}, v3 = {0}, so
/// `|R̂| = 3` (the largest field in the pool), and a hand-chosen modular
/// diversity term `1 − J = [0.1, 0.5, 0.2, 0]`. The gain of `v` given
/// `S` is `|R(v) \ R(S)|/3 + (1 − J)_v`:
///
/// | round | v0            | v1          | v2          | v3    | pick |
/// |-------|---------------|-------------|-------------|-------|------|
/// | 1     | 3/3+0.1       | 2/3+0.5     | 2/3+0.2     | 1/3   | v1   |
/// | 2     | 2/3+0.1       | —           | 1/3+0.2     | 1/3   | v0   |
/// | 3     | —             | —           | 1/3+0.2     | 0     | v2   |
///
/// so the selection order is v1, v0, v2 with gains 7/6, 23/30, 8/15.
/// The gains telescope to the criterion itself:
/// `F({v1,v0,v2}) = |{0..4}|/3 + (0.5 + 0.1 + 0.2) = 37/15`.
#[test]
fn celf_selection_order_and_gains_match_eq_8() {
    let adj = CsrMatrix::from_edges(
        4,
        5,
        &[
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 0),
        ],
    );
    let bonus = [0.1, 0.5, 0.2, 0.0];
    let (selected, gains) = celf_greedy(&adj, &[0, 1, 2, 3], 3, 3.0, &bonus);
    assert_eq!(selected, vec![1, 0, 2], "CELF selection order");
    assert_close(&gains, &[7.0 / 6.0, 23.0 / 30.0, 8.0 / 15.0], "gains");
    assert_close(&[gains.iter().sum()], &[37.0 / 15.0], "F(S)");
}

/// A 9-node paper/author/subject graph: papers p0..p3 (the target, one
/// class, all in the training pool), authors a0..a2, subjects s0, s1.
///
/// * pa: p0–{a0,a1}, p1–a1, p2–a2, p3–a2;
/// * ps: p0–s0, p1–s0, p2–s1, p3–{s0,s1}.
fn paper_author_subject() -> HeteroGraph {
    let mut s = Schema::new();
    let paper = s.add_node_type("paper");
    let author = s.add_node_type("author");
    let subject = s.add_node_type("subject");
    let pa = s.add_edge_type("pa", paper, author);
    let ps = s.add_edge_type("ps", paper, subject);
    s.set_target(paper);
    let mut b = HeteroGraphBuilder::new(s, vec![4, 3, 2]);
    for (p, a) in [(0, 0), (0, 1), (1, 1), (2, 2), (3, 2)] {
        b.add_edge(pa, p, a);
    }
    for (p, sub) in [(0, 0), (1, 0), (2, 1), (3, 0), (3, 1)] {
        b.add_edge(ps, p, sub);
    }
    b.set_features(paper, FeatureMatrix::zeros(4, 1));
    b.set_features(author, FeatureMatrix::zeros(3, 1));
    b.set_features(subject, FeatureMatrix::zeros(2, 1));
    b.set_labels(vec![0; 4], 1);
    b.set_split(Split {
        train: vec![0, 1, 2, 3],
        val: Vec::new(),
        test: Vec::new(),
    });
    b.build()
}

/// Algorithm 1 (Eq. 8–9) on [`paper_author_subject`] with 2-hop paths
/// and a budget of 2. The four meta-paths and their receptive fields:
///
/// | path  | p0        | p1        | p2     | p3            | `|R̂|` |
/// |-------|-----------|-----------|--------|---------------|-------|
/// | P-A   | {a0,a1}   | {a1}      | {a2}   | {a2}          | 2     |
/// | P-S   | {s0}      | {s0}      | {s1}   | {s0,s1}       | 2     |
/// | P-A-P | {p0,p1}   | {p0,p1}   | {p2,p3}| {p2,p3}       | 2     |
/// | P-S-P | {p0,p1,p3}| {p0,p1,p3}| {p2,p3}| {p0,p1,p2,p3} | 4     |
///
/// P-A and P-S are alone in their source group, so `1 − J = 1`. P-A-P
/// and P-S-P share the paper source, so both get
/// `1 − J(P-A-P, P-S-P) = [1/3, 1/3, 0, 1/2]`. CELF with budget 2
/// (ties go to the smaller id) then picks, with gains:
/// * P-A: p0 (2/2 + 1 = 2), then p2 (1/2 + 1 = 3/2; p1 adds no author);
/// * P-S: p3 (2/2 + 1 = 2), then p0 (0 + 1, every subject covered);
/// * P-A-P: p3 (2/2 + 1/2 = 3/2), then p0 (2/2 + 1/3 = 4/3);
/// * P-S-P: p3 (4/4 + 1/2 = 3/2), then p0 (0 + 1/3; p3 covers all).
///
/// Eq. 9 sums the gains: p0 = 2 + 1 + 4/3 + 1/3 = 14/3, p1 = 0,
/// p2 = 3/2, p3 = 2 + 3/2 + 3/2 = 5, so the top 2 are p0 and p3.
#[test]
fn target_selection_scores_match_eq_8_9() {
    let g = paper_author_subject();
    let sel = condense_target(
        &CondenseContext::new(&g),
        2,
        &SelectionConfig {
            max_hops: 2,
            ..Default::default()
        },
    );
    assert_eq!(sel.selected, vec![0, 3]);
    assert_close(&sel.scores, &[14.0 / 3.0, 0.0, 1.5, 5.0], "scores");
}

/// A 10-node paper/term graph for leaf synthesis: papers p0..p4, terms
/// t0..t4 with 2-d features t0 = (1,0), t1 = (0,1), t2 = (2,2),
/// t3 = (4,0), t4 = (0,4), and pt edges p0–{t0,t1}, p1–{t1,t2},
/// p2–t3, p3–{t3,t4} (p4 has no term).
fn paper_term() -> HeteroGraph {
    let mut s = Schema::new();
    let paper = s.add_node_type("paper");
    let term = s.add_node_type("term");
    let pt = s.add_edge_type("pt", paper, term);
    s.set_target(paper);
    let mut b = HeteroGraphBuilder::new(s, vec![5, 5]);
    for (p, t) in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (3, 3), (3, 4)] {
        b.add_edge(pt, p, t);
    }
    b.set_features(paper, FeatureMatrix::zeros(5, 1));
    let terms = [1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 4.0, 0.0, 0.0, 4.0];
    b.set_features(term, FeatureMatrix::from_rows(2, terms.to_vec()));
    b.set_labels(vec![0; 5], 1);
    b.build()
}

/// Eq. 14–16 on [`paper_term`] around the selected papers
/// {p0, p1, p2, p4}.
///
/// Eq. 14: one hyper-node per selected paper with a term neighbor —
/// h0 = {t0,t1}, h1 = {t1,t2}, h2 = {t3} (p4 has none) — with mean
/// features h0 = (1/2, 1/2), h1 = (1, 3/2), h2 = (4, 0).
///
/// Eq. 15: a selected paper links to every hyper-node holding one of
/// its terms, once per shared term. So p0–h0 weighs 2 (t0, t1) and
/// p0–h1 weighs 1 (t1); p1–h0 weighs 1 (t1) and p1–h1 weighs 2 (t1, t2);
/// p2–h2 weighs 1. The reverse edges p1–h0 and p0–h1 keep the 2-hop
/// p0–p1 link through t1. p3 is not selected, so h2 gets no edge from
/// it.
///
/// Eq. 16, budget 2: a hyper-node's degree counts the selected papers
/// adjacent to its members, h0 = |{p0,p1}| = 2, h1 = 2, h2 = |{p2}| = 1.
/// The lowest (h2) absorbs the next lowest, the first of the tied h0, so
/// the result is {t0,t1,t3} with mean (5/3, 1/3), followed by h1.
#[test]
fn leaf_synthesis_matches_eq_14_16() {
    let g = paper_term();
    let (paper, term) = (
        g.schema().target(),
        g.schema().node_type_ids().nth(1).unwrap(),
    );
    let ctx = CondenseContext::new(&g);
    let parents = [0, 1, 2, 4];

    let syn = synthesize_leaf(&ctx, term, paper, &parents, 8);
    assert_eq!(syn.members, vec![vec![0, 1], vec![1, 2], vec![3]], "Eq. 14");
    let widen = |f: &FeatureMatrix| f.data().iter().map(|&x| f64::from(x)).collect::<Vec<_>>();
    assert_close(
        &widen(&syn.features),
        &[0.5, 0.5, 1.0, 1.5, 4.0, 0.0],
        "Eq. 14 means",
    );

    let plans = vec![
        TypePlan::Selected(parents.to_vec()),
        TypePlan::Synthesized(syn),
    ];
    let cond = assemble(&g, &plans);
    let pt = cond
        .graph
        .adjacency(g.schema().edge_type_ids().next().unwrap());
    let weights: Vec<Vec<f32>> = (0..pt.nrows())
        .map(|r| {
            let mut row = vec![0.0; pt.ncols()];
            let (cols, vals) = pt.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                row[c as usize] = v;
            }
            row
        })
        .collect();
    assert_eq!(
        weights,
        vec![
            vec![2.0, 1.0, 0.0],
            vec![1.0, 2.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0],
        ],
        "Eq. 15 membership and reverse edges"
    );

    let merged = synthesize_leaf(&ctx, term, paper, &parents, 2);
    assert_eq!(merged.members, vec![vec![0, 1, 3], vec![1, 2]], "Eq. 16");
    assert_close(
        &widen(&merged.features),
        &[5.0 / 3.0, 1.0 / 3.0, 1.0, 1.5],
        "Eq. 16 means",
    );
}

/// The three dense products the HGNN trainer runs — forward `X·W`,
/// weight gradient `Xᵀ·G` and input gradient `G·Wᵀ` — over every block
/// of `propagate(tiny(43))` with Xavier weights, pinned by an Fx digest
/// of their output bits. Each product's reference pins only itself, so
/// this catches an edit that moves a kernel and its reference together.
/// Plain multiply-adds on fixed inputs: the digest depends on no libm
/// routine and no thread count.
#[test]
fn dense_products_match_the_golden_digest() {
    use freehgc::autograd::Matrix;
    use freehgc::datasets::tiny;
    use freehgc::hgnn::propagate;
    use freehgc::sparse::fx::FxHasher;
    use std::hash::Hasher;

    let pf = propagate(&tiny(43), 2, 16);
    let mut h = FxHasher::default();
    let mut hash = |m: &Matrix| {
        h.write_usize(m.rows);
        h.write_usize(m.cols);
        m.data.iter().for_each(|v| h.write_u32(v.to_bits()));
    };
    for (seed, x) in pf.blocks.iter().enumerate() {
        let w = Matrix::xavier(x.cols, 64, seed as u64);
        let fwd = x.matmul(&w);
        hash(&fwd);
        hash(&x.matmul_tn(&fwd));
        hash(&fwd.matmul_nt(&w));
    }
    assert_eq!(
        (pf.blocks.len(), h.finish()),
        (12, 7_200_867_162_042_934_916),
        "matmul, matmul_tn or matmul_nt moved a bit"
    );
}

/// Training pinned end to end: each of the five HGNN heads trained with
/// Adam, dropout and validation early stopping on `propagate(tiny(44))`
/// blocks, hashed with its restored parameters and its test-split
/// predictions, followed by the target features of one HGCond
/// refinement whose SeHGNN relay differentiates through projections of
/// constant blocks. An edit to the tape, its backward pass or an
/// activation kernel that moves any trained bit shows here, not only in
/// the accuracy tables.
///
/// Unlike the dense-product digest above, this one also depends on
/// libm: `tanhf` (attention and HAN's projection), `expf` (softmax,
/// sigmoid) and `logf` (the loss). It is pinned for x86_64 Linux with
/// glibc, the platform CI runs on; the thread count does not enter.
#[cfg(all(target_os = "linux", target_env = "gnu", target_arch = "x86_64"))]
#[test]
fn training_matches_the_golden_digest() {
    use freehgc::autograd::Matrix;
    use freehgc::baselines::{GradMatchConfig, HGCondBaseline, RelayKind};
    use freehgc::datasets::tiny;
    use freehgc::hetgraph::{CondenseSpec, Condenser};
    use freehgc::hgnn::trainer::predict;
    use freehgc::hgnn::{build_model, propagate, train, EvalData, ModelKind, TrainConfig};
    use freehgc::sparse::fx::FxHasher;
    use std::hash::Hasher;

    let g = tiny(44);
    let pf = propagate(&g, 2, 16);
    let split = g.split();
    let labels =
        |ids: &[u32]| -> Vec<u32> { ids.iter().map(|&v| g.labels()[v as usize]).collect() };
    let (train_blocks, train_labels) = (pf.gather(&split.train), labels(&split.train));
    let (val_blocks, val_labels) = (pf.gather(&split.val), labels(&split.val));
    let test_blocks = pf.gather(&split.test);

    let mut h = FxHasher::default();
    let mut hash = |m: &Matrix| {
        h.write_usize(m.rows);
        h.write_usize(m.cols);
        m.data.iter().for_each(|v| h.write_u32(v.to_bits()));
    };
    let cfg = TrainConfig {
        hidden: 16,
        epochs: 12,
        patience: 4,
        seed: 3,
        ..TrainConfig::default()
    };
    let mut epochs = Vec::new();
    for kind in [
        ModelKind::HeteroSgc,
        ModelKind::SeHgnn,
        ModelKind::Han,
        ModelKind::Hgb,
        ModelKind::Hgt,
    ] {
        let mut model = build_model(kind, &pf.dims(), g.num_classes(), 16, 0.5, 7);
        let report = train(
            &mut *model,
            &EvalData {
                blocks: &train_blocks,
                labels: &train_labels,
            },
            Some(&EvalData {
                blocks: &val_blocks,
                labels: &val_labels,
            }),
            &cfg,
        );
        epochs.push(report.epochs_run);
        model
            .store()
            .param_ids()
            .for_each(|p| hash(model.store().value(p)));
        let pred = predict(&*model, &test_blocks);
        hash(&Matrix::from_vec(
            1,
            pred.len(),
            pred.iter().map(|&c| c as f32).collect(),
        ));
    }

    let hgcond = HGCondBaseline {
        cfg: GradMatchConfig {
            relay: RelayKind::SeHgnn,
            outer: 3,
            inner: 2,
            relay_samples: 2,
            ops: true,
            ..GradMatchConfig::default()
        },
        kmeans_iters: 3,
    };
    let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(5);
    let cond = hgcond.condense(&g, &spec);
    let x = cond.graph.features(g.schema().target());
    hash(&Matrix::from_vec(x.num_rows(), x.dim(), x.data().to_vec()));

    assert_eq!(
        (epochs, h.finish()),
        (vec![5, 5, 6, 5, 9], 11_186_412_719_449_807_875),
        "a trained parameter, a prediction or HGCond's refined features moved a bit"
    );
}

/// The paper's evaluation step (§V-B) pinned end to end: per-seed
/// accuracies of `run_method` and `whole_graph`, one `eval_condensed`
/// call and an `across_models` row over two seeds, all on `tiny(44)`
/// with the quick config. Whichever entry point reaches the
/// train-and-test step, the bits it reports must not move. The same
/// test checks that the generalization matrix and the accuracy tables
/// share that step: `across_models` with SeHGNN alone reports
/// `run_method`'s accuracy bit for bit, seed by seed.
///
/// Pinned for x86_64 Linux with glibc, like the training digest above.
#[cfg(all(target_os = "linux", target_env = "gnu", target_arch = "x86_64"))]
#[test]
fn evaluation_matches_the_golden_digest() {
    use freehgc::core::FreeHgc;
    use freehgc::datasets::tiny;
    use freehgc::eval::generalization::across_models;
    use freehgc::eval::pipeline::{Bench, EvalConfig};
    use freehgc::hetgraph::Condenser;
    use freehgc::hgnn::ModelKind;
    use freehgc::sparse::fx::FxHasher;
    use std::hash::Hasher;

    let g = tiny(44);
    let bench = Bench::new(&g, EvalConfig::quick());
    let (ratio, seeds) = (0.2, [0, 1]);

    for s in seeds {
        let alone = across_models(
            &bench,
            &FreeHgc::default(),
            ratio,
            &[ModelKind::SeHgnn],
            &[s],
        );
        let run = bench.run_method(&FreeHgc::default(), ratio, &[s]);
        assert_eq!(
            alone.per_model[0].1.to_bits(),
            run.stats.accs[0].to_bits(),
            "seed {s}: across_models and run_method no longer share one evaluation step"
        );
    }

    let mut h = FxHasher::default();
    let mut hash = |v: f64| h.write_u64(v.to_bits());
    let run = bench.run_method(&FreeHgc::default(), ratio, &seeds);
    run.stats.accs.iter().for_each(|&a| hash(a));
    let whole = bench.whole_graph(ModelKind::Hgb, &seeds);
    whole.accs.iter().for_each(|&a| hash(a));
    let cond = FreeHgc::default().condense_in(&bench.ctx, &bench.spec(ratio, 1));
    hash(bench.eval_condensed(&cond, ModelKind::Han, 1));
    let models = [ModelKind::HeteroSgc, ModelKind::Hgt];
    let row = across_models(&bench, &FreeHgc::default(), ratio, &models, &seeds);
    for &(_, mean, std) in &row.per_model {
        hash(mean);
        hash(std);
    }
    hash(row.condensed_avg);
    assert_eq!(
        h.finish(),
        17_995_209_147_126_178_974,
        "an accuracy reported by run_method, whole_graph, eval_condensed or across_models moved a bit"
    );
}

/// Per-seed macro-F1 pinned beside the accuracies above: `run_method`'s
/// and `whole_graph`'s `f1s` on `tiny(44)` with the quick config. The
/// digest was checked against macro-F1 computed step by step from
/// `build_model`, `train`, `predict` and `metrics::macro_f1`, before
/// `RunStats` kept it.
#[cfg(all(target_os = "linux", target_env = "gnu", target_arch = "x86_64"))]
#[test]
fn evaluation_macro_f1_matches_the_golden_digest() {
    use freehgc::core::FreeHgc;
    use freehgc::datasets::tiny;
    use freehgc::eval::pipeline::{Bench, EvalConfig};
    use freehgc::hgnn::ModelKind;
    use freehgc::sparse::fx::FxHasher;
    use std::hash::Hasher;

    let g = tiny(44);
    let bench = Bench::new(&g, EvalConfig::quick());
    let seeds = [0, 1];
    let run = bench.run_method(&FreeHgc::default(), 0.2, &seeds);
    let whole = bench.whole_graph(ModelKind::Hgb, &seeds);
    let mut h = FxHasher::default();
    for f1 in run.stats.f1s.iter().chain(&whole.f1s) {
        assert!(
            (0.0..=100.0).contains(f1),
            "macro-F1 {f1} is not a percentage"
        );
        h.write_u64(f1.to_bits());
    }
    assert_eq!(
        (run.stats.f1s.len(), whole.f1s.len(), h.finish()),
        (2, 2, 18_139_753_528_517_017_398),
        "a per-seed macro-F1 moved a bit"
    );
}
