//! Fig. 9 — interpretability of the data-selection criterion F(S).
//!
//! 80 random ACM target nodes are embedded with t-SNE. Ten are selected by
//! FreeHGC's criterion and ten by Herding; the nodes captured within three
//! hops of each selection are counted and their dispersion in the t-SNE
//! plane measured. The paper's observations: FreeHGC activates *more*
//! nodes (larger receptive field, R(S)) and the captured nodes are
//! *scattered more widely* across the dataset (diversity, 1 − J(S)).
//! A CSV of coordinates is written for external plotting.

use freehgc_bench::{dataset, eval_cfg, ExpOpts};
use freehgc_core::{condense_target, herding_select_stratified, SelectionConfig};
use freehgc_datasets::DatasetKind;
use freehgc_eval::tsne::{dispersion, tsne, TsneConfig};
use freehgc_hetgraph::{enumerate_metapaths, CondenseContext, HeteroGraph};
use freehgc_sparse::FxHashSet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::Write;

/// Nodes of every type captured within `hops` along every meta-path from
/// the given selection (the green circles of Fig. 9 include "activated
/// other-types and target-type nodes"). Returns the full typed set and the
/// target-plane subset.
fn captured_nodes(
    g: &HeteroGraph,
    selected: &[u32],
    hops: usize,
) -> (FxHashSet<(u16, u32)>, FxHashSet<u32>) {
    let schema = g.schema();
    let target = schema.target();
    let paths = enumerate_metapaths(schema, target, hops, 64);
    let engine = CondenseContext::new(g);
    let mut captured: FxHashSet<(u16, u32)> = selected.iter().map(|&v| (target.0, v)).collect();
    let mut captured_target: FxHashSet<u32> = selected.iter().copied().collect();
    for p in &paths {
        let adj = engine.adjacency(p);
        let src_type = p.source();
        for &s in selected {
            for &c in adj.row_indices(s as usize) {
                captured.insert((src_type.0, c));
                if src_type == target {
                    captured_target.insert(c);
                }
            }
        }
    }
    (captured, captured_target)
}

fn main() {
    let opts = ExpOpts::parse(1.0, 1);
    let kind = DatasetKind::Acm;
    let g = dataset(kind, &opts);
    let cfg = eval_cfg(kind, &opts);
    println!("== Fig. 9: visualization of selected & captured nodes (ACM) ==\n");

    // 80 random target nodes from the training pool (as in the paper).
    let mut rng = StdRng::seed_from_u64(9);
    let mut pool: Vec<u32> = g.split().train.clone();
    pool.shuffle(&mut rng);
    pool.truncate(80);
    pool.sort_unstable();

    // Restricted sub-problem: run FreeHGC's criterion greedy over the
    // 80-node pool (the paper selects 10 of the 80 with each method).
    let budget = 10;
    let free_sel = {
        let mut g_pool = g.clone();
        g_pool.set_split(freehgc_hetgraph::Split {
            train: pool.clone(),
            val: Vec::new(),
            test: Vec::new(),
        });
        condense_target(
            &CondenseContext::new(&g_pool),
            budget,
            &SelectionConfig {
                max_hops: cfg.max_hops,
                max_paths: 32,
                use_rf: true,
                use_jaccard: true,
            },
        )
        .selected
    };
    let herd_sel = herding_select_stratified(
        g.features(g.schema().target()),
        &pool,
        g.labels(),
        g.num_classes(),
        budget,
    );

    // t-SNE of the 80 pooled nodes on raw features.
    let feat = g.features(g.schema().target());
    let mut data = Vec::with_capacity(pool.len() * feat.dim());
    for &p in &pool {
        data.extend_from_slice(feat.row(p as usize));
    }
    let coords = tsne(&data, pool.len(), feat.dim(), &TsneConfig::default());

    let stats = |name: &str, sel: &[u32]| {
        let (captured, captured_target) = captured_nodes(&g, sel, 3);
        let captured_in_pool: Vec<usize> = pool
            .iter()
            .enumerate()
            .filter(|(_, v)| captured_target.contains(v))
            .map(|(i, _)| i)
            .collect();
        let disp = dispersion(&coords, &captured_in_pool);
        println!(
            "{name:8}  activated {:5} nodes total, {:2}/80 in the t-SNE pool, dispersion {:.2}",
            captured.len(),
            captured_in_pool.len(),
            disp
        );
        (captured.len(), disp)
    };
    let (free_n, free_d) = stats("FreeHGC", &free_sel);
    let (herd_n, herd_d) = stats("Herding", &herd_sel);
    println!();
    println!(
        "R(S): FreeHGC activates {:.2}× more nodes than Herding",
        free_n as f64 / herd_n.max(1) as f64
    );
    println!(
        "1-J(S): FreeHGC's captured nodes are {:.2}× more dispersed",
        free_d / herd_d.max(1e-9)
    );

    // CSV for external plotting.
    let path = "fig9_tsne.csv";
    let mut f = std::fs::File::create(path).expect("create csv");
    writeln!(f, "node,x,y,freehgc_selected,herding_selected").unwrap();
    for (i, &p) in pool.iter().enumerate() {
        writeln!(
            f,
            "{},{:.4},{:.4},{},{}",
            p,
            coords[i][0],
            coords[i][1],
            free_sel.contains(&p) as u8,
            herd_sel.contains(&p) as u8
        )
        .unwrap();
    }
    println!("\ncoordinates written to {path}");
}
