//! Shared scaffolding for the experiment binaries (`src/bin/exp_*.rs`).
//!
//! Every binary regenerates one table or figure of the paper's evaluation
//! section and prints the same rows/series. Common knobs are read from the
//! command line:
//!
//! * `--scale=<f64>`   — dataset scale factor (default per experiment);
//! * `--seeds=<n>`     — number of seeds (the paper averages 5);
//! * `--quick`         — fewer epochs, scale at most 0.3, and one seed
//!   unless `--seeds` is given, for smoke runs.
//!
//! Run any experiment with
//! `cargo run --release -p freehgc-bench --bin exp_table3 [-- --quick]`.

use freehgc_datasets::{generate, DatasetKind};
use freehgc_eval::pipeline::EvalConfig;
use freehgc_hetgraph::HeteroGraph;
use freehgc_hgnn::trainer::TrainConfig;

/// Command-line options shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct ExpOpts {
    pub scale: f64,
    pub seeds: Vec<u64>,
    pub quick: bool,
}

impl ExpOpts {
    /// Parses `std::env::args`, with experiment-specific defaults.
    pub fn parse(default_scale: f64, default_seeds: usize) -> Self {
        Self::parse_from(std::env::args().skip(1), default_scale, default_seeds)
    }

    /// Parses `args` (without the program name). `--quick` caps the
    /// scale at 0.3 and, unless `--seeds` is given, runs one seed.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_scale: f64,
        default_seeds: usize,
    ) -> Self {
        let mut scale = default_scale;
        let mut nseeds = None;
        let mut quick = false;
        for arg in args {
            if let Some(v) = arg.strip_prefix("--scale=") {
                scale = v.parse().expect("--scale takes a float");
            } else if let Some(v) = arg.strip_prefix("--seeds=") {
                nseeds = Some(v.parse().expect("--seeds takes an integer"));
            } else if arg == "--quick" {
                quick = true;
            } else if arg == "--help" {
                eprintln!("options: --scale=<f64> --seeds=<n> --quick");
                std::process::exit(0);
            }
        }
        let nseeds = match nseeds {
            Some(n) => n,
            None if quick => default_seeds.min(1),
            None => default_seeds,
        };
        if quick {
            scale = scale.min(0.3);
        }
        Self {
            scale,
            seeds: (0..nseeds as u64).collect(),
            quick,
        }
    }
}

/// Generates the dataset at the experiment's scale (generation seed fixed
/// so that "the dataset" is the same object across methods and seeds).
pub fn dataset(kind: DatasetKind, opts: &ExpOpts) -> HeteroGraph {
    let scale = match kind {
        // AMiner is ~15× larger; keep its default footprint bounded.
        DatasetKind::Aminer => opts.scale * 0.5,
        _ => opts.scale,
    };
    generate(kind, scale, 42)
}

/// Evaluation configuration per dataset (meta-path hops follow §V-B).
pub fn eval_cfg(kind: DatasetKind, opts: &ExpOpts) -> EvalConfig {
    let train = if opts.quick {
        TrainConfig::quick()
    } else {
        TrainConfig {
            epochs: 100,
            patience: 20,
            ..TrainConfig::default()
        }
    };
    EvalConfig {
        max_hops: kind.paper_hops().min(if opts.quick { 2 } else { 3 }),
        max_paths: 12,
        model: freehgc_hgnn::models::ModelKind::SeHgnn,
        train,
    }
}

/// The paper's condensation ratios per dataset (Table III / V / VI).
pub fn paper_ratios(kind: DatasetKind) -> Vec<f64> {
    match kind {
        DatasetKind::Acm | DatasetKind::Dblp | DatasetKind::Imdb | DatasetKind::Freebase => {
            vec![0.012, 0.024, 0.048, 0.096]
        }
        DatasetKind::Aminer => vec![0.0005, 0.002, 0.008],
        DatasetKind::Mutag => vec![0.005, 0.01, 0.02],
        DatasetKind::Am => vec![0.002, 0.004, 0.008],
    }
}

/// Clamps a paper ratio so budgets stay meaningful on scaled-down graphs:
/// the target type keeps at least one node per class.
pub fn effective_ratio(g: &HeteroGraph, ratio: f64) -> f64 {
    let n = g.num_nodes(g.schema().target()) as f64;
    let min_nodes = g.num_classes() as f64;
    ratio.max(min_nodes / n).min(1.0)
}

/// Maps a paper-nominal ratio to the ratio actually applied on our scaled
/// graphs. AMiner is ~135× smaller than the paper's 4.9M-node original,
/// so its nominal ratios are scaled ×10 to preserve the paper's *absolute*
/// condensed-graph size regime (hundreds of target nodes, not single
/// digits); all printed labels keep the nominal r.
pub fn dataset_ratio(kind: DatasetKind, nominal: f64) -> f64 {
    match kind {
        DatasetKind::Aminer => (nominal * 10.0).min(1.0),
        _ => nominal,
    }
}

/// Reference wall-clock formatting used across binaries.
pub fn fmt_time(secs: f64) -> String {
    freehgc_eval::table::secs(secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ratios_match_section_vb() {
        assert_eq!(
            paper_ratios(DatasetKind::Acm),
            vec![0.012, 0.024, 0.048, 0.096]
        );
        assert_eq!(paper_ratios(DatasetKind::Aminer).len(), 3);
    }

    #[test]
    fn effective_ratio_keeps_class_coverage() {
        let opts = ExpOpts {
            scale: 0.1,
            seeds: vec![0],
            quick: true,
        };
        let g = dataset(DatasetKind::Acm, &opts);
        let r = effective_ratio(&g, 0.001);
        let budget = (g.num_nodes(g.schema().target()) as f64 * r).round() as usize;
        assert!(budget >= g.num_classes());
    }

    #[test]
    fn quick_runs_one_seed_unless_seeds_is_given() {
        let parse = |args: &[&str]| {
            let opts = ExpOpts::parse_from(args.iter().map(|a| a.to_string()), 1.0, 5);
            (opts.seeds.len(), opts.scale, opts.quick)
        };
        assert_eq!(parse(&[]), (5, 1.0, false));
        assert_eq!(parse(&["--quick", "--scale=0.1"]), (1, 0.1, true));
        assert_eq!(parse(&["--quick"]), (1, 0.3, true));
        assert_eq!(parse(&["--quick", "--seeds=3"]), (3, 0.3, true));
        assert_eq!(parse(&["--seeds=2", "--quick"]), (2, 0.3, true));
        assert_eq!(parse(&["--seeds=4"]), (4, 1.0, false));
    }

    #[test]
    fn eval_cfg_respects_quick() {
        let quick = ExpOpts {
            scale: 1.0,
            seeds: vec![0],
            quick: true,
        };
        let full = ExpOpts {
            quick: false,
            ..quick.clone()
        };
        assert!(
            eval_cfg(DatasetKind::Acm, &quick).train.epochs
                < eval_cfg(DatasetKind::Acm, &full).train.epochs
        );
    }
}
