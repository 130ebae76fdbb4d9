//! Cross-architecture generalization (paper Tables I and IV).
//!
//! A condensed graph is produced and propagated once per seed, then every
//! HGNN in the model zoo is trained on it and tested on the full graph
//! through [`Bench::evaluate`], the same step the accuracy tables use.
//! The paper's headline finding is that FreeHGC's condensed graphs
//! transfer across architectures (its selection is model-agnostic), while
//! HGCond's bake in the relay model's semantic fusion.

use crate::pipeline::Bench;
use freehgc_hetgraph::Condenser;
use freehgc_hgnn::metrics::mean_std;
use freehgc_hgnn::models::ModelKind;
use freehgc_hgnn::propagation::propagate;

/// Per-model accuracy of one condensation method (a Table IV row), plus
/// the condensed average.
#[derive(Clone, Debug)]
pub struct GeneralizationRow {
    pub method: String,
    pub per_model: Vec<(ModelKind, f64, f64)>, // (model, mean, std)
    pub condensed_avg: f64,
}

/// Evaluates `condenser` across `models` (defaults: the Table IV four).
pub fn across_models(
    bench: &Bench<'_>,
    condenser: &dyn Condenser,
    ratio: f64,
    models: &[ModelKind],
    seeds: &[u64],
) -> GeneralizationRow {
    let mut per_model_accs: Vec<Vec<f64>> = vec![Vec::new(); models.len()];
    for &seed in seeds {
        // One condensation and one propagation per seed, through the
        // bench's shared context; every model then trains on the same
        // condensed blocks through the bench's one evaluation step.
        let cond = condenser.condense_in(&bench.ctx, &bench.spec(ratio, seed));
        let pf_cond = propagate(&cond.graph, bench.cfg.max_hops, bench.cfg.max_paths);
        for (accs, &mk) in per_model_accs.iter_mut().zip(models) {
            let score = bench.evaluate(&pf_cond.blocks, cond.graph.labels(), mk, seed);
            accs.push(score.acc * 100.0);
        }
    }
    let per_model: Vec<(ModelKind, f64, f64)> = models
        .iter()
        .zip(&per_model_accs)
        .map(|(&mk, accs)| {
            let (m, s) = mean_std(accs);
            (mk, m, s)
        })
        .collect();
    let condensed_avg =
        per_model.iter().map(|(_, m, _)| m).sum::<f64>() / per_model.len().max(1) as f64;
    GeneralizationRow {
        method: condenser.name().to_string(),
        per_model,
        condensed_avg,
    }
}

/// Whole-graph average across models (the "Whole Avg." column).
pub fn whole_average(bench: &Bench<'_>, models: &[ModelKind], seeds: &[u64]) -> f64 {
    let mut total = 0.0;
    for &mk in models {
        total += bench.whole_graph(mk, seeds).acc_mean;
    }
    total / models.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::EvalConfig;
    use freehgc_core::FreeHgc;
    use freehgc_datasets::{generate, DatasetKind};

    #[test]
    fn generalization_row_covers_all_models() {
        let g = generate(DatasetKind::Acm, 0.1, 0);
        let bench = Bench::new(&g, EvalConfig::quick());
        let models = [ModelKind::Hgb, ModelKind::SeHgnn];
        let row = across_models(&bench, &FreeHgc::default(), 0.3, &models, &[0]);
        assert_eq!(row.per_model.len(), 2);
        for (_, acc, _) in &row.per_model {
            assert!(*acc > 0.0 && *acc <= 100.0);
        }
        assert!(row.condensed_avg > 0.0);
    }

    #[test]
    fn whole_average_is_plausible() {
        let g = generate(DatasetKind::Acm, 0.1, 1);
        let bench = Bench::new(&g, EvalConfig::quick());
        let avg = whole_average(&bench, &[ModelKind::SeHgnn], &[0]);
        assert!(avg > 100.0 / g.num_classes() as f64);
    }
}
