//! End-to-end serial/parallel equivalence: the full Algorithm-1 target
//! selection and the meta-path feature propagation must produce
//! bitwise-identical results at 1, 2, and N worker threads, and
//! repeated parallel runs must be deterministic. This is the
//! system-level counterpart of `crates/sparse/tests/prop_parallel.rs`.

use freehgc::core::selection::{condense_target, SelectionConfig};
use freehgc::datasets::{generate, tiny, DatasetKind};
use freehgc::hetgraph::CondenseContext;
use freehgc::hgnn::propagation::propagate;
use freehgc::parallel as par;
use std::sync::Mutex;

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_thread_override(Some(n));
    let out = f();
    par::set_thread_override(None);
    out
}

#[test]
fn condense_target_is_bitwise_identical_across_thread_counts() {
    let g = generate(DatasetKind::Acm, 0.2, 7);
    let cfg = SelectionConfig::default();
    let reference = with_threads(1, || condense_target(&CondenseContext::new(&g), 24, &cfg));
    for t in [2usize, 4] {
        let got = with_threads(t, || condense_target(&CondenseContext::new(&g), 24, &cfg));
        assert_eq!(got.selected, reference.selected, "selection at {t} threads");
        assert_eq!(got.scores, reference.scores, "scores at {t} threads");
    }
}

#[test]
fn condense_target_is_deterministic_across_repeated_parallel_runs() {
    let g = tiny(11);
    let cfg = SelectionConfig::default();
    let (a, b) = with_threads(4, || {
        (
            condense_target(&CondenseContext::new(&g), 8, &cfg),
            condense_target(&CondenseContext::new(&g), 8, &cfg),
        )
    });
    assert_eq!(a.selected, b.selected);
    assert_eq!(a.scores, b.scores);
}

#[test]
fn propagation_blocks_are_bitwise_identical_across_thread_counts() {
    let g = generate(DatasetKind::Dblp, 0.2, 3);
    let reference = with_threads(1, || propagate(&g, 2, 12));
    for t in [2usize, 4] {
        let got = with_threads(t, || propagate(&g, 2, 12));
        assert_eq!(got.path_names, reference.path_names);
        for (gb, rb) in got.blocks.iter().zip(&reference.blocks) {
            assert_eq!(gb.data, rb.data, "block data at {t} threads");
        }
    }
}

#[test]
fn ablation_variants_stay_equivalent_in_parallel() {
    // Variant paths (no RF / no Jaccard) exercise different kernels;
    // they must be thread-count-invariant too.
    let g = tiny(12);
    for cfg in [
        SelectionConfig {
            use_rf: false,
            ..Default::default()
        },
        SelectionConfig {
            use_jaccard: false,
            ..Default::default()
        },
    ] {
        let reference = with_threads(1, || condense_target(&CondenseContext::new(&g), 10, &cfg));
        let got = with_threads(4, || condense_target(&CondenseContext::new(&g), 10, &cfg));
        assert_eq!(got.selected, reference.selected);
        assert_eq!(got.scores, reference.scores);
    }
}
