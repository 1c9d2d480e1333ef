//! Acceptance sweep for the schedule explorer: the built-in scenario suite
//! must yield at least 10^4 distinct interleavings of the locked ops
//! (`Access`, `Contains`, `AccessIfFits`) of `ShardedCache<LruCache>` with
//! zero linearization violations, and the seeded split fit-check race must
//! be caught.

use parapage_conform::{explore, explore_all, sabotage_scenario, scenarios, ExploreMode, Op};

#[test]
fn explorer_enumerates_ten_thousand_clean_interleavings() {
    let reports = explore_all(12_000, ExploreMode::Exhaustive);
    let mut distinct = 0usize;
    for r in &reports {
        assert!(
            r.passed(),
            "{}: {} violations, first: {}",
            r.scenario,
            r.violating,
            r.violations[0]
        );
        distinct += r.distinct;
    }
    assert!(
        distinct >= 10_000,
        "only {distinct} distinct interleavings across the suite"
    );
}

#[test]
fn random_sampling_scales_past_the_dfs_frontier() {
    // The last scenario has the deepest tree; random sampling must keep
    // finding *new* schedules where DFS alone would crawl the left spine.
    let sc = scenarios().pop().unwrap();
    let r = explore(&sc, 300, ExploreMode::Random { seed: 1234 });
    assert!(r.passed(), "{}: {:?}", sc.name, r.violations);
    assert!(
        r.distinct * 10 >= r.executions * 9,
        "{}: random walk collapsed: {} distinct in {} executions",
        sc.name,
        r.distinct,
        r.executions
    );
}

#[test]
fn every_builtin_scenario_passes_a_bounded_exhaustive_sweep() {
    for sc in scenarios() {
        let r = explore(&sc, 500, ExploreMode::Exhaustive);
        assert!(r.passed(), "{}: {:?}", r.scenario, r.violations);
        assert!(
            r.distinct >= 100,
            "{}: only {} schedules",
            r.scenario,
            r.distinct
        );
    }
}

/// The self-check: with the fit check and the access split over two lock
/// acquisitions, some interleaving evicts the page between them and the
/// explorer must report it — while the same scenario through the fused
/// `access_if_fits_shared` is clean, so the catch is the split's fault.
#[test]
fn explorer_catches_the_split_fit_check_race() {
    let sabotaged = sabotage_scenario();
    let caught = explore(&sabotaged, 400, ExploreMode::Exhaustive);
    assert!(caught.complete, "the self-check tree fits the budget");
    assert!(
        !caught.passed(),
        "explorer missed the split fit-check race in {} executions",
        caught.executions
    );
    assert!(caught.violating <= caught.executions);
    assert!(
        caught.violating > caught.violations.len(),
        "violating executions are counted past the reporting cap"
    );
    assert!(caught.violations[0].contains("SplitAccessIfFits"));
    assert!(caught.violations[0].contains("Fit(Some(Miss))"));
    assert!(caught.violations[0].contains("[choices "));

    let mut fused = sabotaged;
    for script in &mut fused.threads {
        for op in script {
            if let Op::SplitAccessIfFits(page, remaining, penalty) = *op {
                *op = Op::AccessIfFits(page, remaining, penalty);
            }
        }
    }
    let clean = explore(&fused, 400, ExploreMode::Exhaustive);
    assert!(clean.complete);
    assert!(
        clean.passed(),
        "fused path must be clean: {:?}",
        clean.violations
    );
}
