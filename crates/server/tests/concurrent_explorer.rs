//! The server section of `parapage conform --concurrent`: the schedule
//! explorer over the server's locks passes every clean scenario, reaches
//! 10^4 distinct interleavings across them, and catches each sabotage as
//! what it is — while the clean op in its place passes. One tenant's
//! running batch holds only that tenant's session: a `Stats` or a
//! re-attaching `Hello` that waits for it never makes another tenant wait.

use parapage::conform::matrix::{CellFilter, Totals};
use parapage::conform::ExploreMode;
use parapage_server::explore::{
    check_sabotage, exploration_matrix, explore_scenario, replay_choices, sabotages, scenarios, Op,
    Scenario,
};

#[test]
fn explorer_enumerates_ten_thousand_clean_interleavings() {
    let m = exploration_matrix(2_250, 42, &CellFilter::default());
    let mut totals = Totals::default();
    totals.add(&m);
    let reports: Vec<_> = m
        .cells
        .iter()
        .map(|c| c.outcome.as_ref().unwrap())
        .collect();
    for r in &reports {
        assert!(r.passed(), "{}: {:?}", r.scenario, r.violations.first());
    }
    assert_eq!(totals.failures, 0);
    let distinct: usize = reports.iter().map(|r| r.distinct).sum();
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
    let r = explore_scenario(&sc, 200, ExploreMode::Random { seed: 1234 });
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
        let r = explore_scenario(&sc, 300, ExploreMode::Exhaustive);
        assert!(r.passed(), "{}: {:?}", r.scenario, r.violations);
        assert_eq!(r.distinct, 300, "{}", r.scenario);
    }
}

/// Each sabotage is caught, and caught as itself; with the clean op in
/// its place the same scenario passes, so the catch is the sabotage's.
#[test]
fn explorer_catches_every_server_sabotage() {
    for (sc, caught_as) in sabotages() {
        let row = check_sabotage(&sc, caught_as, 2_000);
        assert!(
            row.violations.is_empty(),
            "{}: {:?}",
            sc.name,
            row.violations
        );
        // The reported choices replay the execution they came from.
        let first = &row.report.violations[0];
        let (body, choices) = first.rsplit_once(" [choices [").expect("choices");
        let choices: Vec<usize> = choices
            .trim_end_matches("]]")
            .split(", ")
            .map(|c| c.parse().unwrap())
            .collect();
        let replayed = replay_choices(&sc, &choices).expect("replay is clean");
        assert_eq!(format!("{}: {replayed}", sc.name), body);
        if sc.name == "panic-under-session" {
            continue; // the panic is the sabotage itself: no clean twin
        }
        let clean = Scenario {
            name: sc.name,
            threads: (sc.threads.iter())
                .map(|ops| ops.iter().map(|&op| clean_twin(op)).collect())
                .collect(),
        };
        let r = explore_scenario(&clean, 2_000, ExploreMode::Exhaustive);
        assert!(
            r.passed(),
            "clean twin of {}: {:?}",
            clean.name,
            r.violations
        );
    }
}

/// `name`'s scenario passes by DFS and by random sampling, and with its
/// second worker's op replaced by `sabotage`, which waits for a running
/// batch under the tenant table, every catch of the same sampling is a
/// `Hello` on another worker waiting on the other tenant's session (the
/// only path to which runs through the table the sabotage holds), and
/// one catch is b waiting on a: so the explored schedules do reach the
/// waiter waiting on a's running batch while b says `Hello` and runs its
/// own. A catch of a waiting on b is the sabotage too: it waits for b's
/// batch under the table while a's `Hello` waits for the table.
fn waiter_blocks_no_other_tenant(name: &str, sabotage: Op) {
    let clean = (scenarios().into_iter())
        .find(|sc| sc.name == name)
        .expect("scenario");
    let sample = ExploreMode::Random { seed: 42 };
    for mode in [ExploreMode::Exhaustive, sample] {
        let r = explore_scenario(&clean, 1_000, mode);
        assert!(r.passed(), "{name}: {:?}", r.violations);
    }
    let mut threads = clean.threads.clone();
    threads[1] = vec![sabotage];
    let sabotaged = Scenario {
        name: clean.name,
        threads,
    };
    let r = explore_scenario(&sabotaged, 1_000, sample);
    assert!(r.violating > 0, "{name}: {sabotage:?} not caught");
    let waits: Vec<(&str, &str)> = (r.violations.iter())
        .map(|v| {
            let body = v.rsplit_once(" [choices ").map_or(v.as_str(), |(b, _)| b);
            let wait = [(0, "a", "b"), (2, "b", "a")]
                .into_iter()
                .find(|(w, x, y)| {
                    body == format!(
                        "{name}: T{w} Hello(\"{x}\") on tenant `{x}` waits on tenant `{y}`'s session"
                    )
                });
            let (_, x, y) = wait.unwrap_or_else(|| panic!("not a Hello's cross-tenant wait: {v}"));
            (x, y)
        })
        .collect();
    assert!(
        waits.contains(&("b", "a")),
        "{name}: {sabotage:?} never made b wait on a: {:?}",
        r.violations
    );
}

#[test]
fn hello_does_not_wait_behind_a_pending_stats() {
    waiter_blocks_no_other_tenant("stats-behind-batch", Op::StatsUnderTables);
}

#[test]
fn hello_does_not_wait_behind_a_reattach_mid_batch() {
    waiter_blocks_no_other_tenant("reattach-behind-batch", Op::ReattachUnderTable("a"));
}

fn clean_twin(op: Op) -> Op {
    match op {
        Op::RegisterUnlocked => Op::Register,
        Op::StatsUnderTables => Op::Stats,
        Op::ReattachUnderTable(tenant) => Op::Hello(tenant),
        op => op,
    }
}
