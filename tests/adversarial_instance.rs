//! Theorem 4 / Lemmas 8-9 on the adversarial instances: the Lemma-8
//! schedule upper-bounds OPT, every online green-style pager pays a ratio
//! that grows with p, and the instance's structural properties hold.

use parapage::core::policy;
use parapage::prelude::*;

fn run_policy(alloc: &mut dyn BoxAllocator, inst: &AdversarialInstance) -> u64 {
    let params = inst.config.params();
    run_engine(alloc, inst.workload.seqs(), &params, &EngineOpts::default())
        .unwrap()
        .makespan
}

/// Lemma 8's schedule is feasible and therefore dominates the certified
/// lower bound but undercuts every online policy we implement.
#[test]
fn lemma8_sits_between_lower_bound_and_online_policies() {
    let cfg = AdversarialConfig::scaled(16, 64, 64, 0.05);
    let inst = AdversarialInstance::build(cfg);
    let params = cfg.params();
    let seqs = inst.workload.seqs();

    let opt = lemma8_makespan(&inst).makespan();
    let lb = per_proc_bound(seqs, params.k, params.s);
    assert!(opt >= lb, "schedule {opt} below certified bound {lb}");

    let mut det = DetPar::new(&params);
    let det_ms = run_policy(&mut det, &inst);
    assert!(
        det_ms >= opt,
        "online DET-PAR {det_ms} beat offline OPT {opt}"
    );

    let mut bb = policy::build("bb-green", &params, 0, false).unwrap();
    let bb_ms = run_policy(&mut *bb, &inst);
    assert!(bb_ms >= opt);
}

/// The measured online/OPT ratio grows monotonically with p — the shape of
/// the Ω(log p / log log p) lower bound.
#[test]
fn online_over_opt_ratio_grows_with_p() {
    let mut ratios = Vec::new();
    for &(p, k) in &[(8usize, 32usize), (32, 128)] {
        let cfg = AdversarialConfig::scaled(p, k, k as u64, 0.05);
        let inst = AdversarialInstance::build(cfg);
        let params = cfg.params();
        let opt = lemma8_makespan(&inst).makespan();
        let mut det = DetPar::new(&params);
        let ms = run_policy(&mut det, &inst);
        ratios.push(ms as f64 / opt as f64);
    }
    assert!(ratios[1] > ratios[0], "ratio did not grow: {ratios:?}");
    assert!(ratios[0] >= 1.0);
}

/// With the full cache and Belady replacement, a polluted prefix phase
/// misses only on polluters (plus compulsories) — the property OPT exploits
/// — while LRU at any box height thrashes, the property that pins online
/// algorithms.
#[test]
fn pollution_splits_belady_from_lru() {
    let cfg = AdversarialConfig::scaled(16, 64, 64, 0.05);
    let inst = AdversarialInstance::build(cfg);
    let meta = inst.prefixed[0];
    let seq = &inst.workload.seqs()[meta.proc.idx()];
    let phase_len = cfg.phase_len();
    let phase0 = &seq[..phase_len];

    // Belady with cache k: compulsory (k-1 repeaters) + polluters.
    let opt_misses = min_misses(phase0, cfg.k);
    let polluters = phase_len / cfg.p; // every p-th request in phase 0
    assert!(
        opt_misses <= (cfg.k as u64 - 1) + polluters as u64 + 1,
        "Belady misses {opt_misses} exceed compulsory+polluters"
    );

    // LRU with cache k thrashes: nearly every access misses.
    let curve = miss_curve(phase0, cfg.k);
    assert!(
        curve.misses(cfg.k) as f64 > 0.9 * phase_len as f64,
        "LRU should thrash: {} of {}",
        curve.misses(cfg.k),
        phase_len
    );
}

/// Suffixes progress at the same speed regardless of cache size (each page
/// requested once) — the construction's "cache-oblivious bulk".
#[test]
fn suffixes_are_cache_size_oblivious() {
    let cfg = AdversarialConfig::scaled(8, 32, 32, 0.05);
    let inst = AdversarialInstance::build(cfg);
    let suffix_only = inst.num_prefixed(); // first suffix-only processor
    let seq = &inst.workload.seqs()[suffix_only];
    for cap in [1usize, 4, 32] {
        assert_eq!(min_misses(seq, cap), seq.len() as u64);
    }
}

/// Lemma 8 structure: with s scaled like k, OPT's makespan is dominated by
/// the parallel suffix stage, not the serialized prefixes.
#[test]
fn opt_cost_is_suffix_dominated() {
    let cfg = AdversarialConfig::scaled(32, 128, 128, 0.05);
    let inst = AdversarialInstance::build(cfg);
    let sched = lemma8_makespan(&inst);
    assert!(
        sched.suffix_time > sched.prefix_time,
        "prefix {} should be cheaper than suffix {}",
        sched.prefix_time,
        sched.suffix_time
    );
}
