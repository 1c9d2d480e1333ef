//! Empirical validation of the competitive-ratio theorems: measured ratios
//! must stay within generous multiples of the predicted `O(log p)` shapes.
//! These are *shape* tests — constants are loose by design so the suite is
//! robust, while `parapage experiments` reports the precise curves.

use parapage::prelude::*;

/// Theorem 1: RAND-GREEN's expected impact ratio vs the offline green
/// optimum is O(log p).
#[test]
fn rand_green_ratio_scales_like_log_p() {
    let mut ratios = Vec::new();
    for &(p, k) in &[(4usize, 32usize), (16, 128), (64, 512)] {
        let params = ModelParams::new(p, k, 10);
        let seq: Vec<PageId> = {
            let mut b = SeqBuilder::new(ProcId(0), 5);
            b.cyclic(4, 1000).cyclic(k / 2, 2000).cyclic(k / 8, 1000);
            b.build()
        };
        let opt = green_opt_normalized(&seq, &params);
        let mut impacts = Vec::new();
        for seed in 0..6 {
            let run = run_green(&mut RandGreen::new(&params, seed), &seq, &params);
            impacts.push(run.impact as f64 / opt.impact as f64);
        }
        let mean = impacts.iter().sum::<f64>() / impacts.len() as f64;
        let log_p = (p as f64).log2();
        assert!(
            mean <= 3.0 * log_p + 3.0,
            "p={p}: RAND-GREEN ratio {mean:.2} exceeds 3·log p + 3"
        );
        ratios.push((log_p, mean));
    }
    // The ratio must not grow faster than linearly in log p.
    let fit = fit_linear(&ratios).unwrap();
    assert!(
        fit.slope < 3.0,
        "ratio grows too fast with log p: slope {:.2}",
        fit.slope
    );
}

/// Theorems 2 & 3: RAND-PAR and DET-PAR makespans stay within a generous
/// O(log p) multiple of the certified lower bound on mixed workloads.
#[test]
fn parallel_pagers_stay_within_log_p_of_lower_bound() {
    for &p in &[4usize, 8] {
        let k = 8 * p;
        let params = ModelParams::new(p, k, 10);
        let len = 800;
        let specs: Vec<SeqSpec> = (0..p)
            .map(|x| match x % 3 {
                0 => SeqSpec::Cyclic { width: k / 16, len },
                1 => SeqSpec::Cyclic { width: k / 2, len },
                _ => SeqSpec::Zipf {
                    universe: k / 4,
                    theta: 0.8,
                    len,
                },
            })
            .collect();
        let w = build_workload(&specs, 77);
        let lb = opt_lower_bound(w.seqs(), k, params.s);
        assert!(lb > 0);
        let log_p = (p as f64).log2().max(1.0);
        let budget = 8.0 * log_p + 8.0;

        let mut det = DetPar::new(&params);
        let det_ms = run_engine(&mut det, w.seqs(), &params, &EngineOpts::default())
            .unwrap()
            .makespan;
        assert!(
            (det_ms as f64) <= budget * lb as f64,
            "p={p}: DET-PAR ratio {:.2} over budget {budget:.2}",
            det_ms as f64 / lb as f64
        );

        let mut rnd = RandPar::new(&params, 3);
        let rnd_ms = run_engine(&mut rnd, w.seqs(), &params, &EngineOpts::default())
            .unwrap()
            .makespan;
        assert!(
            (rnd_ms as f64) <= budget * lb as f64,
            "p={p}: RAND-PAR ratio {:.2} over budget {budget:.2}",
            rnd_ms as f64 / lb as f64
        );
    }
}

/// Corollary 3: DET-PAR's mean completion time also stays within the
/// O(log p) budget of the mean-completion lower bound (approximated here by
/// the mean of per-processor Belady floors).
#[test]
fn det_par_mean_completion_is_competitive() {
    let p = 8usize;
    let k = 128;
    let params = ModelParams::new(p, k, 10);
    let len = 2000;
    let specs: Vec<SeqSpec> = (0..p)
        .map(|x| SeqSpec::Cyclic {
            width: 4 << (x % 4),
            len,
        })
        .collect();
    let w = build_workload(&specs, 13);
    let mut det = DetPar::new(&params);
    let res = run_engine(&mut det, w.seqs(), &params, &EngineOpts::default()).unwrap();
    let mean_floor: f64 = w
        .seqs()
        .iter()
        .map(|seq| (seq.len() as u64 + (params.s - 1) * min_misses(seq, k)) as f64)
        .sum::<f64>()
        / p as f64;
    let log_p = (p as f64).log2();
    assert!(
        res.mean_completion() <= (8.0 * log_p + 8.0) * mean_floor,
        "mean completion {:.0} vs floor {mean_floor:.0}",
        res.mean_completion()
    );
}

/// The paper's headline positioning: on a cache-hungry/skewed workload the
/// oblivious DET-PAR beats the static equal partition by a growing factor.
#[test]
fn det_par_beats_static_partition_on_skew() {
    let p = 8usize;
    let k = 128;
    let params = ModelParams::new(p, k, 10);
    let len = 4000;
    let specs: Vec<SeqSpec> = (0..p)
        .map(|x| {
            if x == 0 {
                SeqSpec::Cyclic {
                    width: 3 * k / 4,
                    len,
                }
            } else {
                SeqSpec::Cyclic { width: 4, len }
            }
        })
        .collect();
    let w = build_workload(&specs, 21);
    let mut det = DetPar::new(&params);
    let det_ms = run_engine(&mut det, w.seqs(), &params, &EngineOpts::default())
        .unwrap()
        .makespan;
    let mut st = StaticPartition::new(&params);
    let st_ms = run_engine(&mut st, w.seqs(), &params, &EngineOpts::default())
        .unwrap()
        .makespan;
    assert!(
        st_ms as f64 > 2.0 * det_ms as f64,
        "static {st_ms} vs det {det_ms}: expected a clear win"
    );
}

/// Observation 1 (E10): across many chunks, RAND-PAR's primary and secondary
/// parts have comparable total length and impact.
#[test]
fn rand_par_chunk_balance() {
    let p = 16usize;
    let params = ModelParams::new(p, 256, 10);
    let len = 3000;
    let specs: Vec<SeqSpec> = (0..p)
        .map(|_| SeqSpec::Uniform { universe: 64, len })
        .collect();
    let w = build_workload(&specs, 31);
    let mut rnd = RandPar::new(&params, 17);
    let _ = run_engine(&mut rnd, w.seqs(), &params, &EngineOpts::default()).unwrap();
    let chunks = rnd.chunks();
    assert!(
        chunks.len() >= 5,
        "need several chunks, got {}",
        chunks.len()
    );
    let l1: u128 = chunks.iter().map(|c| c.primary_len as u128).sum();
    let l2: u128 = chunks.iter().map(|c| c.secondary_len as u128).sum();
    let ratio = l2 as f64 / l1 as f64;
    assert!(
        (0.2..5.0).contains(&ratio),
        "chunk length balance broken: {ratio:.2}"
    );
    let i1: u128 = chunks.iter().map(|c| c.primary_impact).sum();
    let i2: u128 = chunks.iter().map(|c| c.secondary_impact).sum();
    let iratio = i2 as f64 / i1 as f64;
    assert!(
        (0.1..10.0).contains(&iratio),
        "chunk impact balance broken: {iratio:.2}"
    );
}
