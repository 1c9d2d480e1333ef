//! The six traffic mixes and their seeded inputs.
//!
//! Every input is a pure function of `(--seed, workload, tenant, pool
//! index)`. Each tenant replays a pool of pre-generated batches cyclically;
//! every batch is an independent engine run on the server, so cycling the
//! pool does not change how much work a batch is.

use std::time::Duration;

use parapage::cache::{fnv1a64, PageId};
use parapage::workloads::{build_workload, SeqSpec};
use parapage_server::TenantConfig;

/// Batches generated per tenant before any timing starts: at least 256,
/// and a multiple of the `paced-mixed` mix period, so that every tenant's
/// mix has exactly one large batch in ten whatever the seed.
pub const POOL: usize = 260;
/// Shard count of every tenant's `ShardedLru` (the `drive` default).
pub const SHARDS: usize = 4;
/// `recovery`: every batch `b` is preceded by `Kill{b, KILL_TICK}` ...
pub const KILL_TICK: u64 = 64;
/// ... and `Migrate{b, MIGRATE_TICK}` on the control connection.
pub const MIGRATE_TICK: u64 = 128;

/// Requests per processor sequence of one batch.
#[derive(Clone, Copy, Debug)]
pub enum Sizes {
    /// Every batch has the same size.
    One(usize),
    /// One batch in `large_every` (seeded) is `large`, the rest `small`.
    Mix {
        small: usize,
        large: usize,
        large_every: u64,
    },
}

/// Open-loop pacing, frozen when the benchmark was defined (see
/// `baseline.json`).
#[derive(Clone, Copy, Debug)]
pub struct Pacing {
    /// Offered batches per second, summed over tenants.
    pub rate_per_s: f64,
    /// A batch slower than this, timed from its due time, is late.
    pub limit_us: f64,
}

/// One benchmark workload: a traffic mix against one tenant shape.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Loop type, clients and sizes in one line (printed in reports).
    pub shape: &'static str,
    pub tenants: usize,
    pub policy: &'static str,
    pub p: usize,
    pub k: usize,
    pub s: u64,
    /// Working-set size relative to the fitting shape of `bulk-fit`.
    pub ws_scale: usize,
    pub sizes: Sizes,
    /// Batches per tenant in one repetition.
    pub batches: u64,
    /// `Some` for the open-loop workload.
    pub pacing: Option<Pacing>,
    /// `recovery`: a control connection orders a kill and a migration
    /// before every batch.
    pub control: bool,
}

/// The `paced-mixed` mix ran closed-loop at 12.6M req/s (24.4k batches/s)
/// at commit d7fd000 on the 2-vCPU reference host. The frozen rate is a
/// sixth of that. At half (12k/s) the p99 moved by 21% between runs, too
/// much for a regression bound; at a third (8k/s) the p50 moved by 13% in
/// calm periods; at a sixth it stayed within 5% in calm periods, and bulk
/// batches still hold up the small ones queued behind them.
const PACED_RATE: f64 = 4_000.0;
/// Seconds of offered load in one `paced-mixed` repetition.
const PACED_SECONDS: f64 = 1.6;

pub const ALL: [Workload; 6] = [
    Workload {
        name: "bulk-fit",
        shape: "closed loop, 2 clients, det-par p=4 k=64 s=16, 4x1250 req/batch, working sets fit",
        tenants: 2,
        policy: "det-par",
        p: 4,
        k: 64,
        s: 16,
        ws_scale: 1,
        sizes: Sizes::One(1250),
        batches: 1600,
        pacing: None,
        control: false,
    },
    Workload {
        name: "thrash-randpar",
        shape: "closed loop, 2 clients, rand-par p=16 k=256 s=16, 16x500 req/batch, working sets 4x",
        tenants: 2,
        policy: "rand-par",
        p: 16,
        k: 256,
        s: 16,
        ws_scale: 4,
        sizes: Sizes::One(500),
        batches: 400,
        pacing: None,
        control: false,
    },
    Workload {
        name: "monitor-ucp",
        shape: "closed loop, 2 clients, ucp p=8 k=128 s=16, 8x500 req/batch, working sets 2x",
        tenants: 2,
        policy: "ucp",
        p: 8,
        k: 128,
        s: 16,
        ws_scale: 2,
        sizes: Sizes::One(500),
        batches: 800,
        pacing: None,
        control: false,
    },
    Workload {
        name: "tiny-batches",
        shape: "closed loop, 2 clients, det-par p=4 k=64 s=16, 4x4 req/batch",
        tenants: 2,
        policy: "det-par",
        p: 4,
        k: 64,
        s: 16,
        ws_scale: 1,
        sizes: Sizes::One(4),
        batches: 25_000,
        pacing: None,
        control: false,
    },
    Workload {
        name: "recovery",
        shape: "closed loop, 1 client + 1 control connection, thrash-randpar shape, kill@64 + migrate@128 every batch",
        tenants: 1,
        policy: "rand-par",
        p: 16,
        k: 256,
        s: 16,
        ws_scale: 4,
        sizes: Sizes::One(500),
        batches: 400,
        pacing: None,
        control: true,
    },
    Workload {
        name: "paced-mixed",
        shape: "open loop, 2 clients, exponential arrivals, 90% tiny-batches + 10% bulk-fit batches",
        tenants: 2,
        policy: "det-par",
        p: 4,
        k: 64,
        s: 16,
        ws_scale: 1,
        sizes: Sizes::Mix {
            small: 4,
            large: 1250,
            large_every: 10,
        },
        batches: (PACED_RATE / 2.0 * PACED_SECONDS) as u64,
        pacing: Some(Pacing {
            rate_per_s: PACED_RATE,
            limit_us: 2000.0,
        }),
        control: false,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// SplitMix64 finalizer: decorrelates derived seeds.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything a workload's repetitions replay, generated before timing.
pub struct Inputs {
    pub configs: Vec<TenantConfig>,
    /// `pools[t][i]`: tenant `t`'s `i`-th batch (one sequence per
    /// processor).
    pub pools: Vec<Vec<Vec<Vec<PageId>>>>,
    /// Open loop only: offered batches per second per tenant.
    rate_per_tenant: Option<f64>,
}

impl Inputs {
    /// Tenant `t`'s batch `b` (the pool, replayed cyclically).
    pub fn batch(&self, t: usize, b: u64) -> &[Vec<PageId>] {
        let pool = &self.pools[t];
        &pool[(b % pool.len() as u64) as usize]
    }

    /// Open loop only: tenant `t`'s send times of repetition `rep`,
    /// relative to the start of its timed phase. Each repetition draws its
    /// own arrivals, so the median over repetitions averages over bursts.
    pub fn dues(&self, t: usize, rep: usize, n: u64) -> Option<Vec<Duration>> {
        let rate = self.rate_per_tenant?;
        let seed = mix(self.configs[t].seed ^ mix(0xa11 + rep as u64));
        Some(exponential_arrivals(seed, rate, n))
    }

    /// Page requests in tenant `t`'s batch `b`.
    pub fn requests(&self, t: usize, b: u64) -> u64 {
        self.batch(t, b).iter().map(|s| s.len() as u64).sum()
    }
}

impl Workload {
    fn tenant_seed(&self, seed: u64, t: usize) -> u64 {
        mix(seed ^ fnv1a64(self.name.as_bytes()) ^ mix(t as u64))
    }

    /// The configuration tenant `t` declares in its `Hello`.
    pub fn config(&self, seed: u64, t: usize) -> TenantConfig {
        TenantConfig {
            tenant: format!("{}-{t}", self.name),
            p: self.p,
            k: self.k,
            s: self.s,
            policy: self.policy.to_string(),
            seed: self.tenant_seed(seed, t),
            shards: SHARDS,
        }
    }

    /// One batch: per processor a cyclic, zipf or uniform sequence over a
    /// working set `ws_scale` times the size that fits the cache.
    fn gen_batch(&self, seed: u64, len: usize) -> Vec<Vec<PageId>> {
        let (k, f) = (self.k, self.ws_scale);
        let specs: Vec<SeqSpec> = (0..self.p)
            .map(|x| match x % 3 {
                0 => SeqSpec::Cyclic {
                    width: (k / 8).max(2) * f,
                    len,
                },
                1 => SeqSpec::Zipf {
                    universe: (k / 2).max(4) * f,
                    theta: 0.9,
                    len,
                },
                _ => SeqSpec::Uniform {
                    universe: (2 * k / self.p).max(2) * f,
                    len,
                },
            })
            .collect();
        build_workload(&specs, seed).seqs().to_vec()
    }

    /// Generates every tenant's configuration and batch pool.
    pub fn inputs(&self, seed: u64, pool: usize) -> Inputs {
        let mut inputs = Inputs {
            configs: Vec::new(),
            pools: Vec::new(),
            rate_per_tenant: self.pacing.map(|p| p.rate_per_s / self.tenants as f64),
        };
        for t in 0..self.tenants {
            let ts = self.tenant_seed(seed, t);
            inputs.configs.push(self.config(seed, t));
            inputs.pools.push(
                (0..pool as u64)
                    .map(|i| {
                        let len = match self.sizes {
                            Sizes::One(len) => len,
                            Sizes::Mix {
                                small,
                                large,
                                large_every,
                            } => {
                                if (i + mix(ts) % large_every) % large_every == 0 {
                                    large
                                } else {
                                    small
                                }
                            }
                        };
                        self.gen_batch(mix(ts ^ mix(i.wrapping_add(1))), len)
                    })
                    .collect(),
            );
        }
        inputs
    }
}

/// `n` send times of a Poisson process with `rate` arrivals per second.
fn exponential_arrivals(seed: u64, rate: f64, n: u64) -> Vec<Duration> {
    let mut state = seed;
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            state = mix(state);
            // Uniform in (0, 1]: never ln(0).
            let u = ((state >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at += -u.ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}
