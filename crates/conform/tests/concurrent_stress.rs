//! Pool-width stress for the locked sharded cache, `ShardedCache<LruCache>`:
//! the same stress body runs under worker widths 1, 2, and 8 (the knob
//! `PARAPAGE_THREADS` sets, overridden here with the scoped guard so the
//! test is self-contained). Every pool unit keeps its own op ledger; at join the
//! ledgers are reconciled against the cache's final state and against
//! the sequential policy — nothing is allowed to go missing, duplicate, or
//! reorder in a way the sequential model cannot explain.

use std::collections::HashSet;

use parapage_cache::{Access, LruCache, PageId, ShardedCache};
use parapage_conform::check_sharded_ledgers;
use rayon::pool::{self, Tasks, Unit};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const UNITS: usize = 8;
const OPS: usize = 600;

fn p(v: u64) -> PageId {
    PageId(v)
}

/// Splitmix-style step for per-unit op streams.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// One sharded-stress unit's output: its index and its op ledger.
type UnitLedger = (usize, Vec<(PageId, Access)>);

/// Sharded LRU under fan-out: each unit hammers its own disjoint key range
/// (96 distinct keys revisited ~6x) against a no-eviction capacity, so a
/// unit's own ledger is deterministic regardless of interleaving: a miss
/// exactly on first touch, a hit ever after. At join:
///
/// 1. every per-unit ledger matches that first-touch law,
/// 2. every op is accounted for (no lost or duplicated accesses),
/// 3. the per-shard ledgers replay exactly through sequential LRU twins,
/// 4. the final residency digest is identical at every width.
#[test]
fn sharded_stress_ledgers_reconcile_at_every_width() {
    let mut baseline: Option<(usize, usize)> = None;
    for width in THREAD_COUNTS {
        let _w = pool::threads(width);
        let cache = ShardedCache::<LruCache>::with_shards(4096, 8);
        cache.set_ledger_recording(true);

        let units: Vec<Unit<'_, UnitLedger>> = (0..UNITS)
            .map(|u| {
                let cache = &cache;
                Box::new(move || {
                    let base = (u as u64) << 32;
                    let mut x = u as u64 + 1;
                    let mut ledger = Vec::with_capacity(OPS);
                    for _ in 0..OPS {
                        let page = p(base + lcg(&mut x) % 96);
                        ledger.push((page, cache.access_shared(page)));
                    }
                    vec![(u, ledger)]
                }) as Unit<'_, _>
            })
            .collect();
        let per_unit = pool::execute(Tasks { units });

        assert_eq!(per_unit.len(), UNITS, "width {width}: a unit went missing");
        let mut misses = 0usize;
        for (u, ledger) in &per_unit {
            assert_eq!(ledger.len(), OPS, "width {width}: unit {u} lost ops");
            let mut seen = HashSet::new();
            for &(page, outcome) in ledger {
                let first = seen.insert(page);
                misses += usize::from(!outcome.is_hit());
                assert_eq!(
                    outcome.is_hit(),
                    !first,
                    "width {width}: unit {u} page {page:?} broke the first-touch law"
                );
            }
        }

        let problems = check_sharded_ledgers(&cache.shard_capacities(), &cache.take_ledgers());
        assert!(problems.is_empty(), "width {width}: {problems:?}");

        // No evictions happen, so the end state is width-invariant: one
        // resident per distinct page, one miss per distinct page.
        let digest = (cache.len_shared(), misses);
        assert_eq!(digest.0, digest.1, "width {width}: residents != misses");
        match &baseline {
            None => baseline = Some(digest),
            Some(b) => assert_eq!(b, &digest, "width {width} diverged from width 1"),
        }
    }
}
