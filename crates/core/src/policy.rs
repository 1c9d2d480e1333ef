//! The policy registry: the one place a box policy's name maps to its
//! constructor.
//!
//! Every front end that takes a policy by name — the CLI, the tenant
//! server, the conformance oracle, the chaos harnesses, and the bench
//! suite — builds it through [`build`], so a name means the same policy,
//! with the same seeding, everywhere. `shared-lru` is not listed: it runs
//! outside the box engine (one global LRU, no allocator), so callers that
//! accept it handle it before reaching the registry.

use crate::config::ModelParams;
use crate::green::rand_green::RandGreen;
use crate::parallel::baselines::{PropMissPartition, StaticPartition};
use crate::parallel::blackbox::BlackboxGreenPacker;
use crate::parallel::det_par::DetPar;
use crate::parallel::hardened::HardenedAllocator;
use crate::parallel::rand_par::RandPar;
use crate::parallel::ucp::UcpPartition;
use crate::parallel::BoxAllocator;

/// Every box policy [`build`] knows, in report order.
pub const NAMES: &[&str] = &[
    "det-par",
    "rand-par",
    "static",
    "prop-miss",
    "ucp",
    "bb-green",
];

/// Builds the named box policy, or `None` for a name not in [`NAMES`].
///
/// Deterministic: two calls with equal arguments produce policies in
/// byte-identical states, which is the contract a supervisor's retry
/// factory relies on. `seed` drives the randomized policies (`rand-par`,
/// and `bb-green`, whose processor `i` runs RAND-GREEN seeded `seed ^ i`).
/// `hardened` wraps the policy in [`HardenedAllocator`] with budget `k`,
/// so it reacts to memory-pressure faults instead of tripping the
/// engine's limit.
pub fn build(
    name: &str,
    params: &ModelParams,
    seed: u64,
    hardened: bool,
) -> Option<Box<dyn BoxAllocator>> {
    fn wrap<A: BoxAllocator + 'static>(
        alloc: A,
        params: &ModelParams,
        hardened: bool,
    ) -> Box<dyn BoxAllocator> {
        if hardened {
            Box::new(HardenedAllocator::new(alloc, params.k))
        } else {
            Box::new(alloc)
        }
    }
    Some(match name {
        "det-par" => wrap(DetPar::new(params), params, hardened),
        "rand-par" => wrap(RandPar::new(params, seed), params, hardened),
        "static" => wrap(StaticPartition::new(params), params, hardened),
        "prop-miss" => wrap(PropMissPartition::new(params), params, hardened),
        "ucp" => wrap(UcpPartition::new(params), params, hardened),
        "bb-green" => {
            let pagers: Vec<RandGreen> = (0..params.p as u64)
                .map(|i| RandGreen::new(params, seed ^ i))
                .collect();
            wrap(BlackboxGreenPacker::new(params, pagers), params, hardened)
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapage_cache::{ProcId, SnapWriter};

    fn checkpoint_bytes(alloc: &dyn BoxAllocator) -> Vec<u8> {
        let mut w = SnapWriter::new();
        alloc
            .checkpoint(&mut w)
            .expect("registry policies checkpoint");
        w.into_bytes()
    }

    /// Asks for one grant per processor at each of a few timestamps, so
    /// the checkpoint covers post-construction state too.
    fn drive(alloc: &mut dyn BoxAllocator, p: usize) {
        for now in [0, 40, 80] {
            for x in 0..p {
                alloc.grant(ProcId(x as u32), now);
            }
        }
    }

    #[test]
    fn every_name_builds_plain_and_hardened() {
        let params = ModelParams::new(4, 32, 8);
        for &name in NAMES {
            for hardened in [false, true] {
                let alloc = build(name, &params, 7, hardened)
                    .unwrap_or_else(|| panic!("{name} (hardened={hardened}) must build"));
                assert!(!alloc.name().is_empty());
            }
        }
    }

    #[test]
    fn equal_arguments_build_byte_identical_policies() {
        let params = ModelParams::new(4, 32, 8);
        for &name in NAMES {
            for hardened in [false, true] {
                let mut a = build(name, &params, 11, hardened).unwrap();
                let mut b = build(name, &params, 11, hardened).unwrap();
                assert_eq!(
                    checkpoint_bytes(&*a),
                    checkpoint_bytes(&*b),
                    "{name} (hardened={hardened}) fresh state"
                );
                drive(&mut *a, params.p);
                drive(&mut *b, params.p);
                assert_eq!(
                    checkpoint_bytes(&*a),
                    checkpoint_bytes(&*b),
                    "{name} (hardened={hardened}) after grants"
                );
            }
        }
    }

    #[test]
    fn unknown_names_and_shared_lru_are_not_box_policies() {
        let params = ModelParams::new(4, 32, 8);
        for name in ["no-such-policy", "shared-lru", "", "DET-PAR"] {
            assert!(build(name, &params, 0, false).is_none(), "{name}");
            assert!(build(name, &params, 0, true).is_none(), "{name}");
        }
    }
}
