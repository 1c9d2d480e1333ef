//! The engine's conformance trace stream.
//!
//! Every semantically meaningful step of an engine run — a grant being
//! issued, a window of requests being served, a fault being delivered, a
//! processor completing — can be emitted as a [`TraceEvent`] through a
//! caller-supplied [`TraceSink`]. The stream is the substrate of the
//! conformance oracle in `parapage-conform`: streaming checkers replay the
//! paper's structural invariants (instantaneous memory ≤ budget, box
//! geometry, phase halving) over it, a naive reference simulator is
//! cross-checked against it event-for-event, and byte-identical replay of
//! two runs certifies determinism.
//!
//! Tracing is zero-cost when disabled: the default entry points pass
//! [`NullSink`], whose `emit` is an inlined no-op, so the event
//! constructions are dead code the optimizer removes. The engine
//! ([`crate::engine::Engine::run`] and [`crate::engine::Engine::step`]) is
//! generic over the sink, so enabling tracing costs one vector push per event and
//! nothing else.
//!
//! Events are emitted in the exact order the engine makes its decisions:
//! global time order, with fault deliveries before any decision at their
//! timestamp and completion notifications before grant decisions at equal
//! times (mirroring the engine's event heap ordering). Two runs of the same
//! `(workload, policy, seed, FaultPlan)` therefore produce identical
//! streams, which is itself one of the checked invariants.

use parapage_cache::{ProcId, Time};
use parapage_core::FaultEvent;

/// One step of an engine run, as observed on the trace stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The policy issued a grant (possibly a stall, `height == 0`).
    Grant {
        /// The granted processor.
        proc: ProcId,
        /// Decision time.
        at: Time,
        /// Granted cache height (0 = stall).
        height: usize,
        /// Grant duration.
        duration: Time,
        /// When the engine's peak-memory accounting releases the pages:
        /// the grant's end, or the completion instant when the processor
        /// finishes mid-grant. Always `at` for stalls.
        release_at: Time,
    },
    /// The window of requests served inside the grant just issued.
    Window {
        /// The serving processor.
        proc: ProcId,
        /// Window start (= the grant's decision time).
        at: Time,
        /// Requests served (hits + fetches).
        served: u64,
        /// Requests served from cache.
        hits: u64,
        /// Requests fetched from memory (the *fetch* events of the model;
        /// each costs `s` — or `s × factor` under a latency spike).
        fetches: u64,
        /// Pages evicted while serving the window, including evictions
        /// forced by the box boundary itself (cache shrink on resize, or a
        /// full flush under compartmentalized semantics).
        evictions: u64,
        /// Time consumed serving (`≤` the grant's duration).
        time_used: Time,
        /// Whether the processor's sequence completed in this window.
        finished: bool,
    },
    /// The engine deferred a grant request because the processor lies in an
    /// injected stall window (no grant was issued; the request re-fires at
    /// `until`).
    StallDeferred {
        /// The frozen processor.
        proc: ProcId,
        /// Time of the deferred request.
        at: Time,
        /// End of the stall window (when the request re-fires).
        until: Time,
    },
    /// A fault event was delivered to the policy.
    Fault {
        /// Delivery time (the first decision point at-or-after the fault's
        /// own timestamp).
        at: Time,
        /// The injected fault.
        event: FaultEvent,
    },
    /// A processor served its last request.
    Completion {
        /// The finished processor.
        proc: ProcId,
        /// Completion time.
        at: Time,
    },
    /// A phase transition of a phase-structured policy (DET-PAR). The
    /// engine itself is phase-agnostic; this marker is synthesized into the
    /// stream by the conformance harness from the policy's phase log so
    /// that streaming checkers know the base height in force at any time.
    Phase {
        /// Phase start time.
        at: Time,
        /// Base height `b = k/p_Q` of the phase.
        base_height: usize,
        /// Roster size (active processors at phase start).
        roster_len: usize,
    },
}

impl TraceEvent {
    /// The simulated time the event refers to.
    pub fn at(&self) -> Time {
        match *self {
            TraceEvent::Grant { at, .. }
            | TraceEvent::Window { at, .. }
            | TraceEvent::StallDeferred { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::Completion { at, .. }
            | TraceEvent::Phase { at, .. } => at,
        }
    }
}

/// A consumer of the engine's trace stream.
///
/// Implementations must not assume anything beyond the documented event
/// order; in particular they must tolerate multiple events at equal
/// timestamps.
pub trait TraceSink {
    /// Receives one event, in emission order.
    fn emit(&mut self, event: &TraceEvent);
}

/// The disabled sink: every emission is an inlined no-op, so untraced runs
/// pay nothing for the instrumentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn emit(&mut self, _event: &TraceEvent) {}
}

/// A sink that records the whole stream in memory, for checkers and
/// replay/differential comparison.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder, yielding the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for TraceRecorder {
    fn emit(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

/// A sink that folds the stream into a running FNV-1a fingerprint instead
/// of storing it.
///
/// Two runs emitted identical streams iff their digests and counts agree,
/// so resume-equivalence over long runs can be checked in O(1) memory. The
/// digest hashes each event's canonical `Debug` rendering — `TraceEvent`'s
/// derived `Debug` prints every field, so distinct events render
/// distinctly.
#[derive(Clone, Copy, Debug)]
pub struct DigestSink {
    digest: u64,
    count: u64,
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink::new()
    }
}

impl DigestSink {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh (empty-stream) digest.
    pub fn new() -> Self {
        DigestSink {
            digest: Self::FNV_OFFSET,
            count: 0,
        }
    }

    /// The fingerprint of the events absorbed so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// How many events were absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// `fmt::Write` adapter that FNV-hashes the formatted bytes as they are
/// produced, so [`DigestSink`] absorbs a `Debug` rendering without ever
/// materializing the string. Hashes exactly the bytes a `String` render
/// would, so digests are unchanged from the allocating implementation.
struct FnvWriter {
    digest: u64,
}

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.as_bytes() {
            self.digest ^= *b as u64;
            self.digest = self.digest.wrapping_mul(DigestSink::FNV_PRIME);
        }
        Ok(())
    }
}

impl TraceSink for DigestSink {
    fn emit(&mut self, event: &TraceEvent) {
        use std::fmt::Write;
        let mut w = FnvWriter {
            digest: self.digest,
        };
        let _ = write!(w, "{event:?}");
        self.digest = w.digest;
        // Separator byte so event boundaries can't alias.
        self.digest ^= 0xff;
        self.digest = self.digest.wrapping_mul(Self::FNV_PRIME);
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_emission_order() {
        let mut rec = TraceRecorder::new();
        let a = TraceEvent::Completion {
            proc: ProcId(0),
            at: 5,
        };
        let b = TraceEvent::Grant {
            proc: ProcId(1),
            at: 5,
            height: 4,
            duration: 40,
            release_at: 45,
        };
        rec.emit(&a);
        rec.emit(&b);
        assert_eq!(rec.events(), &[a, b]);
        assert_eq!(rec.len(), 2);
        assert!(!rec.is_empty());
    }

    #[test]
    fn event_times_are_exposed() {
        let ev = TraceEvent::Fault {
            at: 7,
            event: FaultEvent::LatencySpike {
                from: 7,
                until: 9,
                factor: 2,
            },
        };
        assert_eq!(ev.at(), 7);
        assert_eq!(
            TraceEvent::Phase {
                at: 11,
                base_height: 8,
                roster_len: 4
            }
            .at(),
            11
        );
    }

    #[test]
    fn digest_sink_distinguishes_streams() {
        let a = TraceEvent::Completion {
            proc: ProcId(0),
            at: 5,
        };
        let b = TraceEvent::Completion {
            proc: ProcId(1),
            at: 5,
        };
        let mut d1 = DigestSink::new();
        let mut d2 = DigestSink::new();
        d1.emit(&a);
        d1.emit(&b);
        d2.emit(&a);
        d2.emit(&b);
        assert_eq!(d1.digest(), d2.digest());
        assert_eq!(d1.count(), 2);
        let mut d3 = DigestSink::new();
        d3.emit(&b);
        d3.emit(&a);
        assert_ne!(d1.digest(), d3.digest(), "order must matter");
    }

    /// The allocation-free digest must equal an FNV over the materialized
    /// `Debug` string — the exact bytes the original implementation hashed
    /// (digest stability across the rewrite).
    #[test]
    fn digest_matches_string_render() {
        let events = [
            TraceEvent::Grant {
                proc: ProcId(2),
                at: 17,
                height: 8,
                duration: 80,
                release_at: 97,
            },
            TraceEvent::Window {
                proc: ProcId(2),
                at: 17,
                served: 12,
                hits: 9,
                fetches: 3,
                evictions: 1,
                time_used: 39,
                finished: false,
            },
            TraceEvent::Fault {
                at: 20,
                event: FaultEvent::MemoryPressure {
                    at: 20,
                    new_limit: 16,
                },
            },
        ];
        let mut sink = DigestSink::new();
        let mut want = DigestSink::FNV_OFFSET;
        for ev in &events {
            sink.emit(ev);
            for b in format!("{ev:?}").as_bytes() {
                want ^= *b as u64;
                want = want.wrapping_mul(DigestSink::FNV_PRIME);
            }
            want ^= 0xff;
            want = want.wrapping_mul(DigestSink::FNV_PRIME);
        }
        assert_eq!(sink.digest(), want);
        assert_eq!(sink.count(), 3);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut sink = NullSink;
        sink.emit(&TraceEvent::Completion {
            proc: ProcId(3),
            at: 0,
        });
    }
}
