//! System-level invariant checkers for chaos and soak runs.
//!
//! The chaos engine (`docs/CHAOS.md`) turns two of this repository's
//! foundational guarantees into properties that must hold *under sustained
//! correlated churn*:
//!
//! 1. **No uncapped pairs** — no network programme may ever contain a
//!    [`Bandwidth::INFINITY`](celestial_types::Bandwidth::INFINITY) entry,
//!    however many links chaos removes ([`check_no_uncapped`]).
//! 2. **Convergence** — once the last chaos window has recovered, the
//!    programme must be bit-identical to a fault-free reference run within
//!    one epoch ([`programme_divergence`]).
//!
//! A third checker, [`SoakMeter`], gates long soak runs: journal growth and
//! allocation counts per block must stay flat once the run reaches steady
//! state, extending the zero-steady-state-allocation capacity tests to a
//! chaos soak (`tests/tenant_alloc.rs` runs ten simulated minutes of chaos
//! through it).

use crate::coordinator::PairProgram;

/// Checks that no programmed pair is uncapped. Returns one description per
/// violating pair (empty means the invariant holds).
pub fn check_no_uncapped(programme: &[PairProgram]) -> Vec<String> {
    programme
        .iter()
        .filter(|pair| pair.bandwidth.is_infinite())
        .map(|pair| format!("uncapped pair {} <-> {}", pair.a, pair.b))
        .collect()
}

/// Compares a post-recovery programme against a fault-free reference,
/// bit-exactly. Returns one description per difference (empty means the
/// programmes have converged).
///
/// Both slices must be in the coordinator's canonical order (ascending pair
/// key), which [`Coordinator::network_programme`](crate::Coordinator::network_programme)
/// guarantees.
pub fn programme_divergence(reference: &[PairProgram], observed: &[PairProgram]) -> Vec<String> {
    let mut diffs = Vec::new();
    if reference.len() != observed.len() {
        diffs.push(format!(
            "pair count diverged: reference {} vs observed {}",
            reference.len(),
            observed.len()
        ));
    }
    for (r, o) in reference.iter().zip(observed) {
        if r != o {
            diffs.push(format!(
                "pair diverged: reference {} <-> {} ({:?}, {:?}) vs observed {} <-> {} ({:?}, {:?})",
                r.a, r.b, r.latency, r.bandwidth, o.a, o.b, o.latency, o.bandwidth
            ));
            if diffs.len() >= 16 {
                diffs.push("… further differences elided".to_owned());
                break;
            }
        }
    }
    diffs
}

/// Flatness gate for soak runs: record one `(journal_bytes, allocations)`
/// growth sample per block, then ask whether the post-warmup blocks stay
/// flat.
///
/// "Flat" means every steady-state block's growth stays within a
/// multiplicative tolerance of the first steady-state block (plus a small
/// absolute slack, so an exactly-zero baseline does not reject benign
/// one-off allocations). A leak — growth that trends upward block over
/// block — fails the gate; steady periodic work passes it.
#[derive(Debug, Clone, Default)]
pub struct SoakMeter {
    blocks: Vec<(u64, u64)>,
}

/// Absolute slack for the journal gate, bytes per block.
const JOURNAL_SLACK_BYTES: u64 = 4096;
/// Absolute slack for the allocation gate, allocations per block.
const ALLOC_SLACK: u64 = 256;

impl SoakMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        SoakMeter::default()
    }

    /// Records the growth observed during one block.
    pub fn record_block(&mut self, journal_bytes: u64, allocations: u64) {
        self.blocks.push((journal_bytes, allocations));
    }

    /// The recorded per-block growth samples.
    pub fn blocks(&self) -> &[(u64, u64)] {
        &self.blocks
    }

    /// Checks flatness, ignoring the first `warmup_blocks` blocks (chaos
    /// windows and buffer warm-up live there). `tolerance` is the allowed
    /// multiplicative headroom over the first steady block, e.g. `1.5`.
    ///
    /// # Errors
    ///
    /// Returns one description per violating block.
    pub fn verdict(&self, warmup_blocks: usize, tolerance: f64) -> Result<(), Vec<String>> {
        let steady = &self.blocks[self.blocks.len().min(warmup_blocks)..];
        let Some(&(journal_base, alloc_base)) = steady.first() else {
            return Err(vec![format!(
                "soak too short: {} blocks recorded, {warmup_blocks} warm-up blocks",
                self.blocks.len()
            )]);
        };
        let journal_cap = (journal_base as f64 * tolerance) as u64 + JOURNAL_SLACK_BYTES;
        let alloc_cap = (alloc_base as f64 * tolerance) as u64 + ALLOC_SLACK;
        let mut violations = Vec::new();
        for (i, &(journal, allocs)) in steady.iter().enumerate().skip(1) {
            if journal > journal_cap {
                violations.push(format!(
                    "journal growth not flat: block {} grew {journal} B (baseline {journal_base} B, cap {journal_cap} B)",
                    warmup_blocks + i
                ));
            }
            if allocs > alloc_cap {
                violations.push(format!(
                    "allocations not flat: block {} made {allocs} allocations (baseline {alloc_base}, cap {alloc_cap})",
                    warmup_blocks + i
                ));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use celestial_types::ids::NodeId;
    use celestial_types::{Bandwidth, Latency};

    fn pair(a: u32, b: u32, bandwidth: Bandwidth) -> PairProgram {
        PairProgram {
            a: NodeId::satellite(0, a),
            b: NodeId::satellite(0, b),
            latency: Latency::from_micros(1_000),
            bandwidth,
        }
    }

    #[test]
    fn uncapped_pairs_are_reported() {
        let ok = vec![pair(0, 1, Bandwidth::from_kbps(10_000))];
        assert!(check_no_uncapped(&ok).is_empty());
        let bad = vec![
            pair(0, 1, Bandwidth::from_kbps(10_000)),
            pair(0, 2, Bandwidth::INFINITY),
        ];
        let violations = check_no_uncapped(&bad);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("uncapped"), "{violations:?}");
    }

    #[test]
    fn divergence_is_empty_for_identical_programmes() {
        let a = vec![pair(0, 1, Bandwidth::from_kbps(5_000)), pair(0, 2, Bandwidth::from_kbps(7_000))];
        assert!(programme_divergence(&a, &a.clone()).is_empty());
    }

    #[test]
    fn divergence_reports_count_and_content_differences() {
        let reference = vec![pair(0, 1, Bandwidth::from_kbps(5_000))];
        let longer = vec![
            pair(0, 1, Bandwidth::from_kbps(5_000)),
            pair(0, 2, Bandwidth::from_kbps(5_000)),
        ];
        assert!(!programme_divergence(&reference, &longer).is_empty());
        let changed = vec![pair(0, 1, Bandwidth::from_kbps(6_000))];
        let diffs = programme_divergence(&reference, &changed);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("diverged"), "{diffs:?}");
    }

    #[test]
    fn soak_meter_accepts_flat_growth_and_rejects_leaks() {
        let mut flat = SoakMeter::new();
        for _ in 0..10 {
            flat.record_block(100_000, 1_000);
        }
        assert!(flat.verdict(2, 1.5).is_ok());

        let mut leaky = SoakMeter::new();
        for i in 0..10u64 {
            leaky.record_block(100_000 + i * 50_000, 1_000 + i * 10_000);
        }
        let violations = leaky.verdict(2, 1.5).unwrap_err();
        assert!(violations.iter().any(|v| v.contains("journal")), "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("allocations")), "{violations:?}");
    }

    #[test]
    fn soak_meter_rejects_runs_shorter_than_the_warmup() {
        let mut meter = SoakMeter::new();
        meter.record_block(1, 1);
        assert!(meter.verdict(4, 1.5).is_err());
    }

    #[test]
    fn zero_baselines_tolerate_only_the_absolute_slack() {
        let mut meter = SoakMeter::new();
        meter.record_block(0, 0);
        meter.record_block(0, 0);
        meter.record_block(ALLOC_SLACK, ALLOC_SLACK);
        assert!(meter.verdict(0, 1.5).is_ok());
        let mut leak = SoakMeter::new();
        leak.record_block(0, 0);
        leak.record_block(JOURNAL_SLACK_BYTES * 10, 0);
        assert!(leak.verdict(0, 1.5).is_err());
    }
}
