//! The allocator's phase histograms in the process-global metrics
//! registry. This is its own test binary so that no other test in the
//! process runs Phase 1 or Phase 2 while the exact counts are asserted.

use raco_core::Optimizer;
use raco_ir::{AccessPattern, AguSpec};

#[test]
fn core_phase_histograms_accumulate() {
    let counts = || {
        let registry = raco_obs::global();
        let phase1 = registry.histogram("core.phase1").snapshot().count;
        let phase2 = registry.histogram("core.phase2").snapshot().count;
        (phase1, phase2)
    };
    let paper_pattern = AccessPattern::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1);
    let before = counts();
    let _ = Optimizer::new(AguSpec::new(2, 1).unwrap()).allocate(&paper_pattern);
    assert_eq!(
        counts(),
        (before.0 + 1, before.1 + 1),
        "one run of each phase per allocation"
    );
    // A whole cost curve is one Phase-2 observation, modify registers
    // included: one sweep prices every selection and every count.
    let before = counts();
    let mr = Optimizer::new(AguSpec::new(4, 1).unwrap().with_modify_registers(2));
    let _ = mr.cost_curve(&paper_pattern, 4);
    assert_eq!(counts(), (before.0 + 1, before.1 + 1), "one run per curve");
}
