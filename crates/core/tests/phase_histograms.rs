//! The allocator's phase histograms in the process-global metrics
//! registry. This is its own test binary so that no other test in the
//! process runs Phase 1 while the exact count is asserted.

use raco_core::Optimizer;
use raco_ir::{AccessPattern, AguSpec};

#[test]
fn core_phase_histograms_accumulate() {
    let opt = Optimizer::new(AguSpec::new(2, 1).unwrap());
    let paper_pattern = AccessPattern::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1);
    let before = raco_obs::global().histogram("core.phase1").snapshot().count;
    let _ = opt.allocate(&paper_pattern);
    let after = raco_obs::global().histogram("core.phase1").snapshot().count;
    assert_eq!(after, before + 1, "one Phase-1 run per allocation");
    assert!(raco_obs::global().histogram("core.phase2").snapshot().count >= 1);
}
