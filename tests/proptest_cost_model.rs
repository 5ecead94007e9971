//! Differential properties of the modify-register-aware cost model.
//!
//! The allocator's Phase 2 prices modify registers itself, so its
//! predicted address-update count must equal what the cycle-accurate
//! simulator measures on the generated code — on every machine,
//! including MR-equipped ones. These properties pin that end to end:
//!
//! * **differential** — random patterns × machines with 0..=4 modify
//!   registers (and, for single arrays, an `ADDA` of 1..=3 cycles):
//!   allocate, generate code, simulate, and require
//!   `predicted == measured` exactly (single- and multi-array loops,
//!   directly and through the pipeline with its cache);
//! * **monotonicity** — more modify registers never increase the
//!   predicted cost;
//! * **zero-MR identity** — on machines without modify registers the
//!   allocation is byte-identical to the pre-change model (the paper's
//!   Figure 1 reproduction cannot drift);
//! * **curve ≡ allocation** — on every built-in machine, the cost curve
//!   at `k` is the cheapest allocation with at most `k` registers;
//! * **shared merge tree ≡ independent runs** — Phase 2's one sweep
//!   over every selection (MR 0..=4 and 8, `ADDA` 1..=3, both cost
//!   models, every strategy) gives at every count the cost, cover and
//!   merge steps of the cheapest per-selection `merge_until` run;
//! * **certified optimality** — the exact oracle, pricing with the same
//!   model, never exceeds the allocator's cost nor any cost-curve entry
//!   (asymmetric free-update windows `[lo, hi]` within `[-2, 2]`,
//!   MR 0..=2, ADDA 1..=3);
//! * **cache-key soundness** — machines differing only in MR count
//!   never share allocation-cache entries, in memory or through
//!   snapshots, and pre-bump snapshots are rejected cleanly.

use proptest::prelude::*;

use raco::agu::codegen::CodeGenerator;
use raco::agu::sim;
use raco::core::{exact, phase1, phase2, CostModel, MergeStrategy, Optimizer, OptimizerOptions};
use raco::driver::{persist, AllocationCache, Pipeline, PipelineConfig};
use raco::graph::{BbOptions, DistanceModel};
use raco::ir::{
    AccessKind, AccessPattern, AguSpec, CanonicalPattern, CostTable, LoopSpec, MachineDescription,
    MemoryLayout, Trace, UpdateRange,
};

/// Strategy: a random access pattern (offsets, stride, modify range).
fn pattern() -> impl Strategy<Value = (Vec<i64>, i64, u32)> {
    (
        prop::collection::vec(-12i64..=12, 2..=10),
        prop_oneof![Just(1i64), Just(-1i64), Just(2i64), Just(-3i64), Just(5i64)],
        0u32..=2,
    )
}

/// Builds a single-array loop whose pattern is exactly `offsets`.
fn single_array_loop(offsets: &[i64], stride: i64) -> LoopSpec {
    let mut spec = LoopSpec::new("prop", "i", stride);
    let a = spec.add_array("a", 1);
    for &off in offsets {
        spec.push_access(a, off, AccessKind::Read).unwrap();
    }
    spec
}

/// Allocates `spec` on `agu`, generates code, simulates, and returns
/// `(predicted, measured)` updates per iteration.
fn predict_and_measure(spec: &LoopSpec, agu: AguSpec, iterations: u64) -> (u64, u64) {
    let alloc = Optimizer::new(agu).allocate_loop(spec).expect("allocates");
    let layout = MemoryLayout::contiguous(spec, 0x2000, 0x400);
    let program = CodeGenerator::new(agu)
        .generate(spec, &alloc, &layout)
        .expect("emits");
    let trace = Trace::capture(spec, &layout, iterations);
    let report = sim::run(&program, &trace, &agu).expect("simulates");
    (
        u64::from(alloc.total_cost()),
        report.explicit_updates_per_iteration(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The core differential: predicted address-update cycles equal the
    /// simulator's measured cycles for every machine in 0..=4 modify
    /// registers and an `ADDA` of 1..=3 cycles.
    #[test]
    fn predicted_equals_measured_across_modify_register_counts(
        (offsets, stride, m) in pattern(),
        k in 1usize..=4,
        mr in 0usize..=4,
        adda in 1u32..=3,
    ) {
        let spec = single_array_loop(&offsets, stride);
        let agu = AguSpec::new(k, m)
            .unwrap()
            .with_modify_registers(mr)
            .with_cost_table(CostTable::new(1, 1, adda).unwrap());
        let (predicted, measured) = predict_and_measure(&spec, agu, 8);
        prop_assert_eq!(
            predicted, measured,
            "K={} M={} MR={} ADDA={} offsets {:?} stride {}",
            k, m, mr, adda, &offsets, stride
        );
    }

    /// Multi-array loops pool the machine-wide modify-register budget;
    /// prediction must still match measurement exactly.
    #[test]
    fn predicted_equals_measured_for_multi_array_loops(
        (offsets_a, stride, m) in pattern(),
        offsets_b in prop::collection::vec(-12i64..=12, 2..=8),
        k in 2usize..=4,
        mr in 0usize..=4,
    ) {
        let mut spec = LoopSpec::new("prop2", "i", stride);
        let a = spec.add_array("a", 1);
        let b = spec.add_array("b", 2);
        for (pos, &off) in offsets_a.iter().enumerate() {
            spec.push_access(a, off, AccessKind::Read).unwrap();
            if let Some(&boff) = offsets_b.get(pos) {
                spec.push_access(b, boff, AccessKind::Read).unwrap();
            }
        }
        for &boff in offsets_b.iter().skip(offsets_a.len()) {
            spec.push_access(b, boff, AccessKind::Write).unwrap();
        }
        let agu = AguSpec::new(k, m).unwrap().with_modify_registers(mr);
        let (predicted, measured) = predict_and_measure(&spec, agu, 6);
        prop_assert_eq!(
            predicted, measured,
            "K={} M={} MR={} a {:?} b {:?} stride {}",
            k, m, mr, &offsets_a, &offsets_b, stride
        );
    }

    /// The pipeline's cached path validates every loop against the
    /// simulator with the strict equality check — a random pattern must
    /// never trip it, warm or cold.
    #[test]
    fn pipeline_validation_never_sees_a_cost_mismatch(
        (offsets, stride, m) in pattern(),
        mr in 0usize..=4,
    ) {
        let agu = AguSpec::new(4, m).unwrap().with_modify_registers(mr);
        let mut config = PipelineConfig::new(agu);
        config.validation_iterations = 6;
        let pipeline = Pipeline::with_config(config);
        let spec = single_array_loop(&offsets, stride);
        for round in 0..2 {
            // Second round is a warm cache hit; results must validate
            // identically.
            let (report, _) = pipeline.compile_loop(&spec);
            prop_assert!(
                report.failure.is_none(),
                "round {}: {:?} (offsets {:?} stride {} MR {})",
                round, report.failure, &offsets, stride, mr
            );
            prop_assert_eq!(report.measured_cost, Some(report.cost));
        }
    }

    /// More modify registers never increase the predicted cost.
    #[test]
    fn predicted_cost_is_monotone_in_modify_registers(
        (offsets, stride, m) in pattern(),
        k in 1usize..=4,
    ) {
        let pattern = AccessPattern::from_offsets(&offsets, stride);
        let mut last = u32::MAX;
        for mr in 0..=4usize {
            let agu = AguSpec::new(k, m).unwrap().with_modify_registers(mr);
            let cost = Optimizer::new(agu).allocate(&pattern).cost();
            prop_assert!(
                cost <= last,
                "K={} M={} MR={}: cost {} > {} with one register fewer (offsets {:?})",
                k, m, mr, cost, last, &offsets
            );
            last = cost;
        }
    }

    /// Machines without modify registers allocate byte-identically to
    /// the pre-change model — no regression to the paper reproduction.
    #[test]
    fn zero_mr_allocations_are_byte_identical_to_the_plain_model(
        (offsets, stride, m) in pattern(),
        k in 1usize..=4,
    ) {
        let pattern = AccessPattern::from_offsets(&offsets, stride);
        let agu = AguSpec::new(k, m).unwrap();
        // `new` prices the machine (zero MRs here); explicit default
        // options are the pre-change model. Identical structs means
        // identical covers, costs, merge records and trajectories.
        let via_machine = Optimizer::new(agu).allocate(&pattern);
        let pre_change = Optimizer::with_options(agu, OptimizerOptions::default())
            .allocate(&pattern);
        prop_assert_eq!(via_machine, pre_change);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On every built-in machine, the cost curve at `k` is the cheapest
    /// allocation with at most `k` registers: a budget of `k` admits any
    /// cover with fewer paths. Strides 2, 3 and 5 leave unit-range
    /// machines no zero-cost cover, so Phase 1 falls back to relaxed
    /// covers that merging below the constraint can make cheaper.
    #[test]
    fn cost_curve_is_the_running_minimum_of_allocation_costs(
        offsets in prop::collection::vec(-6i64..=6, 1..=9),
        stride in prop_oneof![Just(1i64), Just(-1i64), Just(2i64), Just(3i64), Just(-5i64)],
    ) {
        let pattern = AccessPattern::from_offsets(&offsets, stride);
        for &machine in MachineDescription::builtin_names() {
            let agu = *MachineDescription::builtin(machine).expect("built-in").spec();
            let k_max = agu.address_registers();
            let optimizer = Optimizer::new(agu);
            let curve = optimizer.cost_curve(&pattern, k_max);
            let mut running_min = u32::MAX;
            for k in 1..=k_max {
                running_min = running_min.min(optimizer.allocate_with_registers(&pattern, k).cost());
                prop_assert_eq!(
                    curve[k - 1], running_min,
                    "{} K={} curve {:?} offsets {:?} stride {}",
                    machine, k, &curve, &offsets, stride
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One shared merge tree gives, at every register count, what
    /// independent runs give: `merge_until` once per selection and count
    /// (each prices its candidates with `priced` modify registers), the
    /// cheapest under the machine's own model kept, ties to the smallest
    /// priced count. The report the sweep builds is that run's, with its
    /// costs under the machine's model: whole when the run priced the
    /// machine's own count, else its cover, its merge steps and its
    /// register counts.
    #[test]
    fn shared_sweep_matches_independent_selection_runs(
        offsets in prop::collection::vec(-8i64..=8, 1..=12),
        stride in prop_oneof![Just(1i64), Just(-1i64), Just(2i64), Just(3i64), Just(5i64)],
        range in 0u32..=2,
        mr in prop_oneof![0usize..=4, Just(8usize)],
        adda in 1u32..=3,
        paper_literal in prop::bool::ANY,
        strategy in prop_oneof![
            Just(MergeStrategy::GreedyMinCost),
            Just(MergeStrategy::FirstPair),
            Just(MergeStrategy::WorstCost),
            (0u64..4).prop_map(|seed| MergeStrategy::Random { seed }),
        ],
        k_max in 1usize..=8,
    ) {
        let base = if paper_literal { CostModel::paper_literal() } else { CostModel::steady_state() };
        let account = base.with_modify_registers(mr).with_adda_cost(adda);
        let dm = DistanceModel::from_offsets(&offsets, stride, range);
        let phase1 = phase1::run(&dm, BbOptions::default());
        let cover = phase1.cover();
        let priced: Vec<usize> = match strategy {
            MergeStrategy::GreedyMinCost => (0..=mr.min(dm.len())).collect(),
            _ => vec![mr],
        };
        let sweep = phase2::sweep(cover, 1..=k_max, &dm, account, &priced, strategy);
        for k in 1..=k_max {
            let (cost, m, reference) = priced
                .iter()
                .map(|&m| {
                    let run = phase2::merge_until(cover, k, &dm, account.with_modify_registers(m), strategy);
                    (account.cover_cost(run.cover(), &dm), m, run)
                })
                .min_by_key(|&(cost, m, _)| (cost, m))
                .expect("a selection");
            let context = format!(
                "k={k} MR={mr} ADDA={adda} literal={paper_literal} {strategy:?} range {range} \
                 offsets {offsets:?} stride {stride} winner m'={m}"
            );
            prop_assert_eq!(sweep.cost(k), cost, "{}", &context);
            let report = sweep.report(cover, k);
            prop_assert_eq!(report.final_cost(), cost, "{}", &context);
            if m == mr {
                prop_assert_eq!(&report, &reference, "{}", &context);
            } else {
                prop_assert_eq!(report.cover(), reference.cover(), "{}", &context);
                let steps = |r: &phase2::Phase2Report| -> Vec<_> {
                    r.records().iter().map(|s| (s.paths_before, s.merged_lengths, s.merged_path_cost)).collect()
                };
                prop_assert_eq!(steps(&report), steps(&reference), "{}", &context);
                let counts = |r: &phase2::Phase2Report| -> Vec<usize> {
                    r.cost_trajectory().iter().map(|&(registers, _)| registers).collect()
                };
                prop_assert_eq!(counts(&report), counts(&reference), "{}", &context);
                prop_assert_eq!(report.cost_trajectory()[0].1, account.cover_cost(cover, &dm));
            }
        }
    }
}

/// Machines differing only in modify-register count must produce
/// distinct allocation-cache keys: the cost model's MR count is part of
/// the optimizer options, which are part of every key.
#[test]
fn cache_keys_distinguish_modify_register_counts() {
    let cache = AllocationCache::new();
    let canonical = CanonicalPattern::from_offsets(&[0, 10, 20, 30], 1);
    let pattern = AccessPattern::from_offsets(&[0, 10, 20, 30], 1);
    let mut computed = 0u32;
    for mr in [0usize, 2] {
        let agu = AguSpec::new(1, 1).unwrap().with_modify_registers(mr);
        let optimizer = Optimizer::new(agu);
        let _ = cache.allocation(
            &canonical,
            raco_ir::UpdateRange::symmetric(1),
            1,
            optimizer.options(),
            || {
                computed += 1;
                optimizer.allocate(&pattern)
            },
        );
    }
    assert_eq!(computed, 2, "each machine must compute its own entry");
    let stats = cache.stats();
    assert_eq!(stats.allocation_misses, 2);
    assert_eq!(stats.allocation_entries, 2);
}

/// A snapshot saved under one modify-register count must not warm-hit a
/// pipeline targeting another MR count — and must fully warm-hit the
/// same machine.
#[test]
fn snapshots_do_not_cross_modify_register_machines() {
    let source = "for (i = 0; i < 32; i++) { s += x[i] + x[i + 10] + x[i + 20]; }";
    let dir = std::env::temp_dir();
    let path = dir.join(format!("raco-mr-key-test-{}.snap", std::process::id()));

    let plain = Pipeline::new(AguSpec::new(2, 1).unwrap());
    let report = plain.compile_str("warm", source).unwrap();
    assert_eq!(report.failed(), 0);
    plain.save_cache(&path).unwrap();

    // Same machine: the first batch after boot is all hits.
    let same = Pipeline::new(AguSpec::new(2, 1).unwrap());
    same.load_cache(&path).unwrap();
    let warm = same.compile_str("warm", source).unwrap();
    assert_eq!(warm.cache.allocation_misses, 0, "{:?}", warm.cache);
    assert!(warm.cache.allocation_hits > 0);

    // A machine differing only in MR count: every allocation recomputes
    // (a false hit would replay MR-blind covers and costs).
    let other = Pipeline::new(AguSpec::new(2, 1).unwrap().with_modify_registers(2));
    other.load_cache(&path).unwrap();
    let cross = other.compile_str("warm", source).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(cross.failed(), 0);
    assert!(
        cross.cache.allocation_misses > 0,
        "MR-equipped machine must not reuse MR-blind snapshot entries: {:?}",
        cross.cache
    );
    assert_eq!(cross.cache.allocation_hits, 0, "{:?}", cross.cache);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The exact oracle scores every cover with the allocator's own cost
    /// model, modify registers, multi-cycle `ADDA` and asymmetric
    /// free-update windows (bwdsp's `[0, 1]`, saris's `[0, 0]`) included,
    /// so the two-phase heuristic can never come in below the optimum.
    #[test]
    fn exact_optimum_never_exceeds_the_allocators_cost(
        offsets in prop::collection::vec(-12i64..=12, 2..=8),
        stride in prop_oneof![Just(1i64), Just(-1i64), Just(2i64), Just(-3i64)],
        lo in -2i64..=0,
        hi in 0i64..=2,
        k in 1usize..=3,
        mr in 0usize..=2,
        adda in 1u32..=3,
    ) {
        let model = CostModel::steady_state()
            .with_modify_registers(mr)
            .with_adda_cost(adda);
        let range = UpdateRange::new(lo, hi).unwrap();
        let dm = DistanceModel::from_offsets_range(&offsets, stride, range);
        let agu = AguSpec::new(k, 0)
            .unwrap()
            .with_update_range(range)
            .with_modify_registers(mr);
        let optimizer = Optimizer::new(agu).cost_model(model);
        let heuristic = optimizer.allocate_model(dm.clone()).cost();
        let (optimum, cover) = exact::optimal_allocation(&dm, k, model);
        prop_assert!(cover.register_count() <= k);
        prop_assert!(
            optimum <= heuristic,
            "optimum {} > heuristic {}: K={} window [{}, {}] MR={} ADDA={} offsets {:?} stride {}",
            optimum, heuristic, k, lo, hi, mr, adda, &offsets, stride
        );
        // Every curve entry is the cost of some allocation with at most
        // that many registers, so the optimum bounds it too.
        let curve = optimizer.cost_curve(&AccessPattern::from_offsets(&offsets, stride), k);
        for (registers, &entry) in (1..=k).zip(&curve) {
            let (optimum, _) = exact::optimal_allocation(&dm, registers, model);
            prop_assert!(
                optimum <= entry,
                "optimum {} > curve entry {} at {} registers: window [{}, {}] MR={} ADDA={} \
                 offsets {:?} stride {}",
                optimum, entry, registers, lo, hi, mr, adda, &offsets, stride
            );
        }
    }
}

/// Cross-version regression for the v1 → v2 snapshot bump: a
/// structurally valid version-1 file is rejected whole, with a warning,
/// and the cache stays cold.
#[test]
fn version_one_snapshots_are_rejected_by_the_version_two_reader() {
    assert_eq!(
        persist::SNAPSHOT_VERSION,
        3,
        "this regression test pins the v2 -> v3 bump; revisit it on the next bump"
    );
    // Both prior on-disk formats must be rejected whole: v1 predates
    // option-discriminated keys, v2 cannot express update ranges or
    // ADDA costs, so neither may warm-hit a v3 cache.
    for stale in [1u32, 2u32] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&persist::SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&stale.to_le_bytes()); // the pre-bump version
        bytes.extend_from_slice(&0u32.to_le_bytes()); // reserved
        bytes.push(0x00); // end marker
        let sum = persist::checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());

        let cache = AllocationCache::new();
        let report = persist::decode_into(&cache, &bytes);
        assert_eq!(report.loaded(), 0);
        assert_eq!(report.skipped, 1);
        let needle = format!("unsupported snapshot version {stale}");
        assert!(
            report.warnings[0].contains(&needle),
            "{:?}",
            report.warnings
        );
        assert_eq!(cache.stats().loaded, 0);
        assert_eq!(cache.stats().allocation_entries, 0);
    }
}
