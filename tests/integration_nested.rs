//! End-to-end integration of the multi-dimensional kernels through the
//! pipeline: golden expectations for `conv2d` / `transpose` /
//! `stencil5`, simulator-validated listings with carry blocks,
//! warm-cache and fresh-pipeline byte-identical reports, and warm-cache
//! hits on a repeated request observed through `CacheStats`.

use raco::core::Optimizer;
use raco::driver::{Parallelism, Pipeline, PipelineConfig};
use raco::ir::AguSpec;
use raco::kernels;

fn pipeline(k: usize) -> Pipeline {
    let mut config = PipelineConfig::new(AguSpec::new(k, 1).unwrap());
    config.parallelism = Parallelism::Sequential;
    config.listings = true;
    Pipeline::with_config(config)
}

/// The three nested kernels as one compilation unit.
fn nested_unit() -> (String, String) {
    let source = [kernels::conv2d(), kernels::transpose(), kernels::stencil5()]
        .iter()
        .map(|k| k.source().to_owned())
        .collect::<Vec<_>>()
        .join("\n");
    ("nested.dsp".to_owned(), source)
}

#[test]
fn the_kernel_suite_lists_the_new_multi_dimensional_kernels() {
    let names: Vec<String> = kernels::suite()
        .iter()
        .map(|k| k.name().to_owned())
        .collect();
    for name in ["conv2d", "transpose", "stencil5"] {
        assert!(names.contains(&name.to_owned()), "suite lacks {name}");
    }
    // And they ride along in the batch workload program.
    let program = kernels::suite_program();
    assert!(program.contains("array img[18][16];"));
    assert!(program.contains("dst[j][i] = src[i][j];"));
}

#[test]
fn nested_kernels_compile_with_simulator_validated_listings() {
    let report = pipeline(4)
        .compile_units(&[nested_unit()])
        .expect("nested kernels parse");
    assert_eq!(report.loop_count(), 3);
    assert_eq!(report.failed(), 0, "table:\n{}", report.render_table());

    let suite = kernels::suite();
    for (lr, name) in report.loops().zip(["conv2d", "transpose", "stencil5"]) {
        // Validation simulated the whole nest — every access of every
        // flattened iteration checked against the reference trace.
        let kernel = suite.iter().find(|k| k.name() == name).unwrap();
        let total = kernel.spec().nest().unwrap().total_iterations();
        assert_eq!(lr.measured_cost, Some(lr.cost), "{name}");
        assert_eq!(
            lr.addresses_checked,
            total * lr.accesses as u64,
            "{name}: full-nest validation"
        );
        let listing = lr.listing.as_deref().expect("listings requested");
        assert!(listing.contains("; prologue"), "{name}");
    }

    // Golden structural facts per kernel. conv2d flattens exactly (no
    // carry block, zero steady-state cost on K = 4: three row chains
    // plus the output all step freely).
    let conv = &report.units[0].loops[0];
    assert_eq!(conv.name, "loop0");
    assert_eq!(conv.accesses, 10);
    assert_eq!(conv.arrays, 2);
    assert_eq!(conv.cost, 0, "conv2d rows chain for free on K = 4");
    assert!(
        !conv
            .listing
            .as_deref()
            .unwrap()
            .contains("outer-loop carry"),
        "conv2d needs no carry block"
    );

    // transpose and stencil5 carry at row boundaries; their listings
    // must contain the carry block with the lowered deltas.
    let transpose = &report.units[0].loops[1];
    let listing = transpose.listing.as_deref().unwrap();
    assert!(
        listing.contains("; outer-loop carry (every 16 iteration(s))"),
        "transpose listing lacks its carry block:\n{listing}"
    );
    assert!(
        listing.contains("ADDA") && listing.contains("#-255"),
        "transpose carries 1 - 16*16 = -255:\n{listing}"
    );

    let stencil = &report.units[0].loops[2];
    let listing = stencil.listing.as_deref().unwrap();
    assert!(
        listing.contains("; outer-loop carry (every 14 iteration(s))"),
        "stencil5 listing lacks its carry block:\n{listing}"
    );
    assert!(
        listing.contains("#2"),
        "stencil5 carries 2 per row:\n{listing}"
    );
}

#[test]
fn nested_kernels_cache_on_and_off_are_byte_identical() {
    // A repeated request served from the warm cache (on) and the same
    // request computed on a fresh pipeline (off) agree byte for byte,
    // and each cost is the memo-less Optimizer::allocate_loop's.
    let warm = pipeline(4);
    warm.compile_units(&[nested_unit()]).unwrap();
    let misses = warm.cache_stats().allocation_misses;
    let cached = warm.compile_units(&[nested_unit()]).unwrap();
    assert_eq!(cached.cache.allocation_misses, misses, "served from cache");
    let fresh = pipeline(4).compile_units(&[nested_unit()]).unwrap();
    assert!(fresh.cache.allocation_misses > 0, "computed fresh");
    assert_eq!(cached.loop_count(), fresh.loop_count());
    for (a, b) in cached.loops().zip(fresh.loops()) {
        assert_eq!(a, b, "{} diverges between cache modes", a.name);
    }
    // Reports carry the listings, so equality above is byte-for-byte
    // including generated programs and carry blocks.
    assert_eq!(
        cached.units[0].listing, fresh.units[0].listing,
        "assembled unit listings identical"
    );
    let optimizer = Optimizer::new(AguSpec::new(4, 1).unwrap());
    let suite = kernels::suite();
    for (lr, name) in cached.loops().zip(["conv2d", "transpose", "stencil5"]) {
        let kernel = suite.iter().find(|k| k.name() == name).unwrap();
        let direct = optimizer
            .allocate_loop(kernel.spec())
            .expect("nested kernels fit K = 4");
        assert_eq!(lr.cost, u64::from(direct.total_cost()), "{name}");
    }
}

#[test]
fn repeated_nested_requests_hit_the_warm_cache() {
    let pipeline = pipeline(4);
    let first = pipeline.compile_units(&[nested_unit()]).unwrap();
    let (h1, m1) = (
        first.cache.allocation_hits + first.cache.curve_hits,
        first.cache.allocation_misses + first.cache.curve_misses,
    );
    let second = pipeline.compile_units(&[nested_unit()]).unwrap();
    let (h2, m2) = (
        second.cache.allocation_hits + second.cache.curve_hits,
        second.cache.allocation_misses + second.cache.curve_misses,
    );
    assert!(h2 > h1, "second identical request must hit ({h1} -> {h2})");
    assert_eq!(m1, m2, "…without any new misses");
    for (a, b) in first.loops().zip(second.loops()) {
        assert_eq!(a, b, "warm results equal cold results");
    }
}

#[test]
fn whole_suite_with_nested_kernels_stays_green_across_machines() {
    // K >= 4: the suite's four-array kernels need one register per
    // array just to be feasible.
    for (k, m) in [(4usize, 1u32), (8, 1), (4, 2)] {
        let mut config = PipelineConfig::new(AguSpec::new(k, m).unwrap());
        config.parallelism = Parallelism::Sequential;
        let report = Pipeline::with_config(config).compile_kernels();
        assert_eq!(
            report.failed(),
            0,
            "K={k} M={m} table:\n{}",
            report.render_table()
        );
    }
}
