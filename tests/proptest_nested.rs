//! Property/differential tests of the nested-loop front end, across
//! every layer:
//!
//! 1. **Lowerer vs. reference interpreter**: a generated loop nest is
//!    lowered to the flat [`LoopSpec`] and its captured address trace
//!    must equal *direct interpretation* of the parsed nest (walking the
//!    levels, evaluating every subscript against the declarations).
//!    This pins down linearization, start folding, coefficients and
//!    outer-loop carries in one equation.
//! 2. **Full pipeline**: every generated nest compiles end to end with
//!    simulator validation — so the codegen carry blocks reproduce the
//!    trace, not just the lowerer.
//! 3. **Cache soundness**: the canonical key of a flattened pattern
//!    ignores its nest metadata; an equivalent 1D pattern with the same
//!    deltas must share the key *and* the allocator's cost curve and
//!    covers (what the driver's allocation cache relies on).

use proptest::prelude::*;

use std::collections::HashMap;

use raco::core::Optimizer;
use raco::driver::{Parallelism, Pipeline, PipelineConfig};
use raco::ir::canonical::CanonicalPattern;
use raco::ir::dsl::{self, CmpOp, Expr, ExprId, ForLoop, Level, Stmt, Unit, Update};
use raco::ir::{AccessPattern, AguSpec, LoopSpec, MemoryLayout, Trace};

// ---- generator -------------------------------------------------------

/// A tiny deterministic PRNG so one `u64` seed expands into a whole
/// nest case (the offline proptest shim has no recursive struct
/// strategies; this keeps cases reproducible from the reported seed).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64 step.
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

struct LevelCase {
    var: &'static str,
    start: i64,
    stride: i64,
    trips: i64,
}

struct ArrayCase {
    name: String,
    dims: Vec<i64>,
    /// Per dimension: `(var index or usize::MAX for none, coefficient,
    /// base constant)` — fixed per array so coefficients stay uniform
    /// and only constants vary per access.
    subs: Vec<(usize, i64, i64)>,
}

struct NestCase {
    levels: Vec<LevelCase>,
    arrays: Vec<ArrayCase>,
    /// `(array index, per-dim extra constant, is_write)` per access.
    accesses: Vec<(usize, Vec<i64>, bool)>,
}

const VARS: [&str; 3] = ["i", "j", "k"];

fn build_case(seed: u64) -> NestCase {
    let mut g = Gen(seed);
    let depth = g.range(2, 3) as usize;
    let levels: Vec<LevelCase> = (0..depth)
        .map(|d| {
            let stride = *[1, -1, 2, -2].get(g.range(0, 3) as usize).unwrap();
            LevelCase {
                var: VARS[d],
                start: g.range(-2, 2),
                stride,
                trips: g.range(1, 4),
            }
        })
        .collect();
    let array_count = g.range(1, 3) as usize;
    let arrays: Vec<ArrayCase> = (0..array_count)
        .map(|n| {
            let rank = g.range(1, 3) as usize;
            let dims = (0..rank).map(|_| g.range(2, 5)).collect();
            let subs = (0..rank)
                .map(|_| {
                    // Roughly half the subscripts use an induction
                    // variable, the rest are constants.
                    let pick = g.range(0, depth as i64);
                    let var = if pick == depth as i64 {
                        usize::MAX
                    } else {
                        pick as usize
                    };
                    (var, g.range(-2, 2), g.range(0, 2))
                })
                .collect();
            ArrayCase {
                name: format!("a{n}"),
                dims,
                subs,
            }
        })
        .collect();
    let access_count = g.range(2, 6) as usize;
    let accesses = (0..access_count)
        .map(|_| {
            let array = g.range(0, array_count as i64 - 1) as usize;
            let extras = (0..arrays[array].dims.len())
                .map(|_| g.range(0, 2))
                .collect();
            (array, extras, g.next() % 4 == 0)
        })
        .collect();
    NestCase {
        levels,
        arrays,
        accesses,
    }
}

impl NestCase {
    /// Renders the case as DSL source text, so every property also
    /// exercises the lexer and parser.
    fn source(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for array in &self.arrays {
            if array.dims.len() > 1 {
                let _ = write!(out, "array {}", array.name);
                for d in &array.dims {
                    let _ = write!(out, "[{d}]");
                }
                out.push_str(";\n");
            }
        }
        for (d, level) in self.levels.iter().enumerate() {
            let bound = level.start + level.trips * level.stride;
            let cmp = if level.stride > 0 { "<" } else { ">" };
            let pad = "    ".repeat(d);
            let _ = writeln!(
                out,
                "{pad}for ({v} = {start}; {v} {cmp} {bound}; {v} += {stride}) {{",
                v = level.var,
                start = level.start,
                stride = level.stride
            );
        }
        let pad = "    ".repeat(self.levels.len());
        for (array, extras, is_write) in &self.accesses {
            let array = &self.arrays[*array];
            let mut subscripts = String::new();
            for ((var, coeff, base), extra) in array.subs.iter().zip(extras) {
                let constant = base + extra;
                if *var == usize::MAX {
                    let _ = write!(subscripts, "[{constant}]");
                } else {
                    let _ = write!(subscripts, "[{coeff} * {} + {constant}]", VARS[*var]);
                }
            }
            if *is_write {
                let _ = writeln!(out, "{pad}{}{subscripts} = acc;", array.name);
            } else {
                let _ = writeln!(out, "{pad}acc += {}{subscripts};", array.name);
            }
        }
        for d in (0..self.levels.len()).rev() {
            let _ = writeln!(out, "{}}}", "    ".repeat(d));
        }
        out
    }
}

/// Seed-driven strategy: any `u64` is a valid nest case.
fn case_seed() -> impl Strategy<Value = u64> {
    0u64..u64::MAX
}

// ---- reference interpreter -------------------------------------------

/// Directly interprets the parsed nest: walks the loop levels,
/// evaluates every subscript against the declarations, and records the
/// absolute address of each access in execution order. Shares nothing
/// with the flattening lowerer except the statement-level access
/// ordering rules.
fn interpret(unit: &Unit<'_>, ast: &ForLoop, spec: &LoopSpec, layout: &MemoryLayout) -> Vec<i64> {
    fn eval(unit: &Unit<'_>, e: ExprId, env: &HashMap<String, i64>) -> i64 {
        match unit.expr(e) {
            Expr::Num(n) => n,
            Expr::Var(v) => *env.get(v).expect("bound variable"),
            Expr::Neg(inner) => -eval(unit, inner, env),
            Expr::Chain { first, ops, rest } => {
                use raco::ir::dsl::BinOp;
                ops.iter()
                    .zip(rest)
                    .fold(eval(unit, first, env), |l, (op, &e)| {
                        let r = eval(unit, e, env);
                        match op {
                            BinOp::Add => l + r,
                            BinOp::Sub => l - r,
                            BinOp::Mul => l * r,
                            BinOp::Div => l / r,
                        }
                    })
            }
            Expr::Index { .. } => panic!("generated subscripts never nest array accesses"),
        }
    }

    fn address(
        unit: &Unit<'_>,
        spec: &LoopSpec,
        layout: &MemoryLayout,
        env: &HashMap<String, i64>,
        array: &str,
        subscripts: &[ExprId],
    ) -> i64 {
        let base = layout
            .base(spec.array_id(array).expect("lowered arrays are registered"))
            .expect("layout covers the loop's arrays");
        let dims: &[i64] = unit.decl(array).map_or(&[1][..], |d| unit.dims(d));
        let mut addr = base;
        let mut stride = 1i64;
        for (k, &index) in subscripts.iter().enumerate().rev() {
            addr += stride * eval(unit, index, env);
            stride *= dims[k];
        }
        addr
    }

    fn holds(op: CmpOp, value: i64, bound: i64) -> bool {
        match op {
            CmpOp::Lt => value < bound,
            CmpOp::Le => value <= bound,
            CmpOp::Gt => value > bound,
            CmpOp::Ge => value >= bound,
            CmpOp::Ne => value != bound,
            CmpOp::Eq => value == bound,
        }
    }

    /// Runs `levels[0]` over the levels it nests, then `body`.
    fn walk(
        unit: &Unit<'_>,
        levels: &[Level],
        body: &[Stmt],
        spec: &LoopSpec,
        layout: &MemoryLayout,
        env: &mut HashMap<String, i64>,
        out: &mut Vec<i64>,
    ) {
        let Some((level, inner)) = levels.split_first() else {
            for stmt in body {
                // Same ordering contract as the lowerer: RHS reads left
                // to right, then LHS read (compound), then LHS write.
                unit.visit_indices(stmt.rhs, &mut |name, subscripts| {
                    out.push(address(unit, spec, layout, env, name, subscripts));
                });
                if let Expr::Index { array, subscripts } = unit.expr(stmt.lhs) {
                    if stmt.op.reads_lhs() {
                        out.push(address(unit, spec, layout, env, array, subscripts));
                    }
                    out.push(address(unit, spec, layout, env, array, subscripts));
                }
            }
            return;
        };
        let start = eval(unit, level.init, env);
        let stride = match level.update {
            Update::Increment => 1,
            Update::Decrement => -1,
            Update::Step(k) => k,
        };
        let mut value = start;
        while holds(level.cond.op, value, eval(unit, level.cond.bound, env)) {
            env.insert(unit.text(level.var).to_owned(), value);
            walk(unit, inner, body, spec, layout, env, out);
            value += stride;
        }
    }

    let mut env = HashMap::new();
    let mut out = Vec::new();
    walk(
        unit,
        unit.levels(ast),
        unit.body(ast),
        spec,
        layout,
        &mut env,
        &mut out,
    );
    out
}

// ---- properties ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flattened_traces_equal_direct_interpretation(seed in case_seed()) {
        let case = build_case(seed);
        let source = case.source();
        let (unit, loops) = dsl::parse_unit(&source)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}\n{source}"));
        let ast = &loops[0];
        let spec = dsl::lower_unit_loop(&unit, ast)
            .unwrap_or_else(|e| panic!("generated nest must lower: {e}\n{source}"));
        let layout = MemoryLayout::contiguous(&spec, 0x1000, 0x400);

        let expected = interpret(&unit, ast, &spec, &layout);
        let nest = spec.nest().expect("depth >= 2 cases carry nest metadata");
        prop_assert_eq!(
            expected.len() as u64,
            nest.total_iterations() * spec.len() as u64,
            "trip-count bookkeeping matches direct execution\n{}", source
        );

        let trace = Trace::capture(&spec, &layout, u64::MAX);
        let got: Vec<i64> = trace.entries().map(|e| e.address).collect();
        prop_assert_eq!(got, expected, "flattened trace diverges for\n{}", source);
    }

    #[test]
    fn generated_nests_compile_and_validate_through_the_pipeline(seed in case_seed()) {
        let case = build_case(seed);
        let source = case.source();
        let mut config = PipelineConfig::new(AguSpec::new(6, 1).unwrap());
        config.parallelism = Parallelism::Sequential;
        let report = Pipeline::with_config(config)
            .compile_str("generated", &source)
            .unwrap_or_else(|e| panic!("generated source must compile: {e}\n{source}"));
        prop_assert_eq!(
            report.failed(), 0,
            "pipeline (incl. simulator validation of carry blocks) failed for\n{}\n{}",
            source, report.render_table()
        );
        for lr in report.loops() {
            prop_assert!(lr.measured_cost.is_some(), "validation ran\n{}", source);
            prop_assert!(lr.addresses_checked > 0, "{}", source);
        }
    }

    #[test]
    fn nested_patterns_share_cache_keys_with_equivalent_flat_loops(seed in case_seed()) {
        let case = build_case(seed);
        let source = case.source();
        let spec = dsl::parse_loop(&source)
            .unwrap_or_else(|e| panic!("generated source must lower: {e}\n{source}"));
        let k_max = 4usize;
        let optimizer = Optimizer::new(AguSpec::new(k_max, 1).unwrap());
        for pattern in spec.patterns() {
            // A plain 1D pattern with the same offsets and stride — what
            // an equivalent single loop would have produced.
            let flat = AccessPattern::from_offsets(&pattern.offsets(), pattern.stride());
            prop_assert_eq!(
                CanonicalPattern::of(&pattern),
                CanonicalPattern::of(&flat),
                "nest metadata must not leak into the cache key\n{}", source
            );
            prop_assert_eq!(
                optimizer.cost_curve(&pattern, k_max),
                optimizer.cost_curve(&flat, k_max),
                "equal keys, equal cost curves\n{}", source
            );
            for k in 1..=k_max {
                let a = optimizer.allocate_with_registers(&pattern, k);
                let b = optimizer.allocate_with_registers(&flat, k);
                prop_assert_eq!(a.cost(), b.cost(), "k = {}\n{}", k, source);
                prop_assert_eq!(a.cover().paths().len(), b.cover().paths().len());
                for (pa, pb) in a.cover().paths().iter().zip(b.cover().paths()) {
                    prop_assert_eq!(pa.indices(), pb.indices(), "{}", source);
                }
            }
        }
    }
}
