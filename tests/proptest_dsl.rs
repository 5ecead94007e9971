//! Property-based tests of the DSL front end: printing and re-parsing
//! round-trips, affine index extraction, and program-level parsing.
//! Loops are drawn as source text and parsed, so every tree the
//! properties see is one the parser builds.

use proptest::prelude::*;

use raco::ir::dsl;
use raco::ir::pretty;

/// Strategy: the source text of a random expression over the loop
/// variable `i`, scalars and array elements (depth-limited). An
/// operation is written with or without parentheses around it, so the
/// parsed trees nest chains to the left and to the right, mix
/// precedences and run several operators in one chain, and the printer
/// must choose every parenthesis itself.
fn expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        // A negative literal parses as a negation.
        (-30i64..=30).prop_map(|n| n.to_string()),
        Just("i".to_owned()),
        Just("s".to_owned()),
        (-6i64..=6).prop_map(|d| format!("A[i + {d}]")),
        (-6i64..=6).prop_map(|d| format!("B[{d} - i]")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a} + {b}")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a} - {b}")),
            // Multiplication only by a constant keeps indices affine.
            (inner.clone(), -4i64..=4).prop_map(|(a, c)| format!("({a} * {c})")),
            (inner.clone(), -4i64..=4).prop_map(|(a, c)| format!("{a} * {c}")),
            inner.prop_map(|e| format!("-({e})")),
        ]
    })
}

/// Strategy: the source text of a constant expression with all four
/// operators, with or without parentheses around each operation.
fn constant() -> impl Strategy<Value = String> {
    (1i64..=9)
        .prop_map(|n| n.to_string())
        .prop_recursive(3, 16, 2, |inner| {
            (inner.clone(), inner, 0usize..8).prop_map(|(a, b, shape)| {
                let op = ["+", "-", "*", "/"][shape % 4];
                if shape < 4 {
                    format!("({a} {op} {b})")
                } else {
                    format!("{a} {op} {b}")
                }
            })
        })
}

fn stmt() -> impl Strategy<Value = String> {
    (
        prop_oneof![
            Just("acc".to_owned()),
            (-4i64..=4).prop_map(|d| format!("Y[i + {d}]")),
        ],
        prop_oneof![Just("="), Just("+="), Just("-="), Just("*=")],
        expr(),
    )
        .prop_map(|(lhs, op, rhs)| format!("{lhs} {op} {rhs};"))
}

/// Strategy: the source text of a loop over `i` with one to five
/// statements, its update in every form the parser accepts.
fn for_loop() -> impl Strategy<Value = String> {
    (
        -8i64..=8,
        1i64..=200,
        prop_oneof![
            Just("i++".to_owned()),
            Just("i--".to_owned()),
            (2i64..=4).prop_map(|k| format!("i += {k}")),
            (2i64..=4).prop_map(|k| format!("i -= {k}")),
            (2i64..=4).prop_map(|k| format!("i = i + {k}")),
            (2i64..=4).prop_map(|k| format!("i = i - {k}")),
        ],
        prop::collection::vec(stmt(), 1..=5),
    )
        .prop_map(|(start, bound, update, body)| {
            let up = update == "i++" || update.contains('+');
            let cmp = if up { "<" } else { ">" };
            format!(
                "for (i = {start}; i {cmp} {bound}; {update}) {{ {} }}",
                body.join(" ")
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn print_parse_round_trip_preserves_semantics(source in for_loop()) {
        let (unit, ast) = dsl::parse_for(&source)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}\n{source}"));
        let printed = pretty::print_for(&unit, &ast);
        let (reunit, reparsed) = dsl::parse_for(&printed)
            .unwrap_or_else(|e| panic!("printed source must re-parse: {e}\n{printed}"));
        // Compare lowered semantics (spans differ); both may fail to
        // lower only in exactly the same way (e.g. mixed coefficients).
        match (dsl::lower_unit_loop(&unit, &ast), dsl::lower_unit_loop(&reunit, &reparsed)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "printed:\n{}", printed),
            (Err(ea), Err(eb)) => prop_assert_eq!(ea.kind(), eb.kind()),
            (a, b) => prop_assert!(false, "lowering diverged: {:?} vs {:?}", a, b),
        }
        // Printing is a fixed point after one round: the printed text
        // parses to a tree that prints the same.
        prop_assert_eq!(pretty::print_for(&reunit, &reparsed), printed.clone(), "source:\n{}", source);
    }

    #[test]
    fn printing_keeps_the_value_of_constant_expressions(bound in constant()) {
        // An inner level's bound sets the nest's trip count, so a
        // printed bound that reparses to another value lowers
        // differently.
        let source = format!(
            "for (j = 0; j < 2; j++) {{ for (i = 0; i < {bound}; i++) {{ s += x[i]; }} }}"
        );
        let (unit, ast) = dsl::parse_for(&source).expect("generated source parses");
        let printed = pretty::print_for(&unit, &ast);
        let (reunit, reparsed) = dsl::parse_for(&printed).expect("printed source parses");
        match (dsl::lower_unit_loop(&unit, &ast), dsl::lower_unit_loop(&reunit, &reparsed)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} printed as\n{}", source, printed),
            (Err(ea), Err(eb)) => prop_assert_eq!(ea.kind(), eb.kind()),
            (a, b) => prop_assert!(false, "lowering diverged: {:?} vs {:?}\n{}", a, b, printed),
        }
    }

    #[test]
    fn affine_indices_lower_to_coefficient_and_offset(
        coeff in -5i64..=5,
        offset in -50i64..=50,
    ) {
        // Render `coeff*i + offset` in a randomly chosen textual shape.
        let index = match (coeff, offset) {
            (0, d) => format!("{d}"),
            (1, 0) => "i".to_owned(),
            (1, d) if d > 0 => format!("i + {d}"),
            (1, d) => format!("i - {}", -d),
            (-1, d) => format!("{d} - i"),
            (c, 0) => format!("{c} * i"),
            (c, d) if d > 0 => format!("{c} * i + {d}"),
            (c, d) => format!("{c} * i - {}", -d),
        };
        let src = format!("for (i = 0; i < 9; i++) {{ s = A[{index}]; }}");
        let spec = dsl::parse_loop(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let info = &spec.arrays()[0];
        let expected_coeff = if coeff == -1 && offset != 0 { -1 } else { coeff };
        prop_assert_eq!(info.coefficient(), expected_coeff, "{}", src);
        prop_assert_eq!(spec.accesses()[0].offset, offset, "{}", src);
    }

    #[test]
    fn programs_concatenate_loops(count in 1usize..=4) {
        let src: String = (0..count)
            .map(|j| format!("for (i = 0; i < 8; i++) {{ y[i] = x[i + {j}]; }}\n"))
            .collect();
        let loops = dsl::parse_program(&src).expect("valid program");
        prop_assert_eq!(loops.len(), count);
        for (j, spec) in loops.iter().enumerate() {
            let expected_name = format!("loop{j}");
            prop_assert_eq!(spec.name(), expected_name.as_str());
            let x = spec.pattern_for(spec.array_id("x").unwrap()).unwrap();
            prop_assert_eq!(x.offsets(), vec![j as i64]);
        }
    }

    #[test]
    fn listings_mention_every_access(source in for_loop()) {
        if let Ok(spec) = dsl::parse_loop(&source) {
            if spec.is_empty() {
                return Ok(());
            }
            let listing = pretty::print_access_listing(&spec);
            for k in 1..=spec.len() {
                prop_assert!(
                    listing.contains(&format!("a_{k} ")),
                    "listing lacks a_{k}:\n{listing}"
                );
            }
        }
    }
}
