//! The DSL front end (lexer, parser, lowering) pinned byte for byte
//! (`tests/fixtures/dsl_frontend.txt`).
//!
//! Two halves:
//! * a seeded corpus of multi-loop units — 1D loops with every update
//!   form and both directions, 2D/3D nests over `array` declarations,
//!   compound assignments, comments — each loop recorded as its lowered
//!   [`LoopSpec`]: arrays with coefficients and carries, every access's
//!   offset and kind, the nest levels with their trips;
//! * hand-written invalid sources, at least one per reachable
//!   [`ParseErrorKind`], each recorded as the exact `ParseError` text
//!   with its line and column (unexpected-token texts and every
//!   overflow point included).
//!
//! Regenerate the fixture only when a front-end output changes on
//! purpose: print `front_end_cases()` into the file.

use std::fmt::Write as _;

use raco::ir::dsl;
use raco::ir::LoopSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `coeff * var + offset`, written in one of several equivalent forms.
fn affine_text(rng: &mut SmallRng, var: &str, coeff: i64, offset: i64) -> String {
    let plus = |d: i64| match d {
        0 => String::new(),
        d if d < 0 => format!(" - {}", -d),
        d => format!(" + {d}"),
    };
    match (coeff, rng.gen_range(0..4u32)) {
        (0, 0) => format!("{offset}"),
        (0, 1) => format!("({var} - {var}) * {var} + {offset}"),
        (0, _) => format!("{var} * 0 + ({offset})"),
        (1, 0) => format!("{var}{}", plus(offset)),
        (1, 1) => format!("{offset} + {var}"),
        (1, 2) => format!("({var}{}) * 1", plus(offset)),
        (1, _) => format!("-(-{var}{})", plus(-offset)),
        (-1, 0) => format!("{offset} - {var}"),
        (-1, 1) => format!("-{var}{}", plus(offset)),
        (-1, _) => format!("-({var}{})", plus(-offset)),
        (c, 0) => format!("{c} * {var}{}", plus(offset)),
        (c, 1) => format!("{var} * {c}{}", plus(offset)),
        (c, 2) => format!("({var}{}) * {c}{}", plus(1), plus(offset - c)),
        (c, _) => format!("{offset} + ({c}) * {var}"),
    }
}

/// A loop header `for (v = start; v <op> bound; <update>)` iterating
/// `trips` times (symbolic bound when `trips` is `None`, 1D only).
fn header(rng: &mut SmallRng, var: &str, trips: Option<i64>) -> String {
    let start = rng.gen_range(-4..=8i64);
    let step = [1, 1, 2, 3][rng.gen_range(0..4usize)];
    let down = rng.gen_range(0..3u32) == 0;
    let update = match (down, step, rng.gen_range(0..2u32)) {
        (false, 1, 0) => format!("{var}++"),
        (false, 1, _) => format!("{var} += 1"),
        (false, s, 0) => format!("{var} += {s}"),
        (false, s, _) => format!("{var} = {var} + {s}"),
        (true, 1, 0) => format!("{var}--"),
        (true, s, 0) => format!("{var} -= {s}"),
        (true, s, _) => format!("{var} = {var} - {s}"),
    };
    let cond = match trips {
        None => format!("{var} {} N", if down { ">" } else { "<" }),
        Some(t) => {
            let last = if down {
                start - step * (t - 1)
            } else {
                start + step * (t - 1)
            };
            match (down, rng.gen_range(0..2u32)) {
                (false, 0) => format!("{var} <= {last}"),
                (false, _) => format!("{var} < {}", last + 1),
                (true, 0) => format!("{var} >= {last}"),
                (true, _) => format!("{var} > {}", last - 1),
            }
        }
    };
    format!("for ({var} = {start}; {cond}; {update})")
}

/// Groups access texts into statements of one to three terms, each an
/// assignment, a compound assignment or an accumulation into a scalar.
fn statements(rng: &mut SmallRng, terms: &[String], indent: &str) -> String {
    let mut out = String::new();
    let mut rest = terms;
    while !rest.is_empty() {
        let take = rng.gen_range(1..=3usize).min(rest.len());
        let (stmt, tail) = rest.split_at(take);
        rest = tail;
        let op = ["=", "+=", "-=", "*="][rng.gen_range(0..4usize)];
        let joiner = [" + ", " - ", " * "][rng.gen_range(0..3usize)];
        if stmt.len() > 1 && rng.gen_range(0..2u32) == 0 {
            let _ = writeln!(out, "{indent}{} {op} {};", stmt[0], stmt[1..].join(joiner));
        } else {
            let _ = writeln!(out, "{indent}s {op} {};", stmt.join(joiner));
        }
        if rng.gen_range(0..5u32) == 0 {
            let _ = writeln!(out, "{indent}t = s * 2; // scalar only");
        }
    }
    out
}

/// One seeded multi-loop unit: 1–3 loops, each a 1D loop, a 2D nest or
/// a 3D nest, with the unit's `array` declarations up front.
fn unit_source(rng: &mut SmallRng, unit: usize) -> String {
    let mut decls = String::new();
    let mut body = String::new();
    for l in 0..rng.gen_range(1..=3usize) {
        let depth = [1, 1, 2, 2, 3][rng.gen_range(0..5usize)];
        let vars: Vec<String> = ["i", "j", "k"][..depth]
            .iter()
            .map(|v| format!("{v}{l}"))
            .collect();
        let names: Vec<String> = (0..rng.gen_range(1..=3usize))
            .map(|a| format!("{}{unit}_{l}", ["x", "h", "w"][a]))
            .collect();
        let mut terms = Vec::new();
        if depth == 1 {
            let var = &vars[0];
            for name in &names {
                let coeff = [1, 1, -1, 2, 0, 3][rng.gen_range(0..6usize)];
                // A declared 2D array may be swept along a fixed row.
                let row = (rng.gen_range(0..4u32) == 0).then(|| rng.gen_range(0..3i64));
                if row.is_some() {
                    let _ = writeln!(decls, "array {name}[3][{}];", rng.gen_range(8..=40i64));
                }
                for _ in 0..rng.gen_range(1..=4u32) {
                    let offset = rng.gen_range(-6..=6i64);
                    let index = affine_text(rng, var, coeff, offset);
                    terms.push(match row {
                        Some(r) => format!("{name}[{r}][{index}]"),
                        None => format!("{name}[{index}]"),
                    });
                }
            }
        } else {
            let trips: Vec<i64> = (0..depth).map(|_| rng.gen_range(1..=5i64)).collect();
            for name in &names {
                let dims: Vec<i64> = (0..depth).map(|_| rng.gen_range(2..=12i64)).collect();
                let _ = writeln!(
                    decls,
                    "array {name}{};",
                    dims.iter().map(|d| format!("[{d}]")).collect::<String>()
                );
                // Which variable each dimension follows: in order, or the
                // two innermost swapped (a transposed walk).
                let mut order: Vec<usize> = (0..depth).collect();
                if rng.gen_range(0..3u32) == 0 {
                    order.swap(depth - 2, depth - 1);
                }
                let coeffs: Vec<i64> = (0..depth)
                    .map(|_| [1, 1, 2, -1][rng.gen_range(0..4usize)])
                    .collect();
                for _ in 0..rng.gen_range(1..=4u32) {
                    let subscripts: String = order
                        .iter()
                        .zip(&coeffs)
                        .map(|(&v, &c)| {
                            let offset = rng.gen_range(-2..=2i64);
                            format!("[{}]", affine_text(rng, &vars[v], c, offset))
                        })
                        .collect();
                    terms.push(format!("{name}{subscripts}"));
                }
            }
            let mut headers = Vec::new();
            for (var, &t) in vars.iter().zip(&trips) {
                headers.push(header(rng, var, Some(t)));
            }
            for k in (1..terms.len()).rev() {
                terms.swap(k, rng.gen_range(0..=k));
            }
            let indent = "  ".repeat(depth);
            let mut text = String::new();
            for (d, h) in headers.iter().enumerate() {
                let _ = writeln!(text, "{}{h} {{", "  ".repeat(d));
            }
            text.push_str(&statements(rng, &terms, &indent));
            for d in (0..depth).rev() {
                let _ = writeln!(text, "{}}}", "  ".repeat(d));
            }
            body.push_str(&text);
            continue;
        }
        for k in (1..terms.len()).rev() {
            terms.swap(k, rng.gen_range(0..=k));
        }
        let trips = (rng.gen_range(0..3u32) != 0).then(|| rng.gen_range(1..=64i64));
        let _ = writeln!(body, "/* loop {l} */ {} {{", header(rng, &vars[0], trips));
        body.push_str(&statements(rng, &terms, "  "));
        body.push_str("}\n");
    }
    decls + &body
}

fn render_spec(out: &mut String, spec: &LoopSpec) {
    let _ = writeln!(
        out,
        "  {} var {} start {} stride {}",
        spec.name(),
        spec.var(),
        spec.start(),
        spec.stride()
    );
    if let Some(nest) = spec.nest() {
        let levels: Vec<String> = nest
            .levels()
            .iter()
            .map(|l| {
                format!(
                    "{} start {} stride {} trips {}",
                    l.var, l.start, l.stride, l.trips
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "    nest [{}] inner trips {}",
            levels.join("; "),
            nest.inner_trips()
        );
    }
    for info in spec.arrays() {
        let _ = writeln!(
            out,
            "    array {} coeff {} carries {:?}",
            info.name(),
            info.coefficient(),
            info.carries()
        );
    }
    let accesses: Vec<String> = spec
        .accesses()
        .iter()
        .map(|a| {
            let name = spec.array_info(a.array).expect("dense ids").name();
            format!("{name} {} {}", a.kind, a.offset)
        })
        .collect();
    let _ = writeln!(out, "    accesses [{}]", accesses.join(", "));
}

/// Invalid sources, at least one per reachable error kind, with the
/// entry point that reads them.
const ERROR_CASES: &[(&str, &str)] = &[
    // Lexical errors.
    ("program", "for (i = 0; i < 4; i++) { s += A[i] ? 1; }"),
    ("program", "for (i = 0; i < 4; i++) {\n  s += Ä[i];\n}"),
    ("program", "for (i = 0; i < 4; i++) { s += A[i]; } /* open"),
    ("program", "for (i = 0; i < 4; i++) { s += A[99999999999999999999]; }"),
    // Unexpected tokens: every token class as the found text.
    ("program", "for (i = 0; i < 4; i++) { foo }"),
    ("program", "for (i = 0; i < 4; i++) { s = A[i] 7; }"),
    ("program", "for (i = 0; i < 4; i++) { s = for; }"),
    ("program", "for (i = 0; i < 4; i++) { s = array; }"),
    ("program", "for (i = 0; i < 4; i++) { s = ); }"),
    ("program", "for (i = 0; i < 4; i++) { s = (1; }"),
    ("program", "for (i = 0; i < 4; i++) { s = {; }"),
    ("program", "for (i = 0; i < 4; i++) { s = }; }"),
    ("program", "for (i = 0; i < 4; i++) { s = [; }"),
    ("program", "for (i = 0; i < 4; i++) { s = A[i; }"),
    ("program", "for (i = 0; i < 4; i++) { s = ]; }"),
    ("program", "for (i = 0; i < 4; i++) { s = ;; }"),
    ("program", "for (i = 0; i < 4; i++) { s = +; }"),
    ("program", "for (i = 0; i < 4; i++) { s = *; }"),
    ("program", "for (i = 0; i < 4; i++) { s = / 2; }"),
    ("program", "for (i = 0; i < 4; i++) { s = = 2; }"),
    ("program", "for (i = 0; i < 4; i++) { s += += 2; }"),
    ("program", "for (i = 0; i < 4; i++) { s = -= 2; }"),
    ("program", "for (i = 0; i < 4; i++) { s = *= 2; }"),
    ("program", "for (i = 0; i < 4; i++) { s = ++; }"),
    ("program", "for (i = 0; i < 4; i++) { s = --; }"),
    ("program", "for (i = 0; i < 4; i++) { s = <; }"),
    ("program", "for (i = 0; i < 4; i++) { s = <=; }"),
    ("program", "for (i = 0; i < 4; i++) { s = >; }"),
    ("program", "for (i = 0; i < 4; i++) { s = >=; }"),
    ("program", "for (i = 0; i < 4; i++) { s = !=; }"),
    ("program", "for (i = 0; i < 4; i++) { s = ==; }"),
    ("program", "for (i = 0; i < 4; i++) { s = 1 }"),
    ("program", "for (i = 0; i < 4; i++) { s = 1;"),
    ("program", "for (i = 0; i < 4; i++) { 5 = s; }"),
    ("program", "for (i = 0; i < 4; i++) { s 5; }"),
    ("program", "for i = 0; i < 4; i++) { }"),
    ("program", "for (5 = 0; i < 4; i++) { }"),
    ("program", "for (i 0; i < 4; i++) { }"),
    ("program", "for (i = 0, i < 4; i++) { }"),
    ("program", "for (i = 0; 4 > i; i++) { }"),
    ("program", "for (i = 0; i = 4; i++) { }"),
    ("program", "for (i = 0; i < 4, i++) { }"),
    ("program", "for (i = 0; i < 4; ++i) { }"),
    ("program", "for (i = 0; i < 4; i *= 2) { }"),
    ("program", "for (i = 0; i < 4; i = i * 2) { }"),
    ("program", "for (i = 0; i < 4; i = 2 + i) { }"),
    ("program", "for (i = 0; i < 4; i++ { }"),
    ("program", "for (i = 0; i < 4; i++) s = 1;"),
    ("program", "for (i = 0; i < 4; i++) { } extra"),
    ("program", "for (i = 0; i < 4; i++) { } 12"),
    ("program", "array x[4];"),
    ("program", ""),
    ("program", "  // only a comment\n"),
    ("program", "array x; for (i = 0; i < 4; i++) { }"),
    ("program", "array 7[4]; for (i = 0; i < 4; i++) { }"),
    ("program", "array x[4] for (i = 0; i < 4; i++) { }"),
    ("program", "array x[4; for (i = 0; i < 4; i++) { }"),
    ("for", "array x[4]; for (i = 0; i < 4; i++) { s += x[i]; }"),
    ("loop", "for (i = 0; i < 4; i++) { }\nfor (j = 0; j < 4; j++) { }"),
    // Header semantics.
    ("program", "for (i = 0; j < 4; i++) { }"),
    ("program", "for (i = 0; i < 4; j++) { }"),
    ("program", "for (i = 0; i < 4; i = j + 1) { }"),
    ("program", "for (i = 0; i < 4; i += n) { }"),
    ("program", "for (i = 0; i < 4; i -= n) { }"),
    ("program", "for (i = 0; i < 4; i -= -9223372036854775807 - 1) { }"),
    ("program", "for (i = 0; i < 4; i = i - (-9223372036854775807 - 1)) { }"),
    ("program", "for (i = 0; i < 4; i += 0) { }"),
    ("program", "for (i = 0; i < 4; i = i - 0) { }"),
    ("program", "for (i = 0; i < 4; i += 2 - 2) { }"),
    // Declarations.
    ("program", "array x[0]; for (i = 0; i < 4; i++) { s += x[i]; }"),
    ("program", "array x[4][-2]; for (i = 0; i < 4; i++) { s += x[i][0]; }"),
    ("program", "array x[n]; for (i = 0; i < 4; i++) { s += x[i]; }"),
    ("program", "array x[4];\narray y[2];\narray x[8];\nfor (i = 0; i < 4; i++) { s += x[i]; }"),
    // Index expressions.
    ("program", "for (i = 0; i < 4; i++) {\n  s += A[i * i];\n}"),
    ("program", "for (i = 0; i < 4; i++) { s += A[(i + 1) * (i - 1)]; }"),
    ("program", "for (i = 0; i < 4; i++) { s += A[i / 2]; }"),
    ("program", "for (i = 0; i < 4; i++) { s += A[4 / 2]; }"),
    ("program", "for (i = 0; i < 4; i++) { s += A[B[i]]; }"),
    ("program", "for (i = 0; i < 4; i++) { s += A[i + B[i] * 0]; }"),
    ("program", "for (i = 0; i < 4; i++) { s += A[n + 1]; }"),
    ("program", "for (i = 0; i < 4; i++) { A[t] = 1; }"),
    ("program", "for (i = 0; i < 4; i++) { s += X[i] + X[2 * i]; }"),
    ("program", "for (i = 0; i < 4; i++) { X[2 * i] += X[2 * i + 1] + X[i]; }"),
    ("program", "array x[4][4];\nfor (i = 0; i < 4; i++) {\n  s += x[i];\n}"),
    ("program", "array x[4];\nfor (i = 0; i < 4; i++) {\n  s += x[i][0];\n}"),
    ("program", "for (i = 0; i < 4; i++) {\n  s += x[i][0];\n}"),
    // Overflow: each i64 folding node, then the i128 linearization.
    ("program", "for (i = 0; i < 4; i++) { s += A[9223372036854775807 + i + 1]; }"),
    ("program", "for (i = 0; i < 4; i++) { s += A[-9223372036854775807 - 2 + i]; }"),
    ("program", "for (i = 0; i < 4; i++) { s += A[-(-9223372036854775807 - 1) + i]; }"),
    ("program", "for (i = 0; i < 4; i++) { s += A[4611686018427387904 * 2 + i]; }"),
    ("program", "for (i = 0; i < 4; i++) { s += A[9223372036854775807 * i * 2]; }"),
    ("program", "for (i = 0; i < 4; i++) { s += A[i * 9223372036854775807 + i]; }"),
    ("program", "for (i = 0; i < 4; i++) { s += A[-(i * 9223372036854775807) - i - i]; }"),
    ("program", "array x[4611686018427387904][4]; for (i = 0; i < 4; i++) { s += x[4611686018427387904][i]; }"),
    ("program", "array x[4][4611686018427387904]; for (i = 0; i < 4; i++) { s += x[i * 4][i]; }"),
    ("program", "array x[2][9223372036854775807][9223372036854775807][9223372036854775807]; for (i = 0; i < 4; i++) { s += x[0][0][0][i]; }"),
    ("program", "array x[2][3]; for (i = 0; i < 4; i++) { s += x[9223372036854775807][i] + x[9223372036854775807][i]; }"),
    ("program", "for (i = 9223372036854775806; i < 9223372036854775807; i++) {\n  for (j = 0; j < 4; j++) { s += A[2 * i + j]; }\n}"),
    ("program", "for (i = 0; i < 2; i++) {\n  for (j = 0; j < 3; j++) { s += A[9223372036854775807 * i - j]; }\n}"),
    // Nest shapes.
    ("program", "for (i = 0; i < 4; i++) {\n  s += A[i];\n  for (j = 0; j < 4; j++) {\n    s += A[j];\n  }\n}"),
    ("program", "for (i = 0; i < 4; i++) {\n  for (j = 0; j < 4; j++) { }\n  s += A[i];\n}"),
    ("program", "for (i = 0; i < 4; i++) {\n  for (j = 0; j < 4; j++) { }\n  for (k = 0; k < 4; k++) { }\n}"),
    ("program", "for (i = 0; i < 4; i++) {\n  for (j = 0; j < 4; j++) {\n    for (i = 0; i < 4; i++) { s += y[i]; }\n  }\n}"),
    ("program", "for (i = 0; i < N; i++) {\n  for (j = 0; j < 4; j++) {\n    s += A[j];\n  }\n}"),
    ("program", "for (i = n; i < 4; i++) {\n  for (j = 0; j < 4; j++) { s += A[j]; }\n}"),
    ("program", "for (i = 0; i < 4; i++) {\n  for (j = 0; j < M; j++) { s += A[j]; }\n}"),
    ("program", "for (i = 0; i != 4; i++) {\n  for (j = 0; j < 4; j++) {\n    s += A[j];\n  }\n}"),
    ("program", "for (i = 4; i < 4; i++) { for (j = 0; j < 4; j++) { s += y[j]; } }"),
    ("program", "for (i = 0; i > 4; i++) { for (j = 0; j < 4; j++) { s += y[j]; } }"),
    ("program", "for (i = 0; i < 4; i++) { for (j = 0; j == 4; j++) { s += y[j]; } }"),
    ("program", "for (i = -9223372036854775807 - 1; i <= 9223372036854775807; i++) { for (j = 0; j < 4; j++) { s += y[j]; } }"),
    ("program", "array x[4][4];\nfor (i = 0; i < 4; i++) {\n  for (j = 0; j < 4; j++) {\n    s += x[i][q];\n  }\n}"),
    ("program", "array x[4][4];\nfor (i = 0; i < 4; i++) {\n  for (j = 0; j < 4; j++) {\n    s += x[i][i * j];\n  }\n}"),
    ("program", "array x[4][4];\nfor (i = 0; i < 4; i++) {\n  for (j = 0; j < 4; j++) {\n    s += x[i][j] + x[j][i];\n  }\n}"),
    ("program", "for (i = 0; i < 4; i++) {\n  for (j = 0; j < 4; j++) { s += y[j]; }\n}\nfor (i = 0; i < 4; i++) {\n  for (j = 0; j < 4; j++) { s += y[i][j]; }\n}"),
];

/// Valid edge cases the seeded corpus does not draw.
const EDGE_CASES: &[&str] = &[
    "for (i = 0; i < 4; i++) { s += A[(i - i) * i] + A[i * (i - i)] + A[i * 0 * i]; }",
    "for (i = 0; i < 4; i++) { s += A[-9223372036854775807 - 1 + i]; s += B[9223372036854775807 + 0 * i]; }",
    "for (i = 0; i < 4; i++) { s += A[((((i + 1)))) - (((2)))]; s += A[- -i]; s += B[-(-(-i))]; }",
    "for (i = 0; i < 4; i++) { s += A[i - 1 - 1 - 1 + 1 + 1 + 1 + 1 + 1]; }",
    "array x[4][4];\narray y[4][4];\nfor (i = 0; i < 4; i++) {\n  for (j = 0; j < 4; j++) {\n    y[j][i] = x[i][j];\n  }\n}",
    "array t[2][3][4];\nfor (i = 0; i < 2; i++) { for (j = 0; j < 3; j++) { for (k = 0; k < 4; k++) { s += t[i][j][k]; } } }",
    "array m[4][10];\nfor (j = 0; j < 10; j++) { s += m[2][j]; }",
    "for (i = 10; i >= 1; i -= 3) { for (j = 3; j > 0; j--) { s += y[j] + z[2 * i + j]; } }",
    "for (i = 0; i < 9; i++) { s = t * 2; t += 1; }",
    "for (i = 0; i < 9; i++) { }",
    "array q[3][5];\nfor (i = 0; i < 2; i++) { for (j = 0; j < 5; j += 2) { q[i + 1][j] -= q[i][j] * q[i][j + 1]; } }",
];

fn front_end_cases() -> String {
    let mut out = String::new();
    let mut rng = SmallRng::seed_from_u64(31);
    let corpus = (0..48).map(|u| unit_source(&mut rng, u));
    let edges = EDGE_CASES.iter().map(|s| (*s).to_owned());
    for (u, source) in corpus.chain(edges).enumerate() {
        let _ = writeln!(out, "unit {u}");
        for line in source.lines() {
            let _ = writeln!(out, "  | {line}");
        }
        let (decls, loops) =
            dsl::parse_unit(&source).unwrap_or_else(|e| panic!("unit {u}: {e}\n{source}"));
        for (l, ast) in loops.iter().enumerate() {
            match dsl::lower_unit_loop(&decls, ast) {
                Ok(mut spec) => {
                    spec.set_name(&format!("loop{l}"));
                    render_spec(&mut out, &spec);
                }
                Err(e) => {
                    let _ = writeln!(out, "  loop{l} error {}", e.attach_source(&source));
                }
            }
        }
    }
    for (entry, source) in ERROR_CASES {
        let error = match *entry {
            "program" => dsl::parse_program(source).map(drop),
            "loop" => dsl::parse_loop(source).map(drop),
            "for" => dsl::parse_for(source).map(drop),
            other => panic!("unknown entry point {other}"),
        }
        .expect_err(source);
        let _ = writeln!(out, "{entry} {source:?}\n  => {error}");
    }
    out
}

#[test]
fn dsl_frontend_matches_the_golden_fixture() {
    let expected = fixture("dsl_frontend.txt");
    let actual = front_end_cases();
    if let Some((line, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!("line {}: expected\n  {want}\ngot\n  {got}", line + 1);
    }
    assert_eq!(
        actual, expected,
        "front-end output drifted from the fixture"
    );
}
