//! Pretty printers for loops and access patterns.
//!
//! Two renderings are provided: the C-like source of a parsed
//! [`ForLoop`], read from its [`Unit`], and the paper-style annotated
//! access listing of a [`LoopSpec`] (compare the example loop in Section 2
//! of the paper, where each access is labelled `a_k` and its offset is
//! shown as a comment).

use std::fmt::Write as _;

use crate::dsl::{ForLoop, Unit, Update};
use crate::model::{AccessKind, LoopSpec};

/// Renders a parsed loop (nest) back to C-like source.
///
/// The output is normalized (one statement per line, canonical spacing)
/// but semantically identical to the input.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (unit, ast) = raco_ir::dsl::parse_for("for(i=0;i<8;i++){y[i]=x[i+1];}")?;
/// let printed = raco_ir::pretty::print_for(&unit, &ast);
/// assert!(printed.contains("for (i = 0; i < 8; i++) {"));
/// assert!(printed.contains("    y[i] = x[i + 1];"));
/// # Ok(())
/// # }
/// ```
pub fn print_for(unit: &Unit<'_>, ast: &ForLoop) -> String {
    let mut out = String::new();
    let levels = unit.levels(ast);
    for (depth, level) in levels.iter().enumerate() {
        let var = unit.text(level.var);
        let update = match level.update {
            Update::Increment => format!("{var}++"),
            Update::Decrement => format!("{var}--"),
            Update::Step(k) if k >= 0 => format!("{var} += {k}"),
            Update::Step(k) => format!("{var} -= {}", -k),
        };
        let pad = "    ".repeat(depth);
        let _ = writeln!(
            out,
            "{pad}for ({var} = {}; {var} {} {}; {update}) {{",
            unit.display_expr(level.init),
            level.cond.op,
            unit.display_expr(level.cond.bound)
        );
    }
    let pad = "    ".repeat(levels.len());
    for stmt in unit.body(ast) {
        let _ = writeln!(out, "{pad}{}", unit.display_stmt(stmt));
    }
    for depth in (0..levels.len()).rev() {
        let _ = writeln!(out, "{}}}", "    ".repeat(depth));
    }
    out
}

/// Renders a [`LoopSpec`] as the paper-style annotated access listing.
///
/// Each access appears on its own line labelled `a_k`, exactly like the
/// example loop of the paper's Section 2.
///
/// # Examples
///
/// ```
/// use raco_ir::{examples, pretty};
/// let listing = pretty::print_access_listing(&examples::paper_loop());
/// assert!(listing.contains("/* a_1 */ A[i+1]"));
/// assert!(listing.contains("/* offset 1 */"));
/// ```
pub fn print_access_listing(spec: &LoopSpec) -> String {
    let mut out = String::new();
    if let Some(nest) = spec.nest() {
        for level in nest.levels() {
            let _ = writeln!(
                out,
                "/* outer */ for ({v} = {start}; …; {v} += {stride})  /* {trips} trips */",
                v = level.var,
                start = level.start,
                stride = level.stride,
                trips = level.trips
            );
        }
    }
    let _ = writeln!(
        out,
        "for ({v} = {start}; …; {v} += {stride})",
        v = spec.var(),
        start = spec.start(),
        stride = spec.stride()
    );
    out.push_str("{\n");
    for (k, acc) in spec.accesses().iter().enumerate() {
        let name = spec
            .array_info(acc.array)
            .map(|a| a.name().to_owned())
            .unwrap_or_else(|| acc.array.to_string());
        let coeff = spec
            .array_info(acc.array)
            .map(|a| a.coefficient())
            .unwrap_or(1);
        let index = index_text(spec.var(), coeff, acc.offset);
        let rw = match acc.kind {
            AccessKind::Read => "",
            AccessKind::Write => " (write)",
        };
        let _ = writeln!(
            out,
            "  /* a_{} */ {name}[{index}] /* offset {} */{rw}",
            k + 1,
            acc.offset
        );
    }
    out.push_str("}\n");
    out
}

/// Formats the index expression `coeff*var + offset` the way a programmer
/// would write it (`i`, `i+1`, `i-2`, `2*i+1`, `3`, …).
fn index_text(var: &str, coeff: i64, offset: i64) -> String {
    let var_part = match coeff {
        0 => String::new(),
        1 => var.to_owned(),
        -1 => format!("-{var}"),
        c => format!("{c}*{var}"),
    };
    match (var_part.is_empty(), offset) {
        (true, d) => d.to_string(),
        (false, 0) => var_part,
        (false, d) if d > 0 => format!("{var_part}+{d}"),
        (false, d) => format!("{var_part}{d}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{parse_for, parse_loop};

    #[test]
    fn print_for_round_trips_through_the_parser() {
        let src = "for (i = 2; i <= 100; i += 2) {
            acc = acc + A[i + 1] * A[i];
            B[2 * i] += A[i - 1];
        }";
        let (unit, ast) = parse_for(src).unwrap();
        let printed = print_for(&unit, &ast);
        let (reunit, reparsed) = parse_for(&printed).unwrap();
        // Compare lowered semantics rather than spans.
        let a = crate::dsl::lower_unit_loop(&unit, &ast).unwrap();
        let b = crate::dsl::lower_unit_loop(&reunit, &reparsed).unwrap();
        assert_eq!(a, b);
        assert_eq!(print_for(&reunit, &reparsed), printed);
    }

    #[test]
    fn listing_matches_paper_format() {
        let spec =
            parse_loop("for (i = 2; i <= 100; i++) { s = A[i+1] + A[i] + A[i+2] + A[i-1]; }")
                .unwrap();
        let listing = print_access_listing(&spec);
        assert!(listing.contains("/* a_1 */ A[i+1] /* offset 1 */"));
        assert!(listing.contains("/* a_2 */ A[i] /* offset 0 */"));
        assert!(listing.contains("/* a_4 */ A[i-1] /* offset -1 */"));
    }

    #[test]
    fn listing_marks_writes() {
        let spec = parse_loop("for (i = 0; i < 4; i++) { A[i] = 1; }").unwrap();
        assert!(print_access_listing(&spec).contains("(write)"));
    }

    #[test]
    fn index_text_covers_coefficients() {
        assert_eq!(index_text("i", 1, 0), "i");
        assert_eq!(index_text("i", 1, 3), "i+3");
        assert_eq!(index_text("i", 1, -2), "i-2");
        assert_eq!(index_text("i", 0, 5), "5");
        assert_eq!(index_text("i", 2, 1), "2*i+1");
        assert_eq!(index_text("i", -1, 7), "-i+7");
        assert_eq!(index_text("i", 0, 0), "0");
    }

    #[test]
    fn print_for_keeps_the_value_of_integer_division() {
        let (unit, ast) = parse_for("for (i = 0; i < 2 * (3 / 2); i++) { s += x[i]; }").unwrap();
        let printed = print_for(&unit, &ast);
        assert!(printed.contains("i < 2 * (3 / 2);"), "{printed}");
        let (reunit, reparsed) = parse_for(&printed).unwrap();
        assert_eq!(
            reunit.const_eval(reunit.levels(&reparsed)[0].cond.bound),
            Some(2)
        );
    }

    #[test]
    fn print_for_indents_each_nest_level() {
        let (unit, ast) =
            parse_for("for (i = 0; i < 2; i++) { for (j = n; j > -1; j--) { s += x[j]; } }")
                .unwrap();
        assert_eq!(
            print_for(&unit, &ast),
            "for (i = 0; i < 2; i++) {\n    for (j = n; j > -(1); j--) {\n        s += x[j];\n    }\n}\n"
        );
    }

    #[test]
    fn print_for_update_forms() {
        for (src, needle) in [
            ("for (i = 0; i < 8; i++) { }", "i++"),
            ("for (i = 8; i > 0; i--) { }", "i--"),
            ("for (i = 0; i < 8; i += 3) { }", "i += 3"),
            ("for (i = 8; i > 0; i -= 2) { }", "i -= 2"),
        ] {
            let (unit, ast) = parse_for(src).unwrap();
            let printed = print_for(&unit, &ast);
            assert!(printed.contains(needle), "`{printed}` lacks `{needle}`");
        }
    }
}
