//! Seeded input generators. The program under test only ever sees the
//! DSL sources and request lines built here. The workloads build their
//! inputs from one fixed seed and draw only their order from `--seed`.

/// splitmix64: tiny, seedable and stable across toolchains, so the same
/// seed always yields byte-identical inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Hot-head-skewed index into `0..n`: squaring a uniform sample
    /// concentrates the draws near index 0, like a build that keeps
    /// recompiling the same few kernels.
    pub fn skewed(&mut self, n: usize) -> usize {
        let u = self.unit();
        ((u * u) * n as f64) as usize % n
    }
}

fn offset(var: &str, delta: i64) -> String {
    match delta {
        0 => var.to_owned(),
        d if d > 0 => format!("{var} + {d}"),
        d => format!("{var} - {}", -d),
    }
}

/// One multi-loop DSL unit of three loops, each a 1D loop or (one in
/// four) a 2D nest, over 1–3 arrays with 1–12 accesses per array.
///
/// The unit's structure (nest or not, arrays, accesses per array, trip
/// counts) is a fixed function of its `slot`; `rng` draws offsets,
/// statement grouping and order.
pub fn multi_loop_unit(rng: &mut Rng, slot: usize) -> String {
    let mut decls = String::new();
    let mut body = String::new();
    for l in 0..3 {
        let k = slot * 3 + l;
        let nest = k % 4 == 3;
        let arrays = 1 + k % 3;
        let names: Vec<String> = (0..arrays)
            .map(|a| format!("{}{l}", ["x", "h", "c"][a]))
            .collect();
        // Every access term of the loop body, arrays interleaved.
        let mut terms: Vec<String> = Vec::new();
        let (outer, inner) = (2 + k % 3, 4 + (k / 3) % 5);
        for (a, name) in names.iter().enumerate() {
            let spread = (k * 7 + a * 5) % 12;
            let accesses = if nest { 1 + spread / 2 } else { 1 + spread };
            for _ in 0..accesses {
                terms.push(if nest {
                    format!(
                        "{name}[{}][{}]",
                        offset(&format!("i{l}"), rng.range(0, 1)),
                        offset(&format!("j{l}"), rng.range(-2, 2))
                    )
                } else {
                    format!("{name}[{}]", offset(&format!("i{l}"), rng.range(-6, 6)))
                });
            }
            if nest {
                decls.push_str(&format!("array {name}[{}][{}];\n", outer + 2, inner + 4));
            }
        }
        for k in (1..terms.len()).rev() {
            terms.swap(k, rng.range(0, k as i64) as usize);
        }
        let indent = if nest { "    " } else { "  " };
        let mut stmts = String::new();
        let mut rest = &terms[..];
        while !rest.is_empty() {
            let take = (rng.range(1, 4) as usize).min(rest.len());
            let (stmt, tail) = rest.split_at(take);
            rest = tail;
            if stmt.len() > 1 && rng.range(0, 2) == 0 {
                stmts.push_str(&format!(
                    "{indent}{} = {};\n",
                    stmt[0],
                    stmt[1..].join(" + ")
                ));
            } else {
                stmts.push_str(&format!("{indent}s += {};\n", stmt.join(" + ")));
            }
        }
        if nest {
            body.push_str(&format!(
                "for (i{l} = 0; i{l} < {outer}; i{l}++) {{\n  for (j{l} = 2; j{l} < {}; j{l}++) {{\n{stmts}  }}\n}}\n",
                inner + 2
            ));
        } else {
            let trips = 8 + (k * 13) % 56;
            body.push_str(&format!(
                "for (i{l} = 8; i{l} < {}; i{l}++) {{\n{stmts}}}\n",
                8 + trips
            ));
        }
    }
    decls + &body
}

/// One single-loop DSL source writing `y` from 2–6 reads of one to three
/// arrays: the request shape a build tool sends a warm server. The
/// structure (reads, arrays, the offsets' spread) is a function of
/// `slot`; `rng` shuffles the offsets over the reads and draws the trip
/// count.
pub fn single_loop_shape(rng: &mut Rng, slot: usize) -> String {
    let accesses = 2 + slot % 5;
    let arrays = 1 + (slot / 5) % 3;
    let reach = 1 + (slot / 15 % 8) as i64;
    let mut offsets: Vec<i64> = (0..accesses as i64)
        .map(|a| -reach + (2 * reach * a) / (accesses as i64 - 1))
        .collect();
    for k in (1..offsets.len()).rev() {
        offsets.swap(k, rng.range(0, k as i64) as usize);
    }
    let bound = rng.range(16, 96);
    let terms: Vec<String> = offsets
        .iter()
        .enumerate()
        .map(|(a, &o)| format!("{}[{}]", ["x", "h", "c"][a % arrays], offset("i", o)))
        .collect();
    format!(
        "for (i = 8; i < {bound}; i++) {{ y[i] = {}; }}",
        terms.join(" + ")
    )
}
