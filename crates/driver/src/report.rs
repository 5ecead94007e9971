//! Structured compilation reports: JSON and pretty tables.
//!
//! Every pipeline run produces a [`CompilationReport`]: one
//! [`UnitReport`] per input source (file, string or kernel batch), one
//! [`LoopReport`] per loop, plus batch-wide totals, cache statistics
//! and wall-clock timing. Reports are plain data — rendering to an
//! aligned text table or to JSON is a method, not a side effect, so
//! servers can ship them and tests can assert on them.

use std::fmt;
use std::time::Duration;

use raco_ir::{CostTable, UpdateRange};

use crate::cache::CacheStats;
use crate::json::{Json, Writer};
use crate::timings::StageTiming;

/// Why a loop failed to compile.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LoopFailure {
    /// Allocation failed (empty loop / more arrays than registers).
    Allocation(String),
    /// Code generation failed.
    CodeGen(String),
    /// The simulator rejected the generated program.
    Validation(String),
    /// The simulator measured a different cost than the allocator
    /// predicted (an internal consistency bug, always worth surfacing).
    CostMismatch {
        /// Allocator-predicted unit-cost updates per iteration.
        predicted: u64,
        /// Simulator-measured updates per iteration.
        measured: u64,
    },
    /// The two validation oracles disagreed: exactly one of the
    /// simulator (operational) and the declarative listing checker
    /// rejected the program. Either the program is broken in a way one
    /// oracle cannot see, or an oracle itself is — a bug class of its
    /// own, always worth surfacing.
    OracleDisagreement {
        /// The simulator's complaint, when it was the one rejecting.
        simulator: Option<String>,
        /// The checker's violation summary, when it was the one
        /// rejecting.
        checker: Option<String>,
    },
}

impl fmt::Display for LoopFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopFailure::Allocation(e) => write!(f, "allocation: {e}"),
            LoopFailure::CodeGen(e) => write!(f, "codegen: {e}"),
            LoopFailure::Validation(e) => write!(f, "validation: {e}"),
            LoopFailure::CostMismatch {
                predicted,
                measured,
            } => write!(
                f,
                "cost mismatch: allocator predicted {predicted}, simulator measured {measured}"
            ),
            LoopFailure::OracleDisagreement { simulator, checker } => match (simulator, checker) {
                (Some(sim), None) => write!(
                    f,
                    "oracle disagreement: checker passed but simulator rejected: {sim}"
                ),
                (None, Some(check)) => write!(
                    f,
                    "oracle disagreement: simulator passed but checker rejected: {check}"
                ),
                // Not constructed by the pipeline (both failing is a
                // plain validation failure), but Display must total.
                (sim, check) => write!(
                    f,
                    "oracle disagreement: simulator {:?}, checker {:?}",
                    sim, check
                ),
            },
        }
    }
}

/// Per-loop compilation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    /// Loop label (`loop0`, `loop1`, … or the kernel name).
    pub name: String,
    /// Arrays accessed by the loop.
    pub arrays: usize,
    /// Memory accesses per iteration.
    pub accesses: usize,
    /// Address registers used by the allocation.
    pub registers_used: usize,
    /// Sum of the paper's `K̃` over the loop's arrays (virtual
    /// registers needed for a completely free schedule).
    pub virtual_registers: usize,
    /// Allocator-predicted unit-cost updates per iteration.
    pub cost: u64,
    /// Address-code words (prologue + body).
    pub code_words: u64,
    /// Simulator-measured updates per iteration (`None` when
    /// validation was disabled).
    pub measured_cost: Option<u64>,
    /// Addresses checked against the reference trace.
    pub addresses_checked: u64,
    /// Generated listing (present when listings were requested).
    pub listing: Option<String>,
    /// `None` on success, the failure otherwise. Numeric fields hold
    /// whatever had been computed when the failure was detected:
    /// allocation failures leave them at zero, while codegen,
    /// validation and cost-mismatch failures keep the allocation's
    /// figures. Check [`succeeded`](Self::succeeded), not the numbers.
    pub failure: Option<LoopFailure>,
}

impl LoopReport {
    /// `true` if the loop compiled (and, when enabled, validated).
    pub fn succeeded(&self) -> bool {
        self.failure.is_none()
    }

    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.key("name").str(&self.name);
            w.key("arrays").uint(self.arrays as u64);
            w.key("accesses").uint(self.accesses as u64);
            w.key("registers_used").uint(self.registers_used as u64);
            w.key("virtual_registers")
                .uint(self.virtual_registers as u64);
            w.key("cost").uint(self.cost);
            w.key("code_words").uint(self.code_words);
            let measured = |w: &mut Writer<'_>| match self.measured_cost {
                Some(cost) => w.uint(cost),
                None => w.null(),
            };
            measured(w.key("measured_cost"));
            // Explicit predicted-vs-measured pair: the allocator's
            // MR-aware prediction and the simulator's ground truth.
            // `cost` / `measured_cost` above carry the same values and
            // stay for pre-existing JSON consumers.
            w.key("predicted_cycles").uint(self.cost);
            measured(w.key("measured_cycles"));
            w.key("addresses_checked").uint(self.addresses_checked);
            w.key("status")
                .str(if self.succeeded() { "ok" } else { "failed" });
            if let Some(failure) = &self.failure {
                w.key("failure").str(&failure.to_string());
            }
            if let Some(listing) = &self.listing {
                w.key("listing").str(listing);
            }
        });
    }
}

/// Per-input-unit outcome (one source file / string / kernel batch).
#[derive(Debug, Clone, PartialEq)]
pub struct UnitReport {
    /// Unit label (file path or caller-provided name).
    pub name: String,
    /// Per-loop outcomes, in source order.
    pub loops: Vec<LoopReport>,
    /// Assembled multi-loop listing of the unit's successful loops
    /// (present when listings were requested).
    pub listing: Option<String>,
}

impl UnitReport {
    /// Number of successfully compiled loops.
    pub fn succeeded(&self) -> usize {
        self.loops.iter().filter(|l| l.succeeded()).count()
    }

    /// Number of failed loops.
    pub fn failed(&self) -> usize {
        self.loops.len() - self.succeeded()
    }

    /// Total predicted cost across successful loops.
    pub fn total_cost(&self) -> u64 {
        self.loops.iter().map(|l| l.cost).sum()
    }

    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.key("name").str(&self.name);
            w.key("loops")
                .array(|w| self.loops.iter().for_each(|l| l.write_json(w)));
            if let Some(listing) = &self.listing {
                w.key("listing").str(listing);
            }
        });
    }
}

/// The result of one batch compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilationReport {
    /// Per-unit reports, in input order.
    pub units: Vec<UnitReport>,
    /// Address registers of the target machine (the paper's `K`).
    pub address_registers: usize,
    /// Auto-modify range of the target machine (the paper's `M`). On
    /// asymmetric machines this is the symmetric radius — see
    /// [`update_range`](Self::update_range) for the exact window.
    pub modify_range: u32,
    /// Full auto-modify window of the target machine. Equals
    /// `[-M, M]` on paper-shaped machines; `[0, 1]` on a
    /// post-increment-only machine.
    pub update_range: UpdateRange,
    /// Per-opcode cycle costs of the target machine.
    pub costs: CostTable,
    /// Modify registers of the target machine (zero on the plain paper
    /// machine). Allocation prices them, so `predicted_cycles` equals
    /// `measured_cycles` on MR-equipped machines too.
    pub modify_registers: usize,
    /// Threads that compiled the batch: the caller plus the helpers
    /// spawned at the first cache miss (so 1 for an all-hit batch).
    pub threads: usize,
    /// End-to-end wall time of the batch.
    pub elapsed: Duration,
    /// Allocation-cache statistics at the end of the run.
    pub cache: CacheStats,
    /// Per-stage latency summaries for this batch (stages that never
    /// ran are omitted). Render with
    /// [`render_timings_table`](Self::render_timings_table).
    pub timings: Vec<StageTiming>,
}

impl CompilationReport {
    /// All loops across units.
    pub fn loops(&self) -> impl Iterator<Item = &LoopReport> {
        self.units.iter().flat_map(|u| u.loops.iter())
    }

    /// Total number of loops.
    pub fn loop_count(&self) -> usize {
        self.units.iter().map(|u| u.loops.len()).sum()
    }

    /// Number of loops that compiled (and validated, when enabled).
    pub fn succeeded(&self) -> usize {
        self.units.iter().map(UnitReport::succeeded).sum()
    }

    /// Number of failed loops.
    pub fn failed(&self) -> usize {
        self.loop_count() - self.succeeded()
    }

    /// Batch throughput in loops per second (0 when nothing ran).
    pub fn loops_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.loop_count() as f64 / secs
        } else {
            0.0
        }
    }

    /// Machine-readable JSON rendering of the whole report, indented.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut Writer::pretty(&mut out));
        out.push('\n');
        out
    }

    /// The report as a [`Json`] value tree, for callers that inspect or
    /// embed parts of it. It is parsed back from the compact rendering,
    /// so [`write_json`](Self::write_json) stays the only list of fields.
    pub fn to_json_value(&self) -> Json {
        let mut out = String::new();
        self.write_json(&mut Writer::compact(&mut out));
        Json::parse(&out).expect("a rendered report is valid JSON")
    }

    /// Writes the report as one JSON object into `w`: the serve protocol
    /// writes it straight into a reply line, [`to_json`](Self::to_json)
    /// into an indented document. The `timings` key is present only when
    /// stage timings exist (the serve path strips them per request — see
    /// the protocol's `timings` knob).
    pub fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.key("machine").object(|w| {
                w.key("address_registers")
                    .uint(self.address_registers as u64);
                w.key("modify_range").uint(u64::from(self.modify_range));
                w.key("update_min").int(self.update_range.min());
                w.key("update_max").int(self.update_range.max());
                w.key("modify_registers").uint(self.modify_registers as u64);
                w.key("lda_cost").uint(u64::from(self.costs.lda()));
                w.key("ldm_cost").uint(u64::from(self.costs.ldm()));
                w.key("adda_cost").uint(u64::from(self.costs.adda()));
            });
            w.key("threads").uint(self.threads as u64);
            w.key("elapsed_us").uint(self.elapsed.as_micros() as u64);
            w.key("loops").uint(self.loop_count() as u64);
            w.key("succeeded").uint(self.succeeded() as u64);
            w.key("failed").uint(self.failed() as u64);
            w.key("loops_per_second").num(self.loops_per_second());
            w.key("cache").object(|w| {
                w.key("allocation_hits").uint(self.cache.allocation_hits);
                w.key("allocation_misses")
                    .uint(self.cache.allocation_misses);
                w.key("curve_hits").uint(self.cache.curve_hits);
                w.key("curve_misses").uint(self.cache.curve_misses);
                w.key("loaded").uint(self.cache.loaded);
                w.key("persisted").uint(self.cache.persisted);
                w.key("hit_rate").num(self.cache.hit_rate());
            });
            if !self.timings.is_empty() {
                w.key("timings")
                    .array(|w| self.timings.iter().for_each(|t| write_stage_timing(w, t)));
            }
            w.key("units")
                .array(|w| self.units.iter().for_each(|u| u.write_json(w)));
        });
    }

    /// Aligned per-stage timing table (the `--timings` view). Durations
    /// are microseconds; `total` is exact, quantiles are histogram
    /// estimates. Empty when no stage recorded anything.
    pub fn render_timings_table(&self) -> String {
        if self.timings.is_empty() {
            return String::new();
        }
        let headers = [
            "stage", "calls", "total_us", "p50_us", "p95_us", "p99_us", "max_us",
        ];
        let us = |ns: u64| format!("{:.1}", ns as f64 / 1000.0);
        let rows: Vec<[String; 7]> = self
            .timings
            .iter()
            .map(|t| {
                [
                    t.stage.to_owned(),
                    t.calls.to_string(),
                    us(t.total_ns),
                    us(t.p50_ns),
                    us(t.p95_ns),
                    us(t.p99_ns),
                    us(t.max_ns),
                ]
            })
            .collect();
        aligned_table(headers, &rows, true)
    }

    /// Human-readable aligned table rendering.
    pub fn render_table(&self) -> String {
        let headers = [
            "unit", "loop", "arrays", "accesses", "K used", "K~", "cost", "words", "status",
        ];
        let mut rows: Vec<[String; 9]> = Vec::new();
        for unit in &self.units {
            for lr in &unit.loops {
                rows.push([
                    unit.name.clone(),
                    lr.name.clone(),
                    lr.arrays.to_string(),
                    lr.accesses.to_string(),
                    lr.registers_used.to_string(),
                    lr.virtual_registers.to_string(),
                    lr.cost.to_string(),
                    lr.code_words.to_string(),
                    match &lr.failure {
                        None => match lr.measured_cost {
                            Some(_) => "ok (validated)".to_owned(),
                            None => "ok".to_owned(),
                        },
                        Some(failure) => failure.to_string(),
                    },
                ]);
            }
        }
        let mut out = aligned_table(headers, &rows, false);
        out.push('\n');
        // Symmetric ranges display as the plain radius, so the footer
        // is byte-identical to the pre-description format on
        // paper-shaped machines; asymmetric windows print in full, and
        // non-unit cost tables append their own clause.
        let costs = if self.costs.is_unit() {
            String::new()
        } else {
            format!(
                ", costs(lda={}, ldm={}, adda={})",
                self.costs.lda(),
                self.costs.ldm(),
                self.costs.adda()
            )
        };
        out.push_str(&format!(
            "{} loop(s) in {} unit(s): {} ok, {} failed  |  K = {}, M = {}, MR = {}{}  |  \
             {:.1} loops/s on {} thread(s)  |  cache: {} hit(s), {} miss(es) ({:.0}% hit rate)\n",
            self.loop_count(),
            self.units.len(),
            self.succeeded(),
            self.failed(),
            self.address_registers,
            self.update_range,
            self.modify_registers,
            costs,
            self.loops_per_second(),
            self.threads,
            self.cache.allocation_hits + self.cache.curve_hits,
            self.cache.allocation_misses + self.cache.curve_misses,
            self.cache.hit_rate() * 100.0
        ));
        out
    }
}

/// `headers` and `rows` as an aligned table: a dash rule under the
/// header, two spaces between columns and no trailing spaces. The first
/// column is left-aligned; the others are right-aligned when
/// `right_align_numbers` is set, left-aligned otherwise.
fn aligned_table<const N: usize>(
    headers: [&str; N],
    rows: &[[String; N]],
    right_align_numbers: bool,
) -> String {
    let mut widths = headers.map(str::len);
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let rule = widths.map(|w| "-".repeat(w));
    let lines = [headers, rule.each_ref().map(String::as_str)]
        .into_iter()
        .chain(rows.iter().map(|row| row.each_ref().map(String::as_str)));
    let mut out = String::new();
    for cells in lines {
        for (i, (cell, width)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let pad = std::iter::repeat_n(' ', width - cell.len());
            if right_align_numbers && i > 0 {
                out.extend(pad);
                out.push_str(cell);
            } else {
                out.push_str(cell);
                out.extend(pad);
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    out
}

/// Writes one [`StageTiming`] as a JSON object. Durations convert from
/// the recorded nanoseconds to fractional microseconds.
fn write_stage_timing(w: &mut Writer<'_>, timing: &StageTiming) {
    let us = |ns: u64| ns as f64 / 1000.0;
    w.object(|w| {
        w.key("stage").str(timing.stage);
        w.key("calls").uint(timing.calls);
        w.key("total_us").num(us(timing.total_ns));
        w.key("p50_us").num(us(timing.p50_ns));
        w.key("p95_us").num(us(timing.p95_ns));
        w.key("p99_us").num(us(timing.p99_ns));
        w.key("max_us").num(us(timing.max_ns));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_loop(name: &str, cost: u64, failure: Option<LoopFailure>) -> LoopReport {
        LoopReport {
            name: name.to_owned(),
            arrays: 2,
            accesses: 5,
            registers_used: 3,
            virtual_registers: 4,
            cost,
            code_words: 7,
            measured_cost: failure.is_none().then_some(cost),
            addresses_checked: 40,
            listing: None,
            failure,
        }
    }

    fn sample_report() -> CompilationReport {
        CompilationReport {
            units: vec![
                UnitReport {
                    name: "a.dsp".to_owned(),
                    loops: vec![sample_loop("loop0", 1, None), sample_loop("loop1", 0, None)],
                    listing: None,
                },
                UnitReport {
                    name: "b.dsp".to_owned(),
                    loops: vec![sample_loop(
                        "loop0",
                        0,
                        Some(LoopFailure::Allocation("too many arrays".into())),
                    )],
                    listing: None,
                },
            ],
            address_registers: 4,
            modify_range: 1,
            update_range: UpdateRange::symmetric(1),
            costs: CostTable::UNIT,
            modify_registers: 0,
            threads: 2,
            elapsed: Duration::from_millis(10),
            cache: CacheStats {
                allocation_hits: 3,
                allocation_misses: 2,
                curve_hits: 1,
                curve_misses: 4,
                allocation_entries: 2,
                curve_entries: 4,
                allocation_evictions: 0,
                curve_evictions: 0,
                loaded: 0,
                persisted: 0,
            },
            timings: vec![StageTiming {
                stage: "parse",
                calls: 2,
                total_ns: 4000,
                max_ns: 3000,
                p50_ns: 1000,
                p95_ns: 3000,
                p99_ns: 3000,
            }],
        }
    }

    #[test]
    fn totals_aggregate_units() {
        let report = sample_report();
        assert_eq!(report.loop_count(), 3);
        assert_eq!(report.succeeded(), 2);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.units[0].total_cost(), 1);
        assert_eq!(report.units[1].failed(), 1);
        assert!(report.loops_per_second() > 0.0);
    }

    #[test]
    fn json_contains_every_section() {
        let json = sample_report().to_json();
        for needle in [
            r#""address_registers": 4"#,
            r#""modify_registers": 0"#,
            r#""loops": 3"#,
            r#""hit_rate""#,
            r#""name": "a.dsp""#,
            r#""status": "failed""#,
            r#""failure": "allocation: too many arrays""#,
            r#""measured_cost": null"#,
            r#""predicted_cycles": 1"#,
            r#""measured_cycles": 1"#,
            r#""stage": "parse""#,
            r#""total_us": 4"#,
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn json_rendering_is_pinned() {
        assert_eq!(sample_report().to_json(), SAMPLE_JSON);
    }

    /// `sample_report().to_json()`, byte for byte.
    const SAMPLE_JSON: &str = r#"{
  "machine": {
    "address_registers": 4,
    "modify_range": 1,
    "update_min": -1,
    "update_max": 1,
    "modify_registers": 0,
    "lda_cost": 1,
    "ldm_cost": 1,
    "adda_cost": 1
  },
  "threads": 2,
  "elapsed_us": 10000,
  "loops": 3,
  "succeeded": 2,
  "failed": 1,
  "loops_per_second": 300,
  "cache": {
    "allocation_hits": 3,
    "allocation_misses": 2,
    "curve_hits": 1,
    "curve_misses": 4,
    "loaded": 0,
    "persisted": 0,
    "hit_rate": 0.4
  },
  "timings": [
    {
      "stage": "parse",
      "calls": 2,
      "total_us": 4,
      "p50_us": 1,
      "p95_us": 3,
      "p99_us": 3,
      "max_us": 3
    }
  ],
  "units": [
    {
      "name": "a.dsp",
      "loops": [
        {
          "name": "loop0",
          "arrays": 2,
          "accesses": 5,
          "registers_used": 3,
          "virtual_registers": 4,
          "cost": 1,
          "code_words": 7,
          "measured_cost": 1,
          "predicted_cycles": 1,
          "measured_cycles": 1,
          "addresses_checked": 40,
          "status": "ok"
        },
        {
          "name": "loop1",
          "arrays": 2,
          "accesses": 5,
          "registers_used": 3,
          "virtual_registers": 4,
          "cost": 0,
          "code_words": 7,
          "measured_cost": 0,
          "predicted_cycles": 0,
          "measured_cycles": 0,
          "addresses_checked": 40,
          "status": "ok"
        }
      ]
    },
    {
      "name": "b.dsp",
      "loops": [
        {
          "name": "loop0",
          "arrays": 2,
          "accesses": 5,
          "registers_used": 3,
          "virtual_registers": 4,
          "cost": 0,
          "code_words": 7,
          "measured_cost": null,
          "predicted_cycles": 0,
          "measured_cycles": null,
          "addresses_checked": 40,
          "status": "failed",
          "failure": "allocation: too many arrays"
        }
      ]
    }
  ]
}
"#;

    #[test]
    fn timings_table_renders_per_stage_rows() {
        let table = sample_report().render_timings_table();
        assert_eq!(
            table,
            "stage  calls  total_us  p50_us  p95_us  p99_us  max_us\n\
             -----  -----  --------  ------  ------  ------  ------\n\
             parse      2       4.0     1.0     3.0     3.0     3.0\n"
        );
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].starts_with("stage"));
        assert!(lines[0].contains("p99_us"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].starts_with("parse"));
        assert!(lines[2].contains("4.0"), "total 4000 ns = 4.0 us:\n{table}");
        // No timings, no table.
        let mut empty = sample_report();
        empty.timings.clear();
        assert_eq!(empty.render_timings_table(), "");
    }

    #[test]
    fn table_is_aligned_and_summarized() {
        let table = sample_report().render_table();
        assert_eq!(
            table,
            "unit   loop   arrays  accesses  K used  K~  cost  words  status\n\
             -----  -----  ------  --------  ------  --  ----  -----  ---------------------------\n\
             a.dsp  loop0  2       5         3       4   1     7      ok (validated)\n\
             a.dsp  loop1  2       5         3       4   0     7      ok (validated)\n\
             b.dsp  loop0  2       5         3       4   0     7      allocation: too many arrays\n\
             \n\
             3 loop(s) in 2 unit(s): 2 ok, 1 failed  |  K = 4, M = 1, MR = 0  |  \
             300.0 loops/s on 2 thread(s)  |  cache: 4 hit(s), 6 miss(es) (40% hit rate)\n"
        );
        assert!(table.contains("unit"));
        assert!(table.contains("ok (validated)"));
        assert!(table.contains("3 loop(s) in 2 unit(s): 2 ok, 1 failed"));
        assert!(table.contains("K = 4, M = 1"));
        // Header separator has the same column count as the header.
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn failure_displays_are_informative() {
        assert_eq!(
            LoopFailure::CostMismatch {
                predicted: 1,
                measured: 2
            }
            .to_string(),
            "cost mismatch: allocator predicted 1, simulator measured 2"
        );
        assert!(LoopFailure::Validation("boom".into())
            .to_string()
            .contains("boom"));
        let checker_rejects = LoopFailure::OracleDisagreement {
            simulator: None,
            checker: Some("delta-coverage: AR0 drifts".into()),
        };
        assert_eq!(
            checker_rejects.to_string(),
            "oracle disagreement: simulator passed but checker rejected: delta-coverage: AR0 drifts"
        );
        let simulator_rejects = LoopFailure::OracleDisagreement {
            simulator: Some("address mismatch".into()),
            checker: None,
        };
        assert_eq!(
            simulator_rejects.to_string(),
            "oracle disagreement: checker passed but simulator rejected: address mismatch"
        );
    }

    #[test]
    fn zero_elapsed_reports_zero_throughput() {
        let mut report = sample_report();
        report.elapsed = Duration::ZERO;
        assert_eq!(report.loops_per_second(), 0.0);
    }
}
