//! Declarative listing invariants — the second correctness oracle.
//!
//! The simulator (`raco_agu::sim`) is an *operational* oracle: it runs
//! the generated address program against the reference address trace
//! and compares every served address. This crate is the *declarative*
//! one: each [`Invariant`] re-derives one property of a correct listing
//! directly from the instruction rows — without executing them against
//! a trace — and reports a structured [`Violation`] when the rows break
//! it. One walk over the prologue, body and carry rows builds every
//! fact the invariants consult (per-AR delta ledgers with each chain's
//! stride and array, prologue loads, served positions, cycles and
//! words) and flags the violations a single row decides; each invariant
//! then reports, in registry order, what the walk flagged for it and
//! what it derives from its part of that derivation.
//!
//! The pipeline runs both oracles on every validated loop; a
//! listing that one oracle accepts and the other rejects is itself a
//! reportable bug class (an oracle disagreement), because the two
//! derivations share no code.
//!
//! The invariant inventory lives in [`INVARIANTS`]; each entry carries
//! a stable kebab-case `name` (used in violation reports, docs, and
//! fuzz repros) and a `why` sentence explaining what a violation would
//! mean for generated code. See ARCHITECTURE.md § "Listing invariants"
//! for the prose version.
//!
//! Entry point: [`check_program`].

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

use raco_agu::{AddressInstr, AddressProgram, Update};
use raco_ir::{AguSpec, ArrayId, LoopSpec, MemoryLayout};

/// Everything an invariant may consult: the loop, the machine, the
/// memory layout codegen targeted, the generated program, and (when
/// the caller has one) the cost model's claimed cycles per iteration.
#[derive(Debug, Clone, Copy)]
struct CheckContext<'a> {
    /// The loop the program was generated for.
    spec: &'a LoopSpec,
    /// The memory layout the program's absolute addresses target.
    layout: &'a MemoryLayout,
    /// The machine the program must fit.
    agu: &'a AguSpec,
    /// The generated address program under check.
    program: &'a AddressProgram,
    /// Externally claimed addressing cycles per iteration (the cost
    /// model's prediction), compared by `cycle-accounting` when given.
    expected_cycles: Option<u64>,
}

/// One violated invariant instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable name of the violated invariant (see [`INVARIANTS`]).
    pub invariant: &'static str,
    /// What the rows actually say, with concrete values.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.message)
    }
}

/// Structured result of running every invariant over one program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    invariants_checked: usize,
    violations: Vec<Violation>,
}

impl CheckReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Every violation, in invariant-registry order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Number of invariants that ran.
    pub fn invariants_checked(&self) -> usize {
        self.invariants_checked
    }

    /// One-line summary: the first violations joined with `; `, with a
    /// count of the remainder. Empty string when clean.
    pub fn summary(&self) -> String {
        const SHOWN: usize = 3;
        let mut parts: Vec<String> = self
            .violations
            .iter()
            .take(SHOWN)
            .map(Violation::to_string)
            .collect();
        if self.violations.len() > SHOWN {
            parts.push(format!("… and {} more", self.violations.len() - SHOWN));
        }
        parts.join("; ")
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean ({} invariants)", self.invariants_checked)
        } else {
            write!(
                f,
                "{} violation(s): {}",
                self.violations.len(),
                self.summary()
            )
        }
    }
}

/// A named declarative invariant over listing rows.
pub struct Invariant {
    /// Stable kebab-case name, referenced by violations and docs.
    pub name: &'static str,
    /// Why the invariant must hold on a correct listing.
    pub why: &'static str,
    check: fn(&Derivation<'_>, &mut Vec<Violation>),
}

impl fmt::Debug for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Invariant")
            .field("name", &self.name)
            .finish()
    }
}

// Invariants with rules that a single row (or the program header)
// decides: the derivation flags those violations during its walk.
const AR_IN_MACHINE_RANGE: &str = "ar-in-machine-range";
const MR_IN_MACHINE_RANGE: &str = "mr-in-machine-range";
const PROLOGUE_LOADS_ONLY: &str = "prologue-loads-only";
const FREE_UPDATES_IN_RANGE: &str = "free-updates-in-range";
const DELTA_COVERAGE: &str = "delta-coverage";
const CARRY_BOUNDARIES: &str = "carry-boundaries";

/// The full invariant inventory, in the order they run.
pub const INVARIANTS: &[Invariant] = &[
    Invariant {
        name: AR_IN_MACHINE_RANGE,
        why: "every address-register index must fit both the program's declared register \
              count and the machine's K; an out-of-range AR encodes to a register the \
              hardware does not have",
        check: flagged_rows_only,
    },
    Invariant {
        name: MR_IN_MACHINE_RANGE,
        why: "every modify-register index must fit the program's modify-value table and \
              the machine's modify-register file; an out-of-range M reads undefined state",
        check: flagged_rows_only,
    },
    Invariant {
        name: PROLOGUE_LOADS_ONLY,
        why: "the prologue runs once before the loop and may only establish state (LDA/LDM, \
              each destination exactly once); an ADDA or USE there would execute outside \
              the steady state the body's delta ledger assumes",
        check: flagged_rows_only,
    },
    Invariant {
        name: "registers-initialized",
        why: "each AR the body serves from must be LDA-ed to its first access's address and \
              each M applied as a post-modify must be LDM-ed to its declared value; an \
              uninitialized register serves whatever the hardware woke up with",
        check: registers_initialized,
    },
    Invariant {
        name: "use-sequence",
        why: "the body must serve access positions 0..N exactly once each, in order — the \
              data-path instructions consume their addresses in program order, so any \
              permutation or omission feeds an instruction the wrong operand",
        check: use_sequence,
    },
    Invariant {
        name: FREE_UPDATES_IN_RANGE,
        why: "an auto post-modify is only free when |delta| <= M; a larger immediate would \
              not encode and must be an explicit ADDA instead",
        check: flagged_rows_only,
    },
    Invariant {
        name: DELTA_COVERAGE,
        why: "between consecutive serves of one AR, the applied updates (auto post-modify, \
              modify-register content, explicit ADDAs) must sum exactly to the address \
              distance between the served accesses — including the wrap back to the next \
              iteration; any gap leaves the register pointing at the wrong word",
        check: delta_coverage,
    },
    Invariant {
        name: "steady-state-advance",
        why: "over one body pass each serving AR must advance by exactly the effective \
              stride of its array, or addresses drift further off every iteration",
        check: steady_state_advance,
    },
    Invariant {
        name: CARRY_BOUNDARIES,
        why: "carry blocks may appear only at the flattened nest's period boundaries, hold \
              only ADDAs, and per register must sum to the array's carry at that level — \
              carries anywhere else fire mid-sweep and corrupt the inner loop",
        check: carry_boundaries,
    },
    Invariant {
        name: "cycle-accounting",
        why: "the per-iteration addressing cost must be re-derivable from the rows (one \
              cycle per body LDA/LDM/ADDA, zero per USE) and equal the cost the model \
              claims; unaccounted cycles mean the optimizer is minimizing the wrong number",
        check: cycle_accounting,
    },
];

/// Checks `program`, generated for `spec` on `agu` with `layout`,
/// against every invariant in [`INVARIANTS`]; `expected_cycles` is the
/// cost model's claimed addressing cycles per iteration, compared by
/// `cycle-accounting` when given. One walk over the rows builds the
/// derivation, then each invariant reports, in registry order, the
/// violations the walk flagged for it followed by those it derives
/// from the walk's aggregates.
pub fn check_program(
    spec: &LoopSpec,
    layout: &MemoryLayout,
    agu: &AguSpec,
    program: &AddressProgram,
    expected_cycles: Option<u64>,
) -> CheckReport {
    let ctx = CheckContext {
        spec,
        layout,
        agu,
        program,
        expected_cycles,
    };
    let derivation = Derivation::new(&ctx);
    let mut violations = Vec::new();
    for invariant in INVARIANTS {
        let flagged = derivation.flagged.iter();
        violations.extend(flagged.filter(|v| v.invariant == invariant.name).cloned());
        (invariant.check)(&derivation, &mut violations);
    }
    CheckReport {
        invariants_checked: INVARIANTS.len(),
        violations,
    }
}

// ---------------------------------------------------------------------
// The derivation: one walk over prologue, body and carries
// ---------------------------------------------------------------------

/// Where a row sits inside the program (for violation messages).
#[derive(Debug, Clone, Copy)]
enum RowLoc {
    Prologue(usize),
    Body(usize),
    Carry(usize, usize),
}

impl fmt::Display for RowLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowLoc::Prologue(i) => write!(f, "prologue[{i}]"),
            RowLoc::Body(i) => write!(f, "body[{i}]"),
            RowLoc::Carry(b, i) => write!(f, "carry[{b}][{i}]"),
        }
    }
}

/// The one value every serve of a chain agrees on, if they agree.
#[derive(Debug, Clone, Copy, Default)]
enum Agreed<T> {
    #[default]
    Empty,
    One(T),
    Mixed,
}

impl<T: Copy + PartialEq> Agreed<T> {
    fn add(&mut self, value: T) {
        *self = match *self {
            Agreed::Empty => Agreed::One(value),
            Agreed::One(seen) if seen == value => Agreed::One(seen),
            _ => Agreed::Mixed,
        };
    }
}

/// One serve of an AR: its position, the update sum applied since the
/// register's previous serve (for the first serve, the deltas before it
/// in the body), and the access's iteration-0, carry-free address
/// `base + coefficient * start + offset` (`None` when the position or
/// its array is unknown).
#[derive(Debug, Clone, Copy)]
struct Serve {
    position: usize,
    gap: i64,
    address: Option<i64>,
}

/// The delta ledger of one address register over one body pass.
#[derive(Debug, Default)]
struct Ledger {
    serves: Vec<Serve>,
    /// Update sum since the last serve (the tail once the walk ends).
    pending: i64,
    /// Set when the body reloads the register absolutely (LDA), which
    /// makes a steady-state ledger underivable.
    poisoned: bool,
    /// The served accesses' per-iteration advance
    /// (`coefficient * loop stride`), and their array.
    stride: Agreed<i64>,
    array: Agreed<ArrayId>,
}

/// What the walk learns about one AR index named by any row.
#[derive(Debug, Default)]
struct Register {
    /// First row outside the prologue that names the register.
    first_use: Option<RowLoc>,
    ledger: Ledger,
    /// Carry-block ADDA sums per period.
    carries: Vec<(u64, i64)>,
}

/// Every fact the invariants consult, gathered in one walk over the
/// prologue, body and carry rows.
struct Derivation<'a> {
    ctx: &'a CheckContext<'a>,
    /// Violations that one row (or the program header) decides, in row
    /// order.
    flagged: Vec<Violation>,
    /// Per AR index named by any row, out-of-range indices included.
    registers: BTreeMap<u16, Register>,
    /// Per AR and per modify register the prologue loads: the first
    /// value loaded and the row of the latest load.
    ar_loads: BTreeMap<u16, (i64, usize)>,
    mr_loads: BTreeMap<u16, (i64, usize)>,
    /// The positions the body serves, in order.
    served: Vec<usize>,
    /// Body cycles under the machine's cost table; words of every row.
    body_cycles: u64,
    words: u64,
    /// The flattened nest's period per level (empty for a flat loop).
    periods: Vec<u64>,
}

impl<'a> Derivation<'a> {
    fn new(ctx: &'a CheckContext<'a>) -> Self {
        let (program, agu) = (ctx.program, ctx.agu);
        let periods = ctx.spec.nest().map(|nest| nest.periods());
        let mut d = Derivation {
            ctx,
            flagged: Vec::new(),
            registers: BTreeMap::new(),
            ar_loads: BTreeMap::new(),
            mr_loads: BTreeMap::new(),
            served: Vec::new(),
            body_cycles: 0,
            words: 0,
            periods: periods.unwrap_or_default(),
        };
        let (ars, mrs) = (program.address_registers(), program.modify_values().len());
        if ars > agu.address_registers() {
            d.flag(
                AR_IN_MACHINE_RANGE,
                format!(
                    "program declares {ars} address registers but the machine has {}",
                    agu.address_registers()
                ),
            );
        }
        if mrs > agu.modify_registers() {
            d.flag(
                MR_IN_MACHINE_RANGE,
                format!(
                    "program declares {mrs} modify values but the machine has {} modify registers",
                    agu.modify_registers()
                ),
            );
        }
        for (i, instr) in program.prologue().iter().enumerate() {
            d.visit(RowLoc::Prologue(i), instr);
        }
        for (i, instr) in program.body().iter().enumerate() {
            d.visit(RowLoc::Body(i), instr);
        }
        let blocks = program.carries();
        if ctx.spec.nest().is_none() && !blocks.is_empty() {
            d.flag(
                CARRY_BOUNDARIES,
                format!(
                    "program has {} carry block(s) but the loop is not a flattened nest",
                    blocks.len()
                ),
            );
        }
        for (b, block) in blocks.iter().enumerate() {
            if ctx.spec.nest().is_some() && !d.periods.contains(&block.period) {
                d.flag(
                    CARRY_BOUNDARIES,
                    format!(
                        "carry block {b} fires every {} iterations, which is not a nest \
                         period (periods: {:?})",
                        block.period, d.periods
                    ),
                );
            }
            for (i, instr) in block.instrs.iter().enumerate() {
                d.visit(RowLoc::Carry(b, i), instr);
            }
        }
        d
    }

    fn flag(&mut self, invariant: &'static str, message: String) {
        self.flagged.push(Violation { invariant, message });
    }

    fn visit(&mut self, loc: RowLoc, instr: &AddressInstr) {
        let ctx = self.ctx;
        self.words += instr.words();
        if let Some(reg) = instr.register() {
            let declared = ctx.program.address_registers();
            if usize::from(reg.0) >= declared {
                self.flag(
                    AR_IN_MACHINE_RANGE,
                    format!(
                        "{reg} referenced at {loc} but the program declares only {declared} ARs"
                    ),
                );
            }
            if !matches!(loc, RowLoc::Prologue(_)) {
                let register = self.registers.entry(reg.0).or_default();
                register.first_use.get_or_insert(loc);
            }
        }
        if let Some(mr) = instr.modify_register() {
            let declared = ctx.program.modify_values().len();
            if usize::from(mr.0) >= declared {
                self.flag(MR_IN_MACHINE_RANGE,
                    format!("{mr} referenced at {loc} but the program declares only {declared} modify values"),
                );
            }
        }
        if let AddressInstr::Use {
            update: Update::Auto { delta },
            ..
        } = *instr
        {
            if !ctx.agu.is_free_delta(delta) {
                self.flag(
                    FREE_UPDATES_IN_RANGE,
                    format!(
                        "{loc} auto post-modify {delta:+} exceeds the machine's modify range M={}",
                        ctx.agu.update_range()
                    ),
                );
            }
        }
        match (loc, *instr) {
            (RowLoc::Prologue(row), AddressInstr::Lda { reg, address }) => {
                let load = self.ar_loads.entry(reg.0).or_insert((address, row));
                let last = std::mem::replace(&mut load.1, row);
                if last != row {
                    self.flag(
                        PROLOGUE_LOADS_ONLY,
                        format!("{reg} loaded twice in the prologue (rows {last} and {row})"),
                    );
                }
            }
            (RowLoc::Prologue(row), AddressInstr::Ldm { mr, value }) => {
                let load = self.mr_loads.entry(mr.0).or_insert((value, row));
                let last = std::mem::replace(&mut load.1, row);
                if last != row {
                    self.flag(
                        PROLOGUE_LOADS_ONLY,
                        format!("{mr} loaded twice in the prologue (rows {last} and {row})"),
                    );
                }
            }
            (RowLoc::Prologue(_), other) => self.flag(
                PROLOGUE_LOADS_ONLY,
                format!("{loc} is `{other}`, not a load"),
            ),
            (RowLoc::Body(_), other) => self.body_row(loc, other),
            (RowLoc::Carry(b, _), AddressInstr::Adda { reg, delta }) => {
                let period = ctx.program.carries()[b].period;
                let carries = &mut self.registers.entry(reg.0).or_default().carries;
                match carries.iter_mut().find(|(p, _)| *p == period) {
                    Some((_, sum)) => *sum += delta,
                    None => carries.push((period, delta)),
                }
            }
            (RowLoc::Carry(..), other) => {
                if ctx.spec.nest().is_some() {
                    self.flag(CARRY_BOUNDARIES, format!("{loc} is `{other}`, not an ADDA"));
                }
            }
        }
    }

    fn body_row(&mut self, loc: RowLoc, instr: AddressInstr) {
        let ctx = self.ctx;
        self.body_cycles += instr.cycles_with(&ctx.agu.cost_table());
        match instr {
            AddressInstr::Adda { reg, delta } => {
                self.registers.entry(reg.0).or_default().ledger.pending += delta;
            }
            AddressInstr::Use {
                reg,
                position,
                update,
            } => {
                self.served.push(position);
                let applied = match update {
                    Update::None => 0,
                    Update::Auto { delta } => delta,
                    Update::Modify { mr } => ctx
                        .program
                        .modify_values()
                        .get(usize::from(mr.0))
                        .copied()
                        .unwrap_or_default(),
                };
                let access = ctx.spec.accesses().get(position);
                let info = access.and_then(|a| ctx.spec.array_info(a.array));
                let ledger = &mut self.registers.entry(reg.0).or_default().ledger;
                if let Some(access) = access {
                    ledger.array.add(access.array);
                }
                if let Some(info) = info {
                    ledger.stride.add(info.coefficient() * ctx.spec.stride());
                }
                let address = access.zip(info).and_then(|(access, info)| {
                    let base = ctx.layout.base(access.array)?;
                    Some(base + info.coefficient() * ctx.spec.start() + access.offset)
                });
                ledger.serves.push(Serve {
                    position,
                    gap: ledger.pending,
                    address,
                });
                ledger.pending = applied;
            }
            AddressInstr::Lda { reg, .. } => {
                self.registers.entry(reg.0).or_default().ledger.poisoned = true;
                self.flag(
                    DELTA_COVERAGE,
                    format!("{loc} reloads {reg} absolutely; steady-state deltas are underivable"),
                );
            }
            AddressInstr::Ldm { mr, .. } => self.flag(
                DELTA_COVERAGE,
                format!("{loc} reloads {mr}; modify registers must be loop-invariant"),
            ),
        }
    }

    /// The ledgers of the program's declared ARs, by index.
    fn ledgers(&self) -> impl Iterator<Item = (u16, &Ledger)> {
        let declared = self.ctx.program.address_registers();
        self.registers
            .iter()
            .filter(move |(&reg, _)| usize::from(reg) < declared)
            .map(|(&reg, register)| (reg, &register.ledger))
    }
}

fn push(out: &mut Vec<Violation>, invariant: &'static str, message: String) {
    out.push(Violation { invariant, message });
}

// ---------------------------------------------------------------------
// Invariants: what each derives beyond the rows the walk flagged
// ---------------------------------------------------------------------

/// For invariants whose every rule is decided row by row.
fn flagged_rows_only(_: &Derivation<'_>, _: &mut Vec<Violation>) {}

fn registers_initialized(d: &Derivation<'_>, out: &mut Vec<Violation>) {
    const NAME: &str = "registers-initialized";
    // Every declared modify value must be LDM-ed to exactly that value:
    // the delta ledger (and the hardware) read the register, not the
    // table, so table and load must agree.
    for (i, &value) in d.ctx.program.modify_values().iter().enumerate() {
        let mr = u16::try_from(i).unwrap_or(u16::MAX);
        match d.mr_loads.get(&mr) {
            None => push(
                out,
                NAME,
                format!("M{i} declares value {value} but the prologue never loads it"),
            ),
            Some(&(loaded, _)) if loaded != value => push(
                out,
                NAME,
                format!("M{i} declares value {value} but the prologue loads {loaded}"),
            ),
            Some(_) => {}
        }
    }

    // Every AR referenced after the prologue must be LDA-ed, and a
    // serving AR must start at its first access's address (adjusted by
    // any deltas the body applies before that first serve).
    for (reg, register) in &d.registers {
        if let Some(loc) = register.first_use {
            if !d.ar_loads.contains_key(reg) {
                push(
                    out,
                    NAME,
                    format!("AR{reg} used at {loc} but never loaded in the prologue"),
                );
            }
        }
    }
    for (reg, ledger) in d.ledgers() {
        let Some(first) = ledger.serves.first() else {
            continue;
        };
        let (Some(&(loaded, _)), Some(expected)) = (d.ar_loads.get(&reg), first.address) else {
            continue; // missing LDA reported above; bad position elsewhere
        };
        let head = first.gap;
        if loaded + head != expected {
            push(
                out,
                NAME,
                format!(
                    "AR{reg} is loaded to {loaded} but its first serve (position {}) \
                     needs address {expected}{}",
                    first.position,
                    if head != 0 {
                        format!(" ({head} applied before the first serve)")
                    } else {
                        String::new()
                    }
                ),
            );
        }
    }
}

fn use_sequence(d: &Derivation<'_>, out: &mut Vec<Violation>) {
    const NAME: &str = "use-sequence";
    let (served, expected) = (d.served.len(), d.ctx.spec.len());
    if served != expected {
        push(
            out,
            NAME,
            format!("body serves {served} accesses but the loop has {expected}"),
        );
    }
    // One divergence implies a cascade; the first is reported.
    if let Some((i, position)) = d.served.iter().enumerate().find(|&(i, &p)| p != i) {
        push(
            out,
            NAME,
            format!("serve #{i} is position {position}, expected {i}"),
        );
    }
}

fn delta_coverage(d: &Derivation<'_>, out: &mut Vec<Violation>) {
    for (reg, ledger) in d.ledgers() {
        if ledger.poisoned {
            continue;
        }
        // Intra-iteration gaps: updates between serve i-1 and serve i
        // must equal the flat address distance.
        for pair in ledger.serves.windows(2) {
            let [from, to] = pair else {
                continue;
            };
            let (Some(a), Some(b)) = (from.address, to.address) else {
                push(
                    out,
                    DELTA_COVERAGE,
                    format!("AR{reg} serves a position outside the loop's access list"),
                );
                continue;
            };
            let distance = b - a;
            if to.gap != distance {
                push(
                    out,
                    DELTA_COVERAGE,
                    format!(
                        "AR{reg} moves {:+} between positions {} and {}, but their \
                         addresses are {distance:+} apart",
                        to.gap, from.position, to.position
                    ),
                );
            }
        }
        // Wrap: tail + head must carry the register from its last serve
        // to its first serve of the next iteration. That distance is
        // only constant when the chain stays on one effective stride.
        let stride = match ledger.stride {
            Agreed::Empty => continue,
            Agreed::Mixed => {
                push(
                    out,
                    DELTA_COVERAGE,
                    format!(
                        "AR{reg} serves arrays with different effective strides; its wrap \
                         delta cannot be constant"
                    ),
                );
                continue;
            }
            Agreed::One(stride) => stride,
        };
        let (first, last) = (ledger.serves[0], ledger.serves[ledger.serves.len() - 1]);
        let (Some(first_addr), Some(last_addr)) = (first.address, last.address) else {
            continue;
        };
        let wrap = ledger.pending + first.gap;
        let needed = first_addr + stride - last_addr;
        if wrap != needed {
            push(
                out,
                DELTA_COVERAGE,
                format!(
                    "AR{reg} wraps {wrap:+} from position {} back to position {}, \
                     but the next iteration needs {needed:+}",
                    last.position, first.position
                ),
            );
        }
    }
}

fn steady_state_advance(d: &Derivation<'_>, out: &mut Vec<Violation>) {
    const NAME: &str = "steady-state-advance";
    for (reg, ledger) in d.ledgers() {
        // Mixed strides are reported by delta-coverage.
        let Agreed::One(stride) = ledger.stride else {
            continue;
        };
        // One body pass applies every gap plus the tail.
        let total = ledger.pending + ledger.serves.iter().map(|s| s.gap).sum::<i64>();
        if !ledger.poisoned && total != stride {
            push(
                out,
                NAME,
                format!(
                    "AR{reg} advances {total:+} per iteration but its array strides {stride:+}"
                ),
            );
        }
    }
}

fn carry_boundaries(d: &Derivation<'_>, out: &mut Vec<Violation>) {
    let spec = d.ctx.spec;
    if spec.nest().is_none() {
        return;
    }
    // Per register and period, the ADDA sum across blocks must equal
    // the summed carries of the register's array at the levels sharing
    // that period (levels with trip count 1 can share a period). A
    // declared register whose chain is empty or spans arrays has no
    // well-defined carry (mixed chains are reported by delta-coverage),
    // so its sums at nest periods are not compared.
    let declared = d.ctx.program.address_registers();
    for (&reg, register) in &d.registers {
        let chain = (usize::from(reg) < declared).then_some(register.ledger.array);
        let undefined = matches!(chain, Some(Agreed::Empty | Agreed::Mixed));
        // (period, rows add, nest requires)
        let mut sums: Vec<(u64, i64, i64)> = register
            .carries
            .iter()
            .filter(|(period, _)| !(undefined && d.periods.contains(period)))
            .map(|&(period, got)| (period, got, 0))
            .collect();
        if let Some(Agreed::One(array)) = chain {
            let carries = spec.array_info(array).map(|info| info.carries());
            for (&period, &carry) in d.periods.iter().zip(carries.unwrap_or_default()) {
                if carry == 0 {
                    continue;
                }
                match sums.iter_mut().find(|(p, ..)| *p == period) {
                    Some((.., need)) => *need += carry,
                    None => sums.push((period, 0, carry)),
                }
            }
        }
        sums.sort_unstable_by_key(|&(period, ..)| period);
        for (period, got, need) in sums {
            if got != need {
                push(
                    out,
                    CARRY_BOUNDARIES,
                    format!(
                        "AR{reg} carry at period {period}: rows add {got:+}, nest requires {need:+}"
                    ),
                );
            }
        }
    }
}

fn cycle_accounting(d: &Derivation<'_>, out: &mut Vec<Violation>) {
    const NAME: &str = "cycle-accounting";
    let program = d.ctx.program;
    // Prices come from the *machine's* cost table, so a program whose
    // embedded table disagrees with the target machine is caught here.
    let costs = d.ctx.agu.cost_table();
    if program.cost_table() != costs {
        push(
            out,
            NAME,
            format!(
                "program is priced under a different cost table (lda={}, ldm={}, adda={}) than the machine (lda={}, ldm={}, adda={})",
                program.cost_table().lda(),
                program.cost_table().ldm(),
                program.cost_table().adda(),
                costs.lda(),
                costs.ldm(),
                costs.adda()
            ),
        );
    }
    let derived = d.body_cycles;
    if derived != program.cycles_per_iteration() {
        push(
            out,
            NAME,
            format!(
                "rows give {derived} cycles per iteration but the program claims {}",
                program.cycles_per_iteration()
            ),
        );
    }
    if let Some(expected) = d.ctx.expected_cycles {
        if expected != derived {
            push(
                out,
                NAME,
                format!(
                    "cost model claims {expected} cycles per iteration but the rows give {derived}"
                ),
            );
        }
    }
    if d.words != program.words() {
        push(
            out,
            NAME,
            format!(
                "rows occupy {} instruction words but the program claims {}",
                d.words,
                program.words()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_agu::{MrId, RegId};
    use raco_ir::{AccessKind, LoopNest, NestLevel};

    /// `for (i = 0; i < n; i++) { … x[i] … x[i+2] … }` with x based at
    /// 100: AR0 serves offset 0, AR1 serves offset 2, both advancing by
    /// the stride 1 each iteration.
    fn two_register_loop() -> (LoopSpec, MemoryLayout) {
        let mut spec = LoopSpec::new("pair", "i", 1);
        let x = spec.add_array("x", 1);
        spec.push_access(x, 0, AccessKind::Read).unwrap();
        spec.push_access(x, 2, AccessKind::Read).unwrap();
        let layout = MemoryLayout::from_bases(vec![100]);
        (spec, layout)
    }

    fn two_register_program() -> AddressProgram {
        AddressProgram::new(
            vec![
                AddressInstr::Lda {
                    reg: RegId(0),
                    address: 100,
                },
                AddressInstr::Lda {
                    reg: RegId(1),
                    address: 102,
                },
            ],
            vec![
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 0,
                    update: Update::Auto { delta: 1 },
                },
                AddressInstr::Use {
                    reg: RegId(1),
                    position: 1,
                    update: Update::Auto { delta: 1 },
                },
            ],
            2,
            vec![],
        )
    }

    fn agu() -> AguSpec {
        AguSpec::new(4, 1).unwrap().with_modify_registers(2)
    }

    fn run(spec: &LoopSpec, layout: &MemoryLayout, program: &AddressProgram) -> CheckReport {
        check_program(spec, layout, &agu(), program, None)
    }

    fn violated(report: &CheckReport) -> Vec<&'static str> {
        report.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn clean_program_passes_every_invariant() {
        let (spec, layout) = two_register_loop();
        let report = run(&spec, &layout, &two_register_program());
        assert!(report.is_clean(), "unexpected violations: {report}");
        assert_eq!(report.invariants_checked(), INVARIANTS.len());
        assert_eq!(report.summary(), "");
    }

    #[test]
    fn expected_cycles_are_compared_when_given() {
        let (spec, layout) = two_register_loop();
        let program = two_register_program();
        let clean = check_program(&spec, &layout, &agu(), &program, Some(0));
        assert!(clean.is_clean());
        let wrong = check_program(&spec, &layout, &agu(), &program, Some(3));
        assert_eq!(violated(&wrong), ["cycle-accounting"]);
    }

    #[test]
    fn out_of_range_address_register_is_caught() {
        let (spec, layout) = two_register_loop();
        let mut program = two_register_program();
        program = AddressProgram::new(
            program.prologue().to_vec(),
            vec![
                AddressInstr::Use {
                    reg: RegId(9),
                    position: 0,
                    update: Update::Auto { delta: 1 },
                },
                AddressInstr::Use {
                    reg: RegId(1),
                    position: 1,
                    update: Update::Auto { delta: 1 },
                },
            ],
            2,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"ar-in-machine-range"));
    }

    #[test]
    fn out_of_range_modify_register_is_caught() {
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            vec![
                AddressInstr::Lda {
                    reg: RegId(0),
                    address: 100,
                },
                AddressInstr::Lda {
                    reg: RegId(1),
                    address: 102,
                },
                AddressInstr::Ldm {
                    mr: MrId(7),
                    value: 1,
                },
            ],
            two_register_program().body().to_vec(),
            2,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"mr-in-machine-range"));
    }

    #[test]
    fn adda_in_prologue_is_caught() {
        let (spec, layout) = two_register_loop();
        let mut prologue = two_register_program().prologue().to_vec();
        prologue.push(AddressInstr::Adda {
            reg: RegId(0),
            delta: 1,
        });
        let program =
            AddressProgram::new(prologue, two_register_program().body().to_vec(), 2, vec![]);
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"prologue-loads-only"));
    }

    #[test]
    fn wrong_initial_address_is_caught() {
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            vec![
                AddressInstr::Lda {
                    reg: RegId(0),
                    address: 100,
                },
                AddressInstr::Lda {
                    reg: RegId(1),
                    address: 101, // should be 102
                },
            ],
            two_register_program().body().to_vec(),
            2,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"registers-initialized"));
    }

    #[test]
    fn missing_modify_load_is_caught() {
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            two_register_program().prologue().to_vec(),
            two_register_program().body().to_vec(),
            2,
            vec![5], // declared but never LDM-ed
        );
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"registers-initialized"));
    }

    #[test]
    fn permuted_use_sequence_is_caught() {
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            two_register_program().prologue().to_vec(),
            vec![
                AddressInstr::Use {
                    reg: RegId(1),
                    position: 1,
                    update: Update::Auto { delta: 1 },
                },
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 0,
                    update: Update::Auto { delta: 1 },
                },
            ],
            2,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"use-sequence"));
    }

    #[test]
    fn oversized_auto_update_is_caught() {
        // M = 1, so an auto post-modify of +2 cannot be free.
        let mut spec = LoopSpec::new("wide", "i", 2);
        let x = spec.add_array("x", 1);
        spec.push_access(x, 0, AccessKind::Read).unwrap();
        let layout = MemoryLayout::from_bases(vec![100]);
        let program = AddressProgram::new(
            vec![AddressInstr::Lda {
                reg: RegId(0),
                address: 100,
            }],
            vec![AddressInstr::Use {
                reg: RegId(0),
                position: 0,
                update: Update::Auto { delta: 2 },
            }],
            1,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        assert_eq!(violated(&report), ["free-updates-in-range"]);
    }

    #[test]
    fn uncovered_delta_is_caught_with_its_positions() {
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            two_register_program().prologue().to_vec(),
            vec![
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 0,
                    update: Update::None, // drops the +1 wrap
                },
                AddressInstr::Use {
                    reg: RegId(1),
                    position: 1,
                    update: Update::Auto { delta: 1 },
                },
            ],
            2,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        let names = violated(&report);
        assert!(names.contains(&"delta-coverage"));
        assert!(names.contains(&"steady-state-advance"));
        let message = &report
            .violations()
            .iter()
            .find(|v| v.invariant == "delta-coverage")
            .unwrap()
            .message;
        assert!(message.contains("AR0"), "message: {message}");
    }

    #[test]
    fn modify_register_deltas_participate_in_the_ledger() {
        // One register serving offsets 0 and 2 with M0 = +2 covering
        // the intra gap and an explicit ADDA covering the wrap (-1).
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            vec![
                AddressInstr::Lda {
                    reg: RegId(0),
                    address: 100,
                },
                AddressInstr::Ldm {
                    mr: MrId(0),
                    value: 2,
                },
            ],
            vec![
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 0,
                    update: Update::Modify { mr: MrId(0) },
                },
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 1,
                    update: Update::Auto { delta: -1 },
                },
            ],
            1,
            vec![2],
        );
        let report = run(&spec, &layout, &program);
        assert!(report.is_clean(), "unexpected violations: {report}");
    }

    #[test]
    fn body_lda_poisons_the_ledger_and_is_reported() {
        let (spec, layout) = two_register_loop();
        let mut body = two_register_program().body().to_vec();
        body.push(AddressInstr::Lda {
            reg: RegId(0),
            address: 100,
        });
        let program =
            AddressProgram::new(two_register_program().prologue().to_vec(), body, 2, vec![]);
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"delta-coverage"));
    }

    /// A 2-level nest `for j in 0..3 { for i in 0..4 { x[i] } }` where
    /// x carries +10 per outer sweep.
    fn nested_loop() -> (LoopSpec, MemoryLayout) {
        let mut spec = LoopSpec::new("nested", "i", 1);
        let x = spec.add_array("x", 1);
        spec.push_access(x, 0, AccessKind::Read).unwrap();
        spec.set_nest(LoopNest::new(
            vec![NestLevel {
                var: "j".to_owned(),
                start: 0,
                stride: 1,
                trips: 3,
            }],
            4,
        ));
        spec.set_array_carries(x, vec![10]).unwrap();
        let layout = MemoryLayout::from_bases(vec![100]);
        (spec, layout)
    }

    fn nested_program(carry: i64) -> AddressProgram {
        AddressProgram::new(
            vec![AddressInstr::Lda {
                reg: RegId(0),
                address: 100,
            }],
            vec![AddressInstr::Use {
                reg: RegId(0),
                position: 0,
                update: Update::Auto { delta: 1 },
            }],
            1,
            vec![],
        )
        .with_carries(vec![raco_agu::isa::CarryBlock {
            period: 4,
            instrs: vec![AddressInstr::Adda {
                reg: RegId(0),
                delta: carry,
            }],
        }])
    }

    #[test]
    fn correct_carry_block_passes() {
        let (spec, layout) = nested_loop();
        let report = run(&spec, &layout, &nested_program(10));
        assert!(report.is_clean(), "unexpected violations: {report}");
    }

    #[test]
    fn wrong_carry_amount_is_caught() {
        let (spec, layout) = nested_loop();
        let report = run(&spec, &layout, &nested_program(9));
        assert_eq!(violated(&report), ["carry-boundaries"]);
    }

    #[test]
    fn carry_at_a_non_period_boundary_is_caught() {
        let (spec, layout) = nested_loop();
        let program = AddressProgram::new(
            nested_program(10).prologue().to_vec(),
            nested_program(10).body().to_vec(),
            1,
            vec![],
        )
        .with_carries(vec![raco_agu::isa::CarryBlock {
            period: 5, // nest periods are [4]
            instrs: vec![AddressInstr::Adda {
                reg: RegId(0),
                delta: 10,
            }],
        }]);
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"carry-boundaries"));
    }

    #[test]
    fn carry_block_on_a_flat_loop_is_caught() {
        let (spec, layout) = two_register_loop();
        let program = two_register_program().with_carries(vec![raco_agu::isa::CarryBlock {
            period: 4,
            instrs: vec![AddressInstr::Adda {
                reg: RegId(0),
                delta: 1,
            }],
        }]);
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"carry-boundaries"));
    }

    #[test]
    fn invariant_registry_is_well_formed() {
        assert!(INVARIANTS.len() >= 8);
        for invariant in INVARIANTS {
            assert!(!invariant.name.is_empty());
            assert!(!invariant.why.is_empty());
            assert!(
                invariant
                    .name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} is not kebab-case",
                invariant.name
            );
        }
        let mut names: Vec<_> = INVARIANTS.iter().map(|i| i.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), INVARIANTS.len(), "duplicate invariant names");
    }
}
