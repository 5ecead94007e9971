//! Address-generation-unit (AGU) machine model and declarative machine
//! descriptions.
//!
//! The paper's machine model (Section 2): the AGU owns `K` address
//! registers; a post-increment/decrement by `d` with `|d| <= M` executes in
//! parallel with the data path (zero cost), while any larger update costs
//! one extra instruction (unit cost). Many real DSPs additionally provide
//! *modify registers* whose content can be added to an address register for
//! free — the optional `modify_registers` field models those (used by the
//! E7 extension experiment; see their ref \[2\], Araujo et al., ISSS 1996).
//!
//! Beyond the paper machine, this module generalizes the model along two
//! axes so that new backends are **data, not code**:
//!
//! * the free auto-modify window is an arbitrary [`UpdateRange`]
//!   `[min, max]` containing zero (a MAC-style post-increment-only AGU is
//!   `[0, 1]`; a pure stream machine with no immediate auto-modify is
//!   `[0, 0]`), and
//! * explicit address instructions carry per-opcode costs in a
//!   [`CostTable`] (`LDA`/`LDM`/`ADDA`), unit by default.
//!
//! A [`MachineDescription`] names a validated [`AguSpec`] and can be
//! parsed from a small TOML-like text format or looked up from the
//! built-in registry ([`MachineDescription::builtin`]). The built-ins
//! are themselves description texts in one table, parsed once per
//! process by the same [`MachineDescription::parse`]; [`AguSpec`] has
//! no machine-specific constructor besides [`AguSpec::default`], the
//! paper machine.

use std::fmt;
use std::sync::OnceLock;

/// Hard cap on register-class sizes accepted by machine descriptions.
///
/// Shared by the description parser and the serve protocol so a hostile
/// description cannot make the server allocate per-register state without
/// bound.
pub const MAX_MACHINE_REGISTERS: usize = 4096;

/// Hard cap on per-instruction costs accepted by machine descriptions.
pub const MAX_INSTRUCTION_COST: u32 = 4096;

/// Errors produced when constructing an [`AguSpec`] or [`UpdateRange`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// At least one address register is required.
    NoAddressRegisters,
    /// An update range must satisfy `min <= 0 <= max` so that "stay put"
    /// is always a legal free update.
    UpdateRangeExcludesZero,
    /// Explicit address instructions must cost at least one cycle.
    ZeroCost,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoAddressRegisters => {
                f.write_str("an AGU needs at least one address register")
            }
            SpecError::UpdateRangeExcludesZero => {
                f.write_str("an update range must contain zero (min <= 0 <= max)")
            }
            SpecError::ZeroCost => {
                f.write_str("explicit address instructions must cost at least one cycle")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The window of immediate post-modify deltas that are free on a machine.
///
/// The paper's machine uses the symmetric window `[-M, M]`; real AGUs can
/// be asymmetric — a MAC-style post-increment unit frees only `[0, 1]`, a
/// stream machine with no immediate auto-modify only `[0, 0]`. The range
/// always contains zero ("no update" is free on every machine).
///
/// # Examples
///
/// ```
/// use raco_ir::UpdateRange;
///
/// let sym = UpdateRange::symmetric(1);
/// assert!(sym.contains(-1) && sym.contains(1) && !sym.contains(2));
/// assert!(sym.is_symmetric());
///
/// let mac = UpdateRange::new(0, 1).unwrap();
/// assert!(mac.contains(1) && !mac.contains(-1));
/// assert!(!mac.is_symmetric());
/// assert_eq!(mac.symmetric_radius(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UpdateRange {
    min: i64,
    max: i64,
}

impl UpdateRange {
    /// Builds the window `[min, max]`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UpdateRangeExcludesZero`] unless
    /// `min <= 0 <= max`.
    pub fn new(min: i64, max: i64) -> Result<Self, SpecError> {
        if min > 0 || max < 0 {
            return Err(SpecError::UpdateRangeExcludesZero);
        }
        Ok(UpdateRange { min, max })
    }

    /// The paper's symmetric window `[-m, m]`.
    pub fn symmetric(m: u32) -> Self {
        UpdateRange {
            min: -i64::from(m),
            max: i64::from(m),
        }
    }

    /// Lower bound (inclusive, `<= 0`).
    pub fn min(&self) -> i64 {
        self.min
    }

    /// Upper bound (inclusive, `>= 0`).
    pub fn max(&self) -> i64 {
        self.max
    }

    /// `true` iff a post-modify by `delta` falls inside the free window.
    pub fn contains(&self, delta: i64) -> bool {
        self.min <= delta && delta <= self.max
    }

    /// `true` iff the window is of the paper's `[-M, M]` shape.
    ///
    /// Symmetry is what makes mirror-image patterns cost-equivalent; the
    /// cost-curve cache only shares mirror classes on symmetric machines.
    pub fn is_symmetric(&self) -> bool {
        self.min.checked_neg() == Some(self.max)
    }

    /// The largest `M` with `[-M, M]` inside the window — a sound
    /// symmetric summary (`[0, 1]` summarizes to `0`). Saturates at
    /// `u32::MAX`.
    pub fn symmetric_radius(&self) -> u32 {
        let radius = self.min.unsigned_abs().min(self.max.unsigned_abs());
        u32::try_from(radius).unwrap_or(u32::MAX)
    }
}

impl fmt::Display for UpdateRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_symmetric() {
            write!(f, "{}", self.max)
        } else {
            write!(f, "[{}..{}]", self.min, self.max)
        }
    }
}

/// Per-opcode cycle costs of the explicit address instructions.
///
/// `USE` (the access itself) is always zero-cost — it rides on the
/// data-path instruction; only the explicit instructions are priced.
/// The paper machine charges one cycle each ([`CostTable::UNIT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostTable {
    lda: u32,
    ldm: u32,
    adda: u32,
}

impl CostTable {
    /// The paper's uniform unit-cost table.
    pub const UNIT: CostTable = CostTable {
        lda: 1,
        ldm: 1,
        adda: 1,
    };

    /// Builds a cost table.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::ZeroCost`] if any cost is zero — a zero-cost
    /// explicit instruction would make the allocator's objective
    /// degenerate.
    pub fn new(lda: u32, ldm: u32, adda: u32) -> Result<Self, SpecError> {
        if lda == 0 || ldm == 0 || adda == 0 {
            return Err(SpecError::ZeroCost);
        }
        Ok(CostTable { lda, ldm, adda })
    }

    /// Cycles of an `LDA` (address-register load).
    pub fn lda(&self) -> u32 {
        self.lda
    }

    /// Cycles of an `LDM` (modify-register load).
    pub fn ldm(&self) -> u32 {
        self.ldm
    }

    /// Cycles of an explicit `ADDA` update — the unit the allocator
    /// minimizes, scaled.
    pub fn adda(&self) -> u32 {
        self.adda
    }

    /// `true` for the paper's all-ones table.
    pub fn is_unit(&self) -> bool {
        *self == CostTable::UNIT
    }
}

impl Default for CostTable {
    fn default() -> Self {
        CostTable::UNIT
    }
}

/// Description of an address-generation unit.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use raco_ir::{AguSpec, UpdateRange};
///
/// // Four address registers, free auto-modify within |d| <= 1:
/// let agu = AguSpec::new(4, 1)?;
/// assert!(agu.is_free_delta(-1));
/// assert!(!agu.is_free_delta(2));
///
/// // Extended machine with two modify registers:
/// let agu = AguSpec::new(4, 1)?.with_modify_registers(2);
/// assert_eq!(agu.modify_registers(), 2);
///
/// // A MAC-style post-increment machine frees only [0, 1]:
/// let mac = AguSpec::new(8, 1)?.with_update_range(UpdateRange::new(0, 1)?);
/// assert!(mac.is_free_delta(1) && !mac.is_free_delta(-1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AguSpec {
    address_registers: usize,
    update_range: UpdateRange,
    modify_registers: usize,
    costs: CostTable,
}

impl AguSpec {
    /// Creates an AGU with `address_registers` address registers (the
    /// paper's `K`) and symmetric auto-modify range `modify_range` (the
    /// paper's `M`), unit costs.
    ///
    /// A `modify_range` of zero is allowed and means only re-using the same
    /// address is free — useful as a degenerate case in tests.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::NoAddressRegisters`] if
    /// `address_registers == 0`.
    pub fn new(address_registers: usize, modify_range: u32) -> Result<Self, SpecError> {
        if address_registers == 0 {
            return Err(SpecError::NoAddressRegisters);
        }
        Ok(AguSpec {
            address_registers,
            update_range: UpdateRange::symmetric(modify_range),
            modify_registers: 0,
            costs: CostTable::UNIT,
        })
    }

    /// Adds `count` modify registers to the machine (builder style).
    ///
    /// A modify register holds an arbitrary signed constant; adding its
    /// content to an address register is as free as an in-range
    /// auto-modify. Allocation of values to modify registers is performed
    /// by `raco-agu`.
    #[must_use]
    pub fn with_modify_registers(mut self, count: usize) -> Self {
        self.modify_registers = count;
        self
    }

    /// Replaces the free auto-modify window (builder style).
    #[must_use]
    pub fn with_update_range(mut self, range: UpdateRange) -> Self {
        self.update_range = range;
        self
    }

    /// Replaces the instruction cost table (builder style).
    #[must_use]
    pub fn with_cost_table(mut self, costs: CostTable) -> Self {
        self.costs = costs;
        self
    }

    /// Number of address registers `K`.
    pub fn address_registers(&self) -> usize {
        self.address_registers
    }

    /// Symmetric auto-modify summary `M`: the largest `M` with `[-M, M]`
    /// inside the machine's update range. Equal to the full story on
    /// paper-shaped machines; use [`AguSpec::update_range`] for the exact
    /// window.
    pub fn modify_range(&self) -> u32 {
        self.update_range.symmetric_radius()
    }

    /// The exact free auto-modify window.
    pub fn update_range(&self) -> UpdateRange {
        self.update_range
    }

    /// The per-opcode instruction cost table.
    pub fn cost_table(&self) -> CostTable {
        self.costs
    }

    /// Number of modify registers (zero on the plain paper machine).
    pub fn modify_registers(&self) -> usize {
        self.modify_registers
    }

    /// `true` if a post-update by `delta` is free via auto-modify
    /// (ignoring modify registers, whose contents are allocation-dependent).
    pub fn is_free_delta(&self, delta: i64) -> bool {
        self.update_range.contains(delta)
    }

    /// Returns a copy with a different register count, keeping the other
    /// parameters — convenient for register-constraint sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::NoAddressRegisters`] if `k == 0`.
    pub fn with_address_registers(&self, k: usize) -> Result<Self, SpecError> {
        if k == 0 {
            return Err(SpecError::NoAddressRegisters);
        }
        let mut copy = *self;
        copy.address_registers = k;
        Ok(copy)
    }
}

impl Default for AguSpec {
    /// The default machine matches the paper's running example:
    /// `K = 1` register constraint is *not* assumed; we default to a small
    /// generic AGU with `K = 4`, `M = 1`.
    fn default() -> Self {
        AguSpec {
            address_registers: 4,
            update_range: UpdateRange::symmetric(1),
            modify_registers: 0,
            costs: CostTable::UNIT,
        }
    }
}

impl fmt::Display for AguSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AGU(K={}, M={}, MR={})",
            self.address_registers, self.update_range, self.modify_registers
        )?;
        if !self.costs.is_unit() {
            write!(
                f,
                " costs(lda={}, ldm={}, adda={})",
                self.costs.lda, self.costs.ldm, self.costs.adda
            )?;
        }
        Ok(())
    }
}

/// Error from [`MachineDescription::parse`], positioned at the offending
/// line (1-based; line 0 for whole-description errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineParseError {
    /// 1-based source line of the error (0 when the error is not tied to
    /// one line, e.g. a missing required field).
    pub line: usize,
    /// Human-readable description of what is wrong.
    pub message: String,
}

impl MachineParseError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        MachineParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for MachineParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "machine description: {}", self.message)
        } else {
            write!(
                f,
                "machine description line {}: {}",
                self.line, self.message
            )
        }
    }
}

impl std::error::Error for MachineParseError {}

/// A named, validated machine: the unit of the `--machine` CLI flag, the
/// serve protocol's `machine` knob, and the built-in registry.
///
/// Descriptions are *data*: the text format below fully determines the
/// machine, and every built-in is written in it.
///
/// ```text
/// name = "bwdsp"
/// address_registers = 8
/// update_min = 0
/// update_max = 1
/// modify_registers = 2
/// lda_cost = 2
/// ```
///
/// # Examples
///
/// ```
/// use raco_ir::MachineDescription;
///
/// let m = MachineDescription::builtin("saris").unwrap();
/// assert_eq!(m.spec().modify_registers(), 8);
///
/// let custom = MachineDescription::parse(
///     "name = mac4\naddress_registers = 4\nupdate_min = 0\nupdate_max = 1\n",
/// )
/// .unwrap();
/// assert!(!custom.spec().update_range().is_symmetric());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineDescription {
    name: String,
    spec: AguSpec,
}

impl MachineDescription {
    /// Wraps a spec under a name.
    pub fn new(name: impl Into<String>, spec: AguSpec) -> Self {
        MachineDescription {
            name: name.into(),
            spec,
        }
    }

    /// The machine's name (registry key or `name =` field).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying AGU spec — the view the whole pipeline consumes.
    pub fn spec(&self) -> &AguSpec {
        &self.spec
    }

    /// Canonical names of the built-in machines, in presentation order.
    pub fn builtin_names() -> &'static [&'static str] {
        &builtins().names
    }

    /// Looks up a built-in machine by name (aliases: `ti` for
    /// `tms320c2x`, `motorola` for `dsp56k`, `adsp` for `adsp210x`).
    /// The built-in table is parsed once per process, on first use.
    pub fn builtin(name: &str) -> Option<Self> {
        let index = BUILTINS
            .iter()
            .position(|b| b.name == name || b.aliases.contains(&name))?;
        Some(builtins().machines[index].clone())
    }

    /// Resolves a machine argument the way front ends (CLI flag, serve
    /// knob) accept it: a built-in name (or alias), or — when the text
    /// contains `=` — an inline [`parse`](Self::parse)-format
    /// description.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineParseError`]: positioned for a malformed
    /// inline description, or listing the built-in names when the
    /// argument is neither a known machine nor description text.
    pub fn resolve(arg: &str) -> Result<Self, MachineParseError> {
        if let Some(builtin) = Self::builtin(arg.trim()) {
            return Ok(builtin);
        }
        if arg.contains('=') {
            return Self::parse(arg);
        }
        Err(MachineParseError::at(
            0,
            format!(
                "unknown machine `{}` (built-ins: {}; or pass a `key = value` description)",
                arg.trim(),
                Self::builtin_names().join(", ")
            ),
        ))
    }

    /// Parses the TOML-like description format: one `key = value` per
    /// line, `#` comments, blank lines ignored.
    ///
    /// Keys: `name` (optional, quoted or bare), `address_registers`
    /// (required, `1..=4096`), either `update_range = M` (symmetric) or
    /// `update_min`/`update_max` (default `[-1, 1]`), `modify_registers`
    /// (default 0), `lda_cost`/`ldm_cost`/`adda_cost` (default 1,
    /// `1..=4096`).
    ///
    /// # Errors
    ///
    /// Returns a [`MachineParseError`] positioned at the offending line
    /// for syntax errors, unknown keys, duplicate keys, out-of-range
    /// values, zero-size register classes, and update ranges that exclude
    /// zero.
    pub fn parse(text: &str) -> Result<Self, MachineParseError> {
        let mut name: Option<String> = None;
        let mut registers: Option<(usize, usize)> = None; // (value, line)
        let mut sym_range: Option<(u32, usize)> = None;
        let mut update_min: Option<(i64, usize)> = None;
        let mut update_max: Option<(i64, usize)> = None;
        let mut modify_registers: Option<(usize, usize)> = None;
        let mut lda_cost: Option<(u32, usize)> = None;
        let mut ldm_cost: Option<(u32, usize)> = None;
        let mut adda_cost: Option<(u32, usize)> = None;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(MachineParseError::at(
                    lineno,
                    format!("expected `key = value`, got {line:?}"),
                ));
            };
            let key = key.trim();
            let value = value.trim();
            if value.is_empty() {
                return Err(MachineParseError::at(
                    lineno,
                    format!("empty value for `{key}`"),
                ));
            }
            match key {
                "name" => {
                    if name.is_some() {
                        return Err(MachineParseError::at(lineno, "duplicate key `name`"));
                    }
                    let v = value.trim_matches('"');
                    if v.is_empty() {
                        return Err(MachineParseError::at(lineno, "machine name is empty"));
                    }
                    name = Some(v.to_string());
                }
                "address_registers" => set_field(&mut registers, key, value, lineno)?,
                "update_range" => set_field(&mut sym_range, key, value, lineno)?,
                "update_min" => set_field(&mut update_min, key, value, lineno)?,
                "update_max" => set_field(&mut update_max, key, value, lineno)?,
                "modify_registers" => set_field(&mut modify_registers, key, value, lineno)?,
                "lda_cost" => set_field(&mut lda_cost, key, value, lineno)?,
                "ldm_cost" => set_field(&mut ldm_cost, key, value, lineno)?,
                "adda_cost" => set_field(&mut adda_cost, key, value, lineno)?,
                _ => {
                    return Err(MachineParseError::at(
                        lineno,
                        format!("unknown key `{key}`"),
                    ));
                }
            }
        }

        if let Some((_, sym_line)) = sym_range {
            if let Some((_, line)) = update_min.or(update_max) {
                return Err(MachineParseError::at(
                    line.max(sym_line),
                    "`update_range` conflicts with `update_min`/`update_max`",
                ));
            }
        }

        let Some((k, k_line)) = registers else {
            return Err(MachineParseError::at(
                0,
                "missing required key `address_registers`",
            ));
        };
        if k == 0 {
            return Err(MachineParseError::at(
                k_line,
                "register class has zero size (`address_registers = 0`)",
            ));
        }
        if k > MAX_MACHINE_REGISTERS {
            return Err(MachineParseError::at(
                k_line,
                format!("address_registers = {k} exceeds the cap of {MAX_MACHINE_REGISTERS}"),
            ));
        }

        let range = if let Some((m, _)) = sym_range {
            UpdateRange::symmetric(m)
        } else {
            let (min, min_line) = update_min.unwrap_or((-1, 0));
            let (max, max_line) = update_max.unwrap_or((1, 0));
            UpdateRange::new(min, max)
                .map_err(|e| MachineParseError::at(min_line.max(max_line), e.to_string()))?
        };

        let (mr, mr_line) = modify_registers.unwrap_or((0, 0));
        if mr > MAX_MACHINE_REGISTERS {
            return Err(MachineParseError::at(
                mr_line,
                format!("modify_registers = {mr} exceeds the cap of {MAX_MACHINE_REGISTERS}"),
            ));
        }

        let costs = [
            lda_cost.unwrap_or((1, 0)),
            ldm_cost.unwrap_or((1, 0)),
            adda_cost.unwrap_or((1, 0)),
        ];
        for (value, line) in costs {
            if value == 0 {
                return Err(MachineParseError::at(line, SpecError::ZeroCost.to_string()));
            }
            if value > MAX_INSTRUCTION_COST {
                return Err(MachineParseError::at(
                    line,
                    format!("cost {value} exceeds the cap of {MAX_INSTRUCTION_COST}"),
                ));
            }
        }
        let table = CostTable {
            lda: costs[0].0,
            ldm: costs[1].0,
            adda: costs[2].0,
        };

        let spec = AguSpec {
            address_registers: k,
            update_range: range,
            modify_registers: mr,
            costs: table,
        };
        Ok(MachineDescription::new(
            name.unwrap_or_else(|| "custom".to_string()),
            spec,
        ))
    }

    /// Renders the description back into its parseable text form.
    pub fn to_text(&self) -> String {
        let s = &self.spec;
        let mut out = format!(
            "name = \"{}\"\naddress_registers = {}\n",
            self.name, s.address_registers
        );
        let r = s.update_range;
        if r.is_symmetric() {
            out.push_str(&format!("update_range = {}\n", r.max));
        } else {
            out.push_str(&format!("update_min = {}\nupdate_max = {}\n", r.min, r.max));
        }
        out.push_str(&format!("modify_registers = {}\n", s.modify_registers));
        if !s.costs.is_unit() {
            out.push_str(&format!(
                "lda_cost = {}\nldm_cost = {}\nadda_cost = {}\n",
                s.costs.lda, s.costs.ldm, s.costs.adda
            ));
        }
        out
    }
}

impl fmt::Display for MachineDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.spec)
    }
}

/// One built-in machine: its canonical name, the other names
/// [`MachineDescription::builtin`] accepts, and its description text.
struct Builtin {
    name: &'static str,
    aliases: &'static [&'static str],
    text: &'static str,
}

/// The built-in machines, in presentation order. Each text is what the
/// parsed machine's [`MachineDescription::to_text`] prints, so a
/// built-in is exactly as expressible as a user's description file.
const BUILTINS: [Builtin; 6] = [
    // The paper's running example (Section 2).
    Builtin {
        name: "paper",
        aliases: &[],
        text: "name = \"paper\"\naddress_registers = 4\nupdate_range = 1\nmodify_registers = 0\n",
    },
    // After the TI TMS320C2x: eight auxiliary registers, |d| <= 1.
    Builtin {
        name: "tms320c2x",
        aliases: &["ti"],
        text: "name = \"tms320c2x\"\naddress_registers = 8\nupdate_range = 1\n\
               modify_registers = 0\n",
    },
    // After the Motorola DSP56002: as above, plus four offset registers.
    Builtin {
        name: "dsp56k",
        aliases: &["motorola"],
        text: "name = \"dsp56k\"\naddress_registers = 8\nupdate_range = 1\n\
               modify_registers = 4\n",
    },
    // After the ADSP-210x: four address and four modify registers per DAG.
    Builtin {
        name: "adsp210x",
        aliases: &["adsp"],
        text: "name = \"adsp210x\"\naddress_registers = 4\nupdate_range = 1\n\
               modify_registers = 4\n",
    },
    // A BWDSP-style clustered-VLIW AGU: MAC post-modify addressing frees
    // only post-increments, and a pointer load takes two cycles.
    Builtin {
        name: "bwdsp",
        aliases: &[],
        text: "name = \"bwdsp\"\naddress_registers = 8\nupdate_min = 0\nupdate_max = 1\n\
               modify_registers = 2\nlda_cost = 2\nldm_cost = 1\nadda_cost = 1\n",
    },
    // A SARIS-style stream-register machine: no free auto-modify at all;
    // every advance goes through one of eight stream (modify) registers,
    // and configuring one takes two cycles.
    Builtin {
        name: "saris",
        aliases: &[],
        text: "name = \"saris\"\naddress_registers = 8\nupdate_range = 0\n\
               modify_registers = 8\nlda_cost = 1\nldm_cost = 2\nadda_cost = 1\n",
    },
];

/// [`BUILTINS`] parsed, in table order.
struct Builtins {
    names: Vec<&'static str>,
    machines: Vec<MachineDescription>,
}

/// Parses [`BUILTINS`] on first use; every later lookup reads the
/// parsed table (serve resolves a `machine` knob on every request).
fn builtins() -> &'static Builtins {
    static PARSED: OnceLock<Builtins> = OnceLock::new();
    PARSED.get_or_init(|| Builtins {
        names: BUILTINS.iter().map(|b| b.name).collect(),
        machines: BUILTINS
            .iter()
            .map(|b| {
                MachineDescription::parse(b.text)
                    .unwrap_or_else(|e| panic!("built-in machine `{}`: {e}", b.name))
            })
            .collect(),
    })
}

/// Parses `value` into the empty `slot` for `key`, remembering `line`.
/// A malformed value is reported before a duplicate key.
fn set_field<T: std::str::FromStr>(
    slot: &mut Option<(T, usize)>,
    key: &str,
    value: &str,
    line: usize,
) -> Result<(), MachineParseError> {
    let parsed = value.parse::<T>().map_err(|_| {
        // Only the signed fields (`update_min`/`update_max`) accept `-1`.
        let expects = match "-1".parse::<T>() {
            Ok(_) => "an integer",
            Err(_) => "a non-negative integer",
        };
        MachineParseError::at(line, format!("`{key}` expects {expects}, got {value:?}"))
    })?;
    if slot.is_some() {
        return Err(MachineParseError::at(
            line,
            format!("duplicate key `{key}`"),
        ));
    }
    *slot = Some((parsed, line));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The six built-ins as literal builders, in table order — the
    /// shapes the description texts must parse to.
    fn documented_builtins() -> [(&'static str, AguSpec); 6] {
        let agu = |k, m| AguSpec::new(k, m).unwrap();
        [
            ("paper", agu(4, 1)),
            ("tms320c2x", agu(8, 1)),
            ("dsp56k", agu(8, 1).with_modify_registers(4)),
            ("adsp210x", agu(4, 1).with_modify_registers(4)),
            (
                "bwdsp",
                agu(8, 1)
                    .with_update_range(UpdateRange::new(0, 1).unwrap())
                    .with_modify_registers(2)
                    .with_cost_table(CostTable::new(2, 1, 1).unwrap()),
            ),
            (
                "saris",
                agu(8, 0)
                    .with_modify_registers(8)
                    .with_cost_table(CostTable::new(1, 2, 1).unwrap()),
            ),
        ]
    }

    fn builtin_spec(name: &str) -> AguSpec {
        *MachineDescription::builtin(name).expect(name).spec()
    }

    #[test]
    fn new_rejects_zero_registers() {
        assert_eq!(
            AguSpec::new(0, 1).unwrap_err(),
            SpecError::NoAddressRegisters
        );
        assert!(AguSpec::new(1, 0).is_ok());
    }

    #[test]
    fn free_delta_respects_range_symmetrically() {
        let agu = AguSpec::new(2, 3).unwrap();
        for d in -3..=3 {
            assert!(agu.is_free_delta(d), "delta {d} should be free");
        }
        assert!(!agu.is_free_delta(4));
        assert!(!agu.is_free_delta(-4));
    }

    #[test]
    fn zero_range_only_frees_zero_delta() {
        let agu = AguSpec::new(1, 0).unwrap();
        assert!(agu.is_free_delta(0));
        assert!(!agu.is_free_delta(1));
        assert!(!agu.is_free_delta(-1));
    }

    #[test]
    fn builder_and_presets() {
        let agu = builtin_spec("tms320c2x");
        assert_eq!((agu.address_registers(), agu.modify_range()), (8, 1));
        assert_eq!(agu.modify_registers(), 0);
        assert_eq!(builtin_spec("dsp56k").modify_registers(), 4);
        assert_eq!(builtin_spec("adsp210x").address_registers(), 4);
        let agu = AguSpec::new(2, 1).unwrap().with_modify_registers(3);
        assert_eq!(agu.modify_registers(), 3);
    }

    #[test]
    fn with_address_registers_replaces_k_only() {
        let agu = builtin_spec("dsp56k").with_address_registers(2).unwrap();
        assert_eq!(agu.address_registers(), 2);
        assert_eq!(agu.modify_registers(), 4);
        assert!(AguSpec::default().with_address_registers(0).is_err());
    }

    #[test]
    fn display_is_compact() {
        let agu = AguSpec::new(4, 1).unwrap().with_modify_registers(2);
        assert_eq!(agu.to_string(), "AGU(K=4, M=1, MR=2)");
    }

    #[test]
    fn display_extends_for_asymmetric_ranges_and_costs() {
        let agu = builtin_spec("bwdsp");
        assert_eq!(
            agu.to_string(),
            "AGU(K=8, M=[0..1], MR=2) costs(lda=2, ldm=1, adda=1)"
        );
        let agu = builtin_spec("saris");
        assert_eq!(
            agu.to_string(),
            "AGU(K=8, M=0, MR=8) costs(lda=1, ldm=2, adda=1)"
        );
    }

    #[test]
    fn default_is_documented_shape() {
        let agu = AguSpec::default();
        assert_eq!(agu.address_registers(), 4);
        assert_eq!(agu.modify_range(), 1);
        assert!(agu.update_range().is_symmetric());
        assert!(agu.cost_table().is_unit());
    }

    #[test]
    fn large_delta_does_not_overflow() {
        let agu = AguSpec::new(1, u32::MAX).unwrap();
        assert!(agu.is_free_delta(i64::from(u32::MAX)));
        assert!(agu.is_free_delta(-i64::from(u32::MAX)));
        assert!(!agu.is_free_delta(i64::from(u32::MAX) + 1));
        assert!(!agu.is_free_delta(i64::MAX));
        // i64::MIN.unsigned_abs() must not panic:
        let agu = AguSpec::new(1, 0).unwrap();
        assert!(!agu.is_free_delta(i64::MIN));
    }

    #[test]
    fn update_range_shape_queries() {
        let r = UpdateRange::symmetric(2);
        assert_eq!((r.min(), r.max()), (-2, 2));
        assert!(r.is_symmetric());
        assert_eq!(r.symmetric_radius(), 2);

        let mac = UpdateRange::new(0, 1).unwrap();
        assert!(!mac.is_symmetric());
        assert_eq!(mac.symmetric_radius(), 0);
        assert!(mac.contains(0) && mac.contains(1));
        assert!(!mac.contains(-1) && !mac.contains(2));

        assert_eq!(
            UpdateRange::new(1, 2).unwrap_err(),
            SpecError::UpdateRangeExcludesZero
        );
        assert_eq!(
            UpdateRange::new(-2, -1).unwrap_err(),
            SpecError::UpdateRangeExcludesZero
        );

        // Extreme bounds must not panic symmetry / radius queries.
        let wide = UpdateRange::new(i64::MIN, i64::MAX).unwrap();
        assert!(!wide.is_symmetric());
        assert_eq!(wide.symmetric_radius(), u32::MAX);
    }

    #[test]
    fn cost_table_rejects_zero_costs() {
        assert_eq!(CostTable::new(0, 1, 1).unwrap_err(), SpecError::ZeroCost);
        assert_eq!(CostTable::new(1, 0, 1).unwrap_err(), SpecError::ZeroCost);
        assert_eq!(CostTable::new(1, 1, 0).unwrap_err(), SpecError::ZeroCost);
        let t = CostTable::new(2, 3, 4).unwrap();
        assert_eq!((t.lda(), t.ldm(), t.adda()), (2, 3, 4));
        assert!(!t.is_unit());
        assert!(CostTable::default().is_unit());
    }

    #[test]
    fn builtin_registry_resolves_names_and_aliases() {
        let names: Vec<&str> = documented_builtins().iter().map(|(n, _)| *n).collect();
        assert_eq!(MachineDescription::builtin_names(), names);
        for (name, spec) in documented_builtins() {
            let m = MachineDescription::builtin(name).expect(name);
            assert_eq!((m.name(), m.spec()), (name, &spec));
            assert_eq!(MachineDescription::resolve(&format!(" {name}\n")), Ok(m));
        }
        assert_eq!(builtin_spec("ti"), documented_builtins()[1].1);
        assert_eq!(
            MachineDescription::builtin("motorola").unwrap().name(),
            "dsp56k"
        );
        assert_eq!(builtin_spec("adsp"), documented_builtins()[3].1);
        assert!(MachineDescription::builtin("vax").is_none());
        assert_eq!(
            MachineDescription::builtin("paper").unwrap().spec(),
            &AguSpec::default()
        );
    }

    #[test]
    fn new_backends_have_the_documented_shapes() {
        let bwdsp = builtin_spec("bwdsp");
        assert_eq!(bwdsp, documented_builtins()[4].1);
        assert_eq!(bwdsp.address_registers(), 8);
        assert_eq!(bwdsp.update_range(), UpdateRange::new(0, 1).unwrap());
        assert_eq!(bwdsp.modify_registers(), 2);
        assert_eq!(bwdsp.cost_table().lda(), 2);
        assert_eq!(bwdsp.modify_range(), 0, "asymmetric [0,1] summarizes to 0");

        let saris = builtin_spec("saris");
        assert_eq!(saris, documented_builtins()[5].1);
        assert_eq!(saris.address_registers(), 8);
        assert_eq!(saris.update_range(), UpdateRange::new(0, 0).unwrap());
        assert_eq!(saris.modify_registers(), 8);
        assert_eq!(saris.cost_table().ldm(), 2);
        assert!(saris.update_range().is_symmetric(), "[0,0] is symmetric");
    }

    #[test]
    fn parse_round_trips_every_builtin() {
        for entry in &BUILTINS {
            let m = MachineDescription::parse(entry.text).expect(entry.name);
            assert_eq!(m.name(), entry.name);
            assert_eq!(
                m.to_text(),
                entry.text,
                "{} is not its own to_text",
                entry.name
            );
            let parsed = MachineDescription::parse(&m.to_text()).expect(entry.name);
            assert_eq!(parsed, m, "round-trip of {}", entry.name);
        }
    }

    #[test]
    fn parse_accepts_comments_and_defaults() {
        let m = MachineDescription::parse(
            "# a minimal machine\naddress_registers = 3  # trailing comment\n\n",
        )
        .unwrap();
        assert_eq!(m.name(), "custom");
        assert_eq!(m.spec().address_registers(), 3);
        assert_eq!(m.spec().update_range(), UpdateRange::symmetric(1));
        assert_eq!(m.spec().modify_registers(), 0);
        assert!(m.spec().cost_table().is_unit());
    }

    #[test]
    fn parse_rejects_malformed_descriptions_with_positions() {
        let cases: &[(&str, usize, &str)] = &[
            ("address_registers = 0\n", 1, "zero size"),
            (
                "address_registers = 8\nupdate_min = 1\nupdate_max = 2\n",
                3,
                "contain zero",
            ),
            ("address_registers = 8\nbogus_key = 1\n", 2, "unknown key"),
            (
                "address_registers = 8\naddress_registers = 4\n",
                2,
                "duplicate key",
            ),
            ("update_range = 1\n", 0, "address_registers"),
            (
                "address_registers = 8\nadda_cost = 0\n",
                2,
                "at least one cycle",
            ),
            ("address_registers = 9999999\n", 1, "exceeds the cap"),
            (
                "address_registers = 8\nlda_cost = 70000\n",
                2,
                "exceeds the cap",
            ),
            ("address_registers eight\n", 1, "key = value"),
            ("address_registers = \n", 1, "empty value"),
            (
                "address_registers = 8\nupdate_range = 1\nupdate_min = 0\n",
                3,
                "conflicts",
            ),
            ("address_registers = x\n", 1, "non-negative integer"),
            ("address_registers = 8\nupdate_min = 1e3\n", 2, "integer"),
            ("address_registers = 8\nname = \"\"\n", 2, "empty"),
        ];
        for (text, line, needle) in cases {
            let err = MachineDescription::parse(text).expect_err(text);
            assert_eq!(err.line, *line, "line for {text:?}: {err}");
            assert!(
                err.to_string().contains(needle),
                "{text:?} → {err} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn parse_reads_quoted_and_bare_names() {
        let m = MachineDescription::parse("name = \"my dsp\"\naddress_registers = 2\n").unwrap();
        assert_eq!(m.name(), "my dsp");
        let m = MachineDescription::parse("name = mydsp\naddress_registers = 2\n").unwrap();
        assert_eq!(m.name(), "mydsp");
    }

    #[test]
    fn to_text_is_parseable_and_stable() {
        let m = MachineDescription::builtin("bwdsp").unwrap();
        let text = m.to_text();
        assert!(text.contains("update_min = 0"));
        assert!(text.contains("lda_cost = 2"));
        let again = MachineDescription::parse(&text).unwrap();
        assert_eq!(again.to_text(), text);
    }
}
