//! Cycle-accurate simulation of address programs.
//!
//! The simulator is the ground truth of the whole pipeline: it executes an
//! [`AddressProgram`] iteration by iteration against a reference
//! [`Trace`] and fails loudly if any access is served with a wrong
//! address, if a "free" update exceeds the machine's capabilities, or if
//! the program uses more registers than the machine has. Integration and
//! property tests assert that the allocator-predicted cost equals the
//! simulator-measured explicit update count.

use std::fmt;

use raco_ir::{AguSpec, Trace, UpdateRange};

use crate::isa::{AddressInstr, AddressProgram, MrId, RegId, Update};

/// Errors detected while simulating.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The program needs more address registers than the machine has.
    TooManyAddressRegisters {
        /// Registers the program uses.
        needed: usize,
        /// Registers available.
        available: usize,
    },
    /// The program needs more modify registers than the machine has.
    TooManyModifyRegisters {
        /// Modify registers the program loads.
        needed: usize,
        /// Modify registers available.
        available: usize,
    },
    /// A `USE` read the wrong address.
    AddressMismatch {
        /// Iteration of the failing access.
        iteration: u64,
        /// Sequence position of the failing access.
        position: usize,
        /// Address the trace expects.
        expected: i64,
        /// Address the register held.
        got: i64,
    },
    /// An `Auto` post-modify exceeded the auto-modify range.
    FreeDeltaViolation {
        /// The offending delta.
        delta: i64,
        /// The machine's free update window.
        range: UpdateRange,
    },
    /// A `USE` referenced a register the program never declared.
    UnknownRegister {
        /// The register index.
        reg: u16,
    },
    /// A `Modify` update referenced an unloaded modify register.
    UnknownModifyRegister {
        /// The modify register index.
        mr: u16,
    },
    /// The accesses of one iteration were not served in sequence order
    /// `0, 1, 2, …`.
    PositionOrderViolation {
        /// Iteration in which the order broke.
        iteration: u64,
        /// Position that was expected next.
        expected: usize,
        /// Position actually served.
        got: usize,
    },
    /// An iteration served fewer accesses than the trace contains.
    IncompleteIteration {
        /// The incomplete iteration.
        iteration: u64,
        /// Accesses served.
        served: usize,
        /// Accesses expected.
        expected: usize,
    },
    /// An iteration served a position past the last access the trace
    /// holds per iteration.
    ExcessAccess {
        /// Iteration that served the extra access.
        iteration: u64,
        /// The extra position served.
        position: usize,
        /// Accesses per iteration in the trace.
        per_iteration: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooManyAddressRegisters { needed, available } => write!(
                f,
                "program uses {needed} address registers, machine has {available}"
            ),
            SimError::TooManyModifyRegisters { needed, available } => write!(
                f,
                "program loads {needed} modify registers, machine has {available}"
            ),
            SimError::AddressMismatch {
                iteration,
                position,
                expected,
                got,
            } => write!(
                f,
                "iteration {iteration}, access a_{}: expected address {expected:#x}, register held {got:#x}",
                position + 1
            ),
            SimError::FreeDeltaViolation { delta, range } => write!(
                f,
                "auto-modify by {delta} exceeds the machine range M = {range}"
            ),
            SimError::UnknownRegister { reg } => write!(f, "unknown address register AR{reg}"),
            SimError::UnknownModifyRegister { mr } => {
                write!(f, "unknown modify register M{mr}")
            }
            SimError::PositionOrderViolation {
                iteration,
                expected,
                got,
            } => write!(
                f,
                "iteration {iteration}: expected access a_{}, program served a_{}",
                expected + 1,
                got + 1
            ),
            SimError::IncompleteIteration {
                iteration,
                served,
                expected,
            } => write!(
                f,
                "iteration {iteration} served {served} of {expected} accesses"
            ),
            SimError::ExcessAccess {
                iteration,
                position,
                per_iteration,
            } => write!(
                f,
                "iteration {iteration} served access a_{}, but the loop has {per_iteration} access(es) per iteration",
                position + 1
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Statistics of a successful simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimReport {
    iterations: u64,
    accesses_checked: u64,
    prologue_cycles: u64,
    explicit_updates_per_iteration: u64,
    carry_cycles: u64,
    total_addressing_cycles: u64,
}

impl SimReport {
    /// Iterations executed.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Accesses validated against the trace.
    pub fn accesses_checked(&self) -> u64 {
        self.accesses_checked
    }

    /// One-time addressing cycles spent in the prologue.
    pub fn prologue_cycles(&self) -> u64 {
        self.prologue_cycles
    }

    /// Explicit (unit-cost) address computations per iteration — the
    /// quantity the paper's algorithm minimizes. Outer-loop carry
    /// updates of flattened nests are counted separately (they amortize
    /// over whole inner sweeps): see
    /// [`carry_cycles`](Self::carry_cycles).
    pub fn explicit_updates_per_iteration(&self) -> u64 {
        self.explicit_updates_per_iteration
    }

    /// Addressing cycles spent in outer-loop carry blocks over the whole
    /// run (zero for plain single loops).
    pub fn carry_cycles(&self) -> u64 {
        self.carry_cycles
    }

    /// Total addressing cycles over the whole run
    /// (prologue + per-iteration updates + carry blocks).
    pub fn total_addressing_cycles(&self) -> u64 {
        self.total_addressing_cycles
    }
}

/// Executes `program` against `trace` on machine `agu`.
///
/// Runs `trace.iterations()` iterations and checks every access address.
///
/// # Errors
///
/// Returns the first [`SimError`] encountered; the report is only produced
/// for a fully verified run.
pub fn run(program: &AddressProgram, trace: &Trace, agu: &AguSpec) -> Result<SimReport, SimError> {
    if program.address_registers() > agu.address_registers() {
        return Err(SimError::TooManyAddressRegisters {
            needed: program.address_registers(),
            available: agu.address_registers(),
        });
    }
    if program.modify_values().len() > agu.modify_registers() {
        return Err(SimError::TooManyModifyRegisters {
            needed: program.modify_values().len(),
            available: agu.modify_registers(),
        });
    }

    let mut machine = Machine {
        agu,
        regs: vec![0; program.address_registers()],
        mrs: vec![0; program.modify_values().len()],
    };
    let mut prologue_cycles = 0;
    for instr in program.prologue() {
        machine.step(instr, None, &mut prologue_cycles)?;
    }

    let per_iter = trace.accesses_per_iteration();
    let mut accesses_checked = 0u64;
    let mut explicit_per_iter = 0u64;
    let mut carry_cycles = 0u64;
    for iteration in 0..trace.iterations() {
        let mut next_position = 0usize;
        let mut explicit_this_iter = 0u64;
        for instr in program.body() {
            let serve = Some((trace, iteration, &mut next_position));
            machine.step(instr, serve, &mut explicit_this_iter)?;
        }
        if next_position != per_iter {
            return Err(SimError::IncompleteIteration {
                iteration,
                served: next_position,
                expected: per_iter,
            });
        }
        accesses_checked += next_position as u64;
        explicit_per_iter = explicit_this_iter;
        // Outer-loop carry blocks of a flattened nest run *between*
        // inner sweeps: after every `period`-th iteration, except past
        // the final simulated one (no further access consumes the
        // adjustment, so it would only inflate carry_cycles).
        if iteration + 1 < trace.iterations() {
            for block in program.carries() {
                if block.period > 0 && (iteration + 1) % block.period == 0 {
                    for instr in &block.instrs {
                        machine.step(instr, None, &mut carry_cycles)?;
                    }
                }
            }
        }
    }

    Ok(SimReport {
        iterations: trace.iterations(),
        accesses_checked,
        prologue_cycles,
        explicit_updates_per_iteration: explicit_per_iter,
        carry_cycles,
        total_addressing_cycles: prologue_cycles
            + trace.iterations() * explicit_per_iter
            + carry_cycles,
    })
}

/// The AGU's register state while a program runs.
struct Machine<'a> {
    agu: &'a AguSpec,
    regs: Vec<i64>,
    mrs: Vec<i64>,
}

impl Machine<'_> {
    /// Executes one instruction and adds its cycles to `cycles`. A `USE`
    /// is checked against the trace when `serve` holds the trace, the
    /// iteration and the next position the iteration must serve.
    fn step(
        &mut self,
        instr: &AddressInstr,
        serve: Option<(&Trace, u64, &mut usize)>,
        cycles: &mut u64,
    ) -> Result<(), SimError> {
        // Explicit instructions are charged at the machine's per-opcode
        // price, so measured cycles stay comparable to the (scaled)
        // allocator prediction on non-unit-cost machines.
        *cycles += instr.cycles_with(&self.agu.cost_table());
        match instr {
            AddressInstr::Lda { reg, address } => *self.reg(*reg)? = *address,
            AddressInstr::Ldm { mr, value } => *self.modify(*mr)? = *value,
            AddressInstr::Adda { reg, delta } => *self.reg(*reg)? += delta,
            AddressInstr::Use {
                reg,
                position,
                update,
            } => {
                let value = *self.reg(*reg)?;
                if let Some((trace, iteration, next_position)) = serve {
                    if *position != *next_position {
                        return Err(SimError::PositionOrderViolation {
                            iteration,
                            expected: *next_position,
                            got: *position,
                        });
                    }
                    let entry =
                        trace
                            .entry(iteration, *position)
                            .ok_or(SimError::ExcessAccess {
                                iteration,
                                position: *position,
                                per_iteration: trace.accesses_per_iteration(),
                            })?;
                    if entry.address != value {
                        return Err(SimError::AddressMismatch {
                            iteration,
                            position: *position,
                            expected: entry.address,
                            got: value,
                        });
                    }
                    *next_position += 1;
                }
                // Apply the free post-modify.
                let delta = match update {
                    Update::None => 0,
                    Update::Auto { delta } => {
                        if !self.agu.is_free_delta(*delta) {
                            return Err(SimError::FreeDeltaViolation {
                                delta: *delta,
                                range: self.agu.update_range(),
                            });
                        }
                        *delta
                    }
                    Update::Modify { mr } => *self.modify(*mr)?,
                };
                *self.reg(*reg)? += delta;
            }
        }
        Ok(())
    }

    fn reg(&mut self, reg: RegId) -> Result<&mut i64, SimError> {
        self.regs
            .get_mut(usize::from(reg.0))
            .ok_or(SimError::UnknownRegister { reg: reg.0 })
    }

    fn modify(&mut self, mr: MrId) -> Result<&mut i64, SimError> {
        self.mrs
            .get_mut(usize::from(mr.0))
            .ok_or(SimError::UnknownModifyRegister { mr: mr.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::CodeGenerator;
    use crate::isa::{MrId, RegId};
    use raco_core::Optimizer;
    use raco_ir::{examples, MemoryLayout};

    fn simulate_paper(k: usize, iterations: u64) -> SimReport {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(k, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0x100, 256);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        let trace = Trace::capture(&spec, &layout, iterations);
        run(&program, &trace, &agu).expect("verified run")
    }

    #[test]
    fn zero_cost_scheme_verifies_with_zero_updates() {
        let report = simulate_paper(3, 25);
        assert_eq!(report.iterations(), 25);
        assert_eq!(report.accesses_checked(), 25 * 7);
        assert_eq!(report.explicit_updates_per_iteration(), 0);
        assert_eq!(report.prologue_cycles(), 3);
        assert_eq!(report.total_addressing_cycles(), 3);
    }

    #[test]
    fn constrained_scheme_measures_the_allocated_cost() {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(2, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let report = simulate_paper(2, 10);
        assert_eq!(
            report.explicit_updates_per_iteration(),
            u64::from(alloc.total_cost()),
            "simulator-measured updates must equal the predicted cost"
        );
    }

    #[test]
    fn wrong_base_address_is_caught() {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(3, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0x100, 256);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        // Trace captured with a *different* layout.
        let wrong = MemoryLayout::contiguous(&spec, 0x200, 256);
        let trace = Trace::capture(&spec, &wrong, 4);
        let err = run(&program, &trace, &agu).unwrap_err();
        assert!(matches!(
            err,
            SimError::AddressMismatch { iteration: 0, .. }
        ));
    }

    #[test]
    fn over_range_auto_updates_are_rejected() {
        let agu = AguSpec::new(1, 1).unwrap();
        let spec = examples::paper_loop();
        let layout = MemoryLayout::contiguous(&spec, 0, 64);
        let trace = Trace::capture(&spec, &layout, 1);
        let program = AddressProgram::new(
            vec![AddressInstr::Lda {
                reg: RegId(0),
                address: 3,
            }],
            vec![AddressInstr::Use {
                reg: RegId(0),
                position: 0,
                update: Update::Auto { delta: 5 },
            }],
            1,
            vec![],
        );
        let err = run(&program, &trace, &agu).unwrap_err();
        assert_eq!(
            err,
            SimError::FreeDeltaViolation {
                delta: 5,
                range: UpdateRange::symmetric(1)
            }
        );
    }

    #[test]
    fn register_budget_violations_are_rejected() {
        let spec = examples::paper_loop();
        let agu_big = AguSpec::new(3, 1).unwrap();
        let agu_small = AguSpec::new(2, 1).unwrap();
        let alloc = Optimizer::new(agu_big).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 64);
        let program = CodeGenerator::new(agu_big)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        let trace = Trace::capture(&spec, &layout, 1);
        assert_eq!(
            run(&program, &trace, &agu_small).unwrap_err(),
            SimError::TooManyAddressRegisters {
                needed: 3,
                available: 2
            }
        );
    }

    #[test]
    fn modify_register_budget_is_checked() {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(1, 1).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 64);
        let trace = Trace::capture(&spec, &layout, 1);
        let program = AddressProgram::new(
            vec![AddressInstr::Ldm {
                mr: MrId(0),
                value: 9,
            }],
            vec![],
            1,
            vec![9],
        );
        assert_eq!(
            run(&program, &trace, &agu).unwrap_err(),
            SimError::TooManyModifyRegisters {
                needed: 1,
                available: 0
            }
        );
    }

    #[test]
    fn incomplete_iterations_are_detected() {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(1, 1).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 64);
        let trace = Trace::capture(&spec, &layout, 1);
        // Body serves only access 0.
        let program = AddressProgram::new(
            vec![AddressInstr::Lda {
                reg: RegId(0),
                address: 3, // A[i+1] at i = 2, base 0
            }],
            vec![AddressInstr::Use {
                reg: RegId(0),
                position: 0,
                update: Update::Auto { delta: 0 },
            }],
            1,
            vec![],
        );
        let err = run(&program, &trace, &agu).unwrap_err();
        assert_eq!(
            err,
            SimError::IncompleteIteration {
                iteration: 0,
                served: 1,
                expected: 7
            }
        );
    }

    #[test]
    fn excess_accesses_are_detected() {
        let spec = raco_ir::dsl::parse_loop("for (i = 0; i < 8; i++) { s = A[i]; }").unwrap();
        let agu = AguSpec::new(1, 1).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 64);
        let trace = Trace::capture(&spec, &layout, 1);
        assert_eq!(trace.accesses_per_iteration(), 1);
        // Body serves position 0, then a position the loop does not have.
        let program = AddressProgram::new(
            vec![AddressInstr::Lda {
                reg: RegId(0),
                address: 0,
            }],
            vec![
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 0,
                    update: Update::None,
                },
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 1,
                    update: Update::None,
                },
            ],
            1,
            vec![],
        );
        let err = run(&program, &trace, &agu).unwrap_err();
        assert_eq!(
            err,
            SimError::ExcessAccess {
                iteration: 0,
                position: 1,
                per_iteration: 1
            }
        );
        assert_eq!(
            err.to_string(),
            "iteration 0 served access a_2, but the loop has 1 access(es) per iteration"
        );
    }

    #[test]
    fn out_of_order_positions_are_detected() {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(1, 1).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 64);
        let trace = Trace::capture(&spec, &layout, 1);
        let program = AddressProgram::new(
            vec![AddressInstr::Lda {
                reg: RegId(0),
                address: 2,
            }],
            vec![AddressInstr::Use {
                reg: RegId(0),
                position: 1,
                update: Update::None,
            }],
            1,
            vec![],
        );
        let err = run(&program, &trace, &agu).unwrap_err();
        assert_eq!(
            err,
            SimError::PositionOrderViolation {
                iteration: 0,
                expected: 0,
                got: 1
            }
        );
    }

    #[test]
    fn modify_register_updates_verify_end_to_end() {
        let spec = examples::scattered();
        let agu = AguSpec::new(2, 1).unwrap().with_modify_registers(2);
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 256);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        let trace = Trace::capture(&spec, &layout, 12);
        let report = run(&program, &trace, &agu).expect("verified run");
        assert_eq!(report.accesses_checked(), 12 * 4);
        // Modify registers eliminate some explicit updates vs the plain
        // machine.
        let plain = AguSpec::new(2, 1).unwrap();
        let plain_program = CodeGenerator::new(plain)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        let plain_report = run(&plain_program, &trace, &plain).expect("verified run");
        assert!(
            report.explicit_updates_per_iteration() < plain_report.explicit_updates_per_iteration()
        );
    }

    #[test]
    fn nested_loops_simulate_with_carry_blocks() {
        // A transpose: the write side walks a column (stride 8) and must
        // jump back 63 at every row boundary — the carry block.
        let spec = raco_ir::dsl::parse_loop(
            "array a[8][8]; array b[8][8];
             for (i = 0; i < 8; i++) { for (j = 0; j < 8; j++) { b[j][i] = a[i][j]; } }",
        )
        .unwrap();
        let agu = AguSpec::new(2, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0x100, 64);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        assert!(
            !program.carries().is_empty(),
            "transposed writes need a carry block"
        );
        // Simulate the entire nest: every address checks out, including
        // across row boundaries.
        let trace = Trace::capture(&spec, &layout, u64::MAX);
        let report = run(&program, &trace, &agu).expect("verified run");
        assert_eq!(report.iterations(), 64);
        assert_eq!(report.accesses_checked(), 64 * 2);
        // One ADDA per boundary: 7 row boundaries *between* the 8
        // sweeps (the adjustment after the final sweep is skipped —
        // nothing consumes it).
        assert_eq!(report.carry_cycles(), 7);
        assert_eq!(
            report.total_addressing_cycles(),
            report.prologue_cycles()
                + 64 * report.explicit_updates_per_iteration()
                + report.carry_cycles()
        );
    }

    #[test]
    fn contiguous_nests_need_no_carry_blocks() {
        // Row stride equals the inner sweep: flattening is exact and the
        // program is indistinguishable from a long single loop.
        let spec = raco_ir::dsl::parse_loop(
            "array y[4][8];
             for (i = 0; i < 4; i++) { for (j = 0; j < 8; j++) { y[i][j] = j; } }",
        )
        .unwrap();
        let agu = AguSpec::new(1, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 64);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        assert!(program.carries().is_empty());
        let trace = Trace::capture(&spec, &layout, u64::MAX);
        let report = run(&program, &trace, &agu).expect("verified run");
        assert_eq!(report.iterations(), 32);
        assert_eq!(report.carry_cycles(), 0);
    }

    #[test]
    fn negative_stride_loops_simulate_correctly() {
        let spec = raco_ir::dsl::parse_loop("for (i = 63; i > 0; i--) { s += h[63 - i] * x[i]; }")
            .unwrap();
        let agu = AguSpec::new(2, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0x40, 128);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        let trace = Trace::capture(&spec, &layout, 30);
        let report = run(&program, &trace, &agu).expect("verified run");
        assert_eq!(report.accesses_checked(), 60);
        assert_eq!(report.explicit_updates_per_iteration(), 0);
    }
}
