//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order. The
//! same protocol runs over stdio (one client) and TCP (one stream per
//! client); nothing in it is transport-specific. Blank lines are
//! ignored; unknown object keys are ignored too, so clients can carry
//! their own metadata.
//!
//! ## Requests
//!
//! Every request is a JSON object with an `"op"` field and an optional
//! `"id"` (any JSON scalar, echoed verbatim in the response so clients
//! can pipeline):
//!
//! | `op` | fields | effect |
//! |------|--------|--------|
//! | `compile` | `source` (required), `name` | compile a DSL program |
//! | `kernels` | `kernel` (one name, or omit for the whole suite) | compile built-in kernels |
//! | `stats` | — | allocation-cache statistics plus service counters |
//! | `metrics` | — | service metrics: per-op latency, pipeline stage timings, cache rates |
//! | `clear_cache` | — | drop every cached entry |
//! | `save_cache` | `path` (optional) | snapshot the warm cache to disk |
//! | `ping` | — | liveness check |
//! | `shutdown` | — | acknowledge, then close the connection |
//!
//! `save_cache` writes the server's allocation cache as a
//! [`raco_driver::persist`] snapshot — to `path` when given, otherwise
//! to the server's configured `--cache-save` path (an error response
//! if it has neither). The same snapshot is written automatically on
//! graceful shutdown when the server was started with `--cache-save`.
//!
//! `compile` and `kernels` accept per-request machine/option knobs
//! (`machine`, `registers`, `modify`, `modify_registers`, `threads`,
//! `iterations`, `validate`, `listings`, `timings`); anything
//! not given falls back to the server's defaults. `machine` selects a
//! whole machine description — a built-in name (`paper`, `tms320c2x`,
//! `dsp56k`, `adsp210x`, `bwdsp`, `saris`) or inline `key = value`
//! description text (see [`raco_ir::MachineDescription::parse`]) —
//! and the numeric knobs then override on top of it, so one
//! connection can compile the same source for several back ends. The
//! warm allocation cache is shared across *all* requests and
//! connections — cache keys include the machine parameters, so
//! mixed-machine traffic is safe.
//! `timings: true` keeps the per-stage `timings` array in the
//! response's report; serve responses omit it by default (its ten-odd
//! rows of floats add about 5 µs to a warm compile's reply, measured
//! in-process on a 2-vCPU host, and accumulated stage timings are
//! always available through the `metrics` op).
//!
//! ## Responses
//!
//! A single line: `{"id":…,"ok":true,…}` with a `report` (the
//! [`CompilationReport`] JSON), `stats`, `metrics`, or an
//! acknowledgement flag — or `{"id":…,"ok":false,"error":"…"}`.
//! Malformed input never kills the connection; it produces an error
//! response. The server appends an `elapsed_us` field (end-to-end
//! request wall time, microseconds) to every response to a request.
//!
//! Replies are written, never built: the server opens one reply object
//! in its connection's buffer and writes every field through
//! [`raco_driver::json::Writer`], the report
//! ([`CompilationReport::write_json`]) and the `stats` and `metrics`
//! payloads included, so no value tree is built for any reply. The
//! [`Json`] values here are parsed ones: a request, and its `id`, which
//! a reply echoes verbatim.
//!
//! Operational failures of the serve tier additionally carry a
//! machine-readable `error_kind`: `busy` (the `--max-connections`
//! bound refused the connection), `shed` (`--queue-depth` compiles
//! were already in flight), `read_deadline` (no complete request
//! arrived within `--read-deadline`; the connection is then closed),
//! `compute_deadline` (`--compute-deadline` passed before every loop
//! of the compile started; the connection survives and the loops that
//! finished stay cached, so a retry usually hits) and `internal` (the
//! compile panicked; only that request fails and the connection keeps
//! serving).
//!
//! Compile reports carry the full machine (`address_registers`,
//! `modify_range`, `modify_registers`) and, per loop, the explicit
//! `predicted_cycles` / `measured_cycles` pair: the allocator prices
//! modify registers, so the two agree on every machine the server is
//! asked to target (`measured_cycles` is `null` only when validation
//! was disabled).
//!
//! ```
//! use raco_driver::json::Json;
//! use raco_serve::protocol::{self, Request};
//!
//! let envelope = protocol::parse_line(
//!     r#"{"id": 7, "op": "compile", "source": "for (i = 0; i < 8; i++) { s += x[i]; }"}"#,
//! )?;
//! assert!(matches!(envelope.request, Request::Compile { .. }));
//!
//! // Unparsable lines are errors that echo whatever id was readable:
//! let err = protocol::parse_line(r#"{"id": 7, "op": "warp"}"#).unwrap_err();
//! assert!(err.message.contains("unknown op"));
//! assert_eq!(err.id, Some(Json::Int(7)));
//! # Ok::<(), raco_serve::protocol::ProtocolError>(())
//! ```

use raco_driver::json::{Json, Writer};
use raco_driver::{
    CacheStats, CompilationReport, Parallelism, PipelineConfig, SaveReport,
    MAX_VALIDATION_ITERATIONS,
};
use raco_ir::{MachineDescription, UpdateRange};

/// A decoded request line: the operation plus its envelope metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen request id, echoed verbatim in the response.
    pub id: Option<Json>,
    /// The operation to perform.
    pub request: Request,
    /// Per-request configuration overrides (compile/kernels only).
    pub knobs: Knobs,
}

/// The operations a client can ask for.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Compile one DSL program (possibly many loops).
    Compile {
        /// Unit label used in the report (defaults to `request`).
        name: String,
        /// The DSL source text.
        source: String,
    },
    /// Compile the built-in kernel suite, or one named kernel.
    Kernels {
        /// A single kernel name; `None` compiles the whole suite.
        kernel: Option<String>,
    },
    /// Report allocation-cache statistics and service counters.
    Stats,
    /// Report service metrics: per-op request latency, accumulated
    /// pipeline stage timings, cache hit/eviction rates.
    Metrics,
    /// Drop every cached allocation and cost curve.
    ClearCache,
    /// Snapshot the warm cache to disk (see [`raco_driver::persist`]).
    SaveCache {
        /// Snapshot path; `None` uses the server's configured default.
        path: Option<String>,
    },
    /// Liveness check.
    Ping,
    /// Acknowledge and close this connection (stdio: stop serving).
    Shutdown,
}

/// Largest address- or modify-register count a request may ask for.
///
/// Real AGUs top out at a handful of registers; the bound exists so a
/// hostile request cannot make the allocator sweep billions of
/// register counts or push a machine whose counts overflow the u32
/// fields of the cache-snapshot format into a long-lived server's
/// cache. Re-exported from [`raco_ir`] so the protocol and the
/// description parser enforce one number.
pub const MAX_MACHINE_REGISTERS: usize = raco_ir::MAX_MACHINE_REGISTERS;

/// Optional per-request overrides of the server's default
/// [`PipelineConfig`]. `None` everywhere means "use the defaults".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Knobs {
    /// Whole-machine selection: a built-in description name or inline
    /// `key = value` description text. Resolved first; the numeric
    /// machine knobs below then override on top of it.
    pub machine: Option<String>,
    /// Address registers (the paper's `K`).
    pub registers: Option<usize>,
    /// Auto-modify range (the paper's `M`).
    pub modify: Option<u32>,
    /// Modify registers.
    pub modify_registers: Option<usize>,
    /// Worker threads for this request (`0`/`1` = sequential).
    pub threads: Option<usize>,
    /// Simulated iterations per loop, at most
    /// [`MAX_VALIDATION_ITERATIONS`].
    pub iterations: Option<u64>,
    /// Validate generated code against a reference trace.
    pub validate: Option<bool>,
    /// Attach listings to the report.
    pub listings: Option<bool>,
    /// Include the per-stage `timings` array in this response's report.
    /// Serve responses omit it by default: it adds about 5 µs to a
    /// warm compile's reply (ten-odd rows of floats), and accumulated
    /// stage timings are always available through the `metrics` op.
    pub timings: Option<bool>,
}

impl Knobs {
    /// `true` if every knob is at its default (no overrides given).
    pub fn is_default(&self) -> bool {
        *self == Knobs::default()
    }

    /// Builds the effective per-request configuration over `base`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the requested machine is
    /// invalid (e.g. zero address registers, or register counts beyond
    /// [`MAX_MACHINE_REGISTERS`] — no real AGU comes close, and
    /// unbounded counts would let one request stall the allocator's
    /// per-`K` sweeps or overflow the u32 counts in cache snapshots), or
    /// when `iterations` exceeds [`MAX_VALIDATION_ITERATIONS`].
    pub fn apply(&self, base: &PipelineConfig) -> Result<PipelineConfig, String> {
        let mut config = base.clone();
        if let Some(machine) = &self.machine {
            config.agu = *MachineDescription::resolve(machine)
                .map_err(|e| e.to_string())?
                .spec();
        }
        if self.registers.is_some() || self.modify.is_some() || self.modify_registers.is_some() {
            let agu = config.agu;
            let registers = self.registers.unwrap_or(agu.address_registers());
            let modify_registers = self.modify_registers.unwrap_or(agu.modify_registers());
            for (knob, count) in [
                ("registers", registers),
                ("modify_registers", modify_registers),
            ] {
                if count > MAX_MACHINE_REGISTERS {
                    return Err(format!(
                        "{knob}: {count} exceeds the supported maximum of \
                         {MAX_MACHINE_REGISTERS}"
                    ));
                }
            }
            // Builders, not a fresh spec: a `machine`-selected (or
            // server-default) description keeps its update range and
            // cost table under partial numeric overrides.
            let mut agu = agu
                .with_address_registers(registers)
                .map_err(|e| e.to_string())?
                .with_modify_registers(modify_registers);
            if let Some(modify) = self.modify {
                agu = agu.with_update_range(UpdateRange::symmetric(modify));
            }
            config.agu = agu;
        }
        if let Some(threads) = self.threads {
            config.parallelism = match threads {
                0 | 1 => Parallelism::Sequential,
                n => Parallelism::Fixed(n),
            };
        }
        if let Some(iterations) = self.iterations {
            if iterations > MAX_VALIDATION_ITERATIONS {
                return Err(format!(
                    "iterations: {iterations} exceeds the supported maximum of \
                     {MAX_VALIDATION_ITERATIONS}"
                ));
            }
            config.validation_iterations = iterations;
        }
        if let Some(validate) = self.validate {
            config.validate = validate;
        }
        if let Some(listings) = self.listings {
            config.listings = listings;
        }
        Ok(config)
    }
}

/// A request that could not be decoded. Carries whatever `id` was
/// readable so the error response still correlates.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// The request id, when the line parsed far enough to have one.
    pub id: Option<Json>,
    /// What was wrong with the request.
    pub message: String,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtocolError {}

fn fail(id: &Option<Json>, message: impl Into<String>) -> ProtocolError {
    ProtocolError {
        id: id.clone(),
        message: message.into(),
    }
}

/// Reads an optional scalar field, rejecting wrong types (a silently
/// ignored `"registers": "four"` would be a debugging trap).
fn scalar<T>(
    value: &Json,
    id: &Option<Json>,
    key: &str,
    extract: impl Fn(&Json) -> Option<T>,
    expected: &str,
) -> Result<Option<T>, ProtocolError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(field) => extract(field)
            .map(Some)
            .ok_or_else(|| fail(id, format!("field `{key}` must be {expected}"))),
    }
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns [`ProtocolError`] for malformed JSON, non-object requests,
/// unknown ops, missing required fields and wrongly-typed knobs.
pub fn parse_line(line: &str) -> Result<Envelope, ProtocolError> {
    let value = Json::parse(line).map_err(|e| fail(&None, e.to_string()))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(fail(&None, "request must be a JSON object"));
    }
    let id = value.get("id").cloned().filter(|v| *v != Json::Null);
    if matches!(id, Some(Json::Arr(_) | Json::Obj(_))) {
        return Err(fail(&None, "field `id` must be a JSON scalar"));
    }

    let op = scalar(
        &value,
        &id,
        "op",
        |v| v.as_str().map(str::to_owned),
        "a string",
    )?
    .ok_or_else(|| fail(&id, "missing required field `op`"))?;

    let as_usize = |v: &Json| v.as_u64().and_then(|u| usize::try_from(u).ok());
    let knobs = Knobs {
        machine: scalar(
            &value,
            &id,
            "machine",
            |v| v.as_str().map(str::to_owned),
            "a string",
        )?,
        registers: scalar(&value, &id, "registers", as_usize, "a non-negative integer")?,
        modify: scalar(
            &value,
            &id,
            "modify",
            |v| v.as_u64().and_then(|u| u32::try_from(u).ok()),
            "a non-negative integer",
        )?,
        modify_registers: scalar(
            &value,
            &id,
            "modify_registers",
            as_usize,
            "a non-negative integer",
        )?,
        threads: scalar(&value, &id, "threads", as_usize, "a non-negative integer")?,
        iterations: scalar(
            &value,
            &id,
            "iterations",
            Json::as_u64,
            "a non-negative integer",
        )?,
        validate: scalar(&value, &id, "validate", Json::as_bool, "a boolean")?,
        listings: scalar(&value, &id, "listings", Json::as_bool, "a boolean")?,
        timings: scalar(&value, &id, "timings", Json::as_bool, "a boolean")?,
    };

    let request = match op.as_str() {
        "compile" => {
            let source = scalar(
                &value,
                &id,
                "source",
                |v| v.as_str().map(str::to_owned),
                "a string",
            )?
            .ok_or_else(|| fail(&id, "`compile` needs a `source` field"))?;
            let name = scalar(
                &value,
                &id,
                "name",
                |v| v.as_str().map(str::to_owned),
                "a string",
            )?
            .unwrap_or_else(|| "request".to_owned());
            Request::Compile { name, source }
        }
        "kernels" => Request::Kernels {
            kernel: scalar(
                &value,
                &id,
                "kernel",
                |v| v.as_str().map(str::to_owned),
                "a string",
            )?,
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "clear_cache" => Request::ClearCache,
        "save_cache" => Request::SaveCache {
            path: scalar(
                &value,
                &id,
                "path",
                |v| v.as_str().map(str::to_owned),
                "a string",
            )?,
        },
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(fail(
                &id,
                format!(
                    "unknown op `{other}` (expected compile, kernels, stats, \
                     metrics, clear_cache, save_cache, ping or shutdown)"
                ),
            ))
        }
    };
    if !knobs.is_default() && !matches!(request, Request::Compile { .. } | Request::Kernels { .. })
    {
        return Err(fail(&id, format!("op `{op}` takes no configuration knobs")));
    }
    Ok(Envelope { id, request, knobs })
}

/// Writes the fields every reply leads with: the echoed `id`, then
/// `ok`.
pub(crate) fn write_head(w: &mut Writer<'_>, id: &Option<Json>, ok: bool) {
    if let Some(id) = id {
        w.key("id").value(id);
    }
    w.key("ok").bool(ok);
}

/// Writes a success reply's fields carrying a compilation report.
pub(crate) fn write_report(w: &mut Writer<'_>, id: &Option<Json>, report: &CompilationReport) {
    write_head(w, id, true);
    report.write_json(w.key("report"));
}

/// A success response carrying a compilation report.
pub fn report_line(id: &Option<Json>, report: &CompilationReport) -> String {
    // A single-loop compile reply is about 650 bytes: one allocation
    // instead of a doubling series.
    let mut out = String::with_capacity(1024);
    Writer::compact(&mut out).object(|w| write_report(w, id, report));
    out
}

/// Writes a success acknowledgement's fields: `"ok":true,"<flag>":true`.
pub(crate) fn write_ack(w: &mut Writer<'_>, id: &Option<Json>, flag: &str) {
    write_head(w, id, true);
    w.key(flag).bool(true);
}

/// Writes an error reply's fields.
pub(crate) fn write_error(w: &mut Writer<'_>, id: &Option<Json>, message: &str) {
    write_head(w, id, false);
    w.key("error").str(message);
}

/// Writes the fields of an error reply with a machine-readable kind:
/// `"ok":false,"error_kind":"…","error":"…"`.
///
/// The serve tier names its operational failures so clients can react
/// without parsing prose: `busy` (connection cap reached), `shed`
/// (in-flight compile bound reached), `read_deadline` (no complete
/// request in time), `compute_deadline` (the compile outran its
/// budget) and `internal` (the compile panicked).
pub(crate) fn write_error_kind(w: &mut Writer<'_>, id: &Option<Json>, kind: &str, message: &str) {
    write_head(w, id, false);
    w.key("error_kind").str(kind);
    w.key("error").str(message);
}

/// Writes the [`CacheStats`] counters into an open object: the leading
/// fields of the `stats` payload and the `metrics` payload's `cache`.
pub(crate) fn write_stats(w: &mut Writer<'_>, stats: &CacheStats) {
    w.key("allocation_hits").uint(stats.allocation_hits);
    w.key("allocation_misses").uint(stats.allocation_misses);
    w.key("allocation_entries")
        .uint(stats.allocation_entries as u64);
    w.key("allocation_evictions")
        .uint(stats.allocation_evictions);
    w.key("curve_hits").uint(stats.curve_hits);
    w.key("curve_misses").uint(stats.curve_misses);
    w.key("curve_entries").uint(stats.curve_entries as u64);
    w.key("curve_evictions").uint(stats.curve_evictions);
    w.key("loaded").uint(stats.loaded);
    w.key("persisted").uint(stats.persisted);
    w.key("hit_rate").num(stats.hit_rate());
}

/// Writes the fields of a `save_cache` success reply: where the
/// snapshot went and what it holds.
pub(crate) fn write_saved(
    w: &mut Writer<'_>,
    id: &Option<Json>,
    path: &std::path::Path,
    report: &SaveReport,
) {
    write_head(w, id, true);
    w.key("saved").object(|w| {
        w.key("path").str(&path.display().to_string());
        w.key("allocations").uint(report.allocations as u64);
        w.key("curves").uint(report.curves as u64);
        w.key("bytes").uint(report.bytes as u64);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_ir::AguSpec;

    /// A reply line: one compact object whose fields `fields` writes.
    fn line(fields: impl FnOnce(&mut Writer<'_>)) -> String {
        let mut out = String::new();
        Writer::compact(&mut out).object(fields);
        out
    }

    #[test]
    fn compile_requests_parse_with_knobs() {
        let envelope = parse_line(
            r#"{"id":"a1","op":"compile","source":"for (i = 0; i < 4; i++) { s += x[i]; }",
               "name":"fir","registers":6,"modify":2,"iterations":8,"validate":false,
               "listings":true,"cache":false,"threads":1,"client_meta":"ignored"}"#,
        )
        .unwrap();
        assert_eq!(envelope.id, Some(Json::str("a1")));
        assert_eq!(
            envelope.request,
            Request::Compile {
                name: "fir".into(),
                source: "for (i = 0; i < 4; i++) { s += x[i]; }".into()
            }
        );
        assert_eq!(envelope.knobs.registers, Some(6));
        assert_eq!(envelope.knobs.modify, Some(2));
        assert_eq!(envelope.knobs.iterations, Some(8));
        assert_eq!(envelope.knobs.validate, Some(false));
        assert_eq!(envelope.knobs.listings, Some(true));
        assert_eq!(envelope.knobs.threads, Some(1));
        assert!(!envelope.knobs.is_default());
    }

    #[test]
    fn control_requests_parse_without_knobs() {
        for (line, expected) in [
            (r#"{"op":"stats"}"#, Request::Stats),
            (r#"{"op":"metrics"}"#, Request::Metrics),
            (r#"{"op":"clear_cache"}"#, Request::ClearCache),
            (r#"{"op":"ping"}"#, Request::Ping),
            (r#"{"op":"shutdown","id":3}"#, Request::Shutdown),
            (
                r#"{"op":"kernels","kernel":"paper_example"}"#,
                Request::Kernels {
                    kernel: Some("paper_example".into()),
                },
            ),
            (r#"{"op":"kernels"}"#, Request::Kernels { kernel: None }),
        ] {
            let envelope = parse_line(line).expect(line);
            assert_eq!(envelope.request, expected, "{line}");
            assert!(envelope.knobs.is_default());
        }
    }

    #[test]
    fn malformed_lines_are_protocol_errors() {
        for (line, needle) in [
            ("", "invalid JSON"),
            ("{\"op\":", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            ("{\"id\":1}", "missing required field `op`"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"compile"}"#, "needs a `source`"),
            (
                r#"{"op":"compile","source":5}"#,
                "`source` must be a string",
            ),
            (
                r#"{"op":"compile","source":"x","registers":"four"}"#,
                "`registers` must be",
            ),
            (
                r#"{"op":"compile","source":"x","registers":-1}"#,
                "`registers` must be",
            ),
            (
                r#"{"op":"ping","registers":4}"#,
                "takes no configuration knobs",
            ),
            (
                r#"{"op":"metrics","threads":2}"#,
                "takes no configuration knobs",
            ),
            (r#"{"op":"stats","id":[1]}"#, "`id` must be a JSON scalar"),
        ] {
            let err = parse_line(line).expect_err(line);
            assert!(
                err.message.contains(needle),
                "`{line}`: `{}` does not mention `{needle}`",
                err.message
            );
        }
    }

    #[test]
    fn errors_keep_the_readable_id() {
        let err = parse_line(r#"{"id":42,"op":"compile"}"#).unwrap_err();
        assert_eq!(err.id, Some(Json::Int(42)));
        let rendered = line(|w| write_error(w, &err.id, &err.message));
        assert!(rendered.starts_with(r#"{"id":42,"ok":false,"error":"#));
    }

    #[test]
    fn knobs_apply_over_a_base_config() {
        let base = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
        let knobs = Knobs {
            registers: Some(2),
            iterations: Some(3),
            validate: Some(false),
            ..Knobs::default()
        };
        let config = knobs.apply(&base).unwrap();
        assert_eq!(config.agu.address_registers(), 2);
        assert_eq!(config.agu.modify_range(), 1, "inherited from base");
        assert_eq!(config.validation_iterations, 3);
        assert!(!config.validate);

        let bad = Knobs {
            registers: Some(0),
            ..Knobs::default()
        };
        assert!(bad.apply(&base).is_err());
    }

    #[test]
    fn machine_knob_selects_whole_descriptions() {
        let base = PipelineConfig::new(raco_ir::AguSpec::new(4, 1).unwrap());

        // Built-in name (and alias) selection.
        let envelope = parse_line(r#"{"op":"kernels","machine":"bwdsp"}"#).unwrap();
        assert_eq!(envelope.knobs.machine.as_deref(), Some("bwdsp"));
        let config = envelope.knobs.apply(&base).unwrap();
        let bwdsp = raco_ir::AguSpec::new(8, 1)
            .unwrap()
            .with_update_range(UpdateRange::new(0, 1).unwrap())
            .with_modify_registers(2)
            .with_cost_table(raco_ir::CostTable::new(2, 1, 1).unwrap());
        assert_eq!(config.agu, bwdsp);

        // Inline description text.
        let knobs = Knobs {
            machine: Some(
                "name = custom\naddress_registers = 3\nupdate_min = 0\nupdate_max = 2\n".to_owned(),
            ),
            ..Knobs::default()
        };
        let config = knobs.apply(&base).unwrap();
        assert_eq!(config.agu.address_registers(), 3);
        assert_eq!(config.agu.update_range(), UpdateRange::new(0, 2).unwrap());

        // Numeric knobs override on top of the selected description
        // without losing its cost table.
        let knobs = Knobs {
            machine: Some("saris".to_owned()),
            registers: Some(2),
            ..Knobs::default()
        };
        let config = knobs.apply(&base).unwrap();
        assert_eq!(config.agu.address_registers(), 2);
        assert_eq!(
            config.agu.cost_table(),
            raco_ir::CostTable::new(1, 2, 1).unwrap()
        );

        // Unknown machines and malformed descriptions are positioned,
        // human-readable errors — never a crash.
        let unknown = Knobs {
            machine: Some("z80".to_owned()),
            ..Knobs::default()
        };
        let err = unknown.apply(&base).unwrap_err();
        assert!(err.contains("unknown machine `z80`"), "{err}");
        assert!(err.contains("bwdsp"), "{err}");
        let malformed = Knobs {
            machine: Some("address_registers = 0".to_owned()),
            ..Knobs::default()
        };
        let err = malformed.apply(&base).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn knobs_reject_absurd_register_counts() {
        // Unbounded counts must error (not crash a later snapshot save
        // or stall the per-K allocation sweep).
        let base = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
        for knobs in [
            Knobs {
                registers: Some(MAX_MACHINE_REGISTERS + 1),
                ..Knobs::default()
            },
            Knobs {
                modify_registers: Some(usize::MAX),
                ..Knobs::default()
            },
        ] {
            let err = knobs.apply(&base).unwrap_err();
            assert!(err.contains("exceeds the supported maximum"), "{err}");
        }
        // The boundary itself is accepted.
        let edge = Knobs {
            modify_registers: Some(MAX_MACHINE_REGISTERS),
            ..Knobs::default()
        };
        assert_eq!(
            edge.apply(&base).unwrap().agu.modify_registers(),
            MAX_MACHINE_REGISTERS
        );
    }

    #[test]
    fn knobs_reject_iterations_past_the_maximum() {
        let base = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
        let at = |iterations| Knobs {
            iterations: Some(iterations),
            ..Knobs::default()
        };
        let edge = at(MAX_VALIDATION_ITERATIONS).apply(&base).unwrap();
        assert_eq!(edge.validation_iterations, MAX_VALIDATION_ITERATIONS);
        let err = at(MAX_VALIDATION_ITERATIONS + 1).apply(&base).unwrap_err();
        assert_eq!(
            err,
            format!(
                "iterations: {} exceeds the supported maximum of {MAX_VALIDATION_ITERATIONS}",
                MAX_VALIDATION_ITERATIONS + 1
            )
        );
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let stats = CacheStats::default();
        for line in [
            line(|w| {
                write_head(w, &Some(Json::Int(1)), true);
                w.key("stats").object(|w| write_stats(w, &stats));
            }),
            line(|w| write_ack(w, &None, "pong")),
            line(|w| write_error(w, &Some(Json::str("x")), "boom\nboom")),
            line(|w| write_error_kind(w, &Some(Json::Num(2.5)), "busy", "full")),
        ] {
            assert!(!line.contains('\n'), "NDJSON must stay on one line: {line}");
            assert!(Json::parse(&line).is_ok(), "response reparses: {line}");
        }
        assert_eq!(
            line(|w| write_ack(w, &None, "pong")),
            r#"{"ok":true,"pong":true}"#
        );
        assert_eq!(
            line(|w| write_error_kind(w, &Some(Json::str("a")), "shed", "later")),
            r#"{"id":"a","ok":false,"error_kind":"shed","error":"later"}"#
        );
    }
}
