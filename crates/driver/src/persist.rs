//! Cache snapshots: persist the allocation cache across processes.
//!
//! The two-phase allocation is the expensive step this whole system
//! exists to amortize, and a cache key — the shift-normalized
//! [`CanonicalPattern`], the machine and the options — means the same
//! in every process, so there is no reason a warm cache should die
//! with the process that warmed it. This module serializes every
//! resident entry of an [`AllocationCache`] into a dependency-free
//! binary snapshot and restores it entry by entry, turning a server
//! restart from a cold-start event into a warm boot:
//!
//! ```
//! use raco_driver::{persist, Pipeline};
//! use raco_ir::AguSpec;
//!
//! let warm = Pipeline::new(AguSpec::new(4, 1).unwrap());
//! warm.compile_str("unit", "for (i = 0; i < 8; i++) { s += x[i]; }").unwrap();
//!
//! // Snapshot the warm cache, restore it into a "new process" …
//! let bytes = persist::encode(warm.cache());
//! let cold = Pipeline::new(AguSpec::new(4, 1).unwrap());
//! let report = persist::decode_into(cold.cache(), &bytes);
//! assert_eq!(report.skipped, 0);
//! assert!(report.allocations > 0);
//!
//! // … and the restored pipeline's FIRST compile is all cache hits.
//! let first = cold.compile_str("unit", "for (i = 0; i < 8; i++) { s += x[i]; }").unwrap();
//! assert_eq!(first.cache.allocation_misses, 0);
//! assert!(first.cache.allocation_hits > 0);
//! ```
//!
//! ## Snapshot format
//!
//! All integers are little-endian; the layout (also specified in the
//! repository's `PERSISTENCE.md`) is:
//!
//! ```text
//! header   magic  [8]  b"RACOSNP\n"
//!          version u32  SNAPSHOT_VERSION (currently 3)
//!          reserved u32 zero
//! records  tag u8 (0x01 allocation | 0x02 cost curve)
//!          len u32      payload length in bytes
//!          payload[len]
//!          …            (repeated; sorted by record bytes, so equal
//!                        caches encode to identical snapshots)
//! trailer  end u8       0x00
//!          checksum u64 FNV-1a over every preceding byte
//! ```
//!
//! An *allocation record* payload carries the full cache key (the
//! shift-normalized canonical pattern, the update range as two i64
//! bounds, granted registers, and optimizer options) and the full
//! [`Allocation`] value (distance model, cost, both phase reports with
//! their covers). A *curve record* carries the curve-class key and the
//! `Vec<u32>` cost curve.
//!
//! ## Versioning and corruption handling
//!
//! Decoding **never panics** and rejects damage at the smallest
//! trustworthy granularity:
//!
//! * wrong magic, unsupported version, or a checksum mismatch poison
//!   the whole file (with a checksum failure no individual record can
//!   be trusted), producing a [`LoadReport`] with a warning and
//!   nothing loaded — callers keep running with a cold cache;
//! * a record that is structurally corrupt but correctly framed
//!   (undecodable payload, an invalid path cover, a cost that does not
//!   match its own cover) is skipped and counted, and loading
//!   continues with the next record;
//! * a record whose declared length overruns the file ends the walk
//!   (nothing after it can be framed), keeping everything loaded so
//!   far.
//!
//! Version bumps are compatibility breaks by design: the snapshot is a
//! cache, so the correct reaction to an old snapshot is to recompute,
//! not to migrate. Loaders must refuse versions they do not know.

use std::fmt;
use std::io;
use std::path::{Path as FsPath, PathBuf};
use std::sync::Arc;

use raco_core::{
    Allocation, CostModel, MergeRecord, MergeStrategy, OptimizerOptions, Phase1Outcome,
    Phase1Report, Phase2Report,
};
use raco_graph::{BbOptions, DistanceModel, Path, PathCover};
use raco_ir::{CanonicalPattern, UpdateRange, MAX_INSTRUCTION_COST};

use crate::cache::{AllocationCache, AllocationKey, CurveKey};

/// The snapshot file magic (first eight bytes).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RACOSNP\n";

/// The snapshot format version this build writes and accepts.
///
/// Version history:
///
/// * **1** — initial format.
/// * **2** — the options sub-encoding gained the cost model's
///   modify-register count: allocation now depends on how many modify
///   registers the machine has (the allocator prices deltas they can
///   absorb at zero cycles), so version-1 entries — implicitly priced
///   at zero modify registers without saying so — must not warm-hit a
///   version-2 cache. Old snapshots are rejected cleanly and the cache
///   re-warms.
/// * **3** — machine descriptions: the `M` radius (one u32) in both
///   record kinds became the full asymmetric update range (two i64
///   bounds), and the options sub-encoding gained the cost model's
///   ADDA cost. A v2 snapshot cannot express `[0, 1]`-style ranges or
///   non-unit instruction costs, so its entries — implicitly symmetric
///   and unit-cost — must not warm-hit a v3 cache keyed by the full
///   description. Old snapshots are rejected cleanly and the cache
///   re-warms.
pub const SNAPSHOT_VERSION: u32 = 3;

const TAG_END: u8 = 0x00;
const TAG_ALLOCATION: u8 = 0x01;
const TAG_CURVE: u8 = 0x02;

/// Header (magic + version + reserved) plus trailer (end marker +
/// checksum): the size of the smallest well-formed snapshot.
const MIN_SNAPSHOT: usize = 8 + 4 + 4 + 1 + 8;

/// How many per-record warnings a [`LoadReport`] keeps verbatim before
/// collapsing the rest into one summary line.
const MAX_WARNINGS: usize = 8;

/// 64-bit FNV-1a over `bytes` — the snapshot trailer's whole-file
/// checksum. Exposed so external tooling (and the corruption tests)
/// can seal or verify snapshots without linking a hash library.
pub fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = OFFSET_BASIS;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A snapshot file could not be read or written.
///
/// Format-level damage is *not* an error: [`load`] reports it through
/// [`LoadReport`] (skipped entries + warnings) so a service can always
/// boot, warm or cold.
#[derive(Debug)]
pub struct PersistError {
    /// The offending snapshot path.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub error: io::Error,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for PersistError {}

/// What a snapshot save wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// Allocation entries written.
    pub allocations: usize,
    /// Cost-curve entries written.
    pub curves: usize,
    /// Total snapshot size in bytes.
    pub bytes: usize,
}

impl SaveReport {
    /// Total entries written.
    pub fn entries(&self) -> usize {
        self.allocations + self.curves
    }
}

impl fmt::Display for SaveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} allocation(s) + {} curve(s), {} bytes",
            self.allocations, self.curves, self.bytes
        )
    }
}

/// What a snapshot load restored — and what it refused.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Allocation entries restored.
    pub allocations: usize,
    /// Cost-curve entries restored.
    pub curves: usize,
    /// Entries already resident (the in-memory value wins).
    pub duplicates: usize,
    /// Records rejected as corrupt or unrecognized.
    pub skipped: usize,
    /// One human-readable line per rejection (capped at a handful,
    /// then summarized).
    pub warnings: Vec<String>,
}

impl LoadReport {
    /// Total entries restored into the cache.
    pub fn loaded(&self) -> usize {
        self.allocations + self.curves
    }

    fn warn(&mut self, message: impl Into<String>) {
        if self.warnings.len() < MAX_WARNINGS {
            self.warnings.push(message.into());
        } else if self.warnings.len() == MAX_WARNINGS {
            self.warnings.push("… further warnings suppressed".into());
        }
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} allocation(s) + {} curve(s) loaded",
            self.allocations, self.curves
        )?;
        if self.duplicates > 0 {
            write!(f, ", {} duplicate(s)", self.duplicates)?;
        }
        if self.skipped > 0 {
            write!(f, ", {} skipped", self.skipped)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Counts and indices are stored as u32; anything larger than this is
/// not a plausible cache entry (a pattern with 4 billion accesses).
fn put_count(buf: &mut Vec<u8>, v: usize) {
    put_u32(
        buf,
        u32::try_from(v).expect("cache entries are far below u32 counts"),
    );
}

fn put_offsets(buf: &mut Vec<u8>, offsets: &[i64], stride: i64) {
    put_count(buf, offsets.len());
    for &o in offsets {
        put_i64(buf, o);
    }
    put_i64(buf, stride);
}

fn put_range(buf: &mut Vec<u8>, range: UpdateRange) {
    put_i64(buf, range.min());
    put_i64(buf, range.max());
}

fn put_options(buf: &mut Vec<u8>, options: &OptimizerOptions) {
    buf.push(u8::from(options.cost_model.includes_wrap()));
    put_count(buf, options.cost_model.modify_registers());
    put_u32(buf, options.cost_model.adda_cost());
    put_u64(buf, options.bb.node_limit);
    buf.push(u8::from(options.bb.memoize));
    match options.strategy {
        MergeStrategy::GreedyMinCost => buf.push(0),
        MergeStrategy::Random { seed } => {
            buf.push(1);
            put_u64(buf, seed);
        }
        MergeStrategy::FirstPair => buf.push(2),
        MergeStrategy::WorstCost => buf.push(3),
        // A strategy this codec does not know (the enum is
        // non-exhaustive) encodes as a tag the decoder rejects: the
        // entry degrades to one skipped record instead of silently
        // loading under the wrong strategy. Adding a real tag for a
        // new variant is a SNAPSHOT_VERSION bump.
        _ => buf.push(u8::MAX),
    }
}

fn put_cover(buf: &mut Vec<u8>, cover: &PathCover) {
    put_count(buf, cover.accesses());
    put_count(buf, cover.paths().len());
    for path in cover.paths() {
        put_count(buf, path.len());
        for &index in path.indices() {
            put_count(buf, index);
        }
    }
}

fn encode_allocation_record(key: &AllocationKey, value: &Allocation) -> Vec<u8> {
    let mut buf = Vec::new();
    // Key.
    put_offsets(&mut buf, key.canonical.offsets(), key.canonical.stride());
    put_range(&mut buf, key.range);
    put_count(&mut buf, key.registers);
    put_options(&mut buf, &key.options);
    // Value: distance model …
    put_offsets(
        &mut buf,
        value.distance_model().offsets(),
        value.distance_model().stride(),
    );
    put_range(&mut buf, value.distance_model().range());
    put_u32(&mut buf, value.cost());
    // … Phase 1 …
    let phase1 = value.phase1();
    put_cover(&mut buf, phase1.cover());
    buf.push(match phase1.outcome() {
        Phase1Outcome::ZeroCost {
            proved_minimal: false,
        } => 0,
        Phase1Outcome::ZeroCost {
            proved_minimal: true,
        } => 1,
        Phase1Outcome::Relaxed => 2,
        // See the merge-strategy fallback above: unknown outcomes
        // round-trip to a rejected (skipped) record by design.
        _ => u8::MAX,
    });
    put_count(&mut buf, phase1.lower_bound());
    put_u64(&mut buf, phase1.nodes());
    // … Phase 2.
    let phase2 = value.phase2();
    put_cover(&mut buf, phase2.cover());
    put_count(&mut buf, phase2.records().len());
    for record in phase2.records() {
        put_count(&mut buf, record.paths_before);
        put_count(&mut buf, record.merged_lengths.0);
        put_count(&mut buf, record.merged_lengths.1);
        put_u32(&mut buf, record.merged_path_cost);
        put_u32(&mut buf, record.total_cost_after);
    }
    put_count(&mut buf, phase2.cost_trajectory().len());
    for &(registers, cost) in phase2.cost_trajectory() {
        put_count(&mut buf, registers);
        put_u32(&mut buf, cost);
    }
    buf
}

fn encode_curve_record(key: &CurveKey, value: &[u32]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_offsets(&mut buf, key.cost_class.offsets(), key.cost_class.stride());
    put_range(&mut buf, key.range);
    put_count(&mut buf, key.k_max);
    put_options(&mut buf, &key.options);
    put_count(&mut buf, value.len());
    for &cost in value {
        put_u32(&mut buf, cost);
    }
    buf
}

/// Serializes every resident cache entry into a snapshot byte buffer.
///
/// Records are sorted, so two caches with equal contents encode to
/// byte-identical snapshots regardless of insertion order — which is
/// what makes `encode(load(encode(x)))` reproducible in tests.
pub fn encode(cache: &AllocationCache) -> Vec<u8> {
    encode_with_report(cache).0
}

/// [`encode`], also returning the [`SaveReport`] describing the bytes.
/// One export feeds both, so the counts always describe the snapshot
/// that was actually written — even while other threads keep inserting.
fn encode_with_report(cache: &AllocationCache) -> (Vec<u8>, SaveReport) {
    let (allocations, curves) = cache.export();
    let mut records: Vec<(u8, Vec<u8>)> = Vec::with_capacity(allocations.len() + curves.len());
    for (key, value) in &allocations {
        records.push((TAG_ALLOCATION, encode_allocation_record(key, value)));
    }
    for (key, value) in &curves {
        records.push((TAG_CURVE, encode_curve_record(key, value)));
    }
    records.sort();

    let mut buf = Vec::new();
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut buf, SNAPSHOT_VERSION);
    put_u32(&mut buf, 0); // reserved
    for (tag, payload) in records {
        buf.push(tag);
        put_count(&mut buf, payload.len());
        buf.extend_from_slice(&payload);
    }
    buf.push(TAG_END);
    let sum = checksum(&buf);
    put_u64(&mut buf, sum);
    let report = SaveReport {
        allocations: allocations.len(),
        curves: curves.len(),
        bytes: buf.len(),
    };
    (buf, report)
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Cursor over a record payload; every read is bounds-checked, so a
/// hostile payload can only produce `Err`, never a panic or a huge
/// allocation (element counts are validated against remaining bytes
/// before anything is reserved).
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type Decoded<T> = Result<T, &'static str>;

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        if end > self.bytes.len() {
            return Err("payload truncated");
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Decoded<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Decoded<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Decoded<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A u32 element count, sanity-checked against the bytes that are
    /// actually left (`min_elem_bytes` per element).
    fn count(&mut self, min_elem_bytes: usize) -> Decoded<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.bytes.len() - self.pos {
            return Err("element count overruns payload");
        }
        Ok(n)
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn read_offsets(r: &mut Reader<'_>) -> Decoded<(Vec<i64>, i64)> {
    let n = r.count(8)?;
    if n == 0 {
        return Err("empty access pattern");
    }
    let mut offsets = Vec::with_capacity(n);
    for _ in 0..n {
        offsets.push(r.i64()?);
    }
    let stride = r.i64()?;
    Ok((offsets, stride))
}

fn read_canonical(r: &mut Reader<'_>) -> Decoded<CanonicalPattern> {
    let (offsets, stride) = read_offsets(r)?;
    if offsets[0] != 0 {
        return Err("canonical pattern does not start at zero");
    }
    Ok(CanonicalPattern::from_offsets(&offsets, stride))
}

fn read_range(r: &mut Reader<'_>) -> Decoded<UpdateRange> {
    let min = r.i64()?;
    let max = r.i64()?;
    UpdateRange::new(min, max).map_err(|_| "invalid update range")
}

fn read_options(r: &mut Reader<'_>) -> Decoded<OptimizerOptions> {
    let cost_model = match r.u8()? {
        0 => CostModel::paper_literal(),
        1 => CostModel::steady_state(),
        _ => return Err("unknown cost model"),
    };
    let cost_model = cost_model.with_modify_registers(r.u32()? as usize);
    let adda_cost = r.u32()?;
    if adda_cost == 0 || adda_cost > MAX_INSTRUCTION_COST {
        return Err("invalid ADDA cost");
    }
    let cost_model = cost_model.with_adda_cost(adda_cost);
    let node_limit = r.u64()?;
    let memoize = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err("invalid memoize flag"),
    };
    let strategy = match r.u8()? {
        0 => MergeStrategy::GreedyMinCost,
        1 => MergeStrategy::Random { seed: r.u64()? },
        2 => MergeStrategy::FirstPair,
        3 => MergeStrategy::WorstCost,
        _ => return Err("unknown merge strategy"),
    };
    Ok(OptimizerOptions {
        cost_model,
        bb: BbOptions {
            node_limit,
            memoize,
        },
        strategy,
    })
}

fn read_cover(r: &mut Reader<'_>) -> Decoded<PathCover> {
    let accesses = r.count(0)?;
    let path_count = r.count(4)?;
    let mut paths = Vec::with_capacity(path_count);
    for _ in 0..path_count {
        let len = r.count(4)?;
        let mut indices = Vec::with_capacity(len);
        for _ in 0..len {
            indices.push(r.u32()? as usize);
        }
        paths.push(Path::new(indices).map_err(|_| "invalid path")?);
    }
    PathCover::new(paths, accesses).map_err(|_| "paths do not partition the accesses")
}

fn decode_allocation_record(payload: &[u8]) -> Decoded<(AllocationKey, Allocation)> {
    let r = &mut Reader::new(payload);
    let canonical = read_canonical(r)?;
    let range = read_range(r)?;
    let registers = r.u32()? as usize;
    let options = read_options(r)?;

    let (offsets, stride) = read_offsets(r)?;
    let dm_range = read_range(r)?;
    let dm = DistanceModel::from_offsets_range(&offsets, stride, dm_range);
    let cost = r.u32()?;

    let phase1_cover = read_cover(r)?;
    let outcome = match r.u8()? {
        0 => Phase1Outcome::ZeroCost {
            proved_minimal: false,
        },
        1 => Phase1Outcome::ZeroCost {
            proved_minimal: true,
        },
        2 => Phase1Outcome::Relaxed,
        _ => return Err("unknown phase-1 outcome"),
    };
    let lower_bound = r.u32()? as usize;
    let nodes = r.u64()?;
    let phase1 = Phase1Report::from_parts(phase1_cover, outcome, lower_bound, nodes);

    let phase2_cover = read_cover(r)?;
    let record_count = r.count(20)?;
    let mut records = Vec::with_capacity(record_count);
    for _ in 0..record_count {
        records.push(MergeRecord {
            paths_before: r.u32()? as usize,
            merged_lengths: (r.u32()? as usize, r.u32()? as usize),
            merged_path_cost: r.u32()?,
            total_cost_after: r.u32()?,
        });
    }
    let trajectory_count = r.count(8)?;
    let mut cost_trajectory = Vec::with_capacity(trajectory_count);
    for _ in 0..trajectory_count {
        cost_trajectory.push((r.u32()? as usize, r.u32()?));
    }
    let phase2 = Phase2Report::from_parts(phase2_cover, records, cost_trajectory);
    if !r.finished() {
        return Err("trailing bytes after allocation record");
    }

    // Cross-field validation: the covers must describe exactly the
    // distance model's accesses, the key must agree with the model,
    // and the stored cost must be reproducible from the final cover
    // and equal the Phase-2 report's final cost (the cost the rebuilt
    // allocation reports) — a snapshot that lies about any of these is rejected here rather
    // than poisoning downstream codegen.
    if phase1.cover().accesses() != dm.len() || phase2.cover().accesses() != dm.len() {
        return Err("cover does not match the distance model");
    }
    if registers == 0 || phase2.cover().register_count() > registers {
        return Err("final cover exceeds the key's register grant");
    }
    if dm.range() != range {
        return Err("distance model disagrees with the cache key");
    }
    if CanonicalPattern::from_offsets(&offsets, stride) != canonical {
        return Err("distance model does not canonicalize to the cache key");
    }
    if options.cost_model.cover_cost(phase2.cover(), &dm) != cost {
        return Err("stored cost does not match the cover");
    }
    if phase2.final_cost() != cost {
        return Err("stored cost does not match the phase-2 report");
    }

    let key = AllocationKey {
        canonical,
        range,
        registers,
        options,
    };
    Ok((key, Allocation::from_parts(dm, phase1, phase2)))
}

fn decode_curve_record(payload: &[u8]) -> Decoded<(CurveKey, Vec<u32>)> {
    let r = &mut Reader::new(payload);
    let cost_class = read_canonical(r)?;
    let range = read_range(r)?;
    let k_max = r.u32()? as usize;
    let options = read_options(r)?;
    let len = r.count(4)?;
    if len != k_max {
        return Err("curve length does not match its k_max");
    }
    let mut curve = Vec::with_capacity(len);
    for _ in 0..len {
        curve.push(r.u32()?);
    }
    if !r.finished() {
        return Err("trailing bytes after curve record");
    }
    // Symmetric machines key curves by the sign-normalized cost class;
    // asymmetric machines key by the exact canonical form (mirror
    // sharing is unsound there), which need not be sign-normalized.
    if range.is_symmetric() && cost_class.cost_class() != cost_class {
        return Err("curve key is not sign-normalized");
    }
    Ok((
        CurveKey {
            cost_class,
            range,
            k_max,
            options,
        },
        curve,
    ))
}

/// Restores snapshot `bytes` into `cache`, entry by entry.
///
/// Never panics and never fails outright: structural damage is
/// reported through the returned [`LoadReport`] (see the
/// [module docs](self) for the exact rejection granularity). Restored
/// entries bump [`CacheStats::loaded`](crate::CacheStats); entries
/// whose key is already resident are counted as duplicates and the
/// in-memory value is kept.
pub fn decode_into(cache: &AllocationCache, bytes: &[u8]) -> LoadReport {
    let mut report = LoadReport::default();
    if bytes.len() < MIN_SNAPSHOT {
        report.skipped += 1;
        report.warn(format!(
            "snapshot too short ({} bytes) — not written by `{}`?",
            bytes.len(),
            env!("CARGO_PKG_NAME"),
        ));
        return report;
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        report.skipped += 1;
        report.warn("bad magic — not a raco cache snapshot");
        return report;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        report.skipped += 1;
        report.warn(format!(
            "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION}); \
             ignoring the snapshot — the cache will re-warm"
        ));
        return report;
    }
    let declared = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    let actual = checksum(&bytes[..bytes.len() - 8]);
    if declared != actual {
        report.skipped += 1;
        report.warn(format!(
            "checksum mismatch (stored {declared:#018x}, computed {actual:#018x}); \
             rejecting every entry"
        ));
        return report;
    }

    // Walk the record region: bytes between the header and the
    // trailer. The end marker lives outside this region, so running
    // out of bytes exactly at a record boundary is the normal exit.
    let mut r = Reader::new(&bytes[16..bytes.len() - 9]);
    while let Ok(tag) = r.u8() {
        let Ok(len) = r.u32() else {
            report.skipped += 1;
            report.warn("record header truncated; stopping the walk");
            break;
        };
        let Ok(payload) = r.take(len as usize) else {
            report.skipped += 1;
            report.warn("truncated record overruns the snapshot; stopping the walk");
            break;
        };
        match tag {
            TAG_ALLOCATION => match decode_allocation_record(payload) {
                Ok((key, value)) => {
                    if cache.install_allocation(key, Arc::new(value)) {
                        report.allocations += 1;
                    } else {
                        report.duplicates += 1;
                    }
                }
                Err(reason) => {
                    report.skipped += 1;
                    report.warn(format!("allocation record rejected: {reason}"));
                }
            },
            TAG_CURVE => match decode_curve_record(payload) {
                Ok((key, value)) => {
                    if cache.install_curve(key, Arc::new(value)) {
                        report.curves += 1;
                    } else {
                        report.duplicates += 1;
                    }
                }
                Err(reason) => {
                    report.skipped += 1;
                    report.warn(format!("curve record rejected: {reason}"));
                }
            },
            other => {
                // Unknown record kinds are skippable by construction
                // (they are length-prefixed like every other record).
                report.skipped += 1;
                report.warn(format!("unknown record tag {other:#04x} skipped"));
            }
        }
    }
    report
}

/// Saves every resident cache entry to `path` (atomically: written to
/// a sibling temp file, then renamed). Updates
/// [`CacheStats::persisted`](crate::CacheStats).
///
/// # Errors
///
/// Returns [`PersistError`] when the file cannot be written.
pub fn save(cache: &AllocationCache, path: &FsPath) -> Result<SaveReport, PersistError> {
    let (bytes, report) = encode_with_report(cache);
    let wrap = |error: io::Error| PersistError {
        path: path.to_path_buf(),
        error,
    };
    // Rename-into-place so a crash mid-write can never leave a torn
    // snapshot where the next boot will look for a good one. The temp
    // name is unique per save (pid + counter), so concurrent saves to
    // one path cannot interleave into a single temp file — last rename
    // wins with a complete snapshot either way.
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    std::fs::write(&tmp, &bytes).map_err(wrap)?;
    if let Err(error) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(wrap(error));
    }
    cache.note_persisted(report.entries() as u64);
    Ok(report)
}

/// Loads the snapshot at `path` into `cache`.
///
/// # Errors
///
/// Returns [`PersistError`] when the file cannot be read; format-level
/// damage is reported through the [`LoadReport`] instead.
pub fn load(cache: &AllocationCache, path: &FsPath) -> Result<LoadReport, PersistError> {
    let bytes = std::fs::read(path).map_err(|error| PersistError {
        path: path.to_path_buf(),
        error,
    })?;
    Ok(decode_into(cache, &bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_core::Optimizer;
    use raco_ir::{AccessPattern, AguSpec};

    fn sym(m: u32) -> UpdateRange {
        UpdateRange::symmetric(m)
    }

    /// A cache warmed with a few real allocations and curves.
    fn warm_cache() -> AllocationCache {
        let cache = AllocationCache::new();
        let options = OptimizerOptions::default();
        let optimizer = Optimizer::new(AguSpec::new(2, 1).unwrap());
        for offsets in [&[1i64, 0, 2, -1][..], &[0, 5, 10][..], &[0, -3][..]] {
            let pattern = AccessPattern::from_offsets(offsets, 1);
            let canonical = CanonicalPattern::of(&pattern);
            let _ = cache.allocation(&canonical, sym(1), 2, &options, || {
                optimizer.allocate(&pattern)
            });
            let _ = cache.cost_curve(&canonical, sym(1), 4, &options, || {
                optimizer.cost_curve(&pattern, 4)
            });
        }
        cache
    }

    #[test]
    fn round_trip_restores_every_entry() {
        let cache = warm_cache();
        let bytes = encode(&cache);
        let restored = AllocationCache::new();
        let report = decode_into(&restored, &bytes);
        assert_eq!(report.skipped, 0, "{:?}", report.warnings);
        assert_eq!(report.allocations, 3);
        assert_eq!(report.curves, 3);
        assert_eq!(report.loaded(), 6);
        assert_eq!(restored.stats().loaded, 6);
        // Entry-for-entry equality: re-encoding the restored cache
        // reproduces the snapshot byte for byte (records are sorted).
        assert_eq!(encode(&restored), bytes);
    }

    #[test]
    fn loaded_entries_hit_without_recomputation() {
        let cache = warm_cache();
        let restored = AllocationCache::new();
        decode_into(&restored, &encode(&cache));
        let options = OptimizerOptions::default();
        let canonical = CanonicalPattern::from_offsets(&[1, 0, 2, -1], 1);
        let hit = restored.allocation(&canonical, sym(1), 2, &options, || {
            panic!("loaded entry must hit")
        });
        let original = cache.allocation(&canonical, sym(1), 2, &options, || {
            panic!("warm entry must hit")
        });
        assert_eq!(*hit, *original);
        assert_eq!(restored.stats().allocation_hits, 1);
        assert_eq!(restored.stats().allocation_misses, 0);
    }

    #[test]
    fn duplicates_keep_the_resident_value() {
        let cache = warm_cache();
        let bytes = encode(&cache);
        let report = decode_into(&cache, &bytes);
        assert_eq!(report.loaded(), 0);
        assert_eq!(report.duplicates, 6);
        assert_eq!(cache.stats().loaded, 0);
    }

    #[test]
    fn bad_magic_version_and_checksum_are_rejected_whole() {
        let restored = AllocationCache::new();
        let good = encode(&warm_cache());

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        let report = decode_into(&restored, &bad_magic);
        assert_eq!(report.loaded(), 0);
        assert!(report.warnings[0].contains("bad magic"));

        let mut bad_version = good.clone();
        bad_version[8] = 99;
        let report = decode_into(&restored, &bad_version);
        assert_eq!(report.loaded(), 0);
        assert!(report.warnings[0].contains("version 99"));

        let mut bad_sum = good.clone();
        let flip = bad_sum.len() / 2;
        bad_sum[flip] ^= 0x01;
        let report = decode_into(&restored, &bad_sum);
        assert_eq!(report.loaded(), 0);
        assert!(report.warnings[0].contains("checksum mismatch"));

        assert_eq!(restored.stats().loaded, 0);
        assert_eq!(decode_into(&restored, b"tiny").warnings.len(), 1);
    }

    #[test]
    fn version_one_snapshots_are_rejected_cleanly() {
        // Regression pin for the v1 → v2 bump (allocation now depends
        // on the cost model's modify-register count, which v1 never
        // encoded): a structurally flawless version-1 snapshot must be
        // rejected whole — one warning, nothing loaded, no panic — so
        // a v2 cache can never warm-hit entries priced for the wrong
        // machine.
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut buf, 1); // the previous SNAPSHOT_VERSION
        put_u32(&mut buf, 0);
        buf.push(TAG_END);
        let sum = checksum(&buf);
        put_u64(&mut buf, sum);

        let restored = AllocationCache::new();
        let report = decode_into(&restored, &buf);
        assert_eq!(report.loaded(), 0);
        assert_eq!(report.skipped, 1);
        assert!(
            report.warnings[0].contains("version 1"),
            "{:?}",
            report.warnings
        );
        assert!(report.warnings[0].contains("re-warm"));
        assert_eq!(restored.stats().loaded, 0);
    }

    #[test]
    fn version_two_snapshots_are_rejected_cleanly() {
        // Regression pin for the v2 → v3 bump (cache keys grew from a
        // symmetric M radius to a full update range, and options now
        // carry the ADDA cost): a structurally flawless version-2
        // snapshot must be rejected whole — one warning, nothing
        // loaded, no panic — so a v3 cache can never warm-hit entries
        // keyed by an incomplete machine description.
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut buf, 2); // the previous SNAPSHOT_VERSION
        put_u32(&mut buf, 0);
        buf.push(TAG_END);
        let sum = checksum(&buf);
        put_u64(&mut buf, sum);

        let restored = AllocationCache::new();
        let report = decode_into(&restored, &buf);
        assert_eq!(report.loaded(), 0);
        assert_eq!(report.skipped, 1);
        assert!(
            report.warnings[0].contains("version 2"),
            "{:?}",
            report.warnings
        );
        assert!(report.warnings[0].contains("re-warm"));
        assert_eq!(restored.stats().loaded, 0);
    }

    #[test]
    fn asymmetric_range_entries_round_trip() {
        // A bwdsp-style post-increment machine: the [0, 1] range and
        // the machine-forced ADDA cost must survive the snapshot and
        // answer only to the exactly-matching key.
        let agu = raco_ir::AguSpec::new(8, 1)
            .unwrap()
            .with_update_range(UpdateRange::new(0, 1).unwrap())
            .with_modify_registers(2)
            .with_cost_table(raco_ir::CostTable::new(2, 1, 1).unwrap());
        let config = crate::PipelineConfig::new(agu);
        let options = config.effective_options();
        let optimizer = Optimizer::with_options(agu, options);
        let pattern = AccessPattern::from_offsets(&[0, 2, 5], 1);
        let canonical = CanonicalPattern::of(&pattern);
        let range = agu.update_range();
        let cache = AllocationCache::new();
        let _ = cache.allocation(&canonical, range, 2, &options, || {
            optimizer.allocate_with_registers(&pattern, 2)
        });
        let _ = cache.cost_curve(&canonical, range, 4, &options, || {
            optimizer.cost_curve(&pattern, 4)
        });

        let bytes = encode(&cache);
        let restored = AllocationCache::new();
        let report = decode_into(&restored, &bytes);
        assert_eq!(report.skipped, 0, "{:?}", report.warnings);
        assert_eq!(report.loaded(), 2);
        assert_eq!(encode(&restored), bytes);
        let _ = restored.allocation(&canonical, range, 2, &options, || {
            panic!("restored asymmetric entry must hit")
        });
        // The symmetric M = 1 key is a different machine: clean miss.
        let _ = restored.allocation(&canonical, sym(1), 2, &options, || {
            optimizer.allocate_with_registers(&pattern, 2)
        });
        assert_eq!(restored.stats().allocation_hits, 1);
        assert_eq!(restored.stats().allocation_misses, 1);
    }

    #[test]
    fn options_round_trip_the_modify_register_count() {
        // Two caches whose entries differ only in the cost model's
        // modify-register count must encode to different snapshots and
        // restore to distinct keys.
        let options_mr = OptimizerOptions {
            cost_model: CostModel::steady_state().with_modify_registers(2),
            ..OptimizerOptions::default()
        };
        let optimizer = Optimizer::with_options(
            raco_ir::AguSpec::new(2, 1)
                .unwrap()
                .with_modify_registers(2),
            options_mr,
        );
        let pattern = AccessPattern::from_offsets(&[0, 10, 20, 30], 1);
        let canonical = CanonicalPattern::of(&pattern);
        let cache = AllocationCache::new();
        let _ = cache.allocation(&canonical, sym(1), 2, &options_mr, || {
            optimizer.allocate(&pattern)
        });

        let restored = AllocationCache::new();
        let report = decode_into(&restored, &encode(&cache));
        assert_eq!(report.skipped, 0, "{:?}", report.warnings);
        assert_eq!(report.allocations, 1);
        // The restored entry answers only to the MR-priced key …
        let hit = restored.allocation(&canonical, sym(1), 2, &options_mr, || {
            panic!("restored MR entry must hit")
        });
        assert_eq!(hit.cost(), optimizer.allocate(&pattern).cost());
        // … while the plain-machine key recomputes from scratch.
        let plain = OptimizerOptions::default();
        let miss_marker = Optimizer::with_options(raco_ir::AguSpec::new(2, 1).unwrap(), plain);
        let _ = restored.allocation(&canonical, sym(1), 2, &plain, || {
            miss_marker.allocate(&pattern)
        });
        assert_eq!(restored.stats().allocation_misses, 1);
        assert_eq!(restored.stats().allocation_entries, 2);
    }

    #[test]
    fn corrupt_records_are_skipped_individually() {
        // Hand-assemble a snapshot whose middle record is garbage but
        // whose framing and checksum are valid: the two good records
        // must still load.
        let cache = warm_cache();
        let (allocations, curves) = cache.export();
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut buf, SNAPSHOT_VERSION);
        put_u32(&mut buf, 0);
        let good_alloc = encode_allocation_record(&allocations[0].0, &allocations[0].1);
        buf.push(TAG_ALLOCATION);
        put_count(&mut buf, good_alloc.len());
        buf.extend_from_slice(&good_alloc);
        buf.push(TAG_ALLOCATION);
        put_count(&mut buf, 5);
        buf.extend_from_slice(b"junk!");
        let good_curve = encode_curve_record(&curves[0].0, &curves[0].1);
        buf.push(TAG_CURVE);
        put_count(&mut buf, good_curve.len());
        buf.extend_from_slice(&good_curve);
        buf.push(TAG_END);
        let sum = checksum(&buf);
        put_u64(&mut buf, sum);

        let restored = AllocationCache::new();
        let report = decode_into(&restored, &buf);
        assert_eq!(report.allocations, 1);
        assert_eq!(report.curves, 1);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].contains("allocation record rejected"));
    }

    #[test]
    fn records_exceeding_their_register_grant_are_rejected() {
        // A checksummed snapshot whose record claims fewer granted
        // registers than its own final cover uses would hand codegen
        // an over-budget allocation on a warm hit; the decoder must
        // refuse it during load, not downstream.
        let cache = warm_cache();
        let (allocations, _) = cache.export();
        let (key, value) = allocations
            .iter()
            .find(|(_, v)| v.cover().register_count() >= 2)
            .expect("fixture has a multi-register allocation");
        for registers in [0, value.cover().register_count() - 1] {
            let mut lying_key = key.clone();
            lying_key.registers = registers;
            let record = encode_allocation_record(&lying_key, value);
            let mut buf = Vec::new();
            buf.extend_from_slice(&SNAPSHOT_MAGIC);
            put_u32(&mut buf, SNAPSHOT_VERSION);
            put_u32(&mut buf, 0);
            buf.push(TAG_ALLOCATION);
            put_count(&mut buf, record.len());
            buf.extend_from_slice(&record);
            buf.push(TAG_END);
            let sum = checksum(&buf);
            put_u64(&mut buf, sum);

            let restored = AllocationCache::new();
            let report = decode_into(&restored, &buf);
            assert_eq!(report.loaded(), 0, "granted {registers}: {report:?}");
            assert_eq!(report.skipped, 1);
            assert!(report.warnings[0].contains("register grant"));
        }
    }

    #[test]
    fn records_whose_cost_disagrees_with_their_report_are_rejected() {
        // A rebuilt allocation reports its Phase-2 report's final cost,
        // so a record whose trajectory ends off its stored cost — which
        // still prices its cover right — must be refused during load.
        let cache = warm_cache();
        let (allocations, _) = cache.export();
        let (key, value) = &allocations[0];
        let report = value.phase2();
        let mut trajectory = report.cost_trajectory().to_vec();
        trajectory.last_mut().expect("a trajectory has a start").1 += 1;
        let lying = Allocation::from_parts(
            value.distance_model().clone(),
            value.phase1().clone(),
            Phase2Report::from_parts(
                report.cover().clone(),
                report.records().to_vec(),
                trajectory,
            ),
        );
        // The stored cost follows the key and the distance model; put
        // the cover's true price back there.
        let mut record = encode_allocation_record(key, &lying);
        let mut prefix = Vec::new();
        put_offsets(&mut prefix, key.canonical.offsets(), key.canonical.stride());
        put_range(&mut prefix, key.range);
        put_count(&mut prefix, key.registers);
        put_options(&mut prefix, &key.options);
        let dm = value.distance_model();
        put_offsets(&mut prefix, dm.offsets(), dm.stride());
        put_range(&mut prefix, dm.range());
        record[prefix.len()..prefix.len() + 4].copy_from_slice(&value.cost().to_le_bytes());
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut buf, SNAPSHOT_VERSION);
        put_u32(&mut buf, 0);
        buf.push(TAG_ALLOCATION);
        put_count(&mut buf, record.len());
        buf.extend_from_slice(&record);
        buf.push(TAG_END);
        let sum = checksum(&buf);
        put_u64(&mut buf, sum);

        let restored = AllocationCache::new();
        let report = decode_into(&restored, &buf);
        assert_eq!(report.loaded(), 0, "{report:?}");
        assert_eq!(report.skipped, 1);
        assert!(report.warnings[0].contains("phase-2 report"), "{report:?}");
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let cache = warm_cache();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("raco-persist-test-{}.snap", std::process::id()));
        let saved = save(&cache, &path).unwrap();
        assert_eq!(saved.entries(), 6);
        assert!(saved.bytes > MIN_SNAPSHOT);
        assert_eq!(cache.stats().persisted, 6);

        let restored = AllocationCache::new();
        let report = load(&restored, &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.loaded(), 6);
        assert_eq!(encode(&restored), encode(&cache));

        let missing = load(&restored, &dir.join("raco-no-such-snapshot"));
        assert!(missing.is_err());
        assert!(missing.unwrap_err().to_string().contains("raco-no-such"));
    }

    #[test]
    fn reports_render_readably() {
        let save = SaveReport {
            allocations: 2,
            curves: 3,
            bytes: 640,
        };
        assert_eq!(save.to_string(), "2 allocation(s) + 3 curve(s), 640 bytes");
        let mut load = LoadReport {
            allocations: 2,
            curves: 3,
            ..LoadReport::default()
        };
        assert_eq!(load.to_string(), "2 allocation(s) + 3 curve(s) loaded");
        load.duplicates = 1;
        load.skipped = 4;
        assert_eq!(
            load.to_string(),
            "2 allocation(s) + 3 curve(s) loaded, 1 duplicate(s), 4 skipped"
        );
    }
}
