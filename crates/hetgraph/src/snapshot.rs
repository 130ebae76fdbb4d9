//! On-disk context snapshots: warm-start condensation across process
//! restarts.
//!
//! Everything a [`CondenseContext`] caches is a pure function of the
//! graph and the cache key, so the whole precompute — composed meta-path
//! adjacencies (Eq. 1), influence vectors (Eq. 10–13), diversity bonuses
//! (Eq. 5–7), propagated-feature blocks — is a *durable artifact*, not
//! process state. This module serializes it to a single versioned binary
//! file so a restarted service (or a second process on the same dataset)
//! starts warm instead of recomputing; the same transparency contract
//! holds as for every other cache layer: a condensation served from a
//! loaded snapshot is bitwise-identical to a fresh one.
//!
//! # File format (version 3, little-endian, hand-rolled)
//!
//! ```text
//! magic     [u8; 8]   b"FHGCSNAP"
//! version   u32       SNAPSHOT_VERSION
//! checksum  u64       snapshot_checksum of every byte after this field
//! fp        u64 × 2   GraphFingerprint of the source graph
//! n_entries u64
//! entry*    family u8 (CacheFamily as u8) | key | value
//! ```
//!
//! Entries come in `CondenseContext::entries` order — family first,
//! then key — so identical cache contents produce identical bytes. Five
//! families persist: factors, composed adjacencies, influence vectors,
//! diversity bonuses and propagated blocks; paths and oriented
//! adjacencies are cheap to recompute and never written. Every family's
//! encoder, decoder and shape check lives in this module. A file that
//! lacks some family's entries loads as a partial context: the absent
//! entries become counted cold misses on first use, never wrong bytes.
//! The fill-in cap [`MAX_ROW_NNZ`](crate::condense::MAX_ROW_NNZ) is a
//! compile-time constant, so it is not recorded: changing it changes
//! composed bits and needs a [`SNAPSHOT_VERSION`] bump.
//!
//! # Trust model
//!
//! A snapshot is only ever *advisory*. The loader checks the magic, then
//! the version, then the one checksum — which covers the fingerprint
//! and every entry — then the fingerprint. It bounds-checks every
//! length, re-validates every CSR invariant and shape-checks each entry
//! against the graph as it decodes it, and installs only after the whole
//! file has decoded — any failure leaves the context exactly as cold as
//! it was and surfaces as a [`SnapshotError`] the caller (see
//! [`ContextRegistry::resolve`](crate::registry::ContextRegistry::resolve))
//! converts into a clean cold miss. The checksum is an unkeyed hash: it
//! catches torn writes, bit rot and spliced headers, not crafted files,
//! which the structural checks reduce to a recompute. Corruption can
//! cost a recompute, never a panic and never wrong bits.

use crate::context::{
    CacheEntry, CacheFamily, CacheKey, CacheValue, CondenseContext, InfluenceKey,
    InvalidationRules, SeedReport,
};
use crate::graph::{GraphDelta, HeteroGraph};
use crate::metapath::{MetaPathStep, MAX_HOPS, MAX_PATHS};
use crate::propagation::PropagatedFeatures;
use crate::registry::GraphFingerprint;
use crate::schema::{EdgeTypeId, NodeTypeId, Schema};
use freehgc_autograd::Matrix;
use freehgc_sparse::fx::FxHasher;
use freehgc_sparse::CsrMatrix;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"FHGCSNAP";
/// Current format version; bump on any layout change.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Bytes before the checksummed body: magic, version and checksum.
const BODY_START: usize = 8 + 4 + 8;

/// The families a snapshot persists, in file order.
const PERSISTED: [CacheFamily; 5] = [
    CacheFamily::Factors,
    CacheFamily::Composed,
    CacheFamily::Influence,
    CacheFamily::Diversity,
    CacheFamily::Propagated,
];

/// Why a snapshot could not be written or loaded. Loaders treat every
/// variant the same way — fall back to cold compute — but the variant
/// names the first contract the file broke, for logs and tests.
#[derive(Debug)]
pub enum SnapshotError {
    Io(std::io::Error),
    /// Not a snapshot file at all.
    BadMagic,
    /// A snapshot, but of an incompatible format version.
    BadVersion {
        found: u32,
        expected: u32,
    },
    /// A well-formed snapshot of a *different* graph.
    WrongFingerprint {
        found: GraphFingerprint,
        expected: GraphFingerprint,
    },
    /// The bytes after the checksum field do not match it.
    ChecksumMismatch,
    /// The file ends before a declared length.
    Truncated,
    /// Structurally invalid contents (bad lengths, broken CSR
    /// invariants, unknown family tags, trailing bytes, …).
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a context snapshot (bad magic)"),
            SnapshotError::BadVersion { found, expected } => {
                write!(f, "snapshot format version {found}, expected {expected}")
            }
            SnapshotError::WrongFingerprint { found, expected } => {
                write!(f, "snapshot is for graph {found}, expected {expected}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Canonical file name for a snapshot: the registry key — the graph
/// fingerprint — spelled into the name, so one directory holds distinct
/// snapshots for distinct graphs and a loader can address the right file
/// without reading any of them.
pub fn snapshot_file_name(fp: GraphFingerprint) -> String {
    format!("ctx-{fp}.fhgc")
}

// ---------------------------------------------------------------------
// Crash-safe file I/O: bounded retry for transient errors, fsync before
// the atomic rename, and a sweep for temp files orphaned by crashes.
// ---------------------------------------------------------------------

/// Attempts (first try + retries) a snapshot read or write gets before
/// its I/O error escapes to the caller.
const IO_ATTEMPTS: u32 = 3;

static IO_RETRIES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Process-wide count of transient snapshot I/O errors absorbed by a
/// retry (reads and writes combined). Surfaced through
/// `ContextRegistry::stats`.
pub fn io_retries() -> u64 {
    IO_RETRIES.load(std::sync::atomic::Ordering::Relaxed)
}

/// Runs `op` up to [`IO_ATTEMPTS`] times with a short exponential
/// backoff, counting each absorbed error in [`io_retries`]. `NotFound`
/// is never retried — an absent file is a state, not a transient fault.
fn retry_io<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(e),
            Err(e) => {
                attempt += 1;
                if attempt >= IO_ATTEMPTS {
                    return Err(e);
                }
                IO_RETRIES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
            }
        }
    }
}

/// `std::fs::read` with transient-error retry (and the
/// `snapshot.read.io` failpoint) — every load path.
fn read_snapshot_bytes(path: &Path) -> std::io::Result<Vec<u8>> {
    retry_io(|| {
        crate::failpoints::fire_io(crate::failpoints::SNAPSHOT_READ_IO)?;
        std::fs::read(path)
    })
}

/// Deletes leftover per-call snapshot temp files (`*.fhgc.tmp-…`) from
/// `dir`, returning how many were removed. A writer that dies (or a
/// torn-write fault) between writing its temp file and the atomic
/// rename leaves the orphan behind — the canonical file is never at
/// risk, but orphans accumulate and hold disk space. The registry runs
/// this once per directory it touches (its "startup sweep"). Sweeping
/// under a *live* concurrent writer is benign: the writer's rename
/// fails and its retry uses a fresh temp name.
pub fn sweep_tmp_files(dir: &Path) -> std::io::Result<usize> {
    let mut swept = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let is_orphan = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.contains(".fhgc.tmp-"));
        if is_orphan && std::fs::remove_file(&path).is_ok() {
            swept += 1;
        }
    }
    Ok(swept)
}

// ---------------------------------------------------------------------
// Byte-level encoding primitives (shared with the serving wire codec).
// ---------------------------------------------------------------------

/// Little-endian append-only byte sink.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Bit-exact float encoding — snapshots must round-trip every value
    /// bitwise, so floats travel as their raw IEEE-754 bits.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    // Bulk array writers: snapshot payloads are dominated by large
    // index/value arrays, so reserve once per array rather than letting
    // every element re-check capacity.

    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    pub fn put_usize_slice(&mut self, v: &[usize]) {
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.buf.extend_from_slice(&(x as u64).to_le_bytes());
        }
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_bytes(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a byte slice. Every read
/// that would run past the end returns [`SnapshotError::Truncated`]
/// instead of panicking — the input is an untrusted file.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }

    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.seq_len(1)?;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| SnapshotError::Malformed("non-utf8 string"))
    }

    /// Reads a sequence length and sanity-bounds it: `len` elements of
    /// at least `min_elem_bytes` each must still fit in the remaining
    /// input. A corrupted length field therefore fails fast as
    /// `Truncated` instead of driving a multi-gigabyte allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let len = self.usize()?;
        if len > self.remaining() / min_elem_bytes.max(1) {
            return Err(SnapshotError::Truncated);
        }
        Ok(len)
    }

    // Bulk array readers: one bounds-checked `take` per array (which
    // also caps the allocation at the actual input size), then a
    // chunked decode, instead of a `Result` round trip per element.

    pub fn u32_vec(&mut self, len: usize) -> Result<Vec<u32>, SnapshotError> {
        let n = len
            .checked_mul(4)
            .ok_or(SnapshotError::Malformed("length overflow"))?;
        Ok(self
            .take(n)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub fn f32_vec(&mut self, len: usize) -> Result<Vec<f32>, SnapshotError> {
        let n = len
            .checked_mul(4)
            .ok_or(SnapshotError::Malformed("length overflow"))?;
        Ok(self
            .take(n)?
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    pub fn f64_vec(&mut self, len: usize) -> Result<Vec<f64>, SnapshotError> {
        let n = len
            .checked_mul(8)
            .ok_or(SnapshotError::Malformed("length overflow"))?;
        Ok(self
            .take(n)?
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    pub fn usize_vec(&mut self, len: usize) -> Result<Vec<usize>, SnapshotError> {
        let n = len
            .checked_mul(8)
            .ok_or(SnapshotError::Malformed("length overflow"))?;
        self.take(n)?
            .chunks_exact(8)
            .map(|c| {
                usize::try_from(u64::from_le_bytes(c.try_into().unwrap()))
                    .map_err(|_| SnapshotError::Malformed("usize overflow"))
            })
            .collect()
    }
}

/// Snapshot checksum: the workspace Fx hash over the body length and
/// bytes — everything after the checksum field, fingerprint included.
/// Fast and non-cryptographic — it guards against torn writes, bit rot
/// and spliced headers, not adversaries; the full structural validation
/// on decode is what keeps a colliding corruption harmless. Public so a
/// fuzzer can reseal mutated bodies and reach the entry decoders behind
/// the checksum.
pub fn snapshot_checksum(body: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(body.len());
    h.write(body);
    h.finish()
}

// ---------------------------------------------------------------------
// Payload encoders.
// ---------------------------------------------------------------------

fn put_step(w: &mut ByteWriter, s: MetaPathStep) {
    w.put_u16(s.edge.0);
    w.put_u8(s.forward as u8);
}

fn read_step(r: &mut ByteReader<'_>, schema: &Schema) -> Result<MetaPathStep, SnapshotError> {
    let edge = EdgeTypeId(r.u16()?);
    if edge.0 as usize >= schema.num_edge_types() {
        return Err(SnapshotError::Malformed("edge type out of range"));
    }
    let forward = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::Malformed("step direction tag")),
    };
    Ok(MetaPathStep { edge, forward })
}

fn put_csr(w: &mut ByteWriter, m: &CsrMatrix) {
    w.put_usize(m.nrows());
    w.put_usize(m.ncols());
    w.put_usize(m.nnz());
    w.put_usize_slice(m.indptr());
    w.put_u32_slice(m.indices());
    w.put_f32_slice(m.values());
}

/// Advances past one encoded CSR matrix without materializing it —
/// bounds-checked only, since a skipped entry is never installed. Delta
/// loads use this to step over invalidated entries at `take()` cost
/// instead of paying the full decode + invariant re-validation.
fn skip_csr(r: &mut ByteReader<'_>) -> Result<(), SnapshotError> {
    let nrows = r.usize()?;
    let _ncols = r.usize()?;
    let nnz = r.usize()?;
    let ptr_bytes = nrows
        .checked_add(1)
        .and_then(|n| n.checked_mul(8))
        .ok_or(SnapshotError::Malformed("nrows overflow"))?;
    // indices (u32) + values (f32): 8 bytes per stored entry.
    let entry_bytes = nnz
        .checked_mul(8)
        .ok_or(SnapshotError::Malformed("length overflow"))?;
    r.take(ptr_bytes)?;
    r.take(entry_bytes)?;
    Ok(())
}

/// Decodes a CSR matrix, re-validating every invariant `CsrMatrix`
/// promises (monotone indptr, sorted strictly-increasing in-range column
/// indices) so a checksum-colliding corruption can never reach the
/// panicking `from_parts` asserts — here it is a clean `Malformed`.
fn read_csr(r: &mut ByteReader<'_>) -> Result<CsrMatrix, SnapshotError> {
    let nrows = r.usize()?;
    let ncols = r.usize()?;
    if ncols > u32::MAX as usize {
        return Err(SnapshotError::Malformed("ncols exceeds u32 index range"));
    }
    let nnz = r.usize()?;
    let ptr_len = nrows
        .checked_add(1)
        .ok_or(SnapshotError::Malformed("nrows overflow"))?;
    let indptr = r.usize_vec(ptr_len)?;
    if indptr[0] != 0 || indptr[nrows] != nnz {
        return Err(SnapshotError::Malformed("indptr endpoints"));
    }
    if indptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Malformed("indptr not monotone"));
    }
    let indices = r.u32_vec(nnz)?;
    let values = r.f32_vec(nnz)?;
    for row in 0..nrows {
        let cols = &indices[indptr[row]..indptr[row + 1]];
        if cols.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SnapshotError::Malformed("row indices not sorted-unique"));
        }
        if cols.last().is_some_and(|&c| c as usize >= ncols) {
            return Err(SnapshotError::Malformed("column index out of range"));
        }
    }
    Ok(CsrMatrix::from_parts(nrows, ncols, indptr, indices, values))
}

/// Encodes a propagated block set as one length-prefixed payload: the
/// block count, then per block its name, shape and `f32` bits.
fn put_blocks(w: &mut ByteWriter, pf: &PropagatedFeatures) {
    let mut b = ByteWriter::new();
    b.put_usize(pf.blocks.len());
    for (m, name) in pf.blocks.iter().zip(&pf.path_names) {
        b.put_str(name);
        b.put_usize(m.rows);
        b.put_usize(m.cols);
        b.put_f32_slice(&m.data);
    }
    w.put_usize(b.len());
    w.put_bytes(&b.into_bytes());
}

/// Decodes one payload written by [`put_blocks`] (without its length
/// prefix), consuming all of it.
fn read_blocks(bytes: &[u8]) -> Result<PropagatedFeatures, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let n = r.seq_len(1)?;
    let mut blocks = Vec::with_capacity(n);
    let mut path_names = Vec::with_capacity(n);
    for _ in 0..n {
        path_names.push(r.str()?);
        let (rows, cols) = (r.usize()?, r.usize()?);
        let len = rows
            .checked_mul(cols)
            .ok_or(SnapshotError::Malformed("length overflow"))?;
        // f32_vec bounds-checks len * 4 against the remaining input, so
        // a corrupted dimension pair fails here instead of driving a
        // huge allocation.
        blocks.push(Matrix::from_vec(rows, cols, r.f32_vec(len)?));
    }
    if !r.is_empty() {
        return Err(SnapshotError::Malformed("trailing bytes in blocks"));
    }
    Ok(PropagatedFeatures { blocks, path_names })
}

/// Serializes `ctx`'s caches to snapshot bytes: the header, the
/// fingerprint, then every persisted entry in key order (see the module
/// docs for the layout). Pure in-memory encoding; see
/// [`CondenseContext::save_snapshot`] for the file wrapper.
pub fn encode_snapshot(ctx: &CondenseContext<'_>) -> Vec<u8> {
    let entries: Vec<CacheEntry> = ctx
        .entries()
        .into_iter()
        .filter(|e| PERSISTED.contains(&e.key.family()))
        .collect();
    let fp = ctx.graph().fingerprint();
    let mut w = ByteWriter::new();
    w.put_bytes(&SNAPSHOT_MAGIC);
    w.put_u32(SNAPSHOT_VERSION);
    w.put_u64(0); // the checksum, sealed once the body is written
    w.put_u64(fp.0);
    w.put_u64(fp.1);
    w.put_usize(entries.len());
    for CacheEntry { key, value } in entries {
        w.put_u8(key.family() as u8);
        match (key, value) {
            (CacheKey::Factors(step), CacheValue::Matrix(m)) => {
                put_step(&mut w, step);
                put_csr(&mut w, &m);
            }
            (CacheKey::Composed(steps), CacheValue::Matrix(m)) => {
                w.put_usize(steps.len());
                for s in steps {
                    put_step(&mut w, s);
                }
                put_csr(&mut w, &m);
            }
            (CacheKey::Influence(k), CacheValue::Vector(v)) => {
                w.put_u16(k.father.0);
                w.put_usize(k.max_hops);
                w.put_usize(k.max_paths);
                w.put_u8(k.method.0);
                for p in k.method.1 {
                    w.put_u32(p);
                }
                match &k.seed_targets {
                    None => w.put_u8(0),
                    Some(t) => {
                        w.put_u8(1);
                        w.put_usize(t.len());
                        w.put_u32_slice(t);
                    }
                }
                w.put_u64(k.seed);
                w.put_usize(v.len());
                w.put_f64_slice(&v);
            }
            (CacheKey::Diversity((root, max_hops, max_paths, path_idx)), CacheValue::Vector(v)) => {
                w.put_u16(root.0);
                w.put_usize(max_hops);
                w.put_usize(max_paths);
                w.put_usize(path_idx);
                w.put_usize(v.len());
                w.put_f64_slice(&v);
            }
            (CacheKey::Propagated((a, b)), CacheValue::Propagated(pf)) => {
                w.put_usize(a);
                w.put_usize(b);
                put_blocks(&mut w, &pf);
            }
            _ => unreachable!("an entry's value matches its key's family"),
        }
    }
    let mut bytes = w.into_bytes();
    let checksum = snapshot_checksum(&bytes[BODY_START..]);
    bytes[BODY_START - 8..BODY_START].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Reads a node type id, rejecting one outside `schema`.
fn read_node_type(r: &mut ByteReader<'_>, schema: &Schema) -> Result<NodeTypeId, SnapshotError> {
    let t = NodeTypeId(r.u16()?);
    if t.0 as usize >= schema.num_node_types() {
        return Err(SnapshotError::Malformed("node type out of range"));
    }
    Ok(t)
}

/// Reads a `(max_hops, max_paths)` pair, rejecting either above the
/// untrusted-input bounds [`MAX_HOPS`] / [`MAX_PATHS`].
fn read_bounds(r: &mut ByteReader<'_>) -> Result<(usize, usize), SnapshotError> {
    let (hops, paths) = (r.usize()?, r.usize()?);
    if hops > MAX_HOPS || paths > MAX_PATHS {
        return Err(SnapshotError::Malformed("meta-path bounds out of range"));
    }
    Ok((hops, paths))
}

/// Reads one entry's family tag and key. Every type id is range-checked
/// against `schema` and every hop/path bound against the untrusted-input
/// caps here, before `InvalidationRules::survives` (which indexes by
/// type id and enumerates meta-paths) ever sees the key.
fn read_key(r: &mut ByteReader<'_>, schema: &Schema) -> Result<CacheKey, SnapshotError> {
    let tag = r.u8()?;
    let family = PERSISTED
        .into_iter()
        .find(|&f| f as u8 == tag)
        .ok_or(SnapshotError::Malformed("unknown family tag"))?;
    Ok(match family {
        CacheFamily::Factors => CacheKey::Factors(read_step(r, schema)?),
        CacheFamily::Composed => {
            let nsteps = r.seq_len(3)?;
            if nsteps < 2 {
                // Single-step paths live in the factor cache by design; a
                // snapshot that claims otherwise is not one we wrote.
                return Err(SnapshotError::Malformed("composed entry under 2 steps"));
            }
            CacheKey::Composed(
                (0..nsteps)
                    .map(|_| read_step(r, schema))
                    .collect::<Result<_, _>>()?,
            )
        }
        CacheFamily::Influence => {
            let father = read_node_type(r, schema)?;
            let (max_hops, max_paths) = read_bounds(r)?;
            let disc = r.u8()?;
            let mut params = [0u32; 4];
            for p in &mut params {
                *p = r.u32()?;
            }
            let seed_targets = match r.u8()? {
                0 => None,
                1 => {
                    // seq_len, not a raw usize: a corrupted length field
                    // must fail fast instead of sizing an allocation.
                    let n = r.seq_len(4)?;
                    Some(r.u32_vec(n)?)
                }
                _ => return Err(SnapshotError::Malformed("seed-target tag")),
            };
            CacheKey::Influence(InfluenceKey {
                father,
                max_hops,
                max_paths,
                method: (disc, params),
                seed_targets,
                seed: r.u64()?,
            })
        }
        CacheFamily::Diversity => {
            let root = read_node_type(r, schema)?;
            let (max_hops, max_paths) = read_bounds(r)?;
            CacheKey::Diversity((root, max_hops, max_paths, r.usize()?))
        }
        CacheFamily::Propagated => CacheKey::Propagated(read_bounds(r)?),
        CacheFamily::Paths | CacheFamily::Oriented => unreachable!("never persisted"),
    })
}

/// Reads the value of an entry of `family` — or, when the entry does not
/// survive the delta, steps over its bytes (bounds-checked) and returns
/// `None`: `skip_csr` for matrices, and one `take` for vectors and for
/// propagated blocks, which are dense and dominate the file.
fn read_value(
    r: &mut ByteReader<'_>,
    family: CacheFamily,
    survives: bool,
) -> Result<Option<CacheValue>, SnapshotError> {
    let value = match family {
        CacheFamily::Factors | CacheFamily::Composed => {
            if !survives {
                skip_csr(r)?;
                return Ok(None);
            }
            CacheValue::Matrix(Arc::new(read_csr(r)?))
        }
        CacheFamily::Influence | CacheFamily::Diversity => {
            let n = r.seq_len(8)?;
            if !survives {
                r.take(n * 8)?;
                return Ok(None);
            }
            CacheValue::Vector(Arc::new(r.f64_vec(n)?))
        }
        _ => {
            let len = r.seq_len(1)?;
            let bytes = r.take(len)?;
            if !survives {
                return Ok(None);
            }
            CacheValue::Propagated(Arc::new(read_blocks(bytes)?))
        }
    };
    Ok(Some(value))
}

/// Shape-checks one decoded entry against the graph it is about to
/// serve. The checksum only catches *accidental* corruption — it is an
/// unkeyed Fx hash anyone can recompute — so the no-panic contract for
/// untrusted files rests on this: an entry whose type ids are out of
/// range, whose matrix dimensions disagree with the edge type's node
/// counts, or whose vector length disagrees with the scored type's node
/// count, or whose propagated blocks lack a row per target node, would
/// otherwise pass decode and then panic deep inside a later SpGEMM,
/// propagation multiply, selection index or block `gather`.
fn validate_against_graph(
    key: &CacheKey,
    value: &CacheValue,
    g: &HeteroGraph,
) -> Result<(), SnapshotError> {
    let schema = g.schema();
    // Oriented factor dimensions implied by a step: the stored edge is
    // |src| × |dst|; a reverse traversal transposes it.
    let step_dims = |s: &MetaPathStep| -> Result<(usize, usize), SnapshotError> {
        if (s.edge.0 as usize) >= schema.num_edge_types() {
            return Err(SnapshotError::Malformed("edge type out of range"));
        }
        let (src, dst) = schema.edge_endpoints(s.edge);
        let (a, b) = (g.num_nodes(src), g.num_nodes(dst));
        Ok(if s.forward { (a, b) } else { (b, a) })
    };
    match (key, value) {
        (CacheKey::Factors(step), CacheValue::Matrix(m)) => {
            if (m.nrows(), m.ncols()) != step_dims(step)? {
                return Err(SnapshotError::Malformed("factor shape mismatch"));
            }
        }
        (CacheKey::Composed(steps), CacheValue::Matrix(m)) => {
            let (rows, mut cols) = step_dims(&steps[0])?;
            for s in &steps[1..] {
                let (r, c) = step_dims(s)?;
                if r != cols {
                    return Err(SnapshotError::Malformed("composed steps do not chain"));
                }
                cols = c;
            }
            if m.nrows() != rows || m.ncols() != cols {
                return Err(SnapshotError::Malformed("composed shape mismatch"));
            }
        }
        (
            CacheKey::Influence(InfluenceKey { father: t, .. }) | CacheKey::Diversity((t, ..)),
            CacheValue::Vector(v),
        ) => {
            if (t.0 as usize) >= schema.num_node_types() {
                return Err(SnapshotError::Malformed("vector node type out of range"));
            }
            if v.len() != g.num_nodes(*t) {
                return Err(SnapshotError::Malformed("vector length mismatch"));
            }
        }
        (CacheKey::Propagated(_), CacheValue::Propagated(pf)) => {
            let n = g.num_nodes(schema.target());
            if pf.blocks.is_empty() || pf.blocks.iter().any(|b| b.rows != n) {
                return Err(SnapshotError::Malformed("propagated shape mismatch"));
            }
        }
        _ => unreachable!("snapshots decode only the five persisted families"),
    }
    Ok(())
}

/// Decodes `bytes` and installs every entry into `ctx`'s caches.
///
/// The snapshot must be for exactly this context's graph: a file whose
/// checksum or fingerprint does not match is rejected before a single
/// entry lands. The entire file is decoded and shape-checked first, so
/// on *any* error the context is left untouched (still cold, still
/// correct). Installed entries never overwrite ones the context already
/// holds and are charged to the byte ledger like computed ones, so a
/// loaded context keeps every invariant a warm one has. When a crafted
/// file repeats a key, the first copy in file order installs.
///
/// With `delta = Some((old_fp, delta))` this loads an *old* graph's
/// snapshot into a context over the *mutated* graph: the file's
/// fingerprint is checked against `old_fp` (the pre-delta graph's), and
/// every entry the delta invalidates — per the same
/// `InvalidationRules` in-memory seeding uses — is skipped (and counted
/// in `report.dropped`) instead of decoded, validated and installed.
/// Node counts are invariant under deltas, so surviving entries
/// shape-check against the mutated graph exactly as they would against
/// the old one; what installs is therefore bitwise what a cold rebuild
/// of the mutated graph would compute. This is how a delta-load beats a
/// cold rebuild across restarts, before any snapshot of the new
/// fingerprint exists.
pub fn decode_snapshot_into(
    ctx: &CondenseContext<'_>,
    bytes: &[u8],
    delta: Option<(GraphFingerprint, &GraphDelta)>,
) -> Result<SeedReport, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    if r.take(8)? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let checksum = r.u64()?;
    let body = r.take(r.remaining())?;
    if snapshot_checksum(body) != checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut r = ByteReader::new(body);
    let expected = delta.map_or_else(|| ctx.graph().fingerprint(), |(old_fp, _)| old_fp);
    let found = GraphFingerprint(r.u64()?, r.u64()?);
    if found != expected {
        return Err(SnapshotError::WrongFingerprint { found, expected });
    }

    // Delta loads never decode an entry the delta invalidates: the
    // survival rules are the ones in-memory seeding applies
    // (`CondenseContext::seed_from`).
    let g = ctx.graph();
    let mut rules = delta.map(|(_, d)| InvalidationRules::new(g.schema(), d));
    let mut staged = Vec::new();
    let mut report = SeedReport::default();
    // Every entry holds at least a family tag and a 3-byte step.
    for _ in 0..r.seq_len(4)? {
        let key = read_key(&mut r, g.schema())?;
        let survives = rules.as_mut().is_none_or(|ru| ru.survives(&key));
        match read_value(&mut r, key.family(), survives)? {
            Some(value) => {
                validate_against_graph(&key, &value, g)?;
                staged.push(CacheEntry { key, value });
            }
            None => report.dropped += 1,
        }
    }
    if !r.is_empty() {
        return Err(SnapshotError::Malformed("trailing bytes after entries"));
    }

    // Everything decoded and validated; install in file order.
    for entry in staged {
        report.installed[entry.key.family() as usize] += 1;
        ctx.install(entry);
    }
    Ok(report)
}

impl CondenseContext<'_> {
    /// Writes this context's caches to `path` as a versioned snapshot
    /// (see [`encode_snapshot`]). The write goes through a per-call
    /// sibling temp file, an fsync and an atomic rename, retrying
    /// transient failures, so a crashed writer can never leave a
    /// half-written file under the canonical name.
    pub fn save_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        // The temp name must be unique per *call*, not just per process:
        // two threads saving the same path concurrently (two benches on
        // one graph) would otherwise interleave writes into one temp
        // file and could rename torn bytes under the canonical name.
        // Each retry attempt also gets a fresh name, so a torn attempt's
        // leftover can never be renamed by a later one.
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let bytes = encode_snapshot(self);
        retry_io(|| {
            let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mut tmp = path.as_os_str().to_owned();
            tmp.push(format!(".tmp-{}-{seq}", std::process::id()));
            write_atomic(&PathBuf::from(tmp), path, &bytes)
        })?;
        Ok(())
    }

    /// Loads the snapshot at `path` into this context (see
    /// [`decode_snapshot_into`] for the verification and the
    /// nothing-installed-on-error guarantee). Transient read errors are
    /// retried like the registry's load path.
    pub fn load_snapshot(&self, path: &Path) -> Result<SeedReport, SnapshotError> {
        decode_snapshot_into(self, &read_snapshot_bytes(path)?, None)
    }

    /// Writes this context to its canonical snapshot file
    /// ([`snapshot_file_name`]) under `dir`, creating the directory, and
    /// returns the path. The write is *monotone*: any entries a valid
    /// existing file holds that this context lacks are absorbed first
    /// (installs never overwrite live entries), then the union is
    /// written — so persisting from a colder process never replaces a
    /// warmer process's snapshot with a less-warm one. An absent,
    /// corrupt or mismatched existing file is simply replaced.
    pub fn persist_snapshot(&self, dir: &Path) -> Result<PathBuf, SnapshotError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(snapshot_file_name(self.graph().fingerprint()));
        let _ = self.load_snapshot(&path);
        self.save_snapshot(&path)?;
        Ok(path)
    }
}

/// What one attempt to warm a context from its canonical snapshot file
/// found.
pub(crate) enum DiskLoad {
    /// No file: the ordinary cold path, not a rejection.
    Absent,
    /// A file was found but unreadable or invalid; nothing installed.
    Rejected,
    Loaded(SeedReport),
}

/// Read → decode → classify for the canonical snapshot under `dir` of
/// `ctx`'s own graph, or — with `delta` — of the pre-delta graph
/// `old_fp`, filtered through the delta (see [`decode_snapshot_into`]).
pub(crate) fn load_canonical(
    ctx: &CondenseContext<'_>,
    dir: &Path,
    delta: Option<(GraphFingerprint, &GraphDelta)>,
) -> DiskLoad {
    let fp = delta.map_or_else(|| ctx.graph().fingerprint(), |(old_fp, _)| old_fp);
    let loaded = read_snapshot_bytes(&dir.join(snapshot_file_name(fp)))
        .map_err(SnapshotError::Io)
        .and_then(|bytes| decode_snapshot_into(ctx, &bytes, delta));
    match loaded {
        Ok(report) => DiskLoad::Loaded(report),
        Err(SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => DiskLoad::Absent,
        Err(_) => DiskLoad::Rejected,
    }
}

/// One atomic-save attempt: write `bytes` to `tmp`, fsync, rename over
/// `path`. Hosts the `snapshot.write.torn` / `snapshot.write.io`
/// failpoints.
fn write_atomic(tmp: &Path, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    if crate::failpoints::should_fire(crate::failpoints::SNAPSHOT_TORN_WRITE) {
        // Simulated crash mid-write: half the payload lands in the temp
        // file, which is left behind exactly as a dead process would
        // leave it — that orphan is what the startup sweep is for.
        let _ = std::fs::write(tmp, &bytes[..bytes.len() / 2]);
        return Err(std::io::Error::other(
            "injected torn write: snapshot.write.torn",
        ));
    }
    crate::failpoints::fire_io(crate::failpoints::SNAPSHOT_WRITE_IO)?;
    let res = std::fs::File::create(tmp).and_then(|mut f| {
        f.write_all(bytes)
            // fsync before the rename: the rename must never publish a
            // name whose data is still only in the page cache — a power
            // loss after the rename but before writeback would leave a
            // torn *canonical* file, defeating the temp-file dance.
            .and_then(|()| f.sync_all())
            .and_then(|()| std::fs::rename(tmp, path))
    });
    // Clean the temp file up on failure — a half-written temp left by
    // ENOSPC would otherwise keep occupying exactly the space whose
    // shortage caused the failure.
    res.inspect_err(|_| {
        let _ = std::fs::remove_file(tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureMatrix;
    use crate::graph::{HeteroGraph, HeteroGraphBuilder};
    use crate::propagation::propagate_ctx;
    use crate::schema::Schema;

    fn fixture() -> HeteroGraph {
        let mut s = Schema::new();
        let p = s.add_node_type("paper");
        let a = s.add_node_type("author");
        let f = s.add_node_type("field");
        let pa = s.add_edge_type("pa", p, a);
        let pf = s.add_edge_type("pf", p, f);
        s.set_target(p);
        let mut b = HeteroGraphBuilder::new(s, vec![4, 3, 2]);
        for (pp, aa) in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)] {
            b.add_edge(pa, pp, aa);
        }
        for (pp, ff) in [(0, 0), (1, 1), (2, 1), (3, 0)] {
            b.add_edge(pf, pp, ff);
        }
        b.set_features(
            p,
            FeatureMatrix::from_rows(2, (0..8).map(|i| i as f32).collect()),
        );
        b.set_features(a, FeatureMatrix::zeros(3, 1));
        b.set_features(f, FeatureMatrix::zeros(2, 1));
        b.set_labels(vec![0, 1, 0, 1], 2);
        b.build()
    }

    fn warm(ctx: &CondenseContext<'_>) {
        let root = ctx.graph().schema().target();
        for p in ctx.metapaths(root, 3, 100).iter() {
            ctx.adjacency(p);
        }
        ctx.influence(
            InfluenceKey {
                father: root,
                max_hops: 2,
                max_paths: 8,
                method: (1, [0.15f32.to_bits(), 0, 0, 0]),
                seed_targets: Some(vec![0, 2]),
                seed: 9,
            },
            || vec![0.25, -1.5, 3.0, 0.0],
        );
        ctx.diversity((root, 2, 24, 1), || vec![0.5, 0.125, 1.0, 0.75]);
    }

    #[test]
    fn snapshot_round_trips_every_cache_bitwise() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        warm(&ctx);
        let bytes = encode_snapshot(&ctx);

        let fresh = CondenseContext::new(&g);
        let report = decode_snapshot_into(&fresh, &bytes, None).expect("load");
        assert!(report[CacheFamily::Factors] > 0 && report[CacheFamily::Composed] > 0);
        assert_eq!(report[CacheFamily::Influence], 1);
        assert_eq!(report[CacheFamily::Diversity], 1);

        // Every composed adjacency must now be a hit with identical bits.
        let before = fresh.stats();
        let root = g.schema().target();
        for p in fresh.metapaths(root, 3, 100).iter() {
            assert_eq!(*fresh.adjacency(p), *ctx.adjacency(p), "{:?}", p.steps);
        }
        let after = fresh.stats();
        assert_eq!(
            after[CacheFamily::Composed].misses,
            before[CacheFamily::Composed].misses,
            "a loaded context must not re-miss on composed entries"
        );
        assert_eq!(
            after[CacheFamily::Factors].misses,
            before[CacheFamily::Factors].misses,
            "a loaded context must not re-miss on factors"
        );
        let v = fresh.influence(
            InfluenceKey {
                father: root,
                max_hops: 2,
                max_paths: 8,
                method: (1, [0.15f32.to_bits(), 0, 0, 0]),
                seed_targets: Some(vec![0, 2]),
                seed: 9,
            },
            || unreachable!("influence must be served from the snapshot"),
        );
        assert_eq!(*v, vec![0.25, -1.5, 3.0, 0.0]);
        let d = fresh.diversity((root, 2, 24, 1), || {
            unreachable!("diversity must be served from the snapshot")
        });
        assert_eq!(*d, vec![0.5, 0.125, 1.0, 0.75]);
    }

    #[test]
    fn encoding_is_deterministic_for_identical_contents() {
        let g = fixture();
        let a = CondenseContext::new(&g);
        let b = CondenseContext::new(&g);
        warm(&a);
        warm(&b);
        assert_eq!(
            encode_snapshot(&a),
            encode_snapshot(&b),
            "identical cache contents must produce identical bytes"
        );
    }

    #[test]
    fn every_corruption_is_rejected_without_installing() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        warm(&ctx);
        let bytes = encode_snapshot(&ctx);

        let assert_cold_after = |mutated: Vec<u8>, what: &str| {
            let fresh = CondenseContext::new(&g);
            let err = decode_snapshot_into(&fresh, &mutated, None);
            assert!(err.is_err(), "{what} must be rejected");
            assert_eq!(
                fresh.stats(),
                CondenseContext::new(&g).stats(),
                "{what} must leave the context untouched"
            );
            assert_eq!(fresh.composed_len(), 0, "{what}: nothing installed");
        };

        // Truncations at every interesting boundary.
        for cut in [0, 4, 11, 40, bytes.len() / 2, bytes.len() - 1] {
            assert_cold_after(bytes[..cut].to_vec(), "truncation");
        }
        // A flipped byte in the magic or version fails the header
        // checks; in the checksum field or anywhere after it (the
        // fingerprint included), the checksum.
        for pos in [9, 15, 30, 60, bytes.len() / 2, bytes.len() - 3] {
            let mut m = bytes.clone();
            m[pos] ^= 0x40;
            assert_cold_after(m, "bit flip");
        }
        // Wrong magic.
        let mut m = bytes.clone();
        m[0] = b'X';
        assert_cold_after(m, "bad magic");
        // Wrong version, and a file of the previous format.
        let mut m = bytes.clone();
        m[8] = 0xEE;
        assert_cold_after(m, "bad version");
        let mut m = bytes.clone();
        m[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            decode_snapshot_into(&CondenseContext::new(&g), &m, None),
            Err(SnapshotError::BadVersion { found: 2, .. })
        ));
        // Trailing garbage.
        let mut m = bytes.clone();
        m.push(0);
        assert_cold_after(m, "trailing bytes");
    }

    #[test]
    fn wrong_fingerprint_is_rejected() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        warm(&ctx);
        let bytes = encode_snapshot(&ctx);

        let mut other = fixture();
        other.set_labels(vec![1, 0, 1, 0], 2);
        let foreign = CondenseContext::new(&other);
        assert!(matches!(
            decode_snapshot_into(&foreign, &bytes, None),
            Err(SnapshotError::WrongFingerprint { .. })
        ));

        // The fingerprint sits under the checksum, at bytes 20..36:
        // writing the other graph's over it breaks the checksum, so the
        // file cannot pass as the other graph's.
        let fp = other.fingerprint();
        let mut m = bytes.clone();
        m[20..28].copy_from_slice(&fp.0.to_le_bytes());
        m[28..36].copy_from_slice(&fp.1.to_le_bytes());
        assert!(matches!(
            decode_snapshot_into(&foreign, &m, None),
            Err(SnapshotError::ChecksumMismatch)
        ));
        assert_eq!(foreign.composed_len(), 0, "nothing installed");
    }

    /// Only the five persisted families have a tag; any other byte in
    /// the tag position — paths and oriented adjacencies included — is
    /// malformed.
    #[test]
    fn unknown_family_tags_are_malformed() {
        let g = fixture();
        for tag in [
            CacheFamily::Paths as u8,
            CacheFamily::Oriented as u8,
            7,
            0xFF,
        ] {
            let file = sealed_file(&g, 1, &[tag, 0, 0, 0]);
            let err = decode_snapshot_into(&CondenseContext::new(&g), &file, None);
            assert!(
                matches!(err, Err(SnapshotError::Malformed("unknown family tag"))),
                "tag {tag}: got {err:?}"
            );
        }
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        warm(&ctx);
        let dir = std::env::temp_dir().join(format!("fhgc-snap-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(snapshot_file_name(g.fingerprint()));
        ctx.save_snapshot(&path).expect("save");

        let fresh = CondenseContext::new(&g);
        let report = fresh.load_snapshot(&path).expect("load");
        assert!(report.reused() > 0);
        let root = g.schema().target();
        for p in fresh.metapaths(root, 3, 100).iter() {
            assert_eq!(*fresh.adjacency(p), *ctx.adjacency(p));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_against_graph_rejects_every_bad_shape() {
        let g = fixture(); // 4 papers, 3 authors, 2 fields; pa = 4×3
        let pa = |forward| MetaPathStep {
            edge: crate::schema::EdgeTypeId(0),
            forward,
        };
        let check = |key: CacheKey, value: CacheValue| validate_against_graph(&key, &value, &g);
        let m = |rows, cols| CacheValue::Matrix(Arc::new(CsrMatrix::zeros(rows, cols)));
        let v = |len| CacheValue::Vector(Arc::new(vec![0.0; len]));

        let factor = |step| CacheKey::Factors(step);
        assert!(
            check(factor(pa(true)), m(4, 3)).is_ok(),
            "true shape passes"
        );
        assert!(check(factor(pa(true)), m(1, 1)).is_err(), "factor shape");
        let stray = MetaPathStep {
            edge: crate::schema::EdgeTypeId(99),
            forward: true,
        };
        assert!(check(factor(stray), m(1, 1)).is_err(), "edge id range");

        // pa forward (4×3) followed by pa forward again cannot chain
        // (cols 3 ≠ rows 4); pa forward then pa reverse chains to 4×4.
        let composed = |a, b| CacheKey::Composed(vec![pa(a), pa(b)]);
        assert!(
            check(composed(true, true), m(4, 3)).is_err(),
            "broken chain"
        );
        assert!(
            check(composed(true, false), m(4, 4)).is_ok(),
            "P-A-P chains"
        );
        assert!(
            check(composed(true, false), m(4, 2)).is_err(),
            "composed shape"
        );

        let author = g.schema().node_type_by_name("author").unwrap();
        let key = |father| {
            CacheKey::Influence(InfluenceKey {
                father,
                max_hops: 2,
                max_paths: 8,
                method: (0, [0; 4]),
                seed_targets: None,
                seed: 0,
            })
        };
        assert!(check(key(author), v(3)).is_ok(), "3 authors");
        assert!(check(key(author), v(2)).is_err(), "influence length");
        assert!(check(key(NodeTypeId(42)), v(3)).is_err(), "node id range");

        let root = g.schema().target();
        let div = CacheKey::Diversity((root, 2, 8, 0));
        assert!(check(div.clone(), v(4)).is_ok(), "4 papers");
        assert!(check(div, v(5)).is_err(), "diversity length");

        // Propagated blocks need one row per target node (4 papers).
        let blocks = |rows: &[usize]| {
            CacheValue::Propagated(Arc::new(PropagatedFeatures {
                blocks: rows.iter().map(|&r| Matrix::zeros(r, 2)).collect(),
                path_names: rows.iter().map(|r| format!("b{r}")).collect(),
            }))
        };
        let prop = || CacheKey::Propagated((2, 8));
        assert!(check(prop(), blocks(&[4, 4])).is_ok(), "4 target rows");
        assert!(
            check(prop(), blocks(&[4, 3])).is_err(),
            "row-count mismatch"
        );
        assert!(check(prop(), blocks(&[])).is_err(), "no blocks at all");
    }

    /// A sealed CSR wider than the `u32` column index range must come
    /// back as `Malformed` before `CsrMatrix::from_parts` asserts on it
    /// (found by `tests/mutation_fuzz.rs`).
    #[test]
    fn crafted_csr_wider_than_u32_is_malformed_not_a_panic() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let mut entry = ByteWriter::new();
        put_step(
            &mut entry,
            MetaPathStep {
                edge: crate::schema::EdgeTypeId(0),
                forward: true,
            },
        );
        // nrows 0, ncols 2^32, nnz 0, indptr [0].
        for v in [0, u32::MAX as usize + 1, 0, 0] {
            entry.put_usize(v);
        }
        let file = single_entry_file(&g, CacheFamily::Factors, &entry.into_bytes());
        let err = decode_snapshot_into(&ctx, &file, None);
        assert!(
            matches!(
                err,
                Err(SnapshotError::Malformed("ncols exceeds u32 index range"))
            ),
            "got {err:?}"
        );
        assert_eq!(ctx.stats(), CondenseContext::new(&g).stats(), "untouched");
    }

    /// The checksum is an unkeyed Fx hash anyone can recompute, so a
    /// crafted file with a correct header and a self-consistent checksum
    /// must still be rejected — by the shape validation — before it can
    /// plant a panic in a later SpGEMM.
    #[test]
    fn crafted_file_with_valid_checksums_is_rejected_on_shape() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let mut entry = ByteWriter::new();
        put_step(
            &mut entry,
            MetaPathStep {
                edge: crate::schema::EdgeTypeId(0),
                forward: true,
            },
        );
        put_csr(&mut entry, &CsrMatrix::zeros(1, 1)); // truth is 4×3
        let file = single_entry_file(&g, CacheFamily::Factors, &entry.into_bytes());

        let err = decode_snapshot_into(&ctx, &file, None);
        assert!(
            matches!(err, Err(SnapshotError::Malformed("factor shape mismatch"))),
            "got {err:?}"
        );
        assert_eq!(ctx.stats(), CondenseContext::new(&g).stats(), "untouched");
    }

    #[test]
    fn propagated_blocks_round_trip_bitwise() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let pf = propagate_ctx(&ctx, 2, 16);
        assert!(pf.blocks.len() > 1, "the fixture has meta-paths");
        let bytes = encode_snapshot(&ctx);

        let fresh = CondenseContext::new(&g);
        let report = decode_snapshot_into(&fresh, &bytes, None).expect("load");
        assert_eq!(report[CacheFamily::Propagated], 1);
        let loaded = propagate_ctx(&fresh, 2, 16);
        assert_eq!(
            fresh.stats()[CacheFamily::Propagated].misses,
            0,
            "the blocks must be served from the snapshot"
        );
        assert_eq!(loaded.path_names, pf.path_names);
        assert_eq!(loaded.blocks.len(), pf.blocks.len());
        for (a, b) in loaded.blocks.iter().zip(&pf.blocks) {
            assert_eq!((a.rows, a.cols), (b.rows, b.cols));
            let bits = |m: &Matrix| m.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "block bits must survive the snapshot");
        }
        assert_eq!(
            fresh.stats()[CacheFamily::Propagated].bytes,
            ctx.stats()[CacheFamily::Propagated].bytes,
            "loaded blocks are charged like computed ones"
        );

        // A truncated or garbage block payload (in a file with a valid
        // checksum) is rejected without installing anything.
        let mut blocks = ByteWriter::new();
        put_blocks(&mut blocks, &pf);
        let blocks = blocks.into_bytes();
        let whole = &blocks[8..];
        assert!(read_blocks(whole).is_ok(), "the payload decodes whole");
        for inner in [&whole[..whole.len() / 2], &[0xFF; 9][..]] {
            let mut entry = ByteWriter::new();
            entry.put_usize(2);
            entry.put_usize(16);
            entry.put_usize(inner.len());
            entry.put_bytes(inner);
            let file = single_entry_file(&g, CacheFamily::Propagated, &entry.into_bytes());
            let cold = CondenseContext::new(&g);
            assert!(decode_snapshot_into(&cold, &file, None).is_err());
            assert_eq!(cold.stats(), CondenseContext::new(&g).stats(), "untouched");
        }
    }

    /// A file that holds some families' entries and not others (here
    /// one diversity bonus and no propagated blocks) loads as a partial
    /// context whose missing entries recompute on first use.
    #[test]
    fn file_without_propagated_entries_still_loads() {
        let g = fixture();
        let ctx = CondenseContext::new(&g);
        let root = g.schema().target();
        let mut entry = ByteWriter::new();
        entry.put_u16(root.0);
        entry.put_usize(2);
        entry.put_usize(24);
        entry.put_usize(1);
        entry.put_usize(4);
        entry.put_f64_slice(&[0.5, 0.125, 1.0, 0.75]);
        let file = single_entry_file(&g, CacheFamily::Diversity, &entry.into_bytes());

        let report = decode_snapshot_into(&ctx, &file, None).expect("partial file loads");
        assert_eq!(report[CacheFamily::Diversity], 1);
        assert_eq!(report.reused(), 1, "nothing else was in the file");
        let d = ctx.diversity((root, 2, 24, 1), || unreachable!("loaded"));
        assert_eq!(*d, vec![0.5, 0.125, 1.0, 0.75]);
        let pf = propagate_ctx(&ctx, 2, 16);
        assert_eq!(ctx.stats()[CacheFamily::Propagated].misses, 1, "recomputed");
        assert_eq!(pf.num_rows(), 4);
    }

    /// A snapshot file for `g` with a valid checksum, whose body after
    /// the fingerprint is the entry count `n`, then `entries` verbatim.
    fn sealed_file(g: &HeteroGraph, n: usize, entries: &[u8]) -> Vec<u8> {
        let fp = g.fingerprint();
        let mut body = ByteWriter::new();
        body.put_u64(fp.0);
        body.put_u64(fp.1);
        body.put_usize(n);
        body.put_bytes(entries);
        let body = body.into_bytes();
        let mut w = ByteWriter::new();
        w.put_bytes(&SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w.put_u64(snapshot_checksum(&body));
        w.put_bytes(&body);
        w.into_bytes()
    }

    /// A sealed snapshot file for `g` holding one entry of `family`,
    /// whose key and value bytes are `entry`.
    fn single_entry_file(g: &HeteroGraph, family: CacheFamily, entry: &[u8]) -> Vec<u8> {
        sealed_file(g, 1, &[&[family as u8], entry].concat())
    }

    /// A delta load runs `InvalidationRules::survives` on every key
    /// before `validate_against_graph`, and `survives` indexes by type id
    /// and enumerates meta-paths. A crafted old-graph file with a valid
    /// checksum and an out-of-range id, or a hop/path bound above the
    /// untrusted-input caps, must come back as a typed error — never an
    /// index panic or a runaway enumeration — and leave the context
    /// untouched.
    #[test]
    fn crafted_delta_file_with_out_of_range_ids_is_rejected() {
        let old = fixture();
        let mut delta = GraphDelta::new();
        delta.add_edge(EdgeTypeId(0), 0, 1);
        let mut new = old.clone();
        new.apply_delta(&delta);
        let ctx = CondenseContext::new(&new);
        let huge = usize::MAX / 2;
        let vector = |w: &mut ByteWriter| {
            w.put_usize(4);
            w.put_f64_slice(&[0.5; 4]);
        };
        let influence = |father: u16, hops: usize, paths: usize| {
            move |w: &mut ByteWriter| {
                w.put_u16(father);
                w.put_usize(hops);
                w.put_usize(paths);
                w.put_u8(0);
                for _ in 0..4 {
                    w.put_u32(0);
                }
                w.put_u8(0);
                w.put_u64(0);
                vector(w);
            }
        };
        let diversity = |root: u16, hops: usize, paths: usize| {
            move |w: &mut ByteWriter| {
                w.put_u16(root);
                w.put_usize(hops);
                w.put_usize(paths);
                w.put_usize(0);
                vector(w);
            }
        };
        let propagated = |hops: usize, paths: usize| {
            move |w: &mut ByteWriter| {
                w.put_usize(hops);
                w.put_usize(paths);
                w.put_usize(1);
                w.put_u8(0);
            }
        };
        let step = |edge: u16| MetaPathStep {
            edge: EdgeTypeId(edge),
            forward: true,
        };
        let factor = move |w: &mut ByteWriter| {
            put_step(w, step(2));
            put_csr(w, &CsrMatrix::zeros(4, 3));
        };
        let composed = move |w: &mut ByteWriter| {
            w.put_usize(2);
            put_step(w, step(0));
            put_step(w, step(u16::MAX));
            put_csr(w, &CsrMatrix::zeros(4, 4));
        };
        let edge = "edge type out of range";
        let node = "node type out of range";
        let bounds = "meta-path bounds out of range";
        type Entry = Box<dyn Fn(&mut ByteWriter)>;
        use CacheFamily::{Composed, Diversity, Factors, Influence, Propagated};
        let cases: Vec<(CacheFamily, Entry, &str)> = vec![
            (Factors, Box::new(factor), edge),
            (Composed, Box::new(composed), edge),
            (Influence, Box::new(influence(3, 2, 8)), node),
            (Influence, Box::new(influence(1, huge, 8)), bounds),
            (Influence, Box::new(influence(1, 2, huge)), bounds),
            (Diversity, Box::new(diversity(u16::MAX, 2, 8)), node),
            (Diversity, Box::new(diversity(0, MAX_HOPS + 1, 8)), bounds),
            (Diversity, Box::new(diversity(0, 2, MAX_PATHS + 1)), bounds),
            (Propagated, Box::new(propagated(huge, huge)), bounds),
        ];
        for (family, write, want) in cases {
            let mut entry = ByteWriter::new();
            write(&mut entry);
            let file = single_entry_file(&old, family, &entry.into_bytes());
            let err = decode_snapshot_into(&ctx, &file, Some((old.fingerprint(), &delta)));
            assert!(
                matches!(err, Err(SnapshotError::Malformed(m)) if m == want),
                "{family:?}: want {want:?}, got {err:?}"
            );
        }
        assert_eq!(ctx.stats(), CondenseContext::new(&new).stats(), "untouched");
    }

    #[test]
    fn merged_save_never_shrinks_the_artifact() {
        let g = fixture();
        let dir = std::env::temp_dir().join(format!("fhgc-snap-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // A warm context persists first.
        let warm_ctx = CondenseContext::new(&g);
        warm(&warm_ctx);
        let path = warm_ctx.persist_snapshot(&dir).unwrap();
        let warm_len = std::fs::metadata(&path).unwrap().len();

        // A completely cold context persisting the same path must keep
        // (and absorb) the warm entries rather than truncating the file
        // to its own empty state.
        let cold = CondenseContext::new(&g);
        assert_eq!(cold.persist_snapshot(&dir).unwrap(), path);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), warm_len);
        let check = CondenseContext::new(&g);
        let report = check.load_snapshot(&path).unwrap();
        assert!(
            report[CacheFamily::Composed] > 0,
            "warm entries must survive a cold save"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every save draws its temp name from one counter, so concurrent
    /// writers of one path never share a temp file — even when they
    /// write different contents: every concurrent load sees a whole
    /// snapshot, and no temp file survives.
    #[test]
    fn concurrent_saves_of_different_contents_never_tear() {
        let g = fixture();
        let full = CondenseContext::new(&g);
        warm(&full);
        // Partly warm: two-hop compositions only, no vectors.
        let partial = CondenseContext::new(&g);
        for p in partial.metapaths(g.schema().target(), 2, 100).iter() {
            partial.adjacency(p);
        }
        assert_ne!(
            encode_snapshot(&full),
            encode_snapshot(&partial),
            "the writers must race different bytes"
        );
        let dir = std::env::temp_dir().join(format!("fhgc-snap-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("race.fhgc");
        full.save_snapshot(&path).unwrap();
        let start = std::sync::Barrier::new(6);
        std::thread::scope(|s| {
            for writer in 0..4 {
                let ctx = if writer % 2 == 0 { &full } else { &partial };
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..25 {
                        ctx.save_snapshot(path).expect("save");
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        let fresh = CondenseContext::new(&g);
                        fresh
                            .load_snapshot(&path)
                            .expect("every load must see a whole snapshot");
                    }
                });
            }
        });
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.contains(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_name_spells_the_registry_key() {
        let fp = GraphFingerprint(0xABCD, 0x1234);
        assert_eq!(
            snapshot_file_name(fp),
            format!("ctx-{fp}.fhgc"),
            "the fingerprint must be addressable from the name"
        );
        assert_ne!(
            snapshot_file_name(fp),
            snapshot_file_name(GraphFingerprint(0xABCD, 0x1235))
        );
    }
}
