//! Durable, self-verifying snapshots of frozen f-representations.
//!
//! # Format
//!
//! A snapshot is a little-endian byte stream: a fixed 16-byte header
//! followed by length-prefixed, individually checksummed sections.
//!
//! ```text
//! header:   magic u32 | version u32 | kind u32 | section_count u32
//! section:  tag u32 | payload_len u64 | payload … | checksum u64
//! ```
//!
//! The checksum is FNV-1a (64-bit) over the section's tag, length prefix
//! *and* payload, so a bit flip anywhere inside a section — including its
//! framing — is detected.  An f-representation snapshot has exactly seven
//! sections, one per constituent array:
//!
//! | tag    | contents                                              |
//! |--------|-------------------------------------------------------|
//! | `EDGE` | f-tree dependency edges (label, attrs, cardinality)   |
//! | `NODE` | f-tree node slots, including removed-node holes       |
//! | `TRTS` | f-tree root list, in order                            |
//! | `UNIO` | arena union headers (`node, entries_start, len`)      |
//! | `ENTR` | arena entry records (`value, kids_start`)             |
//! | `KIDS` | arena kid-slot table                                  |
//! | `SRTS` | arena root union indices                              |
//!
//! # Verification
//!
//! Loading **re-verifies everything**: the header (magic, version, kind,
//! section count), every section's framing and checksum, the bounds of every
//! decoded count and index, and finally — mandatorily, in release builds too
//! — the full structural validator ([`crate::FRep::validate`], i.e. the
//! f-tree invariants, the path constraint and every arena invariant of
//! `Store::validate`).  Truncated, bit-flipped or version-skewed input
//! yields a structured [`FdbError::SnapshotCorrupt`] /
//! [`FdbError::SnapshotVersionMismatch`], never a panic and never a
//! silently-wrong arena.  There is no unverified load: the structural pass
//! costs 5.7% of a load (`BENCH_PR8.json`).

use crate::frep::FRep;
use crate::store::{Store, UnionRec};
use fdb_common::{failpoint, AttrId, ExecCtx, FdbError, Result, Value};
use fdb_ftree::{DepEdge, FTree, NodeId, NodeSnapshot};
use std::collections::BTreeSet;

/// Magic number identifying a snapshot file (`"FDBS"` little-endian).
pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"FDBS");

/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Header `kind` of an f-representation snapshot.
pub const KIND_FREP: u32 = 1;

/// Header `kind` of a database manifest (see `fdb-core`'s orchestration).
pub const KIND_MANIFEST: u32 = 2;

const TAG_EDGE: u32 = u32::from_le_bytes(*b"EDGE");
const TAG_NODE: u32 = u32::from_le_bytes(*b"NODE");
const TAG_TRTS: u32 = u32::from_le_bytes(*b"TRTS");
const TAG_UNIO: u32 = u32::from_le_bytes(*b"UNIO");
const TAG_ENTR: u32 = u32::from_le_bytes(*b"ENTR");
const TAG_KIDS: u32 = u32::from_le_bytes(*b"KIDS");
const TAG_SRTS: u32 = u32::from_le_bytes(*b"SRTS");

/// The seven f-representation section tags, in their fixed file order.
const FREP_TAGS: [u32; 7] = [
    TAG_EDGE, TAG_NODE, TAG_TRTS, TAG_UNIO, TAG_ENTR, TAG_KIDS, TAG_SRTS,
];

fn corrupt(detail: impl Into<String>) -> FdbError {
    FdbError::SnapshotCorrupt {
        detail: detail.into(),
    }
}

/// FNV-1a, 64-bit: the offset basis and prime of the reference algorithm.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &byte in *chunk {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

// ---------------------------------------------------------------------
// Section framing (shared with the fdb-core manifest)
// ---------------------------------------------------------------------

/// Appends the fixed header for a stream of `section_count` sections.
#[doc(hidden)]
pub fn write_header(out: &mut Vec<u8>, kind: u32, section_count: u32) {
    out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&section_count.to_le_bytes());
}

/// Appends one framed section: tag, length prefix, payload, checksum.
#[doc(hidden)]
pub fn write_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    let tag_bytes = tag.to_le_bytes();
    let len_bytes = (payload.len() as u64).to_le_bytes();
    let checksum = fnv1a(&[&tag_bytes, &len_bytes, payload]);
    out.extend_from_slice(&tag_bytes);
    out.extend_from_slice(&len_bytes);
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Verifies the header and returns `(kind, section_count, header_len)`.
fn read_header(bytes: &[u8]) -> Result<(u32, u32, usize)> {
    if bytes.len() < 16 {
        return Err(corrupt(format!(
            "file too short for a snapshot header: {} bytes",
            bytes.len()
        )));
    }
    let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
    if word(0) != SNAPSHOT_MAGIC {
        return Err(corrupt(format!(
            "bad magic number {:#010x}: not a snapshot file",
            word(0)
        )));
    }
    let version = word(4);
    if version != SNAPSHOT_VERSION {
        return Err(FdbError::SnapshotVersionMismatch {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    Ok((word(8), word(12), 16))
}

/// Splits a verified snapshot stream into its sections, checking the
/// header's `kind`, every section's framing and checksum, and that no
/// trailing bytes follow the last section.  Returns `(tag, payload)` pairs.
#[doc(hidden)]
pub fn read_sections(bytes: &[u8], expected_kind: u32) -> Result<Vec<(u32, &[u8])>> {
    let (kind, section_count, header_len) = read_header(bytes)?;
    if kind != expected_kind {
        return Err(corrupt(format!(
            "wrong snapshot kind {kind} (expected {expected_kind})"
        )));
    }
    let mut sections = Vec::with_capacity(section_count.min(64) as usize);
    let mut pos = header_len;
    for i in 0..section_count {
        if bytes.len() - pos < 12 {
            return Err(corrupt(format!("section {i} framing truncated")));
        }
        let tag_bytes: [u8; 4] = bytes[pos..pos + 4].try_into().unwrap();
        let len_bytes: [u8; 8] = bytes[pos + 4..pos + 12].try_into().unwrap();
        let payload_len = u64::from_le_bytes(len_bytes);
        let payload_start = pos + 12;
        let payload_end = (payload_start as u64)
            .checked_add(payload_len)
            .map(|e| e as usize);
        let checksum_end = payload_end.and_then(|e| e.checked_add(8));
        let (payload_end, checksum_end) = match (payload_end, checksum_end) {
            (Some(p), Some(c)) if c <= bytes.len() => (p, c),
            _ => {
                return Err(corrupt(format!(
                    "section {i} runs past the end of the file (torn write?)"
                )))
            }
        };
        let payload = &bytes[payload_start..payload_end];
        let stored = u64::from_le_bytes(bytes[payload_end..checksum_end].try_into().unwrap());
        let computed = fnv1a(&[&tag_bytes, &len_bytes, payload]);
        if stored != computed {
            return Err(corrupt(format!(
                "section {i} ({}) checksum mismatch: stored {stored:#018x}, computed {computed:#018x}",
                tag_name(u32::from_le_bytes(tag_bytes))
            )));
        }
        sections.push((u32::from_le_bytes(tag_bytes), payload));
        pos = checksum_end;
    }
    if pos != bytes.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last section",
            bytes.len() - pos
        )));
    }
    Ok(sections)
}

/// The byte offsets of every section boundary of a well-framed snapshot:
/// the end of the header and the end of each section.  Exposed so the
/// recovery tests can truncate at exactly these boundaries.
#[doc(hidden)]
pub fn section_boundaries(bytes: &[u8]) -> Result<Vec<usize>> {
    let (_, section_count, header_len) = read_header(bytes)?;
    let mut boundaries = vec![header_len];
    let mut pos = header_len;
    for i in 0..section_count {
        if bytes.len() - pos < 12 {
            return Err(corrupt(format!("section {i} framing truncated")));
        }
        let payload_len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        pos = pos + 12 + payload_len + 8;
        if pos > bytes.len() {
            return Err(corrupt(format!(
                "section {i} runs past the end of the file"
            )));
        }
        boundaries.push(pos);
    }
    Ok(boundaries)
}

fn tag_name(tag: u32) -> String {
    let b = tag.to_le_bytes();
    if b.iter().all(|c| c.is_ascii_uppercase()) {
        String::from_utf8_lossy(&b).into_owned()
    } else {
        format!("{tag:#010x}")
    }
}

// ---------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_attr_set(out: &mut Vec<u8>, attrs: &BTreeSet<AttrId>) {
    put_u32(out, attrs.len() as u32);
    for a in attrs {
        put_u32(out, a.0);
    }
}

/// Sentinel for "no parent" in the node section (node slot counts are far
/// below `u32::MAX` in any realistic tree, and the structural validator
/// re-checks every id on load anyway).
const NO_PARENT: u32 = u32::MAX;

/// A bounds-checked little-endian reader over one section payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            section,
        }
    }

    fn truncated(&self) -> FdbError {
        corrupt(format!("section {} payload truncated", self.section))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(self.truncated());
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a count prefix and guards it against the bytes actually
    /// remaining (`per` bytes per element), so a bogus count cannot trigger
    /// a huge allocation.
    fn take_count(&mut self, per: usize) -> Result<usize> {
        let count = self.take_u32()? as usize;
        if count.saturating_mul(per) > self.bytes.len() - self.pos {
            return Err(corrupt(format!(
                "section {} count {count} exceeds the payload",
                self.section
            )));
        }
        Ok(count)
    }

    fn take_attr_set(&mut self) -> Result<BTreeSet<AttrId>> {
        let count = self.take_count(4)?;
        let mut set = BTreeSet::new();
        for _ in 0..count {
            set.insert(AttrId(self.take_u32()?));
        }
        Ok(set)
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(format!(
                "section {} has {} trailing payload bytes",
                self.section,
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Section encoders/decoders
// ---------------------------------------------------------------------

fn encode_edges(edges: &[DepEdge]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, edges.len() as u32);
    for edge in edges {
        put_u32(&mut out, edge.label.len() as u32);
        out.extend_from_slice(edge.label.as_bytes());
        put_attr_set(&mut out, &edge.attrs);
        put_u64(&mut out, edge.cardinality);
    }
    out
}

fn decode_edges(payload: &[u8]) -> Result<Vec<DepEdge>> {
    let mut cur = Cursor::new(payload, "EDGE");
    let count = cur.take_count(4)?;
    let mut edges = Vec::with_capacity(count);
    for _ in 0..count {
        let label_len = cur.take_count(1)?;
        let label = String::from_utf8(cur.take(label_len)?.to_vec())
            .map_err(|_| corrupt("edge label is not valid UTF-8"))?;
        let attrs = cur.take_attr_set()?;
        let cardinality = cur.take_u64()?;
        edges.push(DepEdge::new(label, attrs, cardinality));
    }
    cur.finish()?;
    Ok(edges)
}

fn encode_nodes(slots: &[Option<NodeSnapshot>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, slots.len() as u32);
    for slot in slots {
        match slot {
            None => out.push(0),
            Some(node) => {
                out.push(1);
                put_attr_set(&mut out, &node.class);
                put_u32(&mut out, node.parent.map_or(NO_PARENT, |p| p.0));
                put_u32(&mut out, node.children.len() as u32);
                for c in &node.children {
                    put_u32(&mut out, c.0);
                }
                put_attr_set(&mut out, &node.projected);
                match node.constant {
                    None => out.push(0),
                    Some(v) => {
                        out.push(1);
                        put_u64(&mut out, v.raw());
                    }
                }
            }
        }
    }
    out
}

fn decode_nodes(payload: &[u8]) -> Result<Vec<Option<NodeSnapshot>>> {
    let mut cur = Cursor::new(payload, "NODE");
    let count = cur.take_count(1)?;
    let mut slots = Vec::with_capacity(count);
    for _ in 0..count {
        match cur.take_u8()? {
            0 => slots.push(None),
            1 => {
                let class = cur.take_attr_set()?;
                let parent = match cur.take_u32()? {
                    NO_PARENT => None,
                    p => Some(NodeId(p)),
                };
                let child_count = cur.take_count(4)?;
                let mut children = Vec::with_capacity(child_count);
                for _ in 0..child_count {
                    children.push(NodeId(cur.take_u32()?));
                }
                let projected = cur.take_attr_set()?;
                let constant = match cur.take_u8()? {
                    0 => None,
                    1 => Some(Value::new(cur.take_u64()?)),
                    b => return Err(corrupt(format!("bad constant marker byte {b}"))),
                };
                slots.push(Some(NodeSnapshot {
                    class,
                    parent,
                    children,
                    projected,
                    constant,
                }));
            }
            b => return Err(corrupt(format!("bad node slot marker byte {b}"))),
        }
    }
    cur.finish()?;
    Ok(slots)
}

fn encode_u32_list(list: impl ExactSizeIterator<Item = u32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + list.len() * 4);
    put_u32(&mut out, list.len() as u32);
    for v in list {
        put_u32(&mut out, v);
    }
    out
}

fn decode_u32_list(payload: &[u8], section: &'static str) -> Result<Vec<u32>> {
    let mut cur = Cursor::new(payload, section);
    let count = cur.take_count(4)?;
    let mut list = Vec::with_capacity(count);
    for _ in 0..count {
        list.push(cur.take_u32()?);
    }
    cur.finish()?;
    Ok(list)
}

fn encode_unions(unions: &[UnionRec]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + unions.len() * 12);
    put_u32(&mut out, unions.len() as u32);
    for rec in unions {
        put_u32(&mut out, rec.node.0);
        put_u32(&mut out, rec.entries_start);
        put_u32(&mut out, rec.entries_len);
    }
    out
}

fn decode_unions(payload: &[u8]) -> Result<Vec<UnionRec>> {
    let mut cur = Cursor::new(payload, "UNIO");
    let count = cur.take_count(12)?;
    let mut unions = Vec::with_capacity(count);
    for _ in 0..count {
        unions.push(UnionRec {
            node: NodeId(cur.take_u32()?),
            entries_start: cur.take_u32()?,
            entries_len: cur.take_u32()?,
        });
    }
    cur.finish()?;
    Ok(unions)
}

/// Encodes the entry records in the interleaved on-disk layout (one u64
/// value + u32 kid offset per record).  The in-memory arena keeps values and
/// kid offsets in parallel SoA arrays; zipping them here keeps the byte
/// format identical to what the old interleaved arena wrote, so snapshots
/// stay readable across the layout change in either direction.
fn encode_entries(store: &Store) -> Vec<u8> {
    let count = store.entry_count();
    let mut out = Vec::with_capacity(4 + count * 12);
    put_u32(&mut out, count as u32);
    for (value, kids_start) in store.entry_pairs() {
        put_u64(&mut out, value.raw());
        put_u32(&mut out, kids_start);
    }
    out
}

/// Decodes the interleaved ENTR section back into the SoA arrays.
fn decode_entries(payload: &[u8]) -> Result<(Vec<Value>, Vec<u32>)> {
    let mut cur = Cursor::new(payload, "ENTR");
    let count = cur.take_count(12)?;
    let mut values = Vec::with_capacity(count);
    let mut kids_starts = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(Value::new(cur.take_u64()?));
        kids_starts.push(cur.take_u32()?);
    }
    cur.finish()?;
    Ok((values, kids_starts))
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Serialises a frozen f-representation into the snapshot byte format.
pub fn encode_frep(rep: &FRep) -> Vec<u8> {
    encode_frep_ctx(rep, &ExecCtx::unlimited()).expect("unlimited encode cannot fail")
}

/// [`encode_frep`] under a governance context: charges roughly one unit per
/// arena record and honours the `snapshot.write` failpoint.
pub fn encode_frep_ctx(rep: &FRep, ctx: &ExecCtx) -> Result<Vec<u8>> {
    failpoint!(ctx, "snapshot.write");
    let tree = rep.tree();
    let store = rep.store();
    ctx.charge((store.unions.len() + store.entry_count() + store.kids.len()) as u64)?;
    let mut out = Vec::new();
    write_header(&mut out, KIND_FREP, FREP_TAGS.len() as u32);
    write_section(&mut out, TAG_EDGE, &encode_edges(tree.edges()));
    write_section(&mut out, TAG_NODE, &encode_nodes(&tree.snapshot_nodes()));
    write_section(
        &mut out,
        TAG_TRTS,
        &encode_u32_list(tree.roots().iter().map(|r| r.0)),
    );
    write_section(&mut out, TAG_UNIO, &encode_unions(&store.unions));
    write_section(&mut out, TAG_ENTR, &encode_entries(store));
    write_section(
        &mut out,
        TAG_KIDS,
        &encode_u32_list(store.kids.iter().copied()),
    );
    write_section(
        &mut out,
        TAG_SRTS,
        &encode_u32_list(store.roots.iter().copied()),
    );
    Ok(out)
}

/// Deserialises and **fully verifies** a snapshot: header, per-section
/// checksums, bounds of every decoded index, and the complete structural
/// validator.  Any failure is a structured error; nothing is loaded.
pub fn decode_frep(bytes: &[u8]) -> Result<FRep> {
    decode_frep_ctx(bytes, &ExecCtx::unlimited())
}

/// [`decode_frep`] under a governance context: charges roughly one unit per
/// arena record and honours the `snapshot.read` failpoint.
pub fn decode_frep_ctx(bytes: &[u8], ctx: &ExecCtx) -> Result<FRep> {
    failpoint!(ctx, "snapshot.read");
    let sections = read_sections(bytes, KIND_FREP)?;
    if sections.len() != FREP_TAGS.len()
        || sections
            .iter()
            .map(|&(t, _)| t)
            .ne(FREP_TAGS.iter().copied())
    {
        let tags: Vec<String> = sections.iter().map(|&(t, _)| tag_name(t)).collect();
        return Err(corrupt(format!(
            "unexpected section layout [{}]",
            tags.join(", ")
        )));
    }
    let edges = decode_edges(sections[0].1)?;
    let nodes = decode_nodes(sections[1].1)?;
    let tree_roots: Vec<NodeId> = decode_u32_list(sections[2].1, "TRTS")?
        .into_iter()
        .map(NodeId)
        .collect();
    let (values, kids_starts) = decode_entries(sections[4].1)?;
    let store = Store::from_arena_parts(
        decode_unions(sections[3].1)?,
        values,
        kids_starts,
        decode_u32_list(sections[5].1, "KIDS")?,
        decode_u32_list(sections[6].1, "SRTS")?,
    );
    ctx.charge((store.unions.len() + store.entry_count() + store.kids.len()) as u64)?;
    let tree = FTree::from_snapshot(edges, nodes, tree_roots)
        .map_err(|e| corrupt(format!("f-tree validation failed on load: {e}")))?;
    let mut rep = FRep::from_store(tree, store);
    // The full structural validator is a mandatory load check — in release
    // builds too.  A snapshot that decodes but fails it was written by (or
    // corrupted into) something this engine must not serve from.
    rep.validate()
        .map_err(|e| corrupt(format!("structural validation failed on load: {e}")))?;
    // Whether the arena is in the freeze layout is not stored in the file:
    // it is checked here, on the arena that was just validated.
    rep.verify_layout();
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Entry, Union};
    use std::collections::BTreeSet;

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// Example 3 of the paper, same fixture as the frep tests.
    fn example3() -> FRep {
        let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 3)];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let union = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::new(
                        b,
                        vec![Entry::leaf(Value::new(1)), Entry::leaf(Value::new(2))],
                    )],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![Entry::leaf(Value::new(2))])],
                },
            ],
        );
        FRep::from_parts(tree, vec![union]).unwrap()
    }

    #[test]
    fn round_trip_is_store_identical() {
        let rep = example3();
        let bytes = encode_frep(&rep);
        let loaded = decode_frep(&bytes).unwrap();
        assert!(loaded.store_identical(&rep));
        assert_eq!(loaded.tree().canonical_key(), rep.tree().canonical_key());
        assert_eq!(loaded.tree().edges(), rep.tree().edges());
        // Re-encoding the loaded representation is byte-identical.
        assert_eq!(encode_frep(&loaded), bytes);
    }

    #[test]
    fn round_trip_preserves_projections_constants_and_holes() {
        let mut rep = example3();
        // Selecting a constant marks a node; projecting away attribute 1
        // exercises the projected-attribute bookkeeping (and, if the leaf is
        // removed, a hole in the node slot vector).
        crate::ops::select_const(
            &mut rep,
            AttrId(0),
            fdb_common::ComparisonOp::Eq,
            Value::new(1),
        )
        .unwrap();
        let keep: BTreeSet<AttrId> = attrs(&[0]);
        crate::ops::project(&mut rep, &keep).unwrap();
        rep.validate().unwrap();
        let loaded = decode_frep(&encode_frep(&rep)).unwrap();
        assert!(loaded.store_identical(&rep));
        for id in rep.tree().node_ids() {
            assert_eq!(
                loaded.tree().projected_attrs(id),
                rep.tree().projected_attrs(id)
            );
            assert_eq!(loaded.tree().constant(id), rep.tree().constant(id));
            assert_eq!(loaded.tree().children(id), rep.tree().children(id));
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let rep = example3();
        let bytes = encode_frep(&rep);
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            match decode_frep(&corrupted) {
                Ok(loaded) => panic!(
                    "flipping byte {i} went undetected (loaded {} unions)",
                    loaded.root_count()
                ),
                Err(FdbError::SnapshotCorrupt { .. })
                | Err(FdbError::SnapshotVersionMismatch { .. }) => {}
                Err(other) => panic!("flipping byte {i}: unstructured error {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let rep = example3();
        let bytes = encode_frep(&rep);
        for len in 0..bytes.len() {
            match decode_frep(&bytes[..len]) {
                Ok(_) => panic!("truncation to {len} bytes went undetected"),
                Err(FdbError::SnapshotCorrupt { .. })
                | Err(FdbError::SnapshotVersionMismatch { .. }) => {}
                Err(other) => panic!("truncation to {len}: unstructured error {other:?}"),
            }
        }
    }

    #[test]
    fn version_skew_is_a_structured_mismatch() {
        let rep = example3();
        let mut bytes = encode_frep(&rep);
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        match decode_frep(&bytes) {
            Err(FdbError::SnapshotVersionMismatch { found, expected }) => {
                assert_eq!(found, 99);
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("expected a version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn section_boundaries_cover_the_whole_file() {
        let rep = example3();
        let bytes = encode_frep(&rep);
        let boundaries = section_boundaries(&bytes).unwrap();
        assert_eq!(boundaries.len(), 8); // header + 7 sections
        assert_eq!(*boundaries.last().unwrap(), bytes.len());
    }
}
