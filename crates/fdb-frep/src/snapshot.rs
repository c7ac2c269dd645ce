//! Durable, self-verifying snapshots of frozen f-representations.
//!
//! # Format (version 2)
//!
//! A snapshot is a little-endian byte stream: a fixed 16-byte header
//! followed by framed, individually checksummed sections.
//!
//! ```text
//! header:   magic u32 | version u32 | kind u32 | section_count u32
//! section:  tag u32 | reserved u32 = 0 | payload_len u64
//!           | payload … | zero padding to the next multiple of 8
//!           | checksum u64
//! ```
//!
//! An f-representation snapshot has exactly seven sections, in this order.
//! The first two are small and record-encoded (`u32` counts, read through a
//! bounds-checked cursor); the other five are a `u64` count followed by the
//! in-memory arrays as they are, so both directions are bulk copies:
//!
//! | tag    | payload                                                       |
//! |--------|---------------------------------------------------------------|
//! | `EDGE` | f-tree dependency edges, a record each (label, attrs, cardinality) |
//! | `NODE` | f-tree node slots, a record each, removed-node holes included |
//! | `TRTS` | `count`, `u32[count]`: the f-tree root list, in order         |
//! | `UNIO` | `count`, `(node, entries_start, entries_len) u32×3 [count]`: union headers |
//! | `ENTR` | `count`, `values u64[count]`, `kids_starts u32[count]`: the two parallel entry arrays, one behind the other |
//! | `KIDS` | `count`, `u32[count]`: the kid-slot table                     |
//! | `SRTS` | `count`, `u32[count]`: the arena root union indices           |
//!
//! *Alignment.*  The header and a frame are 16 bytes and every section is
//! padded to a multiple of 8, so every payload — and, behind its `u64`
//! count, every arena array — starts at a file offset divisible by 8.
//! Nothing reads through that alignment today (the decoder copies); it is
//! there so that a load which validates the arrays in place over one read or
//! an `mmap` stays a format-compatible follow-up.  *Who pads:* the one
//! section writer of this module, which [`write_section`] and the encoder
//! both go through; the reader refuses a non-zero `reserved` word, a
//! non-zero padding byte, and an arena payload whose length is not exactly
//! `8 + count × width`, so a representation has exactly one byte form.
//!
//! # Checksum
//!
//! A section is sealed by a 64-bit, four-lane, word-wise multiply-rotate
//! fold (XXH64's shape; safe Rust, no table, no instruction-set dispatch)
//! over frame, payload and padding as one contiguous range — always a whole
//! number of 8-byte words `w₀ w₁ …`, each at a file offset divisible by 8:
//!
//! ```text
//! step(lane, w) = rotl(lane + w·P₂, 31) · P₁          (mod 2⁶⁴)
//! lane[k] ← P₁, P₂, P₃, P₄                            for k = 0..4
//! lane[i mod 4] ← step(lane[i mod 4], wᵢ)             for i = 0, 1, …
//! h ← byte length;  h ← rotl(h ^ lane[k], 27)·P₁ + P₄  for k = 0..4
//! checksum = avalanche(h)       (xor-shift 33, ·P₂, xor-shift 29, ·P₃, xor-shift 32)
//! ```
//!
//! *Any corruption confined to one aligned 8-byte word of a section is
//! detected with certainty.*  `P₁…P₄` are odd, so `w ↦ w·P₂`, `x ↦ x·P₁`,
//! the rotation, an addition or xor of a fixed operand and an xor-shift are
//! all bijections of the 64-bit words.  Let two ranges of the same length
//! differ in word `i` only.  Lane `i mod 4` enters step `i` in the same state
//! on both sides and `step` is a bijection of `w` for a fixed lane, so it
//! leaves in two different states; every later step of that lane is a
//! bijection of the lane for its (unchanged) word, so the lane ends
//! different while the other three lanes end equal.  Each combining step is
//! a bijection of `h` for a fixed lane and of the lane for a fixed `h`, so
//! `h` differs from that lane's turn on, and the avalanche, a bijection,
//! keeps it different.  The words outside a sealed range: a changed checksum
//! word no longer equals the unchanged computed value; a header word is
//! compared with the one value it may have or, the section count, contradicts
//! the length of the file.  One case is outside the argument: a changed
//! `payload_len` that moves the end of the sealed range makes the reader
//! seal a *different* range (or run past the end of the file) and compare it
//! with whatever word lies behind it — that, like accidental corruption
//! spread over several words, slips through with probability about 2⁻⁶⁴.
//! This is an integrity check against torn writes and decaying media, not
//! an authenticator.  The tests flip every bit and exchange every pair of
//! words of a 4 KB section, and every bit of a whole snapshot file.
//!
//! # Verification
//!
//! Loading **re-verifies everything**: the header (magic, version, kind,
//! section count), every section's framing, canonical form and checksum, the
//! exact length of every array, and finally — mandatorily, in release builds
//! too — the full structural validator ([`crate::FRep::validate`], i.e. the
//! f-tree invariants, the path constraint and every arena invariant of
//! `Store::validate`, among them that no union below a root is empty)
//! followed by the freeze-layout check.  Truncated,
//! bit-flipped, non-canonical or version-skewed input — a version 1 file
//! included: there is one codec — yields a structured
//! [`FdbError::SnapshotCorrupt`] / [`FdbError::SnapshotVersionMismatch`],
//! never a panic, an oversized allocation or a silently-wrong arena.  There
//! is no unverified load.  With the byte work at memory speed the structural
//! pass is now the largest single part of a load — about a third of it
//! (`frep.validate_ms` 0.13 of `frep.snapshot_decode_ms` 0.36 on the
//! standing `swap_reload` workload).

use crate::frep::FRep;
use crate::store::{Store, UnionRec};
use fdb_common::{failpoint, AttrId, ExecCtx, FdbError, Result, Value};
use fdb_ftree::{DepEdge, FTree, NodeId, NodeSnapshot};
use std::collections::BTreeSet;

/// Magic number identifying a snapshot file (`"FDBS"` little-endian).
pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"FDBS");

/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 2;

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

/// Bytes of the file header, and of a section frame.
const FRAME: usize = 16;

fn corrupt(detail: impl Into<String>) -> FdbError {
    FdbError::SnapshotCorrupt {
        detail: detail.into(),
    }
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("a 4-byte slice"))
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte slice"))
}

// ---------------------------------------------------------------------
// Checksum (see the module docs for the definition and the argument)
// ---------------------------------------------------------------------

/// The odd 64-bit multipliers of XXH64.
const PRIMES: [u64; 4] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
];

/// One word entering one lane: a bijection of either for a fixed other.
fn lane_step(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(PRIMES[1]))
        .rotate_left(31)
        .wrapping_mul(PRIMES[0])
}

/// The section checksum over a whole number of 8-byte words.
fn checksum(bytes: &[u8]) -> u64 {
    debug_assert_eq!(bytes.len() % 8, 0, "sections are sealed in whole words");
    let mut lanes = PRIMES;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(*lane, le_u64(word));
        }
    }
    // The sub-32-byte tail: word i still enters lane i mod 4.
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks_exact(8)) {
        *lane = lane_step(*lane, le_u64(word));
    }
    let mut hash = lanes.iter().fold(bytes.len() as u64, |hash, &lane| {
        (hash ^ lane)
            .rotate_left(27)
            .wrapping_mul(PRIMES[0])
            .wrapping_add(PRIMES[3])
    });
    hash = (hash ^ (hash >> 33)).wrapping_mul(PRIMES[1]);
    hash = (hash ^ (hash >> 29)).wrapping_mul(PRIMES[2]);
    hash ^ (hash >> 32)
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

/// Appends one framed section whose payload `fill` writes straight into
/// `out`: the length is patched into the frame afterwards, then come the
/// zero padding and the checksum over the range just written.
fn write_section_with(out: &mut Vec<u8>, tag: u32, fill: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&[0; 12]);
    fill(out);
    let payload_len = out.len() - start - FRAME;
    out[start + 8..start + FRAME].copy_from_slice(&(payload_len as u64).to_le_bytes());
    out.resize(start + FRAME + payload_len.next_multiple_of(8), 0);
    let seal = checksum(&out[start..]);
    out.extend_from_slice(&seal.to_le_bytes());
}

/// Appends one framed section: frame, payload, padding, checksum.
#[doc(hidden)]
pub fn write_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    write_section_with(out, tag, |out| out.extend_from_slice(payload));
}

/// Verifies the header and returns `(kind, section_count)`.
fn read_header(bytes: &[u8]) -> Result<(u32, u32)> {
    if bytes.len() < FRAME {
        return Err(corrupt(format!(
            "file too short for a snapshot header: {} bytes",
            bytes.len()
        )));
    }
    let word = |i: usize| le_u32(&bytes[i..i + 4]);
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
    Ok((word(8), word(12)))
}

/// Splits a verified snapshot stream into its sections, checking the
/// header's `kind`, every section's framing, checksum and canonical form
/// (zero `reserved` word, zero padding), and that no trailing bytes follow
/// the last section.  Returns `(tag, payload)` pairs.
#[doc(hidden)]
pub fn read_sections(bytes: &[u8], expected_kind: u32) -> Result<Vec<(u32, &[u8])>> {
    let (kind, section_count) = read_header(bytes)?;
    if kind != expected_kind {
        return Err(corrupt(format!(
            "wrong snapshot kind {kind} (expected {expected_kind})"
        )));
    }
    let mut sections = Vec::with_capacity(section_count.min(64) as usize);
    let mut pos = FRAME;
    for i in 0..section_count {
        // The smallest section is a frame and a checksum around nothing.
        let Some(frame) = bytes.get(pos..pos + FRAME + 8) else {
            return Err(corrupt(format!("section {i} framing truncated")));
        };
        let tag = le_u32(&frame[..4]);
        let reserved = le_u32(&frame[4..8]);
        let payload_len = le_u64(&frame[8..FRAME]);
        let payload_start = pos + FRAME;
        // The length is outside input until the bytes actually behind the
        // frame, less the checksum word, bound its padded form.
        let room = (bytes.len() - payload_start - 8) as u64;
        let Some(padded) = payload_len
            .checked_next_multiple_of(8)
            .filter(|&p| p <= room)
        else {
            return Err(corrupt(format!(
                "section {i} runs past the end of the file (torn write?)"
            )));
        };
        let payload_end = payload_start + payload_len as usize;
        let sealed_end = payload_start + padded as usize;
        let stored = le_u64(&bytes[sealed_end..sealed_end + 8]);
        let computed = checksum(&bytes[pos..sealed_end]);
        if stored != computed {
            return Err(corrupt(format!(
                "section {i} ({}) checksum mismatch: stored {stored:#018x}, computed {computed:#018x}",
                tag_name(tag)
            )));
        }
        if reserved != 0 || bytes[payload_end..sealed_end].iter().any(|&b| b != 0) {
            return Err(corrupt(format!(
                "section {i} ({}) is not canonical: reserved word or padding not zero",
                tag_name(tag)
            )));
        }
        sections.push((tag, &bytes[payload_start..payload_end]));
        pos = sealed_end + 8;
    }
    if pos != bytes.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last section",
            bytes.len() - pos
        )));
    }
    Ok(sections)
}

/// A tag as its four ASCII characters (anything else escaped).
fn tag_name(tag: u32) -> String {
    tag.to_le_bytes().escape_ascii().to_string()
}

// ---------------------------------------------------------------------
// Tree sections: record encoding through a bounds-checked cursor
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

/// A bounds-checked little-endian reader consuming one tree section's
/// payload from the front.
struct Cursor<'a> {
    bytes: &'a [u8],
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Cursor { bytes, section }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let Some((head, rest)) = self.bytes.split_at_checked(n) else {
            return Err(corrupt(format!(
                "section {} payload truncated",
                self.section
            )));
        };
        self.bytes = rest;
        Ok(head)
    }

    fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32> {
        Ok(le_u32(self.take(4)?))
    }

    fn take_u64(&mut self) -> Result<u64> {
        Ok(le_u64(self.take(8)?))
    }

    /// Reads a count prefix and guards it against the bytes actually
    /// remaining (`per` bytes per element), so a bogus count cannot trigger
    /// a huge allocation.
    fn take_count(&mut self, per: usize) -> Result<usize> {
        let count = self.take_u32()? as usize;
        if count.saturating_mul(per) > self.bytes.len() {
            return Err(corrupt(format!(
                "section {} count {count} exceeds the payload",
                self.section
            )));
        }
        Ok(count)
    }

    fn take_attr_set(&mut self) -> Result<BTreeSet<AttrId>> {
        let count = self.take_count(4)?;
        (0..count).map(|_| self.take_u32().map(AttrId)).collect()
    }

    fn finish(&self) -> Result<()> {
        if !self.bytes.is_empty() {
            return Err(corrupt(format!(
                "section {} has {} trailing payload bytes",
                self.section,
                self.bytes.len()
            )));
        }
        Ok(())
    }
}

fn put_edges(out: &mut Vec<u8>, edges: &[DepEdge]) {
    put_u32(out, edges.len() as u32);
    for edge in edges {
        put_u32(out, edge.label.len() as u32);
        out.extend_from_slice(edge.label.as_bytes());
        put_attr_set(out, &edge.attrs);
        put_u64(out, edge.cardinality);
    }
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

fn put_nodes(out: &mut Vec<u8>, slots: &[Option<NodeSnapshot>]) {
    put_u32(out, slots.len() as u32);
    for slot in slots {
        match slot {
            None => out.push(0),
            Some(node) => {
                out.push(1);
                put_attr_set(out, &node.class);
                put_u32(out, node.parent.map_or(NO_PARENT, |p| p.0));
                put_u32(out, node.children.len() as u32);
                for c in &node.children {
                    put_u32(out, c.0);
                }
                put_attr_set(out, &node.projected);
                match node.constant {
                    None => out.push(0),
                    Some(v) => {
                        out.push(1);
                        put_u64(out, v.raw());
                    }
                }
            }
        }
    }
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
                let children = (0..child_count)
                    .map(|_| cur.take_u32().map(NodeId))
                    .collect::<Result<_>>()?;
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

// ---------------------------------------------------------------------
// Arena sections: a count, then whole arrays
// ---------------------------------------------------------------------

/// Bytes of one arena section holding `count` items of `width` bytes: frame,
/// count, array, padding, checksum.
fn arena_section_len(count: usize, width: usize) -> usize {
    FRAME + (8 + count * width).next_multiple_of(8) + 8
}

/// Appends the payload of a one-array section: the count, then `items` as
/// one little-endian array of `W` bytes per item.
fn put_counted<T: Copy, const W: usize>(
    out: &mut Vec<u8>,
    items: &[T],
    to_le: impl Fn(T) -> [u8; W],
) {
    put_u64(out, items.len() as u64);
    out.extend(items.iter().flat_map(|&item| to_le(item)));
}

fn union_to_le(rec: UnionRec) -> [u8; 12] {
    let mut bytes = [0; 12];
    bytes[..4].copy_from_slice(&rec.node.0.to_le_bytes());
    bytes[4..8].copy_from_slice(&rec.entries_start.to_le_bytes());
    bytes[8..].copy_from_slice(&rec.entries_len.to_le_bytes());
    bytes
}

fn union_from_le(bytes: [u8; 12]) -> UnionRec {
    UnionRec {
        node: NodeId(le_u32(&bytes[..4])),
        entries_start: le_u32(&bytes[4..8]),
        entries_len: le_u32(&bytes[8..]),
    }
}

/// Reads an arena section's count and returns it with the array bytes
/// behind it, after checking that the payload is **exactly**
/// `8 + count × width` bytes — a count that disagrees with the (verified)
/// length is refused here, before anything is reserved for it.
fn counted<'a>(payload: &'a [u8], section: &str, width: u64) -> Result<(usize, &'a [u8])> {
    match payload.split_first_chunk::<8>() {
        Some((count, array))
            if u64::from_le_bytes(*count).checked_mul(width) == Some(array.len() as u64) =>
        {
            Ok((array.len() / width as usize, array))
        }
        _ => Err(corrupt(format!(
            "section {section}: a payload of {} bytes is not 8 + count × {width}",
            payload.len()
        ))),
    }
}

/// Builds one in-memory array from little-endian items of `W` bytes each:
/// one exact reservation, one `extend`.
fn get_array<T, const W: usize>(bytes: &[u8], from_le: impl Fn([u8; W]) -> T) -> Result<Vec<T>> {
    let mut items = Vec::new();
    items
        .try_reserve_exact(bytes.len() / W)
        .map_err(|e| FdbError::LimitExceeded {
            detail: format!("snapshot array of {} bytes: {e}", bytes.len()),
        })?;
    items.extend(
        bytes
            .chunks_exact(W)
            .map(|item| from_le(item.try_into().expect("chunks_exact yields W bytes"))),
    );
    Ok(items)
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Serialises a frozen f-representation into the snapshot byte format:
/// charges one unit per union, entry and kid slot and honours the
/// `snapshot.write` failpoint.
pub fn encode_frep_ctx(rep: &FRep, ctx: &ExecCtx) -> Result<Vec<u8>> {
    failpoint!(ctx, "snapshot.write");
    let tree = rep.tree();
    let store = rep.store();
    let (values, kids_starts) = store.entry_arrays();
    ctx.charge((store.unions.len() + values.len() + store.kids.len()) as u64)?;
    let mut out = Vec::new();
    write_header(&mut out, KIND_FREP, FREP_TAGS.len() as u32);
    write_section_with(&mut out, TAG_EDGE, |out| put_edges(out, tree.edges()));
    write_section_with(&mut out, TAG_NODE, |out| {
        put_nodes(out, &tree.snapshot_nodes())
    });
    // The two tree sections above are a few hundred bytes.  The size of
    // everything behind them follows from the counts, so the rest of the
    // file is written in place into one exact reservation.
    out.reserve_exact(
        arena_section_len(tree.roots().len(), 4)
            + arena_section_len(store.unions.len(), 12)
            + arena_section_len(values.len(), 12)
            + arena_section_len(store.kids.len(), 4)
            + arena_section_len(store.roots.len(), 4),
    );
    write_section_with(&mut out, TAG_TRTS, |out| {
        put_counted(out, tree.roots(), |r| r.0.to_le_bytes())
    });
    write_section_with(&mut out, TAG_UNIO, |out| {
        put_counted(out, &store.unions, union_to_le)
    });
    write_section_with(&mut out, TAG_ENTR, |out| {
        put_counted(out, values, |v| v.raw().to_le_bytes());
        out.extend(kids_starts.iter().flat_map(|k| k.to_le_bytes()));
    });
    write_section_with(&mut out, TAG_KIDS, |out| {
        put_counted(out, &store.kids, u32::to_le_bytes)
    });
    write_section_with(&mut out, TAG_SRTS, |out| {
        put_counted(out, &store.roots, u32::to_le_bytes)
    });
    Ok(out)
}

/// Deserialises and **fully verifies** a snapshot: header, per-section
/// checksums, the exact length of every array, and the complete structural
/// validator.  Any failure is a structured error; nothing is loaded.
///
/// Honours the `snapshot.read` failpoint and charges one unit per union,
/// entry and kid slot — read from the verified sections and charged
/// **before** any array is allocated, so a load the budget cannot cover, or
/// a cancelled one, holds no memory.
pub fn decode_frep_ctx(bytes: &[u8], ctx: &ExecCtx) -> Result<FRep> {
    failpoint!(ctx, "snapshot.read");
    let sections = read_sections(bytes, KIND_FREP)?;
    let tags = sections.iter().map(|&(tag, _)| tag);
    if tags.clone().ne(FREP_TAGS) {
        let tags: Vec<String> = tags.map(tag_name).collect();
        return Err(corrupt(format!(
            "unexpected section layout [{}]",
            tags.join(", ")
        )));
    }
    let (_, tree_roots) = counted(sections[2].1, "TRTS", 4)?;
    let (union_count, unions) = counted(sections[3].1, "UNIO", 12)?;
    let (entry_count, entries) = counted(sections[4].1, "ENTR", 12)?;
    let (kid_count, kids) = counted(sections[5].1, "KIDS", 4)?;
    let (_, roots) = counted(sections[6].1, "SRTS", 4)?;
    ctx.check_now()?;
    ctx.charge((union_count + entry_count + kid_count) as u64)?;

    let (values, kids_starts) = entries.split_at(entry_count * 8);
    let store = Store::from_arena_parts(
        get_array(unions, union_from_le)?,
        get_array(values, |v| Value::new(u64::from_le_bytes(v)))?,
        get_array(kids_starts, u32::from_le_bytes)?,
        get_array(kids, u32::from_le_bytes)?,
        get_array(roots, u32::from_le_bytes)?,
    );
    let tree = FTree::from_snapshot(
        decode_edges(sections[0].1)?,
        decode_nodes(sections[1].1)?,
        get_array(tree_roots, |r| NodeId(u32::from_le_bytes(r)))?,
    )
    .map_err(|e| corrupt(format!("f-tree validation failed on load: {e}")))?;
    let mut rep = FRep::from_store(tree, store, None);
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
    use fdb_common::QueryLimits;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

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

    /// `(frame offset, payload length)` of every section of a valid
    /// snapshot, derived from the checked reader.
    fn section_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut pos = FRAME;
        let mut spans = Vec::new();
        for (_, payload) in read_sections(bytes, KIND_FREP).unwrap() {
            spans.push((pos, payload.len()));
            pos += FRAME + payload.len().next_multiple_of(8) + 8;
        }
        spans
    }

    /// Re-frames a snapshot with one section's payload transformed and the
    /// checksum recomputed, so the change reaches the decoder behind it.
    fn reframe(bytes: &[u8], target: u32, mutate: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let sections = read_sections(bytes, KIND_FREP).unwrap();
        let mut out = Vec::new();
        write_header(&mut out, KIND_FREP, sections.len() as u32);
        for (tag, payload) in sections {
            let mut payload = payload.to_vec();
            if tag == target {
                mutate(&mut payload);
            }
            write_section(&mut out, tag, &payload);
        }
        out
    }

    fn assert_corrupt(bytes: &[u8], needle: &str, context: &str) {
        match decode_frep_ctx(bytes, &ExecCtx::unlimited()) {
            Err(FdbError::SnapshotCorrupt { detail }) => {
                assert!(detail.contains(needle), "{context}: {detail}")
            }
            other => panic!("{context}: expected SnapshotCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_is_store_identical() {
        let rep = example3();
        let bytes = encode_frep_ctx(&rep, &ExecCtx::unlimited()).unwrap();
        let loaded = decode_frep_ctx(&bytes, &ExecCtx::unlimited()).unwrap();
        assert!(loaded.store_identical(&rep));
        // Nothing recorded travels in the file: the loaded arena walks
        // itself on its first read.
        assert_eq!(loaded.recorded_counts(), None);
        assert_eq!(loaded.counts(), (5, 3));
        assert_eq!(loaded.counts(), rep.counts());
        assert_eq!(loaded.tree().canonical_key(), rep.tree().canonical_key());
        assert_eq!(loaded.tree().edges(), rep.tree().edges());
        // Re-encoding the loaded representation is byte-identical.
        assert_eq!(
            encode_frep_ctx(&loaded, &ExecCtx::unlimited()).unwrap(),
            bytes
        );
    }

    #[test]
    fn round_trip_preserves_projections_constants_and_holes() {
        use crate::ops::{emit_fused_ctx, FPlanOp};
        // Selecting a constant marks a node; projecting away attribute 1
        // exercises the projected-attribute bookkeeping (and, if the leaf is
        // removed, a hole in the node slot vector).
        let program = [
            FPlanOp::SelectConst {
                attr: AttrId(0),
                op: fdb_common::ComparisonOp::Eq,
                value: Value::new(1),
            },
            FPlanOp::Project(attrs(&[0])),
        ];
        let rep = emit_fused_ctx(&example3(), &program, &ExecCtx::unlimited()).unwrap();
        rep.validate().unwrap();
        let loaded = decode_frep_ctx(
            &encode_frep_ctx(&rep, &ExecCtx::unlimited()).unwrap(),
            &ExecCtx::unlimited(),
        )
        .unwrap();
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
        let bytes = encode_frep_ctx(&rep, &ExecCtx::unlimited()).unwrap();
        for (i, bit) in (0..bytes.len()).flat_map(|i| (0..8).map(move |bit| (i, bit))) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 1 << bit;
            match decode_frep_ctx(&corrupted, &ExecCtx::unlimited()) {
                Ok(loaded) => panic!(
                    "flipping bit {bit} of byte {i} went undetected (loaded {} unions)",
                    loaded.roots().len()
                ),
                Err(FdbError::SnapshotCorrupt { .. })
                | Err(FdbError::SnapshotVersionMismatch { .. }) => {}
                Err(other) => {
                    panic!("flipping bit {bit} of byte {i}: unstructured error {other:?}")
                }
            }
        }
    }

    #[test]
    fn an_empty_union_below_a_root_is_refused_on_load() {
        // Written by hand: no writer emits the B-union under A=2 emptied, and
        // the encoder does not validate what it is given.
        let rep = example3();
        let (tree, mut roots) = (rep.tree().clone(), rep.to_forest());
        roots[0].entries[1].children[0].entries.clear();
        let unreduced = FRep::from_parts_unchecked(tree, roots);
        let bytes = encode_frep_ctx(&unreduced, &ExecCtx::unlimited()).unwrap();
        assert_corrupt(&bytes, "empty child union", "empty union below a root");
    }

    #[test]
    fn every_truncation_is_detected() {
        let rep = example3();
        let bytes = encode_frep_ctx(&rep, &ExecCtx::unlimited()).unwrap();
        for len in 0..bytes.len() {
            match decode_frep_ctx(&bytes[..len], &ExecCtx::unlimited()) {
                Ok(_) => panic!("truncation to {len} bytes went undetected"),
                Err(FdbError::SnapshotCorrupt { .. })
                | Err(FdbError::SnapshotVersionMismatch { .. }) => {}
                Err(other) => panic!("truncation to {len}: unstructured error {other:?}"),
            }
        }
    }

    #[test]
    fn version_skew_is_a_structured_mismatch() {
        // A newer build's file, and the previous format (there is one
        // codec: version 1 is a mismatch like any other).
        for skewed in [99u32, 1] {
            let mut bytes = encode_frep_ctx(&example3(), &ExecCtx::unlimited()).unwrap();
            bytes[4..8].copy_from_slice(&skewed.to_le_bytes());
            assert_eq!(
                decode_frep_ctx(&bytes, &ExecCtx::unlimited()).err(),
                Some(FdbError::SnapshotVersionMismatch {
                    found: skewed,
                    expected: 2
                })
            );
        }
    }

    #[test]
    fn section_boundaries_cover_the_whole_file() {
        let rep = example3();
        let bytes = encode_frep_ctx(&rep, &ExecCtx::unlimited()).unwrap();
        let boundaries: Vec<usize> = std::iter::once(FRAME)
            .chain(
                section_spans(&bytes)
                    .iter()
                    .map(|&(frame, len)| frame + FRAME + len.next_multiple_of(8) + 8),
            )
            .collect();
        assert_eq!(boundaries.len(), 8); // header + 7 sections
        assert_eq!(*boundaries.last().unwrap(), bytes.len());
        assert!(boundaries.iter().all(|b| b % 8 == 0));
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    /// A 4 KB section of random words, and its checksum.
    fn random_section() -> (Vec<u8>, u64) {
        let section = random_bytes(&mut StdRng::seed_from_u64(0xC4EC), 4096);
        let sealed = checksum(&section);
        (section, sealed)
    }

    #[test]
    fn checksum_changes_with_every_single_bit() {
        let (mut section, sealed) = random_section();
        for bit in 0..section.len() * 8 {
            section[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&section), sealed, "bit {bit}");
            section[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn checksum_changes_with_every_exchange_of_two_words() {
        let (section, sealed) = random_section();
        let words: Vec<u64> = section.chunks_exact(8).map(le_u64).collect();
        let mut exchanged = section.clone();
        for i in 0..words.len() {
            // Same lane (i ≡ j mod 4) and different lanes alike.
            for j in i + 1..words.len() {
                assert_ne!(words[i], words[j], "the fixture's words are distinct");
                exchanged[i * 8..][..8].copy_from_slice(&words[j].to_le_bytes());
                exchanged[j * 8..][..8].copy_from_slice(&words[i].to_le_bytes());
                assert_ne!(checksum(&exchanged), sealed, "words {i} and {j}");
                exchanged[j * 8..][..8].copy_from_slice(&words[j].to_le_bytes());
            }
            exchanged[i * 8..][..8].copy_from_slice(&words[i].to_le_bytes());
        }
    }

    #[test]
    fn checksum_changes_with_a_trailing_zero_word() {
        let (mut section, _) = random_section();
        let len = section.len();
        section[len - 8..].fill(0);
        let sealed = checksum(&section);
        assert_ne!(checksum(&section[..len - 8]), sealed, "one removed");
        section.extend_from_slice(&[0; 8]);
        assert_ne!(checksum(&section), sealed, "one appended");
        // All-zero input of every length up to two blocks: no two agree.
        let zeros: Vec<u64> = (0..=8).map(|n| checksum(&[0u8; 64][..n * 8])).collect();
        let distinct: BTreeSet<u64> = zeros.iter().copied().collect();
        assert_eq!(distinct.len(), zeros.len());
    }

    #[test]
    fn every_payload_length_round_trips_through_the_framing() {
        // 0..=80 covers every padding amount and every sub-32-byte tail.
        let mut rng = StdRng::seed_from_u64(0xF4A3);
        for len in 0..=80usize {
            let payload = random_bytes(&mut rng, len);
            let mut bytes = Vec::new();
            write_header(&mut bytes, KIND_MANIFEST, 2);
            write_section(&mut bytes, TAG_KIDS, &payload);
            write_section(&mut bytes, TAG_SRTS, &payload);
            assert_eq!(
                bytes.len(),
                FRAME + 2 * (FRAME + len.next_multiple_of(8) + 8)
            );
            let sections = read_sections(&bytes, KIND_MANIFEST).unwrap();
            assert_eq!(
                sections,
                [(TAG_KIDS, &payload[..]), (TAG_SRTS, &payload[..])],
                "length {len}"
            );
        }
    }

    #[test]
    fn non_canonical_frames_are_corrupt_even_with_a_valid_checksum() {
        let bytes = encode_frep_ctx(&example3(), &ExecCtx::unlimited()).unwrap();
        // Patches one byte of a section and reseals it.
        let resealed = |frame: usize, len: usize, at: usize| {
            let mut bad = bytes.clone();
            assert_eq!(bad[at], 0);
            bad[at] = 1;
            let sealed_end = frame + FRAME + len.next_multiple_of(8);
            let seal = checksum(&bad[frame..sealed_end]);
            bad[sealed_end..sealed_end + 8].copy_from_slice(&seal.to_le_bytes());
            bad
        };
        let spans = section_spans(&bytes);
        for &(frame, len) in &spans {
            assert_corrupt(&resealed(frame, len, frame + 4), "canonical", "reserved");
        }
        let &(frame, len) = spans.iter().find(|(_, len)| len % 8 != 0).unwrap();
        for pad in len..len.next_multiple_of(8) {
            assert_corrupt(
                &resealed(frame, len, frame + FRAME + pad),
                "canonical",
                "padding",
            );
        }
        // The same patches without the reseal die one layer earlier.
        let mut unsealed = bytes.clone();
        unsealed[frame + 4] = 1;
        assert_corrupt(&unsealed, "checksum mismatch", "reserved, unsealed");
    }

    #[test]
    fn counts_must_match_the_payload_length_exactly() {
        let bytes = encode_frep_ctx(&example3(), &ExecCtx::unlimited()).unwrap();
        for (tag, name, width) in [
            (TAG_TRTS, "TRTS", 4),
            (TAG_UNIO, "UNIO", 12),
            (TAG_ENTR, "ENTR", 12),
            (TAG_KIDS, "KIDS", 4),
            (TAG_SRTS, "SRTS", 4),
        ] {
            let with_count = |count: u64| {
                reframe(&bytes, tag, |payload| {
                    payload[..8].copy_from_slice(&count.to_le_bytes())
                })
            };
            let count = {
                let sections = read_sections(&bytes, KIND_FREP).unwrap();
                let payload = sections.iter().find(|s| s.0 == tag).unwrap().1;
                assert_eq!(payload.len() as u64, 8 + le_u64(&payload[..8]) * width);
                le_u64(&payload[..8])
            };
            let longer = reframe(&bytes, tag, |payload| payload.extend_from_slice(&[0; 8]));
            assert_corrupt(&longer, name, "a payload one word longer");
            let empty = reframe(&bytes, tag, |payload| payload.clear());
            assert_corrupt(&empty, name, "no count at all");
            // A count beyond the payload is SnapshotCorrupt, not the
            // `LimitExceeded` of a refused reservation: the exact-length
            // check comes first, whether or not `count × width` overflows.
            for bogus in [count + 1, u64::MAX / 16, u64::MAX] {
                assert_corrupt(&with_count(bogus), name, "a count beyond the payload");
            }
        }
    }

    #[test]
    fn decode_charges_the_counts_before_it_allocates() {
        let rep = example3();
        let bytes = encode_frep_ctx(&rep, &ExecCtx::unlimited()).unwrap();
        // One unit per union, entry and kid slot: 3 + 5 + 2.
        let units = 10;
        let budgeted = |budget| ExecCtx::new(&QueryLimits::unlimited().with_budget(budget));
        let ctx = budgeted(units);
        let loaded = decode_frep_ctx(&bytes, &ctx).unwrap();
        assert_eq!(ctx.budget_remaining(), 0);
        assert!(loaded.store_identical(&decode_frep_ctx(&bytes, &ExecCtx::unlimited()).unwrap()));
        assert_eq!(
            decode_frep_ctx(&bytes, &budgeted(units - 1)).err(),
            Some(FdbError::BudgetExceeded { limit: units - 1 })
        );
        let cancelled = QueryLimits::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
        assert_eq!(
            decode_frep_ctx(&bytes, &ExecCtx::new(&cancelled)).err(),
            Some(FdbError::DeadlineExceeded { limit_ms: 0 })
        );
        // The encoder charges the same total.
        let ctx = budgeted(units);
        assert_eq!(encode_frep_ctx(&rep, &ctx).unwrap(), bytes);
        assert_eq!(ctx.budget_remaining(), 0);
    }
}
