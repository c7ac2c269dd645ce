//! Durable snapshots of representations and whole serving databases.
//!
//! The byte format lives in `fdb-frep`'s [`fdb_frep::snapshot`] module
//! (format version 2) — framed sections, each padded to 8 bytes and sealed
//! by a word-wise 64-bit checksum, structurally re-verified on every load.
//! This module adds the filesystem orchestration:
//!
//! * [`save_rep_ctx`]/[`load_rep_ctx`] persist one frozen [`FRep`] to a file.
//!   Writes are **atomic**: the bytes go to a `<name>.tmp` sibling, are
//!   synced, and are renamed over the final path, so a crash mid-write
//!   leaves either the old file or no file — never a torn one.  (A torn
//!   write that slips through anyway — e.g. a dying disk — is caught at
//!   load time by the framing and checksum verification.)
//! * [`save_database_ctx`]/[`load_database_ctx`] persist every
//!   representation of a [`SharedDatabase`] into a directory: one
//!   `rep-<index>.fdbs` file per slot plus a `MANIFEST.fdbs` mapping
//!   registration names to files, in the same checksummed section format
//!   (header kind [`fdb_frep::snapshot::KIND_MANIFEST`]).  Loading rebuilds
//!   the database with identical [`crate::RepId`]s, names and name-index
//!   semantics.
//!
//! Failure vocabulary: OS-level failures (missing file, permissions, disk
//! full) report [`FdbError::SnapshotIo`]; bytes that were read but fail
//! verification report [`FdbError::SnapshotCorrupt`] or
//! [`FdbError::SnapshotVersionMismatch`].  Nothing panics, and a failed
//! load leaves the caller's state untouched.

use crate::serving::SharedDatabase;
use fdb_common::{ExecCtx, FdbError, Result};
use fdb_frep::snapshot::{read_sections, write_header, write_section, KIND_MANIFEST};
use fdb_frep::{decode_frep_ctx, encode_frep_ctx, FRep};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File name of the database manifest inside a snapshot directory.
pub const MANIFEST_FILE: &str = "MANIFEST.fdbs";

/// Section tag of the manifest's single section (`"MNFS"`).
const TAG_MANIFEST: u32 = u32::from_le_bytes(*b"MNFS");

/// Maps an OS error into [`FdbError::SnapshotIo`] with the operation and
/// path spelled out.
fn io_err(op: &str, path: &Path, err: std::io::Error) -> FdbError {
    FdbError::SnapshotIo {
        detail: format!("{op} {}: {err}", path.display()),
    }
}

/// Writes `bytes` to `path` atomically: the data lands in a `.tmp` sibling
/// first, is synced to disk, and is renamed over the final path.  Rename is
/// atomic on POSIX filesystems, so a crash at any point leaves either the
/// previous file or no file at `path` — never a prefix.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        let mut file = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        file.write_all(bytes)
            .map_err(|e| io_err("write", &tmp, e))?;
        file.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
        drop(file);
        fs::rename(&tmp, path).map_err(|e| io_err("rename into", path, e))
    })();
    if result.is_err() {
        // Best effort: don't leave the partial temporary behind.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Saves one frozen representation to `path` (atomic write; see the module
/// docs).  Encoding charges the context per arena record and hosts the
/// `snapshot.write` failpoint.
pub fn save_rep_ctx(rep: &FRep, path: &Path, ctx: &ExecCtx) -> Result<()> {
    let bytes = encode_frep_ctx(rep, ctx)?;
    write_atomic(path, &bytes)
}

/// Loads one representation from `path`, re-verifying everything (framing,
/// checksums, structural validation) before returning it.
pub fn load_rep(path: &Path) -> Result<FRep> {
    load_rep_ctx(path, &ExecCtx::unlimited())
}

/// [`load_rep`] under an execution context (the `snapshot.read` failpoint
/// plus decode work charging).  A load that is already cancelled or past
/// its deadline does not touch the file.
pub fn load_rep_ctx(path: &Path, ctx: &ExecCtx) -> Result<FRep> {
    ctx.check_now()?;
    let bytes = fs::read(path).map_err(|e| io_err("read", path, e))?;
    decode_frep_ctx(&bytes, ctx)
}

/// The file name a slot's representation is stored under inside a database
/// snapshot directory.
fn rep_file_name(index: usize) -> String {
    format!("rep-{index}.fdbs")
}

/// Encodes the manifest: one checksummed section listing, per slot in
/// registration order, the registration name and the representation's file
/// name.
fn encode_manifest(entries: &[(String, String)]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, file) in entries {
        for text in [name, file] {
            payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
            payload.extend_from_slice(text.as_bytes());
        }
    }
    let mut out = Vec::new();
    write_header(&mut out, KIND_MANIFEST, 1);
    write_section(&mut out, TAG_MANIFEST, &payload);
    out
}

/// Decodes a manifest produced by [`encode_manifest`], bounds-checking
/// every length against the payload it was read from.
fn decode_manifest(bytes: &[u8]) -> Result<Vec<(String, String)>> {
    let corrupt = |detail: String| FdbError::SnapshotCorrupt { detail };
    let sections = read_sections(bytes, KIND_MANIFEST)?;
    let [(tag, payload)] = sections.as_slice() else {
        return Err(corrupt(format!(
            "manifest must have exactly 1 section, found {}",
            sections.len()
        )));
    };
    if *tag != TAG_MANIFEST {
        return Err(corrupt(format!(
            "unexpected manifest section tag {tag:#010x}"
        )));
    }
    let mut at = 0usize;
    let mut take = |n: usize, what: &str| -> Result<&[u8]> {
        let end = at.checked_add(n).filter(|&end| end <= payload.len());
        let Some(end) = end else {
            return Err(corrupt(format!(
                "manifest truncated reading {what} at offset {at}"
            )));
        };
        let slice = &payload[at..end];
        at = end;
        Ok(slice)
    };
    let count = u32::from_le_bytes(take(4, "entry count")?.try_into().unwrap()) as usize;
    // Each entry needs at least its two length prefixes.
    if count > payload.len() / 8 {
        return Err(corrupt(format!(
            "manifest claims {count} entries in a {}-byte payload",
            payload.len()
        )));
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let mut text = |what: &str| -> Result<String> {
            let len = u32::from_le_bytes(take(4, what)?.try_into().unwrap()) as usize;
            String::from_utf8(take(len, what)?.to_vec())
                .map_err(|_| corrupt(format!("manifest entry {i}: {what} is not UTF-8")))
        };
        let name = text("registration name")?;
        let file = text("file name")?;
        entries.push((name, file));
    }
    if at != payload.len() {
        return Err(corrupt(format!(
            "manifest has {} trailing bytes after {count} entries",
            payload.len() - at
        )));
    }
    Ok(entries)
}

/// Saves every representation of a database into `dir` (created if
/// missing): one `rep-<index>.fdbs` per slot plus [`MANIFEST_FILE`].  Every
/// file is written atomically; the manifest goes last, so a crash mid-save
/// never leaves a manifest pointing at missing files when the directory was
/// fresh.
pub fn save_database(db: &SharedDatabase, dir: &Path) -> Result<()> {
    save_database_ctx(db, dir, &ExecCtx::unlimited())
}

/// [`save_database`] under an execution context, threaded through every
/// per-representation encode.
pub fn save_database_ctx(db: &SharedDatabase, dir: &Path, ctx: &ExecCtx) -> Result<()> {
    fs::create_dir_all(dir).map_err(|e| io_err("create directory", dir, e))?;
    let mut entries = Vec::with_capacity(db.len());
    for (index, id) in db.ids().enumerate() {
        let rep = db.get(id).expect("ids() yields only registered slots");
        let name = db.name(id).expect("registered slot has a name");
        let file = rep_file_name(index);
        save_rep_ctx(&rep, &dir.join(&file), ctx)?;
        entries.push((name.to_string(), file));
    }
    write_atomic(&dir.join(MANIFEST_FILE), &encode_manifest(&entries))
}

/// Loads a database saved by [`save_database_ctx`]: reads and verifies the
/// manifest, then loads and re-verifies every representation file,
/// registering them in manifest order so every [`crate::RepId`] — and the
/// first-registration-wins name index — comes back identical.  The context
/// is threaded through every per-representation decode.
pub fn load_database_ctx(dir: &Path, ctx: &ExecCtx) -> Result<SharedDatabase> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let bytes = fs::read(&manifest_path).map_err(|e| io_err("read", &manifest_path, e))?;
    let entries = decode_manifest(&bytes)?;
    let mut db = SharedDatabase::new();
    for (name, file) in entries {
        if file.contains(['/', '\\']) || file == ".." {
            return Err(FdbError::SnapshotCorrupt {
                detail: format!("manifest entry {name:?} escapes the snapshot directory: {file:?}"),
            });
        }
        let rep = load_rep_ctx(&dir.join(&file), ctx)?;
        db.insert(name, rep)
            .map_err(|e| FdbError::SnapshotCorrupt {
                detail: format!("manifest registers the same name twice: {e}"),
            })?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FdbEngine;
    use fdb_common::{Catalog, Query, QueryLimits};
    use fdb_relation::Database;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A unique scratch directory per test invocation, cleaned up by the
    /// caller (or the OS's temp reaper on a panicking test).
    fn scratch_dir(label: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let unique = NEXT.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("fdb-snap-{}-{label}-{unique}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_rep() -> FRep {
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["a", "b"]);
        let (s, _) = catalog.add_relation("S", &["b2", "c"]);
        let mut db = Database::new(catalog);
        db.insert_raw_rows(r, &[vec![1, 1], vec![1, 2], vec![2, 2]])
            .unwrap();
        db.insert_raw_rows(s, &[vec![1, 5], vec![2, 6], vec![2, 7]])
            .unwrap();
        let b = db.catalog().find_attr("R.b").unwrap();
        let b2 = db.catalog().find_attr("S.b2").unwrap();
        let query = Query::product(vec![r, s]).with_equality(b, b2);
        FdbEngine::new().evaluate_flat(&db, &query).unwrap().result
    }

    #[test]
    fn file_round_trip_is_store_identical_and_leaves_no_temp_behind() {
        let dir = scratch_dir("file");
        let path = dir.join("rep.fdbs");
        let rep = sample_rep();
        save_rep_ctx(&rep, &path, &ExecCtx::unlimited()).unwrap();
        assert!(
            fs::read_dir(&dir)
                .unwrap()
                .all(|e| e.unwrap().file_name() == "rep.fdbs"),
            "the temporary file was renamed away"
        );
        let loaded = load_rep(&path).unwrap();
        assert!(loaded.store_identical(&rep));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_and_truncated_files_are_structured_errors() {
        let dir = scratch_dir("errors");
        let path = dir.join("rep.fdbs");
        assert!(matches!(load_rep(&path), Err(FdbError::SnapshotIo { .. })));
        let rep = sample_rep();
        save_rep_ctx(&rep, &path, &ExecCtx::unlimited()).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            load_rep(&path),
            Err(FdbError::SnapshotCorrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_cancelled_load_is_refused_before_the_file_is_read() {
        // The path does not exist: reading it would be `SnapshotIo`.
        let path = scratch_dir("cancelled").join("missing.fdbs");
        let raised = QueryLimits::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
        assert_eq!(
            load_rep_ctx(&path, &ExecCtx::new(&raised)).err(),
            Some(FdbError::DeadlineExceeded { limit_ms: 0 })
        );
        let lowered = QueryLimits::unlimited().with_cancel(Arc::new(AtomicBool::new(false)));
        assert!(matches!(
            load_rep_ctx(&path, &ExecCtx::new(&lowered)),
            Err(FdbError::SnapshotIo { .. })
        ));
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn version_skew_is_a_structured_mismatch() {
        // A version 1 file — the manifest, or a representation behind a
        // good manifest — is a mismatch, not something a second codec reads.
        let dir = scratch_dir("skew");
        let mut db = SharedDatabase::new();
        db.insert("base", sample_rep()).unwrap();
        save_database(&db, &dir).unwrap();
        for file in [rep_file_name(0), MANIFEST_FILE.to_string()] {
            let path = dir.join(file);
            let good = fs::read(&path).unwrap();
            let mut skewed = good.clone();
            assert_eq!(skewed[4..8], 2u32.to_le_bytes());
            skewed[4..8].copy_from_slice(&1u32.to_le_bytes());
            fs::write(&path, &skewed).unwrap();
            assert_eq!(
                load_database_ctx(&dir, &ExecCtx::unlimited()).err(),
                Some(FdbError::SnapshotVersionMismatch {
                    found: 1,
                    expected: 2
                }),
                "{}",
                path.display()
            );
            fs::write(&path, &good).unwrap();
        }
        assert!(load_database_ctx(&dir, &ExecCtx::unlimited()).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn database_round_trip_preserves_ids_names_and_content() {
        let dir = scratch_dir("db");
        let rep = sample_rep();
        let mut db = SharedDatabase::new();
        let first = db.insert("base", rep.clone()).unwrap();
        let second = db.insert("other", rep.clone()).unwrap();
        let third = db.insert("third", rep.clone()).unwrap();

        save_database(&db, &dir).unwrap();
        let loaded = load_database_ctx(&dir, &ExecCtx::unlimited()).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.find("base"), Some(first));
        assert_eq!(loaded.find("other"), Some(second));
        assert_eq!(loaded.name(third), Some("third"));
        for id in loaded.ids() {
            assert!(loaded.get(id).unwrap().store_identical(&rep));
            assert_eq!(loaded.epoch(id), Some(0), "a fresh load starts at epoch 0");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_manifests_are_rejected() {
        let dir = scratch_dir("manifest");
        let mut db = SharedDatabase::new();
        db.insert("base", sample_rep()).unwrap();
        save_database(&db, &dir).unwrap();

        let manifest = dir.join(MANIFEST_FILE);
        let good = fs::read(&manifest).unwrap();

        // A flipped byte anywhere in the manifest fails its checksum (or
        // the header decode) — never a panic, never a partial database.
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            fs::write(&manifest, &bad).unwrap();
            match load_database_ctx(&dir, &ExecCtx::unlimited()) {
                Err(
                    FdbError::SnapshotCorrupt { .. } | FdbError::SnapshotVersionMismatch { .. },
                ) => {}
                other => panic!("flip at {at}: expected structured corruption, got {other:?}"),
            }
        }

        // An entry pointing outside the directory is refused up front.
        fs::write(
            &manifest,
            encode_manifest(&[("evil".into(), "../rep-0.fdbs".into())]),
        )
        .unwrap();
        match load_database_ctx(&dir, &ExecCtx::unlimited()) {
            Err(FdbError::SnapshotCorrupt { detail }) => {
                assert!(detail.contains("escapes"), "unexpected detail: {detail}")
            }
            other => panic!("expected path-escape rejection, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
