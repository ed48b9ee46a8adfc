//! # rein-store
//!
//! The durable content-addressed cell-result store behind the grid's
//! crash-safe incremental execution (ROADMAP: "content-addressed
//! incremental evaluation"; DESIGN.md §6j).
//!
//! Results are keyed by the 16-hex FNV-1a-64 digest of a cell's
//! [`CellKey`] identity (`rein_core::cache_key`) and persisted under a
//! store root (conventionally `artifacts/store/`) as a **write-ahead
//! journal** of checksummed, length-prefixed, append-only records:
//!
//! ```text
//! file      := magic record*
//! magic     := "REINWAL1"                      (8 bytes)
//! record    := len:u32le checksum:u64le payload[len]
//! checksum  := FNV-1a-64 over the payload bytes
//! payload   := JSON of { key, coordinate, payload, aux }
//! ```
//!
//! A commit appends records and fsyncs, so a `kill -9` loses at most
//! the batch in flight. [`Store::open`] recovers: it scans each file,
//! verifies every checksum, truncates at the first torn or corrupt
//! record, and **quarantines** the bad bytes into `<root>/quarantine/`
//! with a structured `report.json` — never silent repair, because a
//! record that fails its checksum is evidence of a storage fault the
//! operator must see, and "fixing" it would hide exactly the corruption
//! a benchmark's provenance chain exists to surface. Recovery replays
//! the surviving records (duplicates resolve last-wins, so re-running
//! an interrupted grid is idempotent).
//!
//! When the active journal tail outgrows its rotation limit, open
//! compacts the full record set into a sealed `seg-NNNN.wal` segment
//! via the hardened atomic-write pattern ([`atomic_write`]: temp file +
//! fsync + rename + parent-directory fsync) and truncates the tail —
//! crash-safe at every step because the compacted segment is a
//! superset of what it replaces.
//!
//! All filesystem *reads* are confined to [`Store::open`]: the lookup
//! and commit paths used inside `Controller::run_grid` touch only the
//! in-memory index and the already-open journal handle, which keeps the
//! grid's `cache-key-completeness` purity certificate intact.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rein_ledger::fnv1a64;
use serde::{Deserialize, Serialize};

mod writer;

pub use rein_telemetry::{atomic_write, fsync_dir};
pub use writer::StoreWriter;

/// Journal file magic: identifies the format and its version.
pub const MAGIC: &[u8; 8] = b"REINWAL1";

/// The active journal tail's file name inside the store root.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Upper bound on one record's payload, rejecting absurd length
/// prefixes produced by corruption before they drive a huge allocation.
pub const MAX_RECORD_BYTES: u32 = 1 << 30;

/// Default rotation limit for the journal tail: once the tail exceeds
/// this many bytes at open, it is compacted into a sealed segment.
pub const DEFAULT_ROTATE_TAIL_BYTES: u64 = 1 << 20;

/// One stored cell result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredCell {
    /// The grid coordinate (`detect:…`, `repair:…#…`, `eval:…:…#…`).
    pub coordinate: String,
    /// The cell's serialized result — exactly the bytes
    /// `Controller::run_grid` puts in its cell map.
    pub payload: String,
    /// Auxiliary identity needed to key downstream cells without
    /// rehydrating the payload (for repair cells: the produced version's
    /// `content_identity`).
    pub aux: Option<String>,
}

/// One journal record: a [`StoredCell`] plus its content key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// 16-hex FNV-1a-64 digest of the cell's `CellKey` identity.
    pub key: String,
    /// Grid coordinate.
    pub coordinate: String,
    /// Serialized cell result.
    pub payload: String,
    /// Auxiliary identity (see [`StoredCell::aux`]).
    pub aux: Option<String>,
}

/// One quarantined stretch of journal bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Journal file name (relative to the store root).
    pub file: String,
    /// Byte offset where the bad record starts.
    pub offset: u64,
    /// Diagnosis: `bad-magic`, `torn-header`, `bad-length`,
    /// `torn-payload`, `checksum-mismatch` or `bad-payload`.
    pub reason: String,
    /// Quarantine blob file holding the removed bytes (relative to the
    /// store root).
    pub quarantined_as: String,
}

/// What one [`Store::open`] recovered.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Records replayed into the in-memory index (before last-wins
    /// deduplication).
    pub replayed: u64,
    /// Bad stretches quarantined by this open.
    pub quarantined: Vec<QuarantineEntry>,
}

/// Where a [`CrashPoint`] fires relative to a record's durable append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Abort before the record reaches the journal (the cell is lost
    /// and recomputed on resume).
    Before,
    /// Abort after the record is appended and fsynced (the cell
    /// survives and is a hit on resume).
    After,
}

struct Inner {
    cells: BTreeMap<String, StoredCell>,
    journal: File,
}

/// The durable cell-result store. Cheap to share behind an `Arc`:
/// lookups and commits take an internal lock, and commits only happen
/// at the grid's sequential merge points.
pub struct Store {
    root: PathBuf,
    inner: Mutex<Inner>,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .field("cells", &self.cell_count())
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl Store {
    /// Opens (creating if needed) the store at `root`, running recovery
    /// and — when the journal tail outgrew [`DEFAULT_ROTATE_TAIL_BYTES`]
    /// — atomic segment rotation.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Store> {
        Self::open_with_rotation(root, DEFAULT_ROTATE_TAIL_BYTES)
    }

    /// [`Store::open`] with an explicit tail rotation limit (tests).
    pub fn open_with_rotation(
        root: impl Into<PathBuf>,
        rotate_tail: u64,
    ) -> std::io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let mut report = RecoveryReport::default();
        let mut cells: BTreeMap<String, StoredCell> = BTreeMap::new();

        // Sealed segments first (oldest first), then the journal tail:
        // replay order is file order, and within a file record order, so
        // last-wins deduplication gives the newest committed value.
        let mut files = list_segments(&root)?;
        files.push(JOURNAL_FILE.to_string());
        for name in &files {
            recover_file(&root, name, &mut cells, &mut report)?;
        }

        // Atomic segment rotation: compact everything into a fresh
        // sealed segment, then truncate the tail. Crash-safe in every
        // interleaving — the compacted segment is a superset of the
        // files it replaces, and replay is last-wins idempotent.
        let journal_path = root.join(JOURNAL_FILE);
        let tail_len = std::fs::metadata(&journal_path).map(|m| m.len()).unwrap_or(0);
        if tail_len > rotate_tail && !cells.is_empty() {
            let next = 1 + list_segments(&root)?
                .iter()
                .filter_map(|n| segment_index(n))
                .max()
                .unwrap_or(0);
            let mut seg = Vec::from(&MAGIC[..]);
            for (key, cell) in &cells {
                let record = Record {
                    key: key.clone(),
                    coordinate: cell.coordinate.clone(),
                    payload: cell.payload.clone(),
                    aux: cell.aux.clone(),
                };
                append_frame(&mut seg, &record)?;
            }
            atomic_write(&root.join(format!("seg-{next:04}.wal")), &seg)?;
            atomic_write(&journal_path, MAGIC)?;
            for name in files.iter().filter(|n| *n != JOURNAL_FILE) {
                if segment_index(name).is_some_and(|i| i < next) {
                    let _ = std::fs::remove_file(root.join(name));
                }
            }
            fsync_dir(&root)?;
        } else if !journal_path.exists() {
            atomic_write(&journal_path, MAGIC)?;
        }

        if !report.quarantined.is_empty() {
            write_quarantine_report(&root, &report.quarantined)?;
        }

        let journal = std::fs::OpenOptions::new().append(true).open(&journal_path)?;
        rein_telemetry::counter("store_replayed").add(report.replayed);
        rein_telemetry::counter("store_quarantined").add(report.quarantined.len() as u64);
        Ok(Store { root, inner: Mutex::new(Inner { cells, journal }), recovery: report })
    }

    /// The store root directory.
    pub fn store_root(&self) -> &Path {
        &self.root
    }

    /// What this open's recovery replayed and quarantined.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Number of distinct cells currently in the index.
    pub fn cell_count(&self) -> usize {
        // audit:allow(panic, store lock poisoning only follows another panic)
        self.inner.lock().expect("store lock").cells.len()
    }

    /// Looks up a committed cell by its content key. Pure in-memory:
    /// no filesystem read happens outside [`Store::open`].
    pub fn lookup(&self, key: &str) -> Option<StoredCell> {
        // audit:allow(panic, store lock poisoning only follows another panic)
        self.inner.lock().expect("store lock").cells.get(key).cloned()
    }

    /// Commits every record staged in `writer` as one durable batch:
    /// the shards merge deterministically ([`StoreWriter::merge_shards`]),
    /// each record appends to the journal, and the batch fsyncs once.
    ///
    /// `crash` is the `REIN_CRASH` injection gate: when it returns a
    /// [`CrashPoint`] for a record's coordinate, the process aborts at
    /// exactly that commit point (after fsyncing what is already
    /// appended) — a faithful `kill -9` with no unwinding and no
    /// buffered-write flushing. Returns the number of records committed.
    pub fn commit_staged(
        &self,
        writer: &StoreWriter,
        crash: &dyn Fn(&str) -> Option<CrashPoint>,
    ) -> std::io::Result<usize> {
        let records = writer.merge_shards();
        if records.is_empty() {
            return Ok(0);
        }
        // audit:allow(panic, store lock poisoning only follows another panic)
        let mut inner = self.inner.lock().expect("store lock");
        let mut committed = 0usize;
        for record in records {
            let point = crash(&record.coordinate);
            if matches!(point, Some(CrashPoint::Before)) {
                inner.journal.sync_data()?;
                std::process::abort();
            }
            let mut frame = Vec::new();
            append_frame(&mut frame, &record)?;
            inner.journal.write_all(&frame)?;
            if matches!(point, Some(CrashPoint::After)) {
                inner.journal.sync_data()?;
                std::process::abort();
            }
            inner.cells.insert(
                record.key,
                StoredCell {
                    coordinate: record.coordinate,
                    payload: record.payload,
                    aux: record.aux,
                },
            );
            committed += 1;
        }
        inner.journal.sync_data()?;
        rein_telemetry::counter("store_commits").add(committed as u64);
        Ok(committed)
    }

    /// Convenience single-record commit (no crash injection).
    pub fn commit_one(
        &self,
        key: &str,
        coordinate: &str,
        payload: &str,
        aux: Option<&str>,
    ) -> std::io::Result<()> {
        let staged = StoreWriter::with_shards(1);
        staged.stage(key, coordinate, payload, aux);
        self.commit_staged(&staged, &|_| None).map(|_| ())
    }

    /// Path of the cumulative quarantine report.
    pub fn quarantine_report_path(root: &Path) -> PathBuf {
        root.join("quarantine").join("report.json")
    }
}

/// Sealed segment file names under `root`, sorted (oldest first).
fn list_segments(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if segment_index(&name).is_some() {
            out.push(name);
        }
    }
    out.sort();
    Ok(out)
}

/// `seg-0007.wal` → `Some(7)`.
fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".wal")?.parse().ok()
}

/// Serializes one record into the journal frame format, appending to
/// `out`.
fn append_frame(out: &mut Vec<u8>, record: &Record) -> std::io::Result<()> {
    let payload = serde_json::to_string(record)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let bytes = payload.as_bytes();
    if bytes.len() as u64 > MAX_RECORD_BYTES as u64 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("record payload of {} bytes exceeds MAX_RECORD_BYTES", bytes.len()),
        ));
    }
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(bytes).to_le_bytes());
    out.extend_from_slice(bytes);
    Ok(())
}

/// Recovers one journal file: replays the good prefix into `cells`,
/// quarantines the bad suffix (if any) and truncates the file back to
/// its good prefix via the atomic-write pattern.
fn recover_file(
    root: &Path,
    name: &str,
    cells: &mut BTreeMap<String, StoredCell>,
    report: &mut RecoveryReport,
) -> std::io::Result<()> {
    let path = root.join(name);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if bytes.is_empty() {
        return Ok(());
    }
    let scan = scan_file(&bytes);
    for record in scan.records {
        report.replayed += 1;
        cells.insert(
            record.key,
            StoredCell { coordinate: record.coordinate, payload: record.payload, aux: record.aux },
        );
    }
    if let Some((offset, reason)) = scan.bad {
        let blob_name = format!("quarantine/{name}.{offset}.bin");
        atomic_write(&root.join(&blob_name), &bytes[offset..])?;
        report.quarantined.push(QuarantineEntry {
            file: name.to_string(),
            offset: offset as u64,
            reason: reason.to_string(),
            quarantined_as: blob_name,
        });
        // Truncate back to the good prefix — atomically, so a crash
        // mid-recovery cannot make things worse. An all-bad file (bad
        // magic) resets to a fresh empty journal.
        let good = if scan.good_len >= MAGIC.len() { &bytes[..scan.good_len] } else { &MAGIC[..] };
        atomic_write(&path, good)?;
    }
    Ok(())
}

/// Outcome of scanning one journal file's bytes.
struct ScanOutcome {
    records: Vec<Record>,
    /// Byte length of the valid prefix (including magic).
    good_len: usize,
    /// First bad stretch: (offset, reason). Everything from `offset` on
    /// is untrustworthy — a corrupt length prefix poisons all later
    /// framing — so recovery truncates here.
    bad: Option<(usize, &'static str)>,
}

/// The recovery state machine over one file's bytes (DESIGN.md §6j):
/// validate magic, then walk frames; stop at the first torn or corrupt
/// record.
fn scan_file(bytes: &[u8]) -> ScanOutcome {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return ScanOutcome { records: Vec::new(), good_len: 0, bad: Some((0, "bad-magic")) };
    }
    let mut records = Vec::new();
    let mut offset = MAGIC.len();
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < 12 {
            return ScanOutcome { records, good_len: offset, bad: Some((offset, "torn-header")) };
        }
        // The 4- and 8-byte reads are bounds-checked by the
        // `remaining >= 12` guard above.
        let mut word = [0u8; 4];
        word.copy_from_slice(&bytes[offset..offset + 4]);
        let len = u32::from_le_bytes(word);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&bytes[offset + 4..offset + 12]);
        let checksum = u64::from_le_bytes(sum);
        if len > MAX_RECORD_BYTES {
            return ScanOutcome { records, good_len: offset, bad: Some((offset, "bad-length")) };
        }
        if remaining - 12 < len as usize {
            return ScanOutcome { records, good_len: offset, bad: Some((offset, "torn-payload")) };
        }
        let payload = &bytes[offset + 12..offset + 12 + len as usize];
        if fnv1a64(payload) != checksum {
            return ScanOutcome {
                records,
                good_len: offset,
                bad: Some((offset, "checksum-mismatch")),
            };
        }
        match serde_json::from_slice::<Record>(payload) {
            Ok(record) => records.push(record),
            // A checksum-valid but unparsable payload means writer
            // version skew or a writer bug — quarantine, never guess.
            Err(_) => {
                return ScanOutcome {
                    records,
                    good_len: offset,
                    bad: Some((offset, "bad-payload")),
                }
            }
        }
        offset += 12 + len as usize;
    }
    ScanOutcome { records, good_len: bytes.len(), bad: None }
}

/// Merges this recovery's quarantine entries into the cumulative
/// structured report at `quarantine/report.json` (atomic rewrite).
fn write_quarantine_report(root: &Path, fresh: &[QuarantineEntry]) -> std::io::Result<()> {
    let path = Store::quarantine_report_path(root);
    let mut entries: Vec<QuarantineEntry> = match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text).unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    for entry in fresh {
        if !entries.iter().any(|e| e.file == entry.file && e.offset == entry.offset) {
            entries.push(entry.clone());
        }
    }
    let json = serde_json::to_string_pretty(&entries)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    atomic_write(&path, json.as_bytes())
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "recovery tests tear journal files on purpose")]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rein-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn no_crash(_: &str) -> Option<CrashPoint> {
        None
    }

    #[test]
    fn commit_then_reopen_replays_every_cell() {
        let root = tmp_root("roundtrip");
        {
            let store = Store::open(&root).unwrap();
            assert_eq!(store.cell_count(), 0);
            let w = StoreWriter::with_shards(4);
            w.stage("aaaa", "detect:raha", "mask-bytes", None);
            w.stage("bbbb", "repair:mm#raha", "csv\nmask\nrowmap", Some("v:0123"));
            assert_eq!(store.commit_staged(&w, &no_crash).unwrap(), 2);
            assert_eq!(store.lookup("aaaa").unwrap().payload, "mask-bytes");
        }
        let store = Store::open(&root).unwrap();
        assert_eq!(store.cell_count(), 2);
        assert_eq!(store.recovery().replayed, 2);
        assert!(store.recovery().quarantined.is_empty());
        let cell = store.lookup("bbbb").unwrap();
        assert_eq!(cell.coordinate, "repair:mm#raha");
        assert_eq!(cell.aux.as_deref(), Some("v:0123"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_keys_replay_last_wins() {
        let root = tmp_root("lastwins");
        {
            let store = Store::open(&root).unwrap();
            store.commit_one("k", "detect:a", "old", None).unwrap();
            store.commit_one("k", "detect:a", "new", None).unwrap();
        }
        let store = Store::open(&root).unwrap();
        assert_eq!(store.cell_count(), 1);
        assert_eq!(store.lookup("k").unwrap().payload, "new");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_is_quarantined_and_truncated() {
        let root = tmp_root("torn");
        {
            let store = Store::open(&root).unwrap();
            store.commit_one("k1", "detect:a", "good", None).unwrap();
        }
        // Simulate a torn append: a partial frame at the tail.
        let path = root.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let good_len = bytes.len();
        bytes.extend_from_slice(&[7, 0, 0, 0, 1, 2]); // 6 bytes < 12-byte header
        std::fs::write(&path, &bytes).unwrap();

        let store = Store::open(&root).unwrap();
        assert_eq!(store.cell_count(), 1, "the good record survives");
        let q = &store.recovery().quarantined;
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].reason, "torn-header");
        assert_eq!(q[0].offset, good_len as u64);
        assert_eq!(std::fs::read(&path).unwrap().len(), good_len, "tail truncated");
        // The quarantined bytes and the structured report exist.
        assert!(root.join(&q[0].quarantined_as).exists());
        let report: Vec<QuarantineEntry> = serde_json::from_str(
            &std::fs::read_to_string(Store::quarantine_report_path(&root)).unwrap(),
        )
        .unwrap();
        assert_eq!(report, *q);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rotation_compacts_into_a_sealed_segment() {
        let root = tmp_root("rotate");
        {
            let store = Store::open(&root).unwrap();
            for i in 0..20 {
                store.commit_one(&format!("k{i}"), &format!("detect:d{i}"), "x", None).unwrap();
            }
        }
        // Tiny rotation limit forces compaction on reopen.
        let store = Store::open_with_rotation(&root, 16).unwrap();
        assert_eq!(store.cell_count(), 20);
        let segs = list_segments(&root).unwrap();
        assert_eq!(segs, vec!["seg-0001.wal".to_string()]);
        let tail = std::fs::read(root.join(JOURNAL_FILE)).unwrap();
        assert_eq!(tail, MAGIC, "tail truncated to a fresh journal");
        // Everything still replays from the sealed segment.
        let again = Store::open(&root).unwrap();
        assert_eq!(again.cell_count(), 20);
        assert_eq!(again.lookup("k7").unwrap().coordinate, "detect:d7");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_rejects_oversized_length_prefixes_without_allocating() {
        let mut bytes = Vec::from(&MAGIC[..]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"garbage");
        let scan = scan_file(&bytes);
        assert!(scan.records.is_empty());
        assert_eq!(scan.bad, Some((MAGIC.len(), "bad-length")));
    }

    #[test]
    fn bad_magic_quarantines_the_whole_file() {
        let root = tmp_root("badmagic");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join(JOURNAL_FILE), b"NOTAWAL!rest").unwrap();
        let store = Store::open(&root).unwrap();
        assert_eq!(store.cell_count(), 0);
        let q = &store.recovery().quarantined;
        assert_eq!(q.len(), 1);
        assert_eq!((q[0].offset, q[0].reason.as_str()), (0, "bad-magic"));
        assert_eq!(std::fs::read(root.join(JOURNAL_FILE)).unwrap(), MAGIC);
        let _ = std::fs::remove_dir_all(&root);
    }
}
