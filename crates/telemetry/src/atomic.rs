//! The hardened atomic-write primitive for every durable artifact: the
//! store's journal segments, the repository's CSV persistence, run
//! manifests, the ledger index and trace exports, and bench reports. It
//! lives in this leaf crate so all of them share one implementation.
//!
//! The classic temp-file + rename pattern guarantees the *name* flips
//! atomically, but not that the *bytes* behind it are durable: after a
//! power loss the filesystem may replay the rename without the data
//! blocks, leaving a correctly-named empty or torn file. The full
//! sequence is therefore
//!
//! 1. write the bytes to a temp file in the same directory,
//! 2. `fsync` the temp file (data + metadata reach the disk),
//! 3. `rename` it over the target (atomic name flip),
//! 4. `fsync` the parent directory (the directory entry itself is
//!    durable).
//!
//! Steps 2 and 4 are the hardening this module adds over the repo's
//! original pattern (DESIGN.md §6j).

use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Atomically and durably replaces `path` with `bytes`. A crash at any
/// point leaves either the old content or the new content — never a
/// torn or empty file surviving the next mount.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    std::fs::create_dir_all(&dir)?;
    let stem = path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let tmp = dir.join(format!("{stem}.tmp-{}", std::process::id()));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        fsync_dir(&dir)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Fsyncs a directory so renames and creations inside it are durable.
/// Directories open read-only on Unix; on platforms where opening a
/// directory fails the rename is still atomic, just not power-loss
/// durable, so the error is surfaced rather than swallowed only when
/// the open itself succeeded.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        // Opening a directory handle is not supported everywhere; the
        // rename above was still atomic, so degrade gracefully.
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rein-telemetry-atomic-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_files() {
        let root = tmp_root("replace");
        let target = root.join("data.bin");
        atomic_write(&target, b"first").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"first");
        atomic_write(&target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn atomic_write_creates_missing_parent_directories() {
        let root = tmp_root("mkdirs");
        let target = root.join("a/b/c.bin");
        atomic_write(&target, b"deep").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"deep");
        let _ = std::fs::remove_dir_all(&root);
    }
}
