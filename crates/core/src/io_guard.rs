//! Crash-safe file IO for every artifact the stack persists: models,
//! checkpoints, datasets, reports.
//!
//! A bare `fs::write` can be interrupted mid-buffer, leaving a truncated
//! file that parses as garbage (or worse, parses *successfully* as a wrong
//! model). Everything here goes through the classic write-temp → fsync →
//! atomic-rename dance instead, so a reader only ever observes either the
//! old complete file or the new complete file:
//!
//! 1. the payload is written to `<path>.tmp` in the destination directory
//!    (same filesystem, so the rename is atomic),
//! 2. the temp file is fsynced (data reaches the disk before the name),
//! 3. `rename(temp, path)` publishes it atomically,
//! 4. the parent directory is fsynced (the rename itself is durable).
//!
//! Artifacts that must also *detect* corruption (checkpoints, models,
//! datasets, metrics) use the checksummed container: `payload ‖ footer`,
//! where the 24-byte footer is
//! `[magic "DPODSUM1"][payload_len u64 LE][fnv1a64(payload) u64 LE]`.
//! Reading is a file read followed by a pure check of the bytes
//! (`verify_checksummed`) that verifies magic, length, and checksum,
//! and reports a typed [`IoGuardError`] — never a panic and never
//! silently wrong bytes.
//!
//! Transient OS errors (`Interrupted`, `WouldBlock`, `TimedOut`) are
//! retried a bounded number of times with a deterministic backoff
//! schedule; everything else surfaces immediately.
//!
//! The `xtask check` rule `no-bare-fs-write` forbids `fs::write` /
//! `File::create` everywhere outside this module, so adopting the guard is
//! enforced mechanically, not by convention.

use std::fmt;
use std::fs::File;
use std::io::{ErrorKind, Read as _, Write as _};
use std::path::Path;

/// Magic bytes identifying the checksummed container footer (and its
/// version: bump the trailing digit on format changes).
pub const FOOTER_MAGIC: [u8; 8] = *b"DPODSUM1";

/// Size of the checksummed container footer in bytes.
pub const FOOTER_LEN: u64 = 24;

/// Transient-error retry schedule: attempt count and per-attempt backoff.
/// The delays are fixed constants, so retry behavior is deterministic.
const RETRY_BACKOFF_MS: [u64; 3] = [1, 4, 16];

/// Typed failures of the guarded IO layer. Everything carries the path so
/// callers can surface actionable messages without re-wrapping in strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoGuardError {
    /// An OS-level IO failure (after bounded retries for transient kinds).
    Io {
        /// File the operation targeted.
        path: String,
        /// What was being attempted (`"write"`, `"rename"`, ...).
        op: &'static str,
        /// The OS error, stringified.
        why: String,
    },
    /// The file is shorter than its footer claims (or than the footer
    /// itself) — the classic truncated-write signature.
    Truncated {
        /// Offending file.
        path: String,
        /// Actual file length in bytes.
        len: u64,
        /// Minimum length implied by the footer.
        need: u64,
    },
    /// The footer's magic bytes are absent: not a checksummed artifact, or
    /// the tail of the file was destroyed.
    BadMagic {
        /// Offending file.
        path: String,
    },
    /// The payload hash does not match the recorded checksum — the file
    /// was bit-flipped or partially overwritten.
    ChecksumMismatch {
        /// Offending file.
        path: String,
        /// Checksum recorded in the footer.
        expected: u64,
        /// Checksum of the bytes actually read.
        found: u64,
    },
}

impl IoGuardError {
    /// The path the failing operation targeted.
    pub fn path(&self) -> &str {
        match self {
            IoGuardError::Io { path, .. }
            | IoGuardError::Truncated { path, .. }
            | IoGuardError::BadMagic { path }
            | IoGuardError::ChecksumMismatch { path, .. } => path,
        }
    }

    /// Whether the error indicates a corrupt (rather than missing or
    /// OS-inaccessible) artifact.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            IoGuardError::Truncated { .. }
                | IoGuardError::BadMagic { .. }
                | IoGuardError::ChecksumMismatch { .. }
        )
    }
}

impl fmt::Display for IoGuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoGuardError::Io { path, op, why } => write!(f, "{op} {path}: {why}"),
            IoGuardError::Truncated { path, len, need } => write!(
                f,
                "{path}: truncated artifact ({len} bytes, footer implies >= {need})"
            ),
            IoGuardError::BadMagic { path } => {
                write!(
                    f,
                    "{path}: missing checksum footer (not a guarded artifact)"
                )
            }
            IoGuardError::ChecksumMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{path}: checksum mismatch (footer {expected:#018x}, payload {found:#018x}) — \
                 the file is corrupt"
            ),
        }
    }
}

impl std::error::Error for IoGuardError {}

/// FNV-1a 64-bit hash — dependency-free, byte-order independent, and fast
/// enough to checksum multi-megabyte checkpoints without registering on a
/// training profile.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn io_err(path: &Path, op: &'static str, e: &std::io::Error) -> IoGuardError {
    IoGuardError::Io {
        path: path.display().to_string(),
        op,
        why: e.to_string(),
    }
}

/// Registers the metric keys this module always reports, at zero, so "no
/// retries happened" is an observation rather than a missing key and
/// snapshot key sets stay identical across runs. Called once per process
/// from `RuntimeConfig::apply`.
pub fn register_metrics() {
    crate::obs::registry::counter_add("io_guard.writes", 0);
    crate::obs::registry::counter_add("io_guard.reads", 0);
    crate::obs::registry::counter_add("io_guard.retries", 0);
    crate::obs::registry::register_histogram("io_guard.write_bytes");
}

/// Runs an IO closure with bounded retries on transient error kinds and a
/// deterministic backoff schedule.
fn with_retry<T>(
    path: &Path,
    op: &'static str,
    mut attempt: impl FnMut() -> std::io::Result<T>,
) -> Result<T, IoGuardError> {
    // Only nonzero counts are added here; the key itself is materialized
    // eagerly by [`register_metrics`], so a clean run still reports
    // `io_guard.retries = 0` without this path faking an observation.
    let mut retries: u64 = 0;
    let report = |n: u64| {
        if n > 0 {
            crate::obs::registry::counter_add("io_guard.retries", n);
        }
    };
    let mut last: Option<std::io::Error> = None;
    for (tries, backoff_ms) in RETRY_BACKOFF_MS.iter().enumerate() {
        match attempt() {
            Ok(v) => {
                report(retries);
                return Ok(v);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
                ) =>
            {
                retries += 1;
                crate::obs::debug(
                    "io_guard",
                    "transient error, retrying",
                    &[
                        ("op", op.into()),
                        ("path", path.display().to_string().into()),
                        ("attempt", (tries + 1).into()),
                        ("why", e.to_string().into()),
                    ],
                );
                if tries + 1 < RETRY_BACKOFF_MS.len() {
                    std::thread::sleep(std::time::Duration::from_millis(*backoff_ms));
                }
                last = Some(e);
            }
            Err(e) => {
                report(retries);
                return Err(io_err(path, op, &e));
            }
        }
    }
    report(retries);
    let e = last.unwrap_or_else(|| std::io::Error::other("retry loop exhausted"));
    Err(io_err(path, op, &e))
}

/// Atomically replaces `path` with `bytes`: write temp → fsync → rename →
/// fsync dir. On any failure (or a crash at any point) the previous
/// content of `path` is still intact.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), IoGuardError> {
    deepod_tensor::failpoint::hit("io_guard::pre_write");
    crate::obs::registry::counter_inc("io_guard.writes");
    crate::obs::registry::observe("io_guard.write_bytes", bytes.len() as f64);
    let tmp = tmp_path(path);
    {
        // Covers create + write + fsync: the durability-critical stretch.
        let _fsync = crate::obs::TimingSpan::start("io_guard", "io_guard.fsync_ms");
        with_retry(&tmp, "write temp file for", || {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()
        })?;
    }
    // A crash here must leave the *target* untouched: only the `.tmp`
    // orphan may remain. The kill/resume suite arms this site to prove it.
    deepod_tensor::failpoint::hit("io_guard::pre_rename");
    with_retry(path, "rename into", || std::fs::rename(&tmp, path))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Directory fsync makes the rename itself durable. Platforms that
        // refuse to open directories (or to fsync them) don't get to block
        // the write — the data itself is already synced.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// String-payload convenience over [`atomic_write`].
pub fn atomic_write_str(path: &Path, text: &str) -> Result<(), IoGuardError> {
    atomic_write(path, text.as_bytes())
}

/// `payload ‖ footer`, where the footer records the payload length and
/// FNV-1a checksum.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + FOOTER_LEN as usize);
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&FOOTER_MAGIC);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    buf
}

/// Writes `payload ‖ footer` atomically. Pair with [`read_checksummed`].
pub fn write_checksummed(path: &Path, payload: &[u8]) -> Result<(), IoGuardError> {
    atomic_write(path, &seal(payload))
}

/// Reads a [`write_checksummed`] artifact and checks it with
/// `verify_checksummed`. Returns the payload bytes.
pub fn read_checksummed(path: &Path) -> Result<Vec<u8>, IoGuardError> {
    crate::obs::registry::counter_inc("io_guard.reads");
    let mut bytes = Vec::new();
    with_retry(path, "read", || {
        bytes.clear();
        File::open(path)?.read_to_end(&mut bytes).map(|_| ())
    })?;
    verify_checksummed(path, bytes)
}

/// Checks `payload ‖ footer` bytes read from `path` (which only names
/// the file in errors): footer magic, recorded length, and checksum.
/// Returns the payload; any inconsistency is a typed error, never a
/// panic and never silently wrong bytes.
fn verify_checksummed(path: &Path, mut bytes: Vec<u8>) -> Result<Vec<u8>, IoGuardError> {
    let disp = || path.display().to_string();
    let len = bytes.len() as u64;
    if len < FOOTER_LEN {
        return Err(IoGuardError::Truncated {
            path: disp(),
            len,
            need: FOOTER_LEN,
        });
    }
    let payload_end = (len - FOOTER_LEN) as usize;
    let footer = &bytes[payload_end..];
    if footer[..8] != FOOTER_MAGIC {
        return Err(IoGuardError::BadMagic { path: disp() });
    }
    let u64_at = |off: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&footer[off..off + 8]);
        u64::from_le_bytes(b)
    };
    let recorded_len = u64_at(8);
    let recorded_sum = u64_at(16);
    if recorded_len != payload_end as u64 {
        return Err(IoGuardError::Truncated {
            path: disp(),
            len,
            need: recorded_len.saturating_add(FOOTER_LEN),
        });
    }
    let found = fnv1a64(&bytes[..payload_end]);
    if found != recorded_sum {
        return Err(IoGuardError::ChecksumMismatch {
            path: disp(),
            expected: recorded_sum,
            found,
        });
    }
    bytes.truncate(payload_end);
    Ok(bytes)
}

/// The temp-file name used by [`atomic_write`]: `<file>.tmp` next to the
/// destination (same directory ⇒ same filesystem ⇒ atomic rename).
fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode_props::check_decoder;
    use proptest::prelude::*;

    fn temp_file(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("deepod_io_guard_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{tag}_{}.bin", std::process::id()))
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let p = temp_file("atomic");
        atomic_write(&p, b"first version").expect("write");
        assert_eq!(std::fs::read(&p).expect("read"), b"first version");
        atomic_write(&p, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&p).expect("read"), b"second");
        assert!(!tmp_path(&p).exists(), "temp file must not linger");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn checksummed_round_trip() {
        let p = temp_file("sum_ok");
        let payload = b"{\"model\": [1, 2, 3]}".to_vec();
        write_checksummed(&p, &payload).expect("write");
        assert_eq!(read_checksummed(&p).expect("read"), payload);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncation_detected_at_every_cut() {
        let p = temp_file("sum_trunc");
        write_checksummed(&p, b"payload bytes here").expect("write");
        let full = std::fs::read(&p).expect("read");
        for cut in [0, 1, full.len() / 2, full.len() - 1] {
            std::fs::write(&p, &full[..cut]).expect("truncate");
            let err = read_checksummed(&p).expect_err("must reject truncation");
            assert!(err.is_corruption(), "cut at {cut}: {err}");
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bit_flip_detected_anywhere_in_payload() {
        let p = temp_file("sum_flip");
        write_checksummed(&p, b"sensitive model weights").expect("write");
        let full = std::fs::read(&p).expect("read");
        for pos in [0, 5, full.len() - FOOTER_LEN as usize - 1] {
            let mut bad = full.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&p, &bad).expect("corrupt");
            let err = read_checksummed(&p).expect_err("must reject bit flip");
            assert!(
                matches!(err, IoGuardError::ChecksumMismatch { .. }),
                "pos {pos}: {err}"
            );
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn footer_magic_required() {
        let p = temp_file("sum_magic");
        std::fs::write(&p, vec![0u8; 64]).expect("write");
        let err = read_checksummed(&p).expect_err("no magic");
        assert_eq!(
            err,
            IoGuardError::BadMagic {
                path: p.display().to_string()
            }
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn missing_file_is_io_error_with_path() {
        let p = Path::new("/nonexistent/deepod/artifact.ckpt");
        let err = read_checksummed(p).expect_err("missing file");
        assert!(matches!(err, IoGuardError::Io { .. }));
        assert!(!err.is_corruption());
        assert_eq!(err.path(), p.display().to_string());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The container as a decoder of untrusted bytes: sealed payloads
        /// round-trip, every strict prefix is a typed error, and random
        /// or damaged bytes never panic the check.
        #[test]
        fn container_decoder_properties(
            payload in proptest::collection::vec(any::<u8>(), 0..96),
            seed in any::<u64>(),
        ) {
            let checked = check_decoder(
                seed,
                &payload,
                |p| seal(p),
                |bytes| verify_checksummed(Path::new("payload"), bytes.to_vec()),
                |_| Ok(()),
            );
            prop_assert!(checked.is_ok(), "{checked:?}");
        }
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn transient_errors_retry_then_succeed() {
        let mut calls = 0;
        let out = with_retry(Path::new("x"), "op", || {
            calls += 1;
            if calls < 3 {
                Err(std::io::Error::from(ErrorKind::Interrupted))
            } else {
                Ok(42)
            }
        })
        .expect("succeeds on third try");
        assert_eq!(out, 42);
        assert_eq!(calls, 3);
    }

    #[test]
    fn transient_errors_bounded() {
        let mut calls = 0;
        let err = with_retry(Path::new("x"), "op", || -> std::io::Result<()> {
            calls += 1;
            Err(std::io::Error::from(ErrorKind::WouldBlock))
        })
        .expect_err("gives up");
        assert_eq!(calls, RETRY_BACKOFF_MS.len());
        assert!(matches!(err, IoGuardError::Io { .. }));
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let mut calls = 0;
        let _ = with_retry(Path::new("x"), "op", || -> std::io::Result<()> {
            calls += 1;
            Err(std::io::Error::from(ErrorKind::NotFound))
        });
        assert_eq!(calls, 1);
    }
}
