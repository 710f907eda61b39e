//! The append-only `rr-sweep/v1` result ledger.
//!
//! A ledger is one JSONL file per sweep job:
//!
//! ```text
//! {"schema":"rr-sweep/v1",...,"grid":"<hex>","cells":N}   header (grid-bound)
//! {"experiment":...,"ok":true,...}                        record 0
//! {"experiment":...,"ok":true,...}                        record 1
//! ...
//! {"complete":true,"cells":N,"failures":F}                footer
//! ```
//!
//! A grid ledger's header is **bound to the grid's content**: alongside the
//! schema/engine preamble it carries the grid's content-address in hex and
//! its declared cell count (see
//! [`GridSpec::header`](crate::grid::GridSpec::header)).  Resume and cache
//! validation compare header lines byte-for-byte, so two grids that merely
//! share an experiment id and root seed can never be conflated.
//!
//! * **Append-only** — records are written in cell declaration order and
//!   never rewritten; a [`Ledger`] buffers out-of-order completions from
//!   sharded execution and flushes the contiguous prefix, so the bytes on
//!   disk are independent of the execution mode.  (Sharded workers claim
//!   the costliest cells first, which tend to be declared last, so a
//!   sharded run's durable prefix mostly fills near its end.)
//! * **Durable per record batch** — every flush of a contiguous batch ends
//!   in `fsync`; after a crash, everything up to the last fsync'd record is
//!   intact and anything beyond it is at most one torn line.
//! * **Resumable** — [`Ledger::open_or_create`] scans an existing file,
//!   drops a torn tail (truncating back to the last complete line), counts
//!   the durable records and resumes appending at the next cell.  Because
//!   per-cell seeds derive from the root seed and cell coordinates alone, a
//!   resumed ledger is **byte-identical** to an uninterrupted one — the
//!   property `crates/bench/tests/ledger_resume.rs` proves by truncating at
//!   arbitrary record boundaries.
//!
//! The footer is scanning metadata, not a record: its presence marks the
//! ledger complete (the condition for entering the result cache) and its
//! counters let `status`-style consumers answer "done? any failures?"
//! without parsing record JSON.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::sweep::SweepHeader;

/// Every footer line starts with these bytes (no record line can: record
/// objects open with their `experiment` field).
pub const FOOTER_PREFIX: &str = "{\"complete\":true,";

/// Renders the footer line for a completed ledger (no trailing newline).
#[must_use]
pub fn footer_line(cells: u64, failures: u64) -> String {
    format!("{{\"complete\":true,\"cells\":{cells},\"failures\":{failures}}}")
}

/// Parses a [`footer_line`] back into `(cells, failures)`.
#[must_use]
pub fn parse_footer(line: &str) -> Option<(u64, u64)> {
    let rest = line.strip_prefix(FOOTER_PREFIX)?;
    let rest = rest.strip_prefix("\"cells\":")?;
    let comma = rest.find(',')?;
    let cells = rest[..comma].parse().ok()?;
    let rest = rest[comma + 1..].strip_prefix("\"failures\":")?;
    let failures = rest.strip_suffix('}')?.parse().ok()?;
    Some((cells, failures))
}

/// Whether a durable record line reports a failed cell.
///
/// This is a *reliable* byte-level test, not a heuristic: the serializer
/// escapes every `"` inside string values as `\"`, so the unescaped byte
/// sequence `"ok":false` can only occur as the actual `ok` field.
#[must_use]
pub fn line_is_failure(line: &str) -> bool {
    line.contains("\"ok\":false")
}

/// What a scan of an on-disk ledger found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LedgerScan {
    /// The header line (without newline), when a complete one is present.
    pub header: Option<String>,
    /// Number of durable (newline-terminated) record lines.
    pub records: usize,
    /// Durable records with `"ok":false`.
    pub failures: u64,
    /// Byte length of the durable prefix: header + records (+ footer), i.e.
    /// the truncation point that discards a torn tail.
    pub durable_bytes: u64,
    /// The footer's `(cells, failures)` when the ledger is complete.
    pub footer: Option<(u64, u64)>,
}

impl LedgerScan {
    /// Whether the ledger carries a completion footer.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.footer.is_some()
    }
}

/// Scans a ledger file without modifying it.  A missing file scans as empty.
///
/// # Errors
///
/// Propagates I/O errors other than `NotFound`.
pub fn scan(path: &Path) -> io::Result<LedgerScan> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LedgerScan::default()),
        Err(e) => return Err(e),
    };
    let mut out = LedgerScan::default();
    let mut offset = 0u64;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        if line.last() != Some(&b'\n') {
            break; // torn tail: not durable
        }
        // A non-UTF-8 line means external corruption; treat it and
        // everything after it as not durable.
        let Ok(body) = std::str::from_utf8(&line[..line.len() - 1]) else {
            break;
        };
        if out.header.is_none() {
            out.header = Some(body.to_string());
        } else if let Some(footer) = parse_footer(body) {
            out.footer = Some(footer);
            offset += line.len() as u64;
            break; // nothing legal follows the footer
        } else {
            out.records += 1;
            if line_is_failure(body) {
                out.failures += 1;
            }
        }
        offset += line.len() as u64;
    }
    out.durable_bytes = offset;
    Ok(out)
}

/// The state [`Ledger::open_or_create`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerResume {
    /// The ledger did not exist (or held an incompatible header and was
    /// restarted from scratch).
    Fresh,
    /// `records` durable records were found; appending resumes at that cell.
    Partial {
        /// Durable records already present.
        records: usize,
    },
    /// The ledger carries its completion footer; nothing may be appended.
    Complete {
        /// The footer's cell count.
        cells: u64,
        /// The footer's failure count.
        failures: u64,
    },
}

/// An open, writable sweep ledger.
///
/// I/O errors during appends are surfaced by [`Ledger::append`]; the writer
/// never buffers a record as "written" before its bytes and an `fsync` have
/// succeeded.
#[derive(Debug)]
pub struct Ledger {
    file: File,
    path: PathBuf,
    /// Out-of-order completions waiting for their predecessors.
    pending: BTreeMap<usize, String>,
    /// The next cell index to hit the disk.
    next_cell: usize,
    failures: u64,
    complete: bool,
}

impl Ledger {
    /// Creates a fresh ledger at `path` (truncating any existing file),
    /// writing and fsyncing the header line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn create(path: &Path, header: &SweepHeader) -> io::Result<Ledger> {
        let mut file = File::create(path)?;
        file.write_all(header.to_json_line().as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        Ok(Ledger {
            file,
            path: path.to_path_buf(),
            pending: BTreeMap::new(),
            next_cell: 0,
            failures: 0,
            complete: false,
        })
    }

    /// Opens `path` for resumption, creating it when absent.
    ///
    /// An existing file is scanned: a torn tail is truncated away, and the
    /// header must byte-match `header` — a mismatch (schema or engine
    /// version drift, a different experiment's ledger at this path, or a
    /// different *grid shape* when the header carries its grid binding) is
    /// **not** resumable, and the ledger restarts from scratch, because
    /// records produced by a different engine version or a different grid
    /// must never be mixed into one ledger.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn open_or_create(path: &Path, header: &SweepHeader) -> io::Result<(Ledger, LedgerResume)> {
        let found = scan(path)?;
        if found.header.as_deref() != Some(header.to_json_line().as_str()) {
            return Ok((Ledger::create(path, header)?, LedgerResume::Fresh));
        }
        if let Some((cells, failures)) = found.footer {
            let file = OpenOptions::new().read(true).open(path)?;
            return Ok((
                Ledger {
                    file,
                    path: path.to_path_buf(),
                    pending: BTreeMap::new(),
                    next_cell: found.records,
                    failures: found.failures,
                    complete: true,
                },
                LedgerResume::Complete { cells, failures },
            ));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(found.durable_bytes)?;
        file.seek(SeekFrom::End(0))?;
        file.sync_data()?;
        Ok((
            Ledger {
                file,
                path: path.to_path_buf(),
                pending: BTreeMap::new(),
                next_cell: found.records,
                failures: found.failures,
                complete: false,
            },
            LedgerResume::Partial {
                records: found.records,
            },
        ))
    }

    /// The ledger's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durable records written so far (excluding buffered out-of-order
    /// completions).
    #[must_use]
    pub fn records(&self) -> usize {
        self.next_cell
    }

    /// Durable records with `"ok":false`, including any resumed prefix.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Accepts the record for `cell`, writing and fsyncing the contiguous
    /// batch it completes (records reach the disk strictly in cell order).
    /// Returns the number of records made durable by this call.
    ///
    /// # Errors
    ///
    /// Propagates write errors; the record is not counted as durable.
    ///
    /// # Panics
    ///
    /// Panics when appending to a completed ledger or re-appending a cell —
    /// both are caller logic errors, never data-dependent.
    pub fn append<T: Serialize>(&mut self, cell: usize, record: &T) -> io::Result<usize> {
        let line = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.append_line(cell, line)
    }

    /// [`Ledger::append`] for an already-serialized record line (no trailing
    /// newline).
    ///
    /// # Errors
    /// # Panics
    ///
    /// As for [`Ledger::append`].
    pub fn append_line(&mut self, cell: usize, line: String) -> io::Result<usize> {
        assert!(!self.complete, "append to a completed ledger");
        assert!(
            cell >= self.next_cell && !self.pending.contains_key(&cell),
            "cell {cell} appended twice"
        );
        self.pending.insert(cell, line);
        let mut flushed = 0usize;
        while let Some(line) = self.pending.remove(&self.next_cell) {
            self.file.write_all(line.as_bytes())?;
            self.file.write_all(b"\n")?;
            if line_is_failure(&line) {
                self.failures += 1;
            }
            self.next_cell += 1;
            flushed += 1;
        }
        if flushed > 0 {
            self.file.sync_data()?;
        }
        Ok(flushed)
    }

    /// Writes and fsyncs the completion footer.  All cells must have been
    /// appended (no buffered out-of-order records may remain).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    ///
    /// # Panics
    ///
    /// Panics when out-of-order records are still buffered.
    pub fn finish(&mut self) -> io::Result<()> {
        assert!(
            self.pending.is_empty(),
            "finish with {} records still buffered",
            self.pending.len()
        );
        if self.complete {
            return Ok(());
        }
        let footer = footer_line(self.next_cell as u64, self.failures);
        self.file.write_all(footer.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()?;
        self.complete = true;
        Ok(())
    }
}

/// Reads the complete lines appended to `path` since byte `offset`,
/// returning them with the new durable offset — the incremental read the
/// `rr-sweep tail` client loops on.  A torn tail is left for the next call.
///
/// # Errors
///
/// Propagates I/O errors; a missing file reads as no new lines.
pub fn read_new_lines(path: &Path, offset: u64) -> io::Result<(Vec<String>, u64)> {
    let mut file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), offset)),
        Err(e) => return Err(e),
    };
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    let mut lines = Vec::new();
    let mut consumed = 0u64;
    for line in buf.split_inclusive(|&b| b == b'\n') {
        if line.last() != Some(&b'\n') {
            break;
        }
        let Ok(body) = std::str::from_utf8(&line[..line.len() - 1]) else {
            break;
        };
        lines.push(body.to_string());
        consumed += line.len() as u64;
    }
    Ok((lines, offset + consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rr-ledger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[derive(Serialize)]
    struct Rec {
        experiment: String,
        cell: usize,
        ok: bool,
    }

    fn rec(cell: usize, ok: bool) -> Rec {
        Rec {
            experiment: "T".into(),
            cell,
            ok,
        }
    }

    #[test]
    fn footer_roundtrip() {
        assert_eq!(parse_footer(&footer_line(12, 3)), Some((12, 3)));
        assert_eq!(
            parse_footer("{\"complete\":true,\"cells\":0,\"failures\":0}"),
            Some((0, 0))
        );
        assert_eq!(parse_footer("{\"experiment\":\"E6\"}"), None);
    }

    #[test]
    fn out_of_order_appends_land_in_cell_order_and_scan_back() {
        let path = tmp("ooo.jsonl");
        let header = SweepHeader::new("T", 7);
        let mut ledger = Ledger::create(&path, &header).unwrap();
        assert_eq!(ledger.append(2, &rec(2, false)).unwrap(), 0);
        assert_eq!(ledger.append(0, &rec(0, true)).unwrap(), 1);
        assert_eq!(ledger.append(1, &rec(1, true)).unwrap(), 2);
        ledger.finish().unwrap();

        let found = scan(&path).unwrap();
        assert_eq!(
            found.header.as_deref(),
            Some(header.to_json_line().as_str())
        );
        assert_eq!(found.records, 3);
        assert_eq!(found.failures, 1);
        assert_eq!(found.footer, Some((3, 1)));
        let text = std::fs::read_to_string(&path).unwrap();
        let cells: Vec<&str> = text.lines().skip(1).take(3).collect();
        assert!(cells[0].contains("\"cell\":0"));
        assert!(cells[1].contains("\"cell\":1"));
        assert!(cells[2].contains("\"cell\":2"));
    }

    #[test]
    fn torn_tail_is_truncated_on_resume() {
        let path = tmp("torn.jsonl");
        let header = SweepHeader::new("T", 7);
        let mut ledger = Ledger::create(&path, &header).unwrap();
        ledger.append(0, &rec(0, true)).unwrap();
        ledger.append(1, &rec(1, true)).unwrap();
        drop(ledger);
        let full = std::fs::read(&path).unwrap();
        // Tear mid-line: keep record 0 plus half of record 1.
        let cut = full.len() - 5;
        std::fs::write(&path, &full[..cut]).unwrap();

        let (mut ledger, resume) = Ledger::open_or_create(&path, &header).unwrap();
        assert_eq!(resume, LedgerResume::Partial { records: 1 });
        ledger.append(1, &rec(1, true)).unwrap();
        ledger.finish().unwrap();
        let reread = std::fs::read(&path).unwrap();
        let mut expected = full;
        expected.extend_from_slice(footer_line(2, 0).as_bytes());
        expected.push(b'\n');
        assert_eq!(reread, expected);
    }

    #[test]
    fn header_mismatch_restarts_the_ledger() {
        let path = tmp("mismatch.jsonl");
        let mut ledger = Ledger::create(&path, &SweepHeader::new("OLD", 7)).unwrap();
        ledger.append(0, &rec(0, true)).unwrap();
        drop(ledger);
        let header = SweepHeader::new("NEW", 7);
        let (_, resume) = Ledger::open_or_create(&path, &header).unwrap();
        assert_eq!(resume, LedgerResume::Fresh);
        let found = scan(&path).unwrap();
        assert_eq!(found.records, 0);
        assert_eq!(
            found.header.as_deref(),
            Some(header.to_json_line().as_str())
        );
    }

    #[test]
    fn complete_ledger_resumes_as_complete() {
        let path = tmp("complete.jsonl");
        let header = SweepHeader::new("T", 7);
        let mut ledger = Ledger::create(&path, &header).unwrap();
        ledger.append(0, &rec(0, true)).unwrap();
        ledger.finish().unwrap();
        let (_, resume) = Ledger::open_or_create(&path, &header).unwrap();
        assert_eq!(
            resume,
            LedgerResume::Complete {
                cells: 1,
                failures: 0
            }
        );
    }

    #[test]
    fn read_new_lines_streams_incrementally() {
        let path = tmp("tail.jsonl");
        let header = SweepHeader::new("T", 7);
        let mut ledger = Ledger::create(&path, &header).unwrap();
        let (lines, offset) = read_new_lines(&path, 0).unwrap();
        assert_eq!(lines.len(), 1); // header
        ledger.append(0, &rec(0, true)).unwrap();
        let (lines, offset) = read_new_lines(&path, offset).unwrap();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"cell\":0"));
        let (lines, _) = read_new_lines(&path, offset).unwrap();
        assert!(lines.is_empty());
    }
}
