//! Durable job journal: append-only crash log for the service daemon.
//!
//! Every lifecycle transition the daemon makes is appended here as one
//! framed record, so a daemon restarted with the same `--journal` path
//! can reconstruct what it owed its clients at the moment it died:
//! jobs that had reached a terminal state are served from their logged
//! snapshot (no recompute), and jobs caught mid-flight are re-admitted
//! — safe because planning and simulation are deterministic, so the
//! re-run produces bit-identical results (`tests/service_chaos.rs`
//! pins this).
//!
//! # Frame format
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes of JSON]
//! ```
//!
//! The CRC-32 (IEEE, the zlib polynomial) covers only the payload. A
//! record is valid iff its full frame is present and the checksum
//! matches; recovery scans from the start and **truncates the file at
//! the first invalid frame**, which is exactly the torn-final-write a
//! crash mid-append leaves behind. Records after a torn frame are
//! unreachable anyway — the daemon only ever appends — so truncation
//! never discards committed history.
//!
//! # Record kinds
//!
//! * `{"rec":"submitted","id":…,"at_ns":…,"tenant":…,"request":{…}}` —
//!   a job was accepted; carries the full request so recovery can
//!   re-admit it. Journals written before this format also carry a
//!   `"fingerprint"` field; replay ignores it (the CRC already guards
//!   each frame), so they recover unchanged.
//! * `{"rec":"transition","id":…,"status":…,"at_ns":…}` — a
//!   non-terminal lifecycle edge (bookkeeping/debugging; recovery only
//!   needs it to know the job was still in flight).
//! * `{"rec":"terminal","id":…,"status":…,"at_ns":…,"snapshot":{…}}` —
//!   a terminal edge; embeds the complete snapshot (request, plan spec,
//!   sim results) so a restarted daemon answers `status`/`await` for
//!   finished jobs without recomputing anything.
//!
//! Replay folds records per job id, last record wins — replaying a
//! journal that already contains several crash/recover generations is
//! idempotent.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use astra_telemetry::Telemetry;
use serde_json::{json, Value};

use crate::types::{JobId, JobRequest, JobSnapshot, JobStatus};
use crate::wire;

/// Frame header size: length + checksum, both little-endian u32.
const HEADER_BYTES: u64 = 8;
/// Refuse absurd frames so a corrupt length field cannot make recovery
/// attempt a multi-gigabyte allocation. Generous vs. real records
/// (a large snapshot is a few hundred KiB).
const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    })
}

/// CRC-32 (IEEE) of `bytes` — the framing checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// One job reconstructed from replay.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The id the dead daemon assigned; preserved across restart.
    pub id: JobId,
    /// The full request, decoded from its `submitted` record.
    pub request: JobRequest,
    /// The last status the journal saw for this job.
    pub last_status: JobStatus,
    /// The logged terminal snapshot, when the job finished before the
    /// crash. `None` means the job was mid-flight and must be re-run.
    pub terminal: Option<JobSnapshot>,
}

/// The outcome of replaying a journal at startup.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Every job the journal knows about, in id order.
    pub jobs: Vec<RecoveredJob>,
    /// Valid records replayed.
    pub records: u64,
    /// Bytes cut from a torn/corrupt tail (0 for a clean log).
    pub truncated_bytes: u64,
}

impl JournalRecovery {
    /// Jobs that were mid-flight at crash time and need re-admission.
    pub fn in_flight(&self) -> impl Iterator<Item = &RecoveredJob> {
        self.jobs.iter().filter(|j| j.terminal.is_none())
    }

    /// The largest job id seen (so the restarted daemon can continue
    /// the id sequence without collisions).
    pub fn max_id(&self) -> Option<JobId> {
        self.jobs.last().map(|j| j.id)
    }
}

/// An open, append-only journal. Cheap to share behind the daemon's
/// `Arc`; appends serialize on an internal mutex and each record is
/// flushed before the call returns.
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
    telemetry: Telemetry,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    /// Open (creating if absent) the journal at `path`, replay every
    /// valid record, truncate a torn tail, and return the journal
    /// positioned for appending plus what was recovered.
    pub fn open(path: &Path, telemetry: Telemetry) -> io::Result<(Journal, JournalRecovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let recovery = replay(&mut file, &telemetry)?;
        telemetry.counter("service.journal.replayed", recovery.records);
        telemetry.counter("service.journal.recovered_jobs", recovery.jobs.len() as u64);
        if recovery.truncated_bytes > 0 {
            telemetry.counter("service.journal.truncated_bytes", recovery.truncated_bytes);
        }
        Ok((
            Journal {
                file: Mutex::new(file),
                path: path.to_path_buf(),
                telemetry,
            },
            recovery,
        ))
    }

    /// The path this journal appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Log an accepted submission (the full request).
    pub fn record_submitted(&self, id: JobId, request: &JobRequest, at_ns: u64) {
        self.append(&json!({
            "rec": "submitted",
            "id": id,
            "at_ns": at_ns,
            "tenant": request.tenant.clone(),
            "request": wire::job_request_to_json(request),
        }));
    }

    /// Log a lifecycle transition. Terminal transitions embed the full
    /// snapshot so a restart can serve the result without recompute.
    pub fn record_transition(&self, snap: &JobSnapshot) {
        let at_ns = snap.history.last().map(|&(_, t)| t).unwrap_or(0);
        let record = if snap.status.is_terminal() {
            json!({
                "rec": "terminal",
                "id": snap.id,
                "status": snap.status.as_str(),
                "at_ns": at_ns,
                "snapshot": wire::snapshot_to_journal_json(snap),
            })
        } else {
            json!({
                "rec": "transition",
                "id": snap.id,
                "status": snap.status.as_str(),
                "at_ns": at_ns,
            })
        };
        self.append(&record);
    }

    fn append(&self, record: &Value) {
        let payload = record.to_string().into_bytes();
        let len = payload.len() as u32;
        let crc = crc32(&payload);
        let mut frame = Vec::with_capacity(payload.len() + HEADER_BYTES as usize);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut file = self.file.lock().expect("journal lock poisoned");
        // A failed append must not take the daemon down — the journal
        // degrades to best-effort and the in-memory table stays
        // authoritative for this process's lifetime.
        if file.write_all(&frame).and_then(|()| file.flush()).is_err() {
            self.telemetry.counter("service.journal.append_errors", 1);
            return;
        }
        self.telemetry.counter("service.journal.appends", 1);
    }
}

/// Scan `file` from the start, folding valid records into per-job
/// state; truncate at the first invalid frame and leave the cursor at
/// the new end.
fn replay(file: &mut File, _telemetry: &Telemetry) -> io::Result<JournalRecovery> {
    let total = file.seek(SeekFrom::End(0))?;
    file.seek(SeekFrom::Start(0))?;
    let mut bytes = Vec::with_capacity(total.min(16 * 1024 * 1024) as usize);
    file.read_to_end(&mut bytes)?;

    let mut offset: u64 = 0;
    let mut records = 0u64;
    // id → (request record, last status, terminal snapshot)
    let mut table: BTreeMap<JobId, (Option<JobRequest>, JobStatus, Option<JobSnapshot>)> =
        BTreeMap::new();

    loop {
        let rest = &bytes[offset as usize..];
        if rest.is_empty() {
            break;
        }
        let Some(frame) = decode_frame(rest) else {
            break;
        };
        let Some(record) = parse_record(frame) else {
            break;
        };
        apply_record(&mut table, record);
        records += 1;
        offset += HEADER_BYTES + frame.len() as u64;
    }

    let truncated_bytes = total - offset;
    if truncated_bytes > 0 {
        file.set_len(offset)?;
    }
    file.seek(SeekFrom::Start(offset))?;

    let jobs = table
        .into_iter()
        .filter_map(|(id, (request, last_status, terminal))| {
            // A transition whose `submitted` record was torn away has
            // no request to re-admit; drop it (cannot happen for a
            // journal written by this module, which always logs
            // `submitted` first, but a truncated older generation
            // could theoretically surface one).
            let request = request.or_else(|| terminal.as_ref().map(|s| s.request.clone()))?;
            Some(RecoveredJob {
                id,
                request,
                last_status,
                terminal,
            })
        })
        .collect();

    Ok(JournalRecovery {
        jobs,
        records,
        truncated_bytes,
    })
}

/// The payload of the frame at the head of `bytes`, or `None` if the
/// frame is incomplete or fails its checksum.
fn decode_frame(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < HEADER_BYTES as usize {
        return None;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if len > MAX_FRAME_BYTES {
        return None;
    }
    let end = HEADER_BYTES as usize + len as usize;
    if bytes.len() < end {
        return None;
    }
    let payload = &bytes[HEADER_BYTES as usize..end];
    if crc32(payload) != crc {
        return None;
    }
    Some(payload)
}

enum Record {
    Submitted { id: JobId, request: Box<JobRequest> },
    Transition { id: JobId, status: JobStatus },
    Terminal { snapshot: Box<JobSnapshot> },
}

/// Decode one record payload; `None` poisons the rest of the log (the
/// scan stops and truncates here), which is the safe reading of a
/// record this version cannot parse.
fn parse_record(payload: &[u8]) -> Option<Record> {
    let text = std::str::from_utf8(payload).ok()?;
    let value: Value = serde_json::from_str(text).ok()?;
    let object = value.as_object()?;
    let id = object.get("id")?.as_u64()?;
    match object.get("rec")?.as_str()? {
        "submitted" => {
            let request = wire::job_request_from_json(object.get("request")?).ok()?;
            Some(Record::Submitted {
                id,
                request: Box::new(request),
            })
        }
        "transition" => {
            let status = JobStatus::parse(object.get("status")?.as_str()?)?;
            Some(Record::Transition { id, status })
        }
        "terminal" => {
            let snapshot = wire::snapshot_from_journal_json(object.get("snapshot")?).ok()?;
            if snapshot.id != id || !snapshot.status.is_terminal() {
                return None;
            }
            Some(Record::Terminal {
                snapshot: Box::new(snapshot),
            })
        }
        _ => None,
    }
}

fn apply_record(
    table: &mut BTreeMap<JobId, (Option<JobRequest>, JobStatus, Option<JobSnapshot>)>,
    record: Record,
) {
    match record {
        Record::Submitted { id, request } => {
            let entry = table.entry(id).or_insert((None, JobStatus::Accepted, None));
            entry.0 = Some(*request);
            // A fresh `submitted` for an id we already saw means a
            // prior generation re-admitted it; reset to in-flight.
            entry.1 = JobStatus::Accepted;
            entry.2 = None;
        }
        Record::Transition { id, status } => {
            let entry = table.entry(id).or_insert((None, JobStatus::Accepted, None));
            entry.1 = status;
        }
        Record::Terminal { snapshot } => {
            let entry = table
                .entry(snapshot.id)
                .or_insert((None, JobStatus::Accepted, None));
            entry.1 = snapshot.status;
            entry.2 = Some(*snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_core::Objective;
    use astra_model::{JobSpec, WorkloadProfile};

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("astra-journal-{tag}-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn request(n: usize) -> JobRequest {
        JobRequest {
            name: format!("job-{n}"),
            tenant: "acme".to_string(),
            job: JobSpec::uniform(format!("job-{n}"), n, 64.0, WorkloadProfile::uniform_test()),
            objective: Objective::cheapest(),
            sim: crate::types::SimOptions::default(),
        }
    }

    fn terminal_snapshot(id: JobId, n: usize) -> JobSnapshot {
        JobSnapshot {
            id,
            request: request(n),
            status: JobStatus::Done,
            history: vec![
                (JobStatus::Accepted, 10),
                (JobStatus::Planned, 20),
                (JobStatus::Done, 30),
            ],
            reason: None,
            plan: None,
            sim: None,
            metrics: crate::types::JobMetrics::default(),
            session_cache_hit: false,
            retry_after_ms: None,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_recovers_submitted_and_terminal_jobs() {
        let path = temp_path("roundtrip");
        {
            let (journal, recovery) =
                Journal::open(&path, Telemetry::disabled()).expect("open fresh");
            assert!(recovery.jobs.is_empty());
            journal.record_submitted(1, &request(4), 10);
            journal.record_submitted(2, &request(6), 11);
            let done = terminal_snapshot(1, 4);
            journal.record_transition(&done);
        }
        let (_journal, recovery) = Journal::open(&path, Telemetry::disabled()).expect("reopen");
        assert_eq!(recovery.records, 3);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.jobs.len(), 2);
        assert_eq!(recovery.max_id(), Some(2));
        let job1 = &recovery.jobs[0];
        assert_eq!(job1.id, 1);
        assert_eq!(job1.last_status, JobStatus::Done);
        let snap = job1.terminal.as_ref().expect("terminal snapshot");
        assert_eq!(snap.request, request(4));
        let job2 = &recovery.jobs[1];
        assert_eq!(job2.id, 2);
        assert!(job2.terminal.is_none());
        assert_eq!(job2.request, request(6));
        assert_eq!(recovery.in_flight().count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_at_last_valid_frame() {
        let path = temp_path("torn");
        {
            let (journal, _) = Journal::open(&path, Telemetry::disabled()).expect("open");
            journal.record_submitted(1, &request(4), 10);
            journal.record_submitted(2, &request(6), 11);
        }
        let clean_len = std::fs::metadata(&path).expect("metadata").len();
        // Simulate a crash mid-append: a frame header plus half a
        // payload.
        {
            let mut file = OpenOptions::new().append(true).open(&path).expect("append");
            let torn = json!({"rec": "transition", "id": 2, "status": "PLANNED", "at_ns": 12})
                .to_string()
                .into_bytes();
            let mut frame = Vec::new();
            frame.extend_from_slice(&(torn.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(&torn).to_le_bytes());
            frame.extend_from_slice(&torn[..torn.len() / 2]);
            file.write_all(&frame).expect("write torn frame");
        }
        let (journal, recovery) = Journal::open(&path, Telemetry::disabled()).expect("recover");
        assert_eq!(recovery.records, 2);
        assert!(recovery.truncated_bytes > 0);
        assert_eq!(recovery.jobs.len(), 2);
        assert_eq!(
            std::fs::metadata(&path).expect("metadata").len(),
            clean_len,
            "file truncated back to the last valid frame"
        );
        // Appends after recovery land at the truncation point.
        journal.record_submitted(3, &request(8), 13);
        drop(journal);
        let (_journal, recovery) = Journal::open(&path, Telemetry::disabled()).expect("reopen");
        assert_eq!(recovery.records, 3);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.max_id(), Some(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checksum_poisons_the_tail() {
        let path = temp_path("corrupt");
        {
            let (journal, _) = Journal::open(&path, Telemetry::disabled()).expect("open");
            journal.record_submitted(1, &request(4), 10);
            journal.record_submitted(2, &request(6), 11);
            journal.record_submitted(3, &request(8), 12);
        }
        // Flip one payload byte in the middle record.
        let mut bytes = std::fs::read(&path).expect("read");
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second_payload_start = 8 + first_len + 8;
        bytes[second_payload_start + 4] ^= 0xff;
        std::fs::write(&path, &bytes).expect("rewrite");

        let (_journal, recovery) = Journal::open(&path, Telemetry::disabled()).expect("recover");
        // Only the first record survives; the corrupt one and
        // everything after it is discarded.
        assert_eq!(recovery.records, 1);
        assert!(recovery.truncated_bytes > 0);
        assert_eq!(recovery.jobs.len(), 1);
        assert_eq!(recovery.jobs[0].id, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resubmitted_record_resets_terminal_state() {
        // A later `submitted` for the same id (a prior recovery
        // generation re-admitting the job) must put it back in flight.
        let path = temp_path("resubmit");
        {
            let (journal, _) = Journal::open(&path, Telemetry::disabled()).expect("open");
            journal.record_submitted(1, &request(4), 10);
            journal.record_transition(&terminal_snapshot(1, 4));
            journal.record_submitted(1, &request(4), 20);
        }
        let (_journal, recovery) = Journal::open(&path, Telemetry::disabled()).expect("recover");
        assert_eq!(recovery.jobs.len(), 1);
        assert!(recovery.jobs[0].terminal.is_none());
        assert_eq!(recovery.jobs[0].last_status, JobStatus::Accepted);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn submitted_frames_with_the_old_fingerprint_field_still_replay() {
        // Journals written before the field was dropped carry a
        // `"fingerprint"` key in every `submitted` record.
        let path = temp_path("old-fingerprint");
        let payload = json!({
            "rec": "submitted",
            "id": 7,
            "at_ns": 10,
            "tenant": request(4).tenant,
            "fingerprint": "8c3f0e51d2a4b697",
            "request": wire::job_request_to_json(&request(4)),
        })
        .to_string()
        .into_bytes();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        std::fs::write(&path, &frame).expect("write old-format frame");

        let (_journal, recovery) = Journal::open(&path, Telemetry::disabled()).expect("recover");
        assert_eq!(recovery.records, 1);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.jobs.len(), 1);
        assert_eq!(recovery.jobs[0].id, 7);
        assert_eq!(recovery.jobs[0].request, request(4));
        assert_eq!(recovery.in_flight().count(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
