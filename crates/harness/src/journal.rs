//! The two append-only journals: the resumable run journal and the
//! `das-serve` service journal.
//!
//! Both are one log: line 1 is a `{"<kind>":version,...}` header and every
//! later line one JSON record, written with its newline and fsync'd, so a
//! crash loses at most the record in flight. A final line without its
//! newline is *torn*. Resume keeps the prefix of complete records the
//! journal kind accepts and cuts the rest away; the strict readers
//! ([`load`], [`load_service`]) reject a torn line at its line number.
//!
//! The run journal's header binds it to a manifest fingerprint and job
//! count; every following line is `{"job":"<id>","report":{...}}` in job
//! order, and resume keeps the prefix matching the manifest's job ids. A
//! journal written against a *different* manifest is rejected by
//! fingerprint instead of silently misattributing results.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use das_telemetry::json::{self, Value};

/// Journal format version (line-1 schema).
pub const JOURNAL_VERSION: u64 = 1;

/// Header key of the run journal.
const RUN_KIND: &str = "das_harness_journal";

/// Header key of the service journal.
const SERVE_KIND: &str = "das_serve_journal";

/// An append-only JSON-lines file open for appending.
#[derive(Debug)]
struct Log(File);

impl Log {
    /// Creates (truncating) `path` holding only the `header` line.
    fn create(path: &Path, header: &Value) -> Result<Log, String> {
        let mut log = Log(File::create(path).map_err(|e| format!("create {path:?}: {e}"))?);
        log.append(header)?;
        Ok(log)
    }

    /// Opens `path` to append after its first `keep` bytes, cutting away
    /// the rest.
    fn reopen(path: &Path, keep: u64) -> Result<Log, String> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("open {path:?}: {e}"))?;
        file.set_len(keep)
            .and_then(|()| file.seek(SeekFrom::End(0)))
            .and_then(|_| file.sync_data())
            .map_err(|e| format!("truncate {path:?}: {e}"))?;
        Ok(Log(file))
    }

    /// Appends `line` plus its newline and fsyncs.
    fn append(&mut self, line: &Value) -> Result<(), String> {
        let mut text = line.render();
        text.push('\n');
        self.0
            .write_all(text.as_bytes())
            .and_then(|()| self.0.sync_data())
            .map_err(|e| format!("append journal: {e}"))
    }
}

/// A log read back whole.
struct Contents {
    header: Value,
    /// Length of the header line, newline included.
    header_len: u64,
    /// Every line after the header: its length in bytes and its parse,
    /// which fails for a torn line.
    lines: Vec<(u64, Result<Value, String>)>,
}

impl Contents {
    /// Reads `path`, whose line 1 must carry `{"<kind>":version}`.
    fn read(path: &Path, kind: &str, version: u64) -> Result<Contents, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {path:?}: {e}"))?;
        // Bytes, not text: a crash can cut a multi-byte character, and
        // that line is torn, not unreadable.
        let mut lines = bytes.split_inclusive(|&b| b == b'\n').map(|line| {
            let parsed = match line.strip_suffix(b"\n") {
                Some(body) => std::str::from_utf8(body)
                    .map_err(|e| e.to_string())
                    .and_then(json::parse),
                None => Err("torn (no final newline)".to_string()),
            };
            (line.len() as u64, parsed)
        });
        let (header_len, header) = lines.next().ok_or("line 1: empty journal")?;
        let header = header.map_err(|e| format!("line 1: {e}"))?;
        if header.get(kind).and_then(Value::as_u64) != Some(version) {
            return Err(format!("line 1: not a {kind} v{version}"));
        }
        Ok(Contents {
            header,
            header_len,
            lines: lines.collect(),
        })
    }

    /// Every record with its line number, in file order; a line that
    /// does not parse, or is torn, is an error at its line number.
    fn strict(self) -> impl Iterator<Item = Result<(usize, Value), String>> {
        (self.lines.into_iter().zip(2..))
            .map(|((_, parsed), n)| parsed.map(|v| (n, v)).map_err(|e| format!("line {n}: {e}")))
    }
}

/// An open, append-mode journal plus the entries it already holds.
#[derive(Debug)]
pub struct Journal {
    log: Log,
    /// Completed run reports, in job order (`entries[i]` is job `i`).
    pub entries: Vec<Value>,
}

/// The header binding a run journal to a manifest.
fn run_header(fingerprint: &str, jobs: usize) -> Value {
    Value::obj()
        .set(RUN_KIND, JOURNAL_VERSION)
        .set("fp", fingerprint)
        .set("jobs", jobs)
}

impl Journal {
    /// Creates (truncating) a fresh journal for a manifest.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, fingerprint: &str, jobs: usize) -> Result<Journal, String> {
        Ok(Journal {
            log: Log::create(path, &run_header(fingerprint, jobs))?,
            entries: Vec::new(),
        })
    }

    /// Re-opens an existing journal for resumption: validates the header
    /// against the manifest, keeps the longest prefix of run lines
    /// matching `expected_ids` in order, truncates anything after it
    /// (torn tail, stray lines), and returns the journal positioned to
    /// append. A missing file is the same as a fresh [`Journal::create`].
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors or a header/fingerprint mismatch.
    pub fn resume(
        path: &Path,
        fingerprint: &str,
        expected_ids: &[&str],
    ) -> Result<Journal, String> {
        if !path.exists() {
            return Journal::create(path, fingerprint, expected_ids.len());
        }
        let contents = Contents::read(path, RUN_KIND, JOURNAL_VERSION)
            .map_err(|e| format!("{path:?}: {e}"))?;
        if contents.header != run_header(fingerprint, expected_ids.len()) {
            return Err(format!(
                "{path:?} was written for a different manifest (fingerprint or job count \
                 mismatch); delete it or pass the matching manifest"
            ));
        }
        let mut entries = Vec::new();
        let mut keep = contents.header_len;
        for ((len, parsed), expected) in contents.lines.iter().zip(expected_ids) {
            let report = parsed
                .as_ref()
                .ok()
                .filter(|v| v.get("job").and_then(Value::as_str) == Some(expected))
                .and_then(|v| v.get("report"));
            let Some(report) = report else {
                break;
            };
            entries.push(report.clone());
            keep += len;
        }
        Ok(Journal {
            log: Log::reopen(path, keep)?,
            entries,
        })
    }

    /// Number of runs already journalled.
    pub fn done(&self) -> usize {
        self.entries.len()
    }

    /// Appends one completed run (fsync'd) and records it in `entries`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&mut self, job_id: &str, report: Value) -> Result<(), String> {
        self.log.append(
            &Value::obj()
                .set("job", job_id)
                .set("report", report.clone()),
        )?;
        self.entries.push(report);
        Ok(())
    }
}

/// A fully parsed journal (used by `--validate-journal` and the tests).
pub struct JournalDoc {
    /// Manifest fingerprint recorded in the header.
    pub fingerprint: String,
    /// Expected job count recorded in the header.
    pub jobs: u64,
    /// `(job id, report)` per run line.
    pub runs: Vec<(String, Value)>,
}

/// Reads and structurally validates a journal: header shape, every line
/// strict JSON with `job` + `report` and its newline, unique job ids.
/// Does **not** check completeness — a valid partial journal is exactly
/// what resume eats.
///
/// # Errors
///
/// Returns the first violation with its line number.
pub fn load(path: &Path) -> Result<JournalDoc, String> {
    let contents = Contents::read(path, RUN_KIND, JOURNAL_VERSION)?;
    let fingerprint = (contents.header.get("fp").and_then(Value::as_str))
        .ok_or("line 1: missing fp")?
        .to_string();
    let jobs =
        (contents.header.get("jobs").and_then(Value::as_u64)).ok_or("line 1: missing jobs")?;
    let mut runs = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for record in contents.strict() {
        let (lineno, v) = record?;
        let id = v
            .get("job")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {lineno}: missing job id"))?
            .to_string();
        if !seen.insert(id.clone()) {
            return Err(format!("line {lineno}: duplicate job {id:?}"));
        }
        let report = v
            .get("report")
            .ok_or_else(|| format!("line {lineno}: missing report"))?;
        runs.push((id, report.clone()));
    }
    if runs.len() as u64 > jobs {
        return Err(format!(
            "{} run lines but header promises {jobs}",
            runs.len()
        ));
    }
    Ok(JournalDoc {
        fingerprint,
        jobs,
        runs,
    })
}

// ---------------------------------------------------------------------------
// Service journal (das-serve)
// ---------------------------------------------------------------------------

/// Service-journal format version (line-1 schema).
pub const SERVE_JOURNAL_VERSION: u64 = 1;

/// The `das-serve` session journal: one fsync'd JSON line per lifecycle
/// event (`admit`, `done`, `failed`, `cancelled`, plus
/// `drain`/`drained`/`restart` markers). Unlike the run [`Journal`] it
/// stores no reports — it is the audit trail that lets a drained server
/// prove no job was orphaned: every admitted job must reach a terminal
/// event before exit. Admissions may carry the job's spec, which is what
/// lets a restarted worker *re-drive* jobs that were in flight when it
/// crashed instead of merely reporting them lost.
#[derive(Debug)]
pub struct ServiceJournal {
    log: Log,
}

impl ServiceJournal {
    /// Creates (truncating) a fresh service journal.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path) -> Result<ServiceJournal, String> {
        let header = Value::obj().set(SERVE_KIND, SERVE_JOURNAL_VERSION);
        Ok(ServiceJournal {
            log: Log::create(path, &header)?,
        })
    }

    /// Re-opens a crashed worker's journal for crash recovery: validates
    /// the header, keeps the longest prefix of complete, parseable lines
    /// (a worker killed mid-append leaves a torn tail), truncates the
    /// file to that prefix, and returns the journal positioned to append
    /// together with the summary of the kept prefix. The summary's
    /// orphans (admitted, never terminal) are exactly the jobs the
    /// restarted worker must re-drive; their admissions stay journalled,
    /// so recovery appends only their terminal events. A missing file is
    /// the same as a fresh [`ServiceJournal::create`].
    ///
    /// # Errors
    ///
    /// Filesystem errors, a bad header, or a kept prefix that fails
    /// structural validation (which a crash cannot cause — it means the
    /// journal was corrupted in place, not torn); the file is left as it
    /// was on a validation error.
    pub fn resume(path: &Path) -> Result<(ServiceJournal, ServiceSummary), String> {
        if !path.exists() {
            return Ok((ServiceJournal::create(path)?, ServiceSummary::default()));
        }
        let contents = Contents::read(path, SERVE_KIND, SERVE_JOURNAL_VERSION)
            .map_err(|e| format!("{path:?}: {e}"))?;
        let mut keep = contents.header_len;
        let kept = contents
            .lines
            .into_iter()
            .zip(2..)
            .map_while(|((len, parsed), lineno)| {
                let v = parsed.ok()?;
                keep += len;
                Some(Ok((lineno, v)))
            });
        let summary = summarize(kept).map_err(|e| format!("{path:?}: {e}"))?;
        Ok((
            ServiceJournal {
                log: Log::reopen(path, keep)?,
            },
            summary,
        ))
    }

    /// Records a job admission carrying the job's spec, making the job
    /// re-drivable after a crash ([`ServiceJournal::resume`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn admit_with_spec(&mut self, job: &str, spec: &Value) -> Result<(), String> {
        self.log.append(
            &Value::obj()
                .set("event", "admit")
                .set("job", job)
                .set("spec", spec.clone()),
        )
    }

    /// Records a job's terminal event (`done`, `failed`, `cancelled`),
    /// with an optional error message.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn terminal(&mut self, event: &str, job: &str, error: Option<&str>) -> Result<(), String> {
        let mut v = Value::obj().set("event", event).set("job", job);
        if let Some(e) = error {
            v = v.set("error", e);
        }
        self.log.append(&v)
    }

    /// Records a bare lifecycle marker (`drain`, `drained`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn marker(&mut self, event: &str) -> Result<(), String> {
        self.log.append(&Value::obj().set("event", event))
    }
}

/// Aggregate view of a parsed service journal.
#[derive(Debug, Default, PartialEq)]
pub struct ServiceSummary {
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs that completed successfully.
    pub done: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Worker restarts recorded (`restart` markers).
    pub restarts: u64,
    /// Admitted jobs with no terminal event, in admission order — empty
    /// after a clean drain. Each carries its admission's job spec when it
    /// had one ([`ServiceJournal::admit_with_spec`]): `Some` means the job
    /// can be re-driven after a crash.
    pub orphans: Vec<(String, Option<Value>)>,
}

/// Reads and validates a `das-serve` session journal: header shape, every
/// line strict JSON with a known event and its newline, terminal events
/// only for admitted jobs, no duplicate terminals. The returned summary's
/// `orphans` lists admitted jobs that never reached a terminal event
/// (non-empty means the server exited without draining).
///
/// # Errors
///
/// Returns the first structural violation with its line number.
pub fn load_service(path: &Path) -> Result<ServiceSummary, String> {
    summarize(Contents::read(path, SERVE_KIND, SERVE_JOURNAL_VERSION)?.strict())
}

/// Folds numbered service events into a summary, failing on the first
/// structural violation.
fn summarize(
    records: impl Iterator<Item = Result<(usize, Value), String>>,
) -> Result<ServiceSummary, String> {
    let mut summary = ServiceSummary::default();
    let mut open: Vec<(String, Option<Value>)> = Vec::new();
    for record in records {
        let (lineno, v) = record?;
        let event = v
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {lineno}: missing event"))?;
        let job = v.get("job").and_then(Value::as_str);
        match event {
            "admit" => {
                let id = job.ok_or_else(|| format!("line {lineno}: admit without job"))?;
                if open.iter().any(|(j, _)| j == id) {
                    return Err(format!("line {lineno}: job {id:?} admitted twice"));
                }
                open.push((id.to_string(), v.get("spec").cloned()));
                summary.admitted += 1;
            }
            "done" | "failed" | "cancelled" => {
                let id = job.ok_or_else(|| format!("line {lineno}: {event} without job"))?;
                let Some(pos) = open.iter().position(|(j, _)| j == id) else {
                    return Err(format!(
                        "line {lineno}: {event} for {id:?} which is not admitted/open"
                    ));
                };
                open.remove(pos);
                match event {
                    "done" => summary.done += 1,
                    "failed" => summary.failed += 1,
                    _ => summary.cancelled += 1,
                }
            }
            "restart" => summary.restarts += 1,
            "drain" | "drained" => {}
            other => return Err(format!("line {lineno}: unknown event {other:?}")),
        }
    }
    summary.orphans = open;
    Ok(summary)
}

/// Converts journalled reports into the legacy `{"runs":[...]}` document
/// the bench `--json` flag always produced — the compatibility shim that
/// lets downstream consumers of `results/*.json` keep working unchanged.
pub fn runs_doc(reports: &[Value]) -> Value {
    Value::obj().set("runs", Value::Arr(reports.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(n: u64) -> Value {
        Value::obj().set("design", "DAS-DRAM").set("n", n)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("das-harness-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn create_append_load_round_trip() {
        let path = tmp("round_trip.jsonl");
        let mut j = Journal::create(&path, "00ff", 2).unwrap();
        j.append("a", report(1)).unwrap();
        j.append("b", report(2)).unwrap();
        let doc = load(&path).unwrap();
        assert_eq!(doc.fingerprint, "00ff");
        assert_eq!(doc.jobs, 2);
        assert_eq!(doc.runs.len(), 2);
        assert_eq!(doc.runs[1].0, "b");
        assert_eq!(doc.runs[1].1.render(), report(2).render());
    }

    #[test]
    fn resume_keeps_valid_prefix_and_truncates_torn_tail() {
        let path = tmp("torn_tail.jsonl");
        {
            let mut j = Journal::create(&path, "abcd", 3).unwrap();
            j.append("a", report(1)).unwrap();
            j.append("b", report(2)).unwrap();
        }
        // Simulate a crash mid-append: torn, newline-less final line.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"job\":\"c\",\"repo").unwrap();
        drop(f);
        let j = Journal::resume(&path, "abcd", &["a", "b", "c"]).unwrap();
        assert_eq!(j.done(), 2);
        let doc = load(&path).unwrap();
        assert_eq!(doc.runs.len(), 2, "torn line truncated away");
    }

    #[test]
    fn resume_rejects_wrong_fingerprint_and_wrong_order() {
        let path = tmp("wrong_fp.jsonl");
        {
            let mut j = Journal::create(&path, "1111", 2).unwrap();
            j.append("a", report(1)).unwrap();
        }
        assert!(Journal::resume(&path, "2222", &["a", "b"])
            .unwrap_err()
            .contains("fingerprint"));
        // Lines whose job id disagrees with the expected sequence are
        // dropped (with everything after them).
        let j = Journal::resume(&path, "1111", &["x", "a"]).unwrap();
        assert_eq!(j.done(), 0);
    }

    #[test]
    fn missing_file_resumes_as_fresh() {
        let path = tmp("fresh.jsonl");
        let _ = std::fs::remove_file(&path);
        let j = Journal::resume(&path, "feed", &["a"]).unwrap();
        assert_eq!(j.done(), 0);
        assert_eq!(load(&path).unwrap().fingerprint, "feed");
    }

    #[test]
    fn service_journal_round_trips_and_flags_orphans() {
        let path = tmp("service.jsonl");
        {
            let mut j = ServiceJournal::create(&path).unwrap();
            for id in ["t1/a", "t1/b", "t2/c"] {
                j.admit_with_spec(id, &Value::obj().set("id", id)).unwrap();
            }
            j.terminal("done", "t1/a", None).unwrap();
            j.terminal("failed", "t1/b", Some("boom")).unwrap();
            j.marker("drain").unwrap();
        }
        let s = load_service(&path).unwrap();
        assert_eq!(s.admitted, 3);
        assert_eq!((s.done, s.failed, s.cancelled), (1, 1, 0));
        assert_eq!(
            s.orphans,
            vec![("t2/c".to_string(), Some(Value::obj().set("id", "t2/c")))],
            "c never finished"
        );
        // Close the orphan: the journal validates clean.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"cancelled\",\"job\":\"t2/c\"}\n")
                .unwrap();
        }
        let s = load_service(&path).unwrap();
        assert!(s.orphans.is_empty());
        assert_eq!(s.cancelled, 1);
    }

    #[test]
    fn service_journal_rejects_structural_violations() {
        let path = tmp("service_bad.jsonl");
        let write = |lines: &str| {
            std::fs::write(&path, format!("{{\"das_serve_journal\":1}}\n{lines}")).unwrap()
        };
        write("{\"event\":\"done\",\"job\":\"x\"}\n");
        assert!(load_service(&path).unwrap_err().contains("not admitted"));
        write("{\"event\":\"admit\",\"job\":\"x\"}\n{\"event\":\"admit\",\"job\":\"x\"}\n");
        assert!(load_service(&path).unwrap_err().contains("twice"));
        write("{\"event\":\"warp\"}\n");
        assert!(load_service(&path).unwrap_err().contains("unknown event"));
        write("not json\n");
        assert!(load_service(&path).is_err());
        std::fs::write(&path, "{\"wrong\":1}\n").unwrap();
        assert!(load_service(&path)
            .unwrap_err()
            .contains("das_serve_journal"));
    }

    #[test]
    fn service_resume_recovers_orphans_with_specs() {
        let path = tmp("service_resume.jsonl");
        let spec = Value::obj().set("id", "a").set("design", "DAS-DRAM");
        {
            let mut j = ServiceJournal::create(&path).unwrap();
            j.admit_with_spec("t1/a", &spec).unwrap();
        }
        // A spec-less admission (an older server's line) that finished.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(
            b"{\"event\":\"admit\",\"job\":\"t1/b\"}\n{\"event\":\"done\",\"job\":\"t1/b\"}\n",
        )
        .unwrap();
        drop(f);
        let (mut j, s) = ServiceJournal::resume(&path).unwrap();
        assert_eq!(s.admitted, 2);
        assert_eq!(
            s.orphans,
            vec![("t1/a".to_string(), Some(spec))],
            "spec survives the crash so the job can be re-driven"
        );
        // The resumed journal appends cleanly after the kept prefix.
        j.marker("restart").unwrap();
        j.terminal("done", "t1/a", None).unwrap();
        let s = load_service(&path).unwrap();
        assert!(s.orphans.is_empty());
        assert_eq!(s.restarts, 1);
        // A missing file resumes as fresh.
        let fresh = tmp("service_resume_fresh.jsonl");
        let _ = std::fs::remove_file(&fresh);
        let (_, s) = ServiceJournal::resume(&fresh).unwrap();
        assert_eq!(s, ServiceSummary::default());
    }

    /// Cuts `full` at every byte of its final line `record` and checks the
    /// torn-line rule: every partial record fails validation as torn at
    /// its line number (also the one that lacks only its newline), resume
    /// keeps exactly the complete prefix (`resume` returns the records it
    /// kept, `before` of them precede the final one), and the resumed file
    /// validates.
    fn assert_every_cut_of_final_record(
        name: &str,
        full: &[u8],
        record: &str,
        before: usize,
        validate: impl Fn(&Path) -> Result<(), String>,
        resume: impl Fn(&Path) -> usize,
    ) {
        assert!(
            full.ends_with(record.as_bytes()),
            "{name}: not the final line"
        );
        assert!(!record.is_ascii(), "{name}: a cut must split a character");
        let base = full.len() - record.len();
        let lineno = full.iter().filter(|&&b| b == b'\n').count();
        for cut in 0..=record.len() {
            let path = tmp(&format!("{name}_cut_{cut}.jsonl"));
            std::fs::write(&path, &full[..base + cut]).unwrap();
            let complete = cut == record.len();
            match validate(&path) {
                Ok(()) => assert!(cut == 0 || complete, "{name}: cut at byte {cut} validated"),
                Err(e) => assert!(
                    e.contains(&format!("line {lineno}: torn")),
                    "{name}: cut at byte {cut}: {e}"
                ),
            }
            assert_eq!(
                resume(&path),
                before + usize::from(complete),
                "{name}: cut at byte {cut}"
            );
            let kept = if complete { full.len() } else { base };
            assert!(
                std::fs::read(&path).unwrap() == full[..kept],
                "{name}: cut at byte {cut}: resume must keep exactly the complete prefix"
            );
            validate(&path).unwrap_or_else(|e| panic!("{name}: resumed cut {cut}: {e}"));
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn resume_survives_truncation_at_every_byte_of_final_record() {
        // A process killed mid-append can leave either journal cut at ANY
        // byte of the record being written, including inside a multi-byte
        // character.
        let path = tmp("run_every_byte.jsonl");
        let ids = ["a", "b", "c"];
        {
            let mut j = Journal::create(&path, "fp", ids.len()).unwrap();
            j.append("a", report(1)).unwrap();
            j.append("b", report(2).set("note", "\u{2248}6.6 %"))
                .unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let record = format!(
            "{}\n",
            Value::obj()
                .set("job", "b")
                .set("report", report(2).set("note", "\u{2248}6.6 %"))
                .render()
        );
        assert_every_cut_of_final_record(
            "run",
            &full,
            &record,
            1,
            |p| load(p).map(drop),
            |p| Journal::resume(p, "fp", &ids).unwrap().done(),
        );

        let path = tmp("service_every_byte.jsonl");
        let spec = Value::obj().set("id", "c").set("note", "caf\u{e9}");
        {
            let mut j = ServiceJournal::create(&path).unwrap();
            j.admit_with_spec("t1/a", &spec).unwrap();
            j.terminal("done", "t1/a", None).unwrap();
            j.admit_with_spec("t1/c", &spec).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let record = format!(
            "{}\n",
            Value::obj()
                .set("event", "admit")
                .set("job", "t1/c")
                .set("spec", spec.clone())
                .render()
        );
        assert_every_cut_of_final_record(
            "service",
            &full,
            &record,
            1,
            |p| load_service(p).map(drop),
            |p| {
                let (_, s) = ServiceJournal::resume(p).unwrap();
                let orphans: &[&str] = if s.admitted == 2 { &["t1/c"] } else { &[] };
                let ids: Vec<&str> = s.orphans.iter().map(|(id, _)| id.as_str()).collect();
                assert_eq!(ids, orphans, "a torn admission never happened");
                s.admitted as usize
            },
        );
    }

    #[test]
    fn service_resume_rejects_bad_headers() {
        let path = tmp("service_resume_bad.jsonl");
        std::fs::write(&path, "{\"das_serve_journal\":1}").unwrap(); // no newline
        assert!(ServiceJournal::resume(&path)
            .unwrap_err()
            .contains("line 1: torn"));
        std::fs::write(&path, "{\"wrong\":1}\n").unwrap();
        assert!(ServiceJournal::resume(&path)
            .unwrap_err()
            .contains("das_serve_journal"));
    }

    #[test]
    fn runs_doc_matches_legacy_shape() {
        let doc = runs_doc(&[report(1), report(2)]);
        let text = doc.render();
        assert!(text.starts_with("{\"runs\":["));
        assert_eq!(doc.get("runs").and_then(Value::as_arr).unwrap().len(), 2);
    }
}
