//! The result store: one CSV file per job under `<out>/<experiment>/`.
//!
//! The file layout is the resume protocol. A result file holds the
//! `SimStats` CSV header, the job's data row, and a last
//! `fingerprint,<16 hex>` line naming what was simulated (see
//! [`Job::fingerprint`]). A job whose file exists, parses and carries the
//! job's own fingerprint is not re-simulated; a file from a different
//! program, configuration or sampling plan — a stale result under a reused
//! job key — is reported as corrupt and the job re-runs, which repairs the
//! file. Deleting the experiment's directory (or a single file) forces a
//! rerun. Files are written via a temp-file rename so a killed run never
//! leaves a truncated file that would later resume as a bogus result.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use svf_cpu::SimStats;

use crate::error::JobError;
use crate::job::Job;

/// Writes `contents` to `path` via a same-directory temp file and an
/// atomic rename, so readers (and resumed runs) never observe a partially
/// written file — a kill at any instant leaves either the old file or the
/// new one, never a truncation.
///
/// # Errors
///
/// Propagates filesystem errors; the temp file is removed on failure.
pub(crate) fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    let mut ext = path.extension().unwrap_or_default().to_os_string();
    ext.push(".tmp");
    let tmp = path.with_extension(ext);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        fs::remove_file(&tmp).ok();
    })
}

/// The per-experiment result directory.
#[derive(Debug, Clone)]
pub(crate) struct RunDir {
    dir: PathBuf,
}

impl RunDir {
    /// Opens (creating if needed) `<root>/<experiment-name>/`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub(crate) fn create(root: &Path, experiment: &str) -> io::Result<RunDir> {
        let dir = root.join(experiment);
        fs::create_dir_all(&dir)?;
        Ok(RunDir { dir })
    }

    /// The result file for one job.
    fn job_path(&self, job: &Job) -> PathBuf {
        self.dir.join(format!("{}.csv", job.key()))
    }

    /// Loads a previously stored result. `Ok(None)` means no result file
    /// exists (fresh job); `Err(CorruptResume)` means a file exists but is
    /// damaged, or stale — its fingerprint is missing or is not
    /// `fingerprint` (the runner logs it, then re-runs the job, which
    /// repairs the file).
    ///
    /// # Errors
    ///
    /// [`JobError::CorruptResume`] naming the file and what was wrong.
    pub(crate) fn load_classified(
        &self,
        job: &Job,
        fingerprint: u64,
    ) -> Result<Option<SimStats>, JobError> {
        let path = self.job_path(job);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(JobError::CorruptResume(format!("{}: {e}", path.display())))
            }
        };
        let corrupt = |what: &str| {
            JobError::CorruptResume(format!("{}: {what}", path.display()))
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h == SimStats::csv_header() => {}
            _ => return Err(corrupt("header mismatch (schema drift or truncation)")),
        }
        let row = lines.next().ok_or_else(|| corrupt("missing data row"))?;
        let stats =
            SimStats::from_csv_row(row).map_err(|e| corrupt(&format!("unparsable data row: {e}")))?;
        if lines.next() != Some(fingerprint_line(fingerprint).as_str()) {
            return Err(corrupt(
                "fingerprint missing or different (stale result of another program, \
                 configuration or sampling plan)",
            ));
        }
        Ok(Some(stats))
    }

    /// Stores one job's result (header line, data row, fingerprint line)
    /// atomically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub(crate) fn store(&self, job: &Job, stats: &SimStats, fingerprint: u64) -> io::Result<()> {
        atomic_write(
            &self.job_path(job),
            &format!(
                "{}\n{}\n{}\n",
                SimStats::csv_header(),
                stats.to_csv_row(),
                fingerprint_line(fingerprint)
            ),
        )
    }
}

fn fingerprint_line(fingerprint: u64) -> String {
    format!("fingerprint,{fingerprint:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ProgramSpec;
    use svf_cpu::CpuConfig;
    use svf_workloads::Scale;

    fn tmp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("svf-harness-sink-{tag}-{}", std::process::id()))
    }

    fn demo_job() -> Job {
        Job {
            id: 3,
            program: ProgramSpec::workload("gcc", Scale::Test),
            config_label: "base".to_string(),
            config: CpuConfig::wide4(),
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let root = tmp_root("roundtrip");
        let dir = RunDir::create(&root, "demo").expect("create");
        let job = demo_job();
        assert_eq!(dir.load_classified(&job, 7), Ok(None), "empty dir has no result");
        let stats = SimStats { cycles: 42, committed: 99, ..SimStats::default() };
        dir.store(&job, &stats, 7).expect("store");
        assert_eq!(dir.load_classified(&job, 7), Ok(Some(stats)));
        let text = fs::read_to_string(dir.job_path(&job)).expect("read");
        assert_eq!(text.lines().nth(2), Some("fingerprint,0000000000000007"), "{text}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_or_stale_files_do_not_resume() {
        let root = tmp_root("corrupt");
        let dir = RunDir::create(&root, "demo").expect("create");
        let job = demo_job();
        let refused = |why: &str| {
            let err = dir.load_classified(&job, 7).expect_err(why);
            assert!(matches!(err, JobError::CorruptResume(_)), "{why}: {err:?}");
            err.to_string()
        };
        fs::write(dir.job_path(&job), "garbage\n1,2,3\n").expect("write");
        assert!(refused("wrong header").contains("header mismatch"));
        fs::write(dir.job_path(&job), format!("{}\nnot,numbers\n", SimStats::csv_header()))
            .expect("write");
        refused("unparsable row");
        let row = SimStats::default().to_csv_row();
        fs::write(dir.job_path(&job), format!("{}\n{row}\n", SimStats::csv_header()))
            .expect("write");
        assert!(refused("no fingerprint").contains("fingerprint"));
        dir.store(&job, &SimStats::default(), 8).expect("store");
        assert!(refused("another job's fingerprint").contains("fingerprint"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let root = tmp_root("atomic");
        fs::create_dir_all(&root).expect("mkdir");
        let path = root.join("points.csv");
        atomic_write(&path, "old\n").expect("write");
        atomic_write(&path, "new\n").expect("rewrite");
        assert_eq!(fs::read_to_string(&path).expect("read"), "new\n");
        let leftovers: Vec<_> = fs::read_dir(&root)
            .expect("readdir")
            .map(|e| e.expect("entry").file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive: {leftovers:?}");
        fs::remove_dir_all(&root).ok();
    }
}
