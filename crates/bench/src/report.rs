//! Machine-readable benchmark output.
//!
//! The trace-corpus binaries (`record`, `replay`, `report`) emit their
//! measurements as JSON lines on stdout so a human can grep a run;
//! [`BenchReport`] additionally collects those lines and, on
//! [`BenchReport::finish`], writes them to `BENCH_<bin>.json` at the
//! repository root — one JSON object per line, overwritten on every run —
//! so the benchmark trajectory of a checkout can be diffed across PRs
//! without scraping terminal output.

use std::io::Write;
use std::path::PathBuf;

/// Collector for one bench binary's JSON measurement lines.
///
/// ```
/// let mut report = bench::report::BenchReport::new("doctest");
/// report.line(format!("{{\"bench\":\"doctest\",\"answer\":{}}}", 42));
/// let path = report.finish().unwrap();
/// assert!(path.ends_with("BENCH_doctest.json"));
/// std::fs::remove_file(path).unwrap();
/// ```
#[derive(Debug)]
pub struct BenchReport {
    bin: String,
    lines: Vec<String>,
}

impl BenchReport {
    /// Starts a report for the bench binary named `bin` (the
    /// `BENCH_<bin>.json` stem).
    pub fn new(bin: &str) -> Self {
        Self {
            bin: bin.to_string(),
            lines: Vec::new(),
        }
    }

    /// Emits one JSON measurement line: printed to stdout immediately and
    /// queued for the report file.
    pub fn line(&mut self, json: String) {
        println!("{json}");
        self.lines.push(json);
    }

    /// The repository root, resolved relative to this crate's manifest so
    /// the report lands in the same place regardless of the working
    /// directory the binary was launched from.
    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Writes the collected lines to `BENCH_<bin>.json` at the repository
    /// root and returns the path. Call once, at the end of `main`.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        let path = Self::repo_root().join(format!("BENCH_{}.json", self.bin));
        let mut file = std::fs::File::create(&path)?;
        for line in &self.lines {
            writeln!(file, "{line}")?;
        }
        Ok(path.canonicalize().unwrap_or(path))
    }

    /// Like [`Self::finish`], but **appends** the collected lines to
    /// `BENCH_<bin>.json` instead of overwriting it, so the file accumulates
    /// a dated trajectory across runs (one entry per invocation) rather than
    /// keeping only the latest. Used by bins whose report file is committed
    /// (see the gitignore exception for `BENCH_report.json`): each line
    /// should carry a `"date"` field from [`utc_date_stamp`] so entries can
    /// be attributed to the run that produced them.
    pub fn finish_append(self) -> std::io::Result<PathBuf> {
        let path = Self::repo_root().join(format!("BENCH_{}.json", self.bin));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        for line in &self.lines {
            writeln!(file, "{line}")?;
        }
        Ok(path.canonicalize().unwrap_or(path))
    }
}

/// Today's UTC date as `YYYY-MM-DD`, computed from the system clock with a
/// hand-rolled days-from-civil inversion (no date-time dependency).
pub fn utc_date_stamp() -> String {
    let seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (year, month, day) = civil_from_days((seconds / 86_400) as i64);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Proleptic-Gregorian date for a day count since 1970-01-01 (Howard
/// Hinnant's `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if month <= 2 { year + 1 } else { year }, month, day)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_from_days_handles_epoch_and_leap_years() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(365), (1971, 1, 1));
        // 2000-02-29 is day 11016 (2000 is a leap year divisible by 400)
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        let stamp = utc_date_stamp();
        assert_eq!(stamp.len(), 10);
        assert!(stamp.as_bytes()[4] == b'-' && stamp.as_bytes()[7] == b'-');
    }

    #[test]
    fn finish_append_accumulates_across_runs() {
        let name = "report_append_selftest";
        let path = BenchReport::repo_root().join(format!("BENCH_{name}.json"));
        let _ = std::fs::remove_file(&path);
        let mut first = BenchReport::new(name);
        first.line("{\"run\":1}".into());
        first.finish_append().expect("append run 1");
        let mut second = BenchReport::new(name);
        second.line("{\"run\":2}".into());
        let path = second.finish_append().expect("append run 2");
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 2, "both runs retained");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn finish_writes_one_line_per_measurement() {
        let mut report = BenchReport::new("report_selftest");
        report.line("{\"bench\":\"report_selftest\",\"k\":1}".into());
        report.line("{\"bench\":\"report_selftest\",\"k\":2}".into());
        let path = report.finish().expect("report file is writable");
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 2);
        assert!(contents.lines().all(|l| l.contains("report_selftest")));
        std::fs::remove_file(path).unwrap();
    }
}
