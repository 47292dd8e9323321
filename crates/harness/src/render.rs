//! Rendering contexts and shared table helpers.
//!
//! Every experiment's text output is a **pure function of journalled
//! reports** (plus the manifest's grid parameters): the same
//! `render` runs over a live run, a resumed one, or a reloaded journal,
//! and produces the same bytes. Format strings here are fixed
//! character-for-character, so regenerated `results/*.txt` stay
//! diff-stable against `EXPERIMENTS.md`.

use das_sim::stats::gmean_improvement;
use das_telemetry::json::Value;

use crate::manifest::JobSpec;
use crate::report::ReportView;

/// Everything a renderer may consult.
pub struct RenderCtx<'a> {
    /// Grid-wide per-core instruction budget (single-programming).
    pub insts: u64,
    /// Grid-wide capacity scale factor.
    pub scale: u32,
    /// This experiment's jobs, in execution order.
    pub jobs: &'a [JobSpec],
    /// Reports aligned with `jobs`.
    pub reports: &'a [Value],
}

impl<'a> RenderCtx<'a> {
    /// The report of the job with this exact id.
    ///
    /// # Panics
    ///
    /// Panics if the id is absent — manifests are validated before
    /// execution, so this is an internal error.
    pub fn by_id(&self, id: &str) -> ReportView<'a> {
        let idx = self
            .jobs
            .iter()
            .position(|j| j.id == id)
            .unwrap_or_else(|| panic!("no job {id:?} in this experiment"));
        ReportView(&self.reports[idx])
    }

    /// The report of grid cell `(row, seg)`: job `cell_id(exp, row, seg)`,
    /// where `exp` is the experiment prefix of this context's jobs.
    ///
    /// # Panics
    ///
    /// Panics if the cell is absent.
    pub fn cell(&self, row: &str, seg: &str) -> ReportView<'a> {
        let exp = self
            .jobs
            .first()
            .map_or("", |j| j.id.split('/').next().unwrap_or(""));
        self.by_id(&cell_id(exp, row, seg))
    }

    /// Distinct group names (the second `/`-separated id segment), in
    /// order of first appearance — the workload rows of a table, derived
    /// from the manifest itself so `--only`-filtered grids render
    /// correctly.
    pub fn group_names(&self) -> Vec<&'a str> {
        let mut names: Vec<&str> = Vec::new();
        for j in self.jobs {
            let name = group_of(&j.id);
            if !names.contains(&name) {
                names.push(name);
            }
        }
        names
    }
}

/// The job id of cell `(row, seg)` of experiment `exp`'s grid: the one id
/// scheme of every catalog experiment.
pub(crate) fn cell_id(exp: &str, row: &str, seg: &str) -> String {
    format!("{exp}/{row}/{seg}")
}

/// The group (second `/`-separated segment, the workload row) of a job id;
/// empty when the id has none.
pub fn group_of(id: &str) -> &str {
    id.split('/').nth(1).unwrap_or("")
}

/// Formats a fraction as a signed percentage (the shared figure format).
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

/// Renders one improvement table: rows = workloads, columns = design or
/// sweep labels at `width`, plus a gmean row (Figs. 7a/7d/8a/9a/9b and
/// the ratio sweeps).
pub fn improvement_table(
    out: &mut String,
    title: &str,
    names: &[&str],
    columns: &[impl AsRef<str>],
    width: usize,
    rows: &[Vec<f64>],
) {
    use std::fmt::Write;
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{:<12}", "workload");
    for c in columns {
        let _ = write!(out, " {:>width$}", c.as_ref());
    }
    let _ = writeln!(out);
    for (name, row) in names.iter().zip(rows) {
        let _ = write!(out, "{name:<12}");
        for v in row {
            let _ = write!(out, " {:>width$}", pct(*v));
        }
        let _ = writeln!(out);
    }
    gmean_row(out, rows, columns.len(), width);
}

/// Renders a table's gmean row: the gmean improvement of each of the
/// `columns` columns of `rows`, at `width`. Prints nothing for zero rows:
/// a gmean of no measurements is not "+0.00%".
pub(crate) fn gmean_row(out: &mut String, rows: &[Vec<f64>], columns: usize, width: usize) {
    use std::fmt::Write;
    if rows.is_empty() {
        return;
    }
    let _ = write!(out, "{:<12}", "gmean");
    for c in 0..columns {
        let col: Vec<f64> = rows.iter().map(|r| r[c]).collect();
        let _ = write!(out, " {:>width$}", pct(gmean_improvement(&col)));
    }
    let _ = writeln!(out);
}

/// Renders one Fig. 7c/7f-style access-location line from a journalled
/// run.
pub fn access_mix_line(out: &mut String, label: &str, run: &ReportView) {
    use std::fmt::Write;
    let (rb, f, s) = run.access_fractions();
    let _ = writeln!(
        out,
        "{label:<14} slow={:5.1}%  fast={:5.1}%  row-buffer={:5.1}%",
        s * 100.0,
        f * 100.0,
        rb * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_matches_the_bench_format() {
        assert_eq!(pct(0.0725), "+7.25%");
        assert_eq!(pct(-0.01), "-1.00%");
        assert_eq!(pct(0.0), "+0.00%");
    }

    #[test]
    fn improvement_table_layout_is_stable() {
        let mut out = String::new();
        improvement_table(
            &mut out,
            "T",
            &["mcf"],
            &["A".to_string(), "B".to_string()],
            14,
            &[vec![0.05, -0.01]],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "# T");
        assert_eq!(
            lines[1],
            format!("{:<12} {:>14} {:>14}", "workload", "A", "B")
        );
        assert_eq!(
            lines[2],
            format!("{:<12} {:>14} {:>14}", "mcf", "+5.00%", "-1.00%")
        );
        assert!(lines[3].starts_with("gmean"));
    }

    #[test]
    fn a_table_of_no_rows_prints_no_gmean() {
        let mut out = String::new();
        improvement_table(&mut out, "T", &[], &["A", "B"], 14, &[]);
        assert_eq!(
            out,
            format!("# T\n{:<12} {:>14} {:>14}\n", "workload", "A", "B")
        );
        let mut row = String::new();
        gmean_row(&mut row, &[], 2, 12);
        assert_eq!(row, "");
    }
}
