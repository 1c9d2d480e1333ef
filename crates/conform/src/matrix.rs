//! The one runner behind every verdict matrix (`chaos`, `chaos --net`,
//! `conform`): the `--cells` filter, the cell result (`pass`, `FAIL (n)`
//! or, for a cell that could not run, `ERROR`), the table, and the run
//! totals with their one summary wording. It only filters and renders:
//! each matrix still runs its cells where it did, on the pool or not.

use parapage_analysis::Table;

/// The `--cells` filter: comma-separated entries, trimmed and lower-cased,
/// matched against each cell's lower-cased label. An entry keeps the
/// labels that contain it; an entry `=ID` keeps only a label that is `ID`
/// or has `ID` as one of its `/`-separated key columns, so `=e1` keeps
/// `e1/…` but not `e10/…`. An empty list keeps every cell.
#[derive(Clone, Debug, Default)]
pub struct CellFilter(Vec<String>);

impl CellFilter {
    /// Parses a `--cells` value; `None` keeps every cell.
    pub fn parse(spec: Option<&str>) -> Self {
        let subs = spec
            .unwrap_or("")
            .split(',')
            .map(|c| c.trim().to_ascii_lowercase());
        CellFilter(subs.filter(|c| !c.is_empty()).collect())
    }

    /// `true` when the filter keeps the cell labelled `label`.
    pub fn keeps(&self, label: &str) -> bool {
        let label = label.to_ascii_lowercase();
        self.0.is_empty()
            || self.0.iter().any(|f| match f.strip_prefix('=') {
                Some(id) => label == id || label.split('/').any(|column| column == id),
                None => label.contains(f.as_str()),
            })
    }
}

/// What a cell's run measured: the columns after its key, and the checks
/// it failed.
pub trait CellRow {
    /// The measured columns, in header order after the key columns.
    fn columns(&self) -> Vec<String>;
    /// Every failed check; empty means the cell passed.
    fn violations(&self) -> &[String];
    /// `true` when no check failed.
    fn passed(&self) -> bool {
        self.violations().is_empty()
    }
}

/// A cell with no measured columns: just its violations.
impl CellRow for Vec<String> {
    fn columns(&self) -> Vec<String> {
        Vec::new()
    }
    fn violations(&self) -> &[String] {
        self
    }
}

/// One matrix cell: its key columns (joined with `/`, the label that
/// `--cells` matches) and its row, or the error that kept it from running.
pub struct Cell<T> {
    /// The identifying columns, e.g. policy and scenario.
    pub key: Vec<String>,
    /// The row, or an error: an `ERROR` row that counts as one failure.
    pub outcome: Result<T, String>,
}

impl<T: CellRow> Cell<T> {
    fn label(&self) -> String {
        self.key.join("/")
    }

    /// The verdict and the messages behind it: violations, or the error.
    fn verdict(&self) -> (String, &[String]) {
        match &self.outcome {
            Ok(r) if r.passed() => ("pass".into(), &[]),
            Ok(r) => (format!("FAIL ({})", r.violations().len()), r.violations()),
            Err(e) => ("ERROR".into(), std::slice::from_ref(e)),
        }
    }
}

/// A matrix's cells, in run order, and the number the filter skipped.
pub struct Matrix<T> {
    /// Key and measured column headers; rendering appends `verdict`.
    pub(crate) headers: &'static [&'static str],
    /// The cells the filter kept.
    pub cells: Vec<Cell<T>>,
    /// Cells the filter left out.
    pub(crate) skipped: usize,
}

impl<T: CellRow> Matrix<T> {
    /// Runs `run` on every candidate whose label `filter` keeps, in order,
    /// and counts the rest as skipped.
    pub fn run<C>(
        headers: &'static [&'static str],
        filter: &CellFilter,
        candidates: impl IntoIterator<Item = C>,
        key: impl Fn(&C) -> Vec<String>,
        mut run: impl FnMut(&C) -> Result<T, String>,
    ) -> Self {
        let (mut cells, mut skipped) = (Vec::new(), 0);
        for c in candidates {
            let key = key(&c);
            if filter.keeps(&key.join("/")) {
                cells.push(Cell {
                    outcome: run(&c),
                    key,
                });
            } else {
                skipped += 1;
            }
        }
        Matrix {
            headers,
            cells,
            skipped,
        }
    }

    /// The table (an `ERROR` row dashes its measured columns), a blank
    /// line, and a `  violation: <label>: <v>` line per violation or error.
    pub fn render(&self) -> String {
        let mut t = Table::new(self.headers.iter().copied().chain(["verdict"]));
        let mut lines = String::new();
        for c in &self.cells {
            let (verdict, messages) = c.verdict();
            let measured = match &c.outcome {
                Ok(r) => r.columns(),
                Err(_) => vec!["-".into(); self.headers.len() - c.key.len()],
            };
            t.row(c.key.iter().cloned().chain(measured).chain([verdict]));
            for m in messages {
                lines += &format!("  violation: {}: {m}\n", c.label());
            }
        }
        format!("{t}\n{lines}")
    }

    /// One `  <label>: pass` line per cell; a failing cell reads
    /// `FAIL — <violations>`, an erroring one `ERROR — <error>`.
    pub fn render_list(&self) -> String {
        let line = |c: &Cell<T>| match &c.outcome {
            Ok(r) if r.passed() => format!("  {}: pass\n", c.label()),
            Ok(r) => format!("  {}: FAIL — {}\n", c.label(), r.violations().join("; ")),
            Err(e) => format!("  {}: ERROR — {e}\n", c.label()),
        };
        self.cells.iter().map(line).collect()
    }
}

/// Cells run, skipped and failed (violations plus errors) across one
/// command's matrices.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Cells the filter kept.
    pub run: usize,
    /// Cells the filter left out.
    pub skipped: usize,
    /// Violations plus erroring cells.
    pub failures: usize,
}

impl Totals {
    /// Counts a matrix in.
    pub fn add<T: CellRow>(&mut self, m: &Matrix<T>) {
        self.run += m.cells.len();
        self.skipped += m.skipped;
        self.failures += m.cells.iter().map(|c| c.verdict().1.len()).sum::<usize>();
    }

    /// Errors when `filter` kept no cell; called before anything prints.
    pub fn require_cells(&self, filter: &CellFilter) -> Result<(), String> {
        if self.run > 0 {
            return Ok(());
        }
        let (subs, skipped) = (&filter.0, self.skipped);
        Err(format!(
            "--cells {subs:?} matched no cells ({skipped} skipped)"
        ))
    }

    /// `<what> passed: N cells <claim>` plus how many `--cells` filtered
    /// out, or `<what> FAILED: N violation(s)` as the error.
    pub fn verdict(&self, what: &str, claim: &str) -> Result<String, String> {
        if self.failures > 0 {
            return Err(format!("{what} FAILED: {} violation(s)", self.failures));
        }
        let filtered = match self.skipped {
            0 => String::new(),
            n => format!(" ({n} filtered out by --cells)"),
        };
        let run = self.run;
        Ok(format!("{what} passed: {run} cells {claim}{filtered}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row(Vec<String>);

    impl CellRow for Row {
        fn columns(&self) -> Vec<String> {
            vec![self.0.len().to_string()]
        }
        fn violations(&self) -> &[String] {
            &self.0
        }
    }

    const HEADERS: &[&str] = &["policy", "scenario", "n"];

    fn grid(filter: &CellFilter) -> Matrix<Row> {
        let candidates = [("det-par", "clean"), ("det-par", "chaos"), ("UCP", "clean")];
        Matrix::run(
            HEADERS,
            filter,
            candidates,
            |&(p, s)| vec![p.to_string(), s.to_string()],
            |&(p, s)| match (p, s) {
                ("det-par", "chaos") => Ok(Row(vec!["diverged".to_string()])),
                ("UCP", _) => Err("baseline errored".to_string()),
                _ => Ok(Row(Vec::new())),
            },
        )
    }

    fn labels(m: &Matrix<Row>) -> Vec<String> {
        m.cells.iter().map(Cell::label).collect()
    }

    #[test]
    fn filter_is_case_blind_comma_separated_and_empty_keeps_all() {
        let all = ["det-par/clean", "det-par/chaos", "UCP/clean"];
        assert_eq!(labels(&grid(&CellFilter::parse(None))), all);
        assert_eq!(labels(&grid(&CellFilter::parse(Some(" , ")))), all);
        assert_eq!(
            labels(&grid(&CellFilter::parse(Some(" ucp ,DET-PAR/CHAOS")))),
            ["det-par/chaos", "UCP/clean"]
        );
        assert!(CellFilter::parse(Some("Torn")).keeps("det-par/torn-tail"));
        assert!(!CellFilter::parse(Some("torn,flip")).keeps("det-par/stale-base"));
    }

    #[test]
    fn exact_ids_match_a_whole_label_or_key_column() {
        let e1 = CellFilter::parse(Some(" =E1 "));
        assert!(e1.keeps("e1/rand-green"));
        assert!(!e1.keeps("e10/observation-1"));
        assert!(!e1.keeps("e21"));
        let whole = CellFilter::parse(Some("=det-par/torn-tail,=ucp"));
        assert!(whole.keeps("det-par/torn-tail"));
        assert!(whole.keeps("UCP/clean"));
        assert!(!whole.keeps("det-par/torn"));
        assert!(!whole.keeps("ucp-2/clean"));
        // A substring entry beside an exact one still matches as before.
        assert!(CellFilter::parse(Some("=e1,e1")).keeps("e16/bounds"));
    }

    #[test]
    fn skipped_cells_are_counted_and_an_empty_selection_errors() {
        let m = grid(&CellFilter::parse(Some("clean")));
        assert_eq!((m.cells.len(), m.skipped), (2, 1));
        let mut totals = Totals::default();
        totals.add(&m);
        assert_eq!((totals.run, totals.skipped), (2, 1));

        let none = CellFilter::parse(Some("no-such-cell"));
        let mut totals = Totals::default();
        totals.add(&grid(&none));
        assert_eq!((totals.run, totals.skipped), (0, 3));
        let e = totals.require_cells(&none).unwrap_err();
        assert!(e.contains("matched no cells (3 skipped)"), "{e}");
    }

    #[test]
    fn a_failing_and_an_erroring_cell_fail_the_run() {
        let m = grid(&CellFilter::default());
        let verdicts: Vec<String> = m.cells.iter().map(|c| c.verdict().0).collect();
        assert_eq!(verdicts, ["pass", "FAIL (1)", "ERROR"]);

        let out = m.render();
        let violations: Vec<&str> = out.lines().filter(|l| l.contains("violation:")).collect();
        assert_eq!(
            violations,
            [
                "  violation: det-par/chaos: diverged",
                "  violation: UCP/clean: baseline errored"
            ]
        );
        assert!(out.contains("    UCP     clean  -     ERROR\n"), "{out}");

        let mut totals = Totals::default();
        totals.add(&m);
        assert_eq!(totals.failures, 2);
        assert_eq!(
            totals.verdict("chaos matrix", "recovered").unwrap_err(),
            "chaos matrix FAILED: 2 violation(s)"
        );
    }

    #[test]
    fn a_passing_run_reports_cells_and_filtered_count() {
        let m = grid(&CellFilter::parse(Some("det-par/clean")));
        let mut totals = Totals::default();
        totals.add(&m);
        assert_eq!(
            totals.verdict("chaos matrix", "recovered byte-identically"),
            Ok("chaos matrix passed: 1 cells recovered byte-identically \
                (2 filtered out by --cells)"
                .to_string())
        );
        assert_eq!(m.render_list(), "  det-par/clean: pass\n");
    }
}
