//! Plain-text tables, terminal bar charts, and JSON/CSV result dumps for
//! the figure harness.

pub mod chart;

pub use chart::BarChart;

use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Convenience: formats a float cell with 3 decimals.
    pub fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "inf".to_string()
        }
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {cell:<w$} |");
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders and prints to stdout.
    #[expect(
        clippy::print_stdout,
        reason = "this is the report layer; print() is its stdout sink"
    )]
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Writes a serializable result as pretty JSON under `results/`.
///
/// Creates the directory if needed. Returns the written path.
pub fn write_json<T: Serialize>(
    dir: impl AsRef<Path>,
    name: &str,
    value: &T,
) -> std::io::Result<std::path::PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(&path, json)?;
    Ok(path)
}

impl Table {
    /// Renders the table as RFC-4180-ish CSV (quotes cells containing
    /// commas or quotes).
    pub fn to_csv(&self) -> String {
        fn field(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| field(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Writes a table as CSV under `dir`, returning the written path.
pub fn write_csv(
    dir: impl AsRef<Path>,
    name: &str,
    table: &Table,
) -> std::io::Result<std::path::PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["a".into(), Table::num(1.0)]);
        t.row(vec!["longer".into(), Table::num(f64::INFINITY)]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| a      | 1.000 |"));
        assert!(s.contains("| longer | inf   |"));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_fields() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["plain".into(), "with,comma".into()]);
        t.row(vec!["quote\"d".into(), "ok".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"quote\"\"d\""));
    }

    #[test]
    fn csv_writes_to_disk() {
        let dir = std::env::temp_dir().join("kelp-report-csv-test");
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into()]);
        let path = write_csv(&dir, "t", &t).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "a\n1\n");
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("kelp-report-test");
        let path = write_json(&dir, "sample", &vec![1, 2, 3]).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        let back: Vec<i32> = serde_json::from_str(&content).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }
}
