//! Plain-text table rendering and CSV output for the paper runner.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple fixed-column text table matching the paper's table layout.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for c in 0..cols {
                let _ = write!(line, " {:<width$} ", cells[c], width = widths[c]);
                if c + 1 < cols {
                    line.push('|');
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Serializes as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|s| esc(s))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|s| esc(s)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats one metric value as a table/CSV cell, surfacing non-finite
/// values as an explicit `n/a` marker instead of serializing `NaN` into
/// reports (where it used to slip through unflagged).
pub fn metric_cell(value: f32, precision: usize) -> String {
    if value.is_finite() {
        format!("{value:.precision$}")
    } else {
        "n/a".to_string()
    }
}

/// Writes a table to `<dir>/<name>.csv`, creating `dir` if needed.
/// Returns the path written.
///
/// The write goes through the crash-safe [`deepod_core::io_guard`] (temp
/// file + fsync + atomic rename), so an interrupted benchmark never leaves
/// a torn CSV behind; the guard's typed error is wrapped back into
/// `io::Error`.
pub fn write_csv(dir: &Path, name: &str, table: &TextTable) -> std::io::Result<String> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    deepod_core::io_guard::atomic_write_str(&path, &table.to_csv())
        .map_err(std::io::Error::other)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextTable {
        let mut t = TextTable::new(&["Method", "MAE", "MAPE(%)"]);
        t.row(&["TEMP".into(), "179.98".into(), "34.07".into()]);
        t.row(&["DeepOD".into(), "94.67".into(), "19.07".into()]);
        t
    }

    #[test]
    fn renders_aligned() {
        let s = sample().render();
        assert!(s.contains("Method"));
        assert!(s.contains("DeepOD"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // header + sep + 2 rows
                                    // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn csv_format() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "Method,MAE,MAPE(%)");
        assert_eq!(lines.next().unwrap(), "TEMP,179.98,34.07");
    }

    #[test]
    fn csv_escaping() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn metric_cell_surfaces_non_finite() {
        assert_eq!(metric_cell(19.072, 2), "19.07");
        assert_eq!(metric_cell(f32::NAN, 2), "n/a");
        assert_eq!(metric_cell(f32::INFINITY, 1), "n/a");
    }
}
