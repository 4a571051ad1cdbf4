//! Plain-text table rendering.
//!
//! The bench harness reprints the paper's tables on stdout; this module owns
//! the (deliberately boring) column layout so every table in EXPERIMENTS.md
//! renders identically.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Flush-left (labels).
    Left,
    /// Flush-right (numbers).
    Right,
}

/// A simple monospace table builder.
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers; every column defaults
    /// to right alignment except the first.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        let header: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        let aligns = (0..header.len())
            .map(|i| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        TextTable {
            title: title.into(),
            header,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders to a string (trailing newline included).
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let total: usize = widths.iter().sum::<usize>() + 3 * ncols.saturating_sub(1);
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", "=".repeat(self.title.chars().count().max(total)));
        let fmt_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("   ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                match self.aligns[i] {
                    Align::Left => {
                        out.push_str(cell);
                        // No trailing pad on last column.
                        if i + 1 < cells.len() {
                            out.push_str(&" ".repeat(pad));
                        }
                    }
                    Align::Right => {
                        out.push_str(&" ".repeat(pad));
                        out.push_str(cell);
                    }
                }
            }
            out.push('\n');
        };
        fmt_row(&self.header, &mut out);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Formats a floating value with a sensible number of significant digits for
/// table cells (times in µs, speedups, ...).
pub fn fmt_sig(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        let lines: Vec<&str> = s.lines().collect();
        // header + rule lines + 2 data rows
        assert_eq!(lines.len(), 6);
        // Numbers right-aligned: "1" ends at the same column as "12345".
        let c1 = lines[4].rfind('1').unwrap();
        let c2 = lines[5].rfind('5').unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn fmt_sig_ranges() {
        assert_eq!(fmt_sig(0.0), "0");
        assert_eq!(fmt_sig(0.1234), "0.123");
        assert_eq!(fmt_sig(1.234), "1.23");
        assert_eq!(fmt_sig(12.34), "12.3");
        assert_eq!(fmt_sig(123.4), "123");
    }

    #[test]
    fn row_count_tracks() {
        let mut t = TextTable::new("x", &["a"]);
        assert_eq!(t.row_count(), 0);
        t.row(&["r".into()]);
        assert_eq!(t.row_count(), 1);
    }
}
