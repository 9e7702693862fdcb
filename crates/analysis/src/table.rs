//! Plain-text and CSV table rendering.

use std::borrow::Cow;
use std::fmt;

/// A simple column-aligned table for CLI output and EXPERIMENTS.md.
///
/// # Example
///
/// ```
/// use esvm_analysis::Table;
/// let mut t = Table::new(vec!["algo", "cost"]);
/// t.row(vec!["miec".into(), "123.4".into()]);
/// t.row(vec!["ffps".into(), "150.0".into()]);
/// let text = t.to_string();
/// assert!(text.contains("miec") && text.contains("150.0"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics on an empty header list.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "table needs at least one column");
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} does not match header arity {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Appends a row of formatted floats with `precision` decimals; the
    /// first cell stays textual (typical "label + numbers" rows).
    pub fn row_labeled(&mut self, label: impl Into<String>, values: &[f64], precision: usize) {
        let mut cells = vec![label.into()];
        cells.extend(values.iter().map(|v| format!("{v:.precision$}")));
        self.row(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// CSV rendering (no quoting — cells in this workspace are labels and
    /// numbers; commas in cells are rejected).
    ///
    /// # Panics
    ///
    /// Panics if any cell contains a comma or newline.
    pub fn to_csv(&self) -> String {
        self.csv(|cell| {
            assert!(
                !cell.contains(',') && !cell.contains('\n'),
                "cell {cell:?} needs quoting, which this emitter does not support"
            );
            Cow::Borrowed(cell)
        })
    }

    /// CSV rendering that quotes, as RFC 4180 does, each cell holding a
    /// comma, a double quote or a newline, doubling its quotes. Every
    /// table [`Table::to_csv`] renders without a quote in a cell
    /// renders the same here.
    pub fn to_quoted_csv(&self) -> String {
        self.csv(|cell| {
            if cell.contains([',', '"', '\n']) {
                Cow::Owned(format!("\"{}\"", cell.replace('"', "\"\"")))
            } else {
                Cow::Borrowed(cell)
            }
        })
    }

    fn csv<'a>(&'a self, render: impl Fn(&'a str) -> Cow<'a, str>) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(&self.rows) {
            let cells: Vec<Cow<'a, str>> = row.iter().map(|cell| render(cell)).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                if i == 0 {
                    write!(f, "{cell:<w$}")?;
                } else {
                    write!(f, "{cell:>w$}")?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name", "x", "y"]);
        t.row(vec!["alpha".into(), "1".into(), "2.50".into()]);
        t.row(vec!["beta-long-name".into(), "10".into(), "3.75".into()]);
        t
    }

    #[test]
    fn display_aligns_columns() {
        let text = sample().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, 2 rows
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numeric columns make all data lines equally long.
        assert_eq!(lines[2].len(), lines[3].len());
        // "2.50" and "3.75" (last column) end at the same offset.
        assert_eq!(
            lines[2].rfind("2.50").unwrap(),
            lines[3].rfind("3.75").unwrap()
        );
    }

    #[test]
    fn csv_round_trip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "name,x,y");
        assert!(lines[2].starts_with("beta-long-name,10,"));
    }

    #[test]
    fn row_labeled_formats_floats() {
        let mut t = Table::new(vec!["algo", "a", "b"]);
        t.row_labeled("miec", &[1.23456, 7.0], 2);
        assert!(t.to_string().contains("1.23"));
        assert!(t.to_string().contains("7.00"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_enforced() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "quoting")]
    fn csv_rejects_commas_in_cells() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x,y".into()]);
        let _ = t.to_csv();
    }

    #[test]
    fn quoted_csv_quotes_only_cells_that_need_it() {
        let mut t = Table::new(vec!["name", "x"]);
        t.row(vec!["diurnal (A=0.8, day=240)".into(), "1".into()]);
        t.row(vec!["say \"hi\"".into(), "2".into()]);
        assert_eq!(
            t.to_quoted_csv(),
            "name,x\n\"diurnal (A=0.8, day=240)\",1\n\"say \"\"hi\"\"\",2\n"
        );
        assert_eq!(sample().to_quoted_csv(), sample().to_csv());
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_is_rejected() {
        let _ = Table::new(Vec::<String>::new());
    }
}
