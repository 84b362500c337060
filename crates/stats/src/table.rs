//! Plain-text table rendering for the experiment harness.
//!
//! Every figure/table regenerator prints aligned text, so the
//! `cargo run -p lottery-experiments -- all` transcript of the paper's
//! figures and tables diffs byte for byte against the committed
//! `experiments_all.txt`. No external dependency is warranted for this.

/// A right-aligned plain-text table builder.
///
/// # Examples
///
/// ```
/// use lottery_stats::table::Table;
///
/// let mut t = Table::new(&["allocated", "observed"]);
/// t.row(&["2:1".to_string(), "2.01:1".to_string()]);
/// let s = t.render();
/// assert!(s.contains("allocated"));
/// assert!(s.contains("2.01:1"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Appends a row of displayable values.
    pub fn row_display<D: std::fmt::Display>(&mut self, cells: &[D]) {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio like the paper's "2.01 : 1" notation, normalized to the
/// last element.
pub fn ratio(values: &[f64]) -> String {
    let last = values.last().copied().unwrap_or(1.0);
    let denom = if last == 0.0 { 1.0 } else { last };
    values
        .iter()
        .map(|v| format!("{:.2}", v / denom))
        .collect::<Vec<_>>()
        .join(" : ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["123".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn row_display_formats() {
        let mut t = Table::new(&["x"]);
        t.row_display(&[1.25]);
        assert!(t.render().contains("1.25"));
    }

    #[test]
    fn ratio_normalizes_to_last() {
        assert_eq!(ratio(&[8.0, 4.0, 2.0]), "4.00 : 2.00 : 1.00");
        assert_eq!(ratio(&[3.0]), "1.00");
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(&[2.0, 0.0]), "2.00 : 0.00");
    }
}
