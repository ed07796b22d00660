//! Plain-text table rendering for experiment output.

/// A simple fixed-width table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "Table: row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                s.push_str(&format!(" {cell:<w$} |"));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.header, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new(&["method", "auc"]);
        t.row(&["HiGNN".into(), "0.870".into()]);
        t.row(&["DIN".into(), "0.844".into()]);
        let s = t.render();
        assert!(s.contains("| method |"));
        assert!(s.contains("| HiGNN  | 0.870 |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_wrong_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(0.87), "0.870");
    }
}
