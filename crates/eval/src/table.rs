//! Aligned text tables and CSV output for the experiment binaries.
//!
//! Every `exp_*` binary prints the same rows/series its paper counterpart
//! reports; this module keeps the formatting consistent.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders with column alignment and a separator line.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let pad = width[i] - c.chars().count();
                let _ = write!(out, "{}{}", c, " ".repeat(pad));
                if i + 1 < ncol {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Formats `mean ± std` like the paper's table cells.
pub fn pm(mean: f64, std: f64) -> String {
    format!("{mean:.2} ± {std:.2}")
}

/// Formats seconds with adaptive precision.
pub fn secs(s: f64) -> String {
    if s < 0.1 {
        format!("{:.0} ms", s * 1000.0)
    } else {
        format!("{s:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["Method", "Acc"]);
        t.row(vec!["FreeHGC", "91.27"]);
        t.row(vec!["HGCond", "87.31"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // The Acc column starts at the same offset in every row.
        let off = lines[0].find("Acc").unwrap();
        assert_eq!(&lines[2][off..off + 2], "91");
        assert_eq!(&lines[3][off..off + 2], "87");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["A", "B"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn pm_and_secs_formatting() {
        assert_eq!(pm(91.266, 0.443), "91.27 ± 0.44");
        assert_eq!(secs(0.0421), "42 ms");
        assert_eq!(secs(4.256), "4.26 s");
    }
}
