//! The one shape every figure function returns, and its printer.

use std::fmt;

/// One cell of a [`Section`] row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A measured value, printed to 3 significant digits (`format_value`).
    Value(f64),
    /// A value printed to a fixed number of decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A count, or a constant a model or the paper states, printed as is
    /// (`{}`).
    Exact(f64),
    /// A name, or a mark where nothing is measured (`-`, `(quoted)`).
    Text(String),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Value(v) => f.write_str(&format_value(*v)),
            Cell::Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
            Cell::Exact(v) => write!(f, "{v}"),
            Cell::Text(t) => f.write_str(t),
        }
    }
}

/// Rows that share one header row.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Printed as `--- heading ---` above the header row; empty prints no
    /// line.
    pub heading: String,
    /// What the columns are (`points`, `design`, …): the header row's label.
    pub axis: String,
    /// One label per column.
    pub columns: Vec<String>,
    /// Labelled rows, one cell per column.
    pub rows: Vec<(String, Vec<Cell>)>,
}

/// One paper figure or table as measured: sections of labelled rows, and
/// the paper's note to read them against.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The paper artefact and what it shows: `Fig. 3: partitioning …`.
    pub title: String,
    /// The measured series.
    pub sections: Vec<Section>,
    /// The paper's values and the shape the rows should show.
    pub note: &'static str,
}

const RULE: &str = "================================================================";

/// Row labels and cells pad to at least these widths; a wider label or
/// cell widens its whole column.
const LABEL_WIDTH: usize = 26;
const CELL_WIDTH: usize = 10;

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{RULE}\n{}\n{RULE}", self.title)?;
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            if !s.heading.is_empty() {
                writeln!(f, "--- {} ---", s.heading)?;
            }
            let lines: Vec<(&str, Vec<String>)> =
                std::iter::once((s.axis.as_str(), s.columns.clone()))
                    .chain(s.rows.iter().map(|(l, cells)| {
                        (l.as_str(), cells.iter().map(Cell::to_string).collect())
                    }))
                    .collect();
            let label_width =
                lines.iter().map(|(l, _)| l.chars().count()).fold(LABEL_WIDTH, usize::max);
            let mut widths = vec![CELL_WIDTH; s.columns.len()];
            for (_, cells) in &lines {
                for (w, c) in widths.iter_mut().zip(cells) {
                    *w = (*w).max(c.chars().count());
                }
            }
            for (label, cells) in &lines {
                write!(f, "{label:<label_width$}")?;
                for (c, w) in cells.iter().zip(&widths) {
                    write!(f, " {c:>w$}")?;
                }
                writeln!(f)?;
            }
        }
        writeln!(f)?;
        writeln!(f, "{}", self.note)
    }
}

/// Compact value formatting: 3 significant digits, engineering style.
pub(crate) fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}
