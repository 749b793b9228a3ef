//! The tables `reproduce` generates: markdown rendering, the exact cells
//! the k = 1 gate compares, and splicing into `EXPERIMENTS.md`.

use std::collections::BTreeMap;
use std::fmt;

/// One cell of a generated table.
#[derive(Clone)]
pub enum Cell {
    /// A value that does not depend on the host — a count, a modelled
    /// time or flop total, an efficiency — shown with this many decimals.
    Exact(f64, usize),
    /// Anything else: wall seconds, lists, labels, paper numbers.
    Text(String),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Exact(v, decimals) => write!(f, "{v:.decimals$}"),
            Cell::Text(s) => f.write_str(s),
        }
    }
}

/// An exact count.
pub fn n(v: usize) -> Cell {
    Cell::Exact(v as f64, 0)
}

/// An exact value shown with `decimals` decimals.
pub fn x(v: f64, decimals: usize) -> Cell {
    Cell::Exact(v, decimals)
}

/// A text cell.
pub fn t(s: impl ToString) -> Cell {
    Cell::Text(s.to_string())
}

/// Wall seconds measured on this host.
pub fn wall(seconds: f64) -> Cell {
    Cell::Text(format!("{seconds:.3}"))
}

/// A named table: `name` is its marker in `EXPERIMENTS.md` and the prefix
/// of its exact keys.
pub struct Table {
    pub name: String,
    header: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table with the columns of `header`, a markdown header row
    /// without its outer bars (`"k | P | dof"`).
    pub fn new(name: impl Into<String>, header: &str) -> Table {
        Table {
            name: name.into(),
            header: header.split(" | ").map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; its first cell names it.
    pub fn row(&mut self, cells: impl IntoIterator<Item = Cell>) {
        let cells: Vec<Cell> = cells.into_iter().collect();
        assert_eq!(cells.len(), self.header.len(), "{}: row width", self.name);
        self.rows.push(cells);
    }

    pub fn markdown(&self) -> String {
        let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
        let mut out = line(self.header.clone());
        out += &format!("|{}\n", "---|".repeat(self.header.len()));
        for row in &self.rows {
            out += &line(row.iter().map(Cell::to_string).collect());
        }
        out
    }

    /// Insert every exact cell into `out` under `table/row/column`.
    pub fn exact(&self, out: &mut BTreeMap<String, f64>) {
        for row in &self.rows {
            for (cell, column) in row.iter().zip(&self.header) {
                if let Cell::Exact(v, _) = cell {
                    let key = format!("{}/{}/{column}", self.name, row[0]);
                    assert!(out.insert(key.clone(), *v).is_none(), "duplicate key {key}");
                }
            }
        }
    }
}

/// `doc` with the text between `<!-- reproduce:NAME -->` and the next
/// `<!-- /reproduce -->` replaced by `body`; `None` without that marker.
pub fn splice(doc: &str, name: &str, body: &str) -> Option<String> {
    let open = format!("<!-- reproduce:{name} -->\n");
    let start = doc.find(&open)? + open.len();
    let end = start + doc[start..].find("<!-- /reproduce -->")?;
    Some(format!("{}{body}{}", &doc[..start], &doc[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_splice_and_key_their_exact_cells() {
        let mut table = Table::new("demo", "k | iters | wall s");
        table.row([n(1), n(9), wall(0.25)]);
        table.row([t("total"), x(1.5, 2), t("-")]);
        let md = table.markdown();
        assert_eq!(
            md,
            "| k | iters | wall s |\n|---|---|---|\n| 1 | 9 | 0.250 |\n| total | 1.50 | - |\n"
        );
        let mut exact = BTreeMap::new();
        table.exact(&mut exact);
        let keys: Vec<&str> = exact.keys().map(String::as_str).collect();
        assert_eq!(keys, ["demo/1/iters", "demo/1/k", "demo/total/iters"]);

        let doc = "a\n<!-- reproduce:demo -->\nold\n<!-- /reproduce -->\nb\n";
        let new = splice(doc, "demo", &md).unwrap();
        assert_eq!(
            new,
            format!("a\n<!-- reproduce:demo -->\n{md}<!-- /reproduce -->\nb\n")
        );
        assert_eq!(splice(&new, "demo", &md).as_deref(), Some(new.as_str()));
        assert!(splice(doc, "dem", &md).is_none());
    }
}
