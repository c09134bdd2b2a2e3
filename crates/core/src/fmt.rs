//! Minimal plain-text table rendering for the bench harnesses.

/// Render rows as an aligned table; the first row is the header.
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            // Left-align first column, right-align the rest.
            if i == 0 {
                out.push_str(&format!("{cell:<width$}", width = widths[i]));
            } else {
                out.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
        }
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&"-".repeat(*w));
            }
            out.push('\n');
        }
    }
    out
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let rows = vec![
            vec!["name".to_string(), "x".to_string()],
            vec!["longer-name".to_string(), "12.5".to_string()],
        ];
        let t = render_table(&rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].starts_with("longer-name"));
    }

    #[test]
    fn empty_table() {
        assert_eq!(render_table(&[]), "");
    }
}
