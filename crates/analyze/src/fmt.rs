//! Small deterministic formatting helpers shared by the subcommands.

use nscc_ckpt::Histogram;

/// Render a number compactly: integers without a trailing `.0`, other
/// values via Rust's shortest-round-trip `Display`. Deterministic, so
/// diff output can be golden-tested.
pub fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A histogram's one-line summary, `n=… mean=… p50=… p90=… p99=… max=…`,
/// with the p90 a report does not pin.
pub fn brief(h: &Histogram) -> String {
    if h.is_empty() {
        return "n=0".to_string();
    }
    format!(
        "n={} mean={:.1} p50={} p90={} p99={} max={}",
        h.count(),
        h.mean(),
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
        h.max()
    )
}

/// Virtual nanoseconds as a human-scale string (`1.25ms`, `3.4s`, …).
pub fn ns(v: u64) -> String {
    let v = v as f64;
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}us", v / 1e3)
    } else {
        format!("{v}ns")
    }
}

/// Render a value series as a unicode sparkline (`▁▂▃▄▅▆▇█`), normalized
/// to the series' own min..max (a flat series renders as all-low bars).
/// Non-finite values render as spaces.
pub fn spark(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                ' '
            } else if span <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v - lo) / span * 7.0).round() as usize;
                BARS[idx.min(7)]
            }
        })
        .collect()
}

/// Left-pad to `width` (for simple aligned tables).
pub fn pad(s: &str, width: usize) -> String {
    format!("{s:>width$}")
}

/// Render rows as a table with per-column widths, first row as header.
pub fn table(rows: &[Vec<String>]) -> String {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| pad(c, widths[i]))
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
        if ri == 0 {
            let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
            out.push_str(&sep.join("  "));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_render_compactly() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(-41.0), "-41");
        assert_eq!(num(2.5), "2.5");
        assert_eq!(num(0.0), "0");
    }

    #[test]
    fn brief_of_an_empty_histogram() {
        assert_eq!(brief(&Histogram::new()), "n=0");
    }

    #[test]
    fn ns_scales() {
        assert_eq!(ns(999), "999ns");
        assert_eq!(ns(1_500), "1.50us");
        assert_eq!(ns(2_500_000), "2.50ms");
        assert_eq!(ns(3_400_000_000), "3.40s");
    }

    #[test]
    fn sparklines_normalize_to_the_series() {
        assert_eq!(spark(&[]), "");
        assert_eq!(spark(&[1.0, 1.0, 1.0]), "▁▁▁");
        assert_eq!(spark(&[0.0, 7.0]), "▁█");
        assert_eq!(spark(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), "▁▂▃▄▅▆▇█");
        assert_eq!(spark(&[1.0, f64::NAN, 2.0]), "▁ █");
    }

    #[test]
    fn table_aligns_and_separates_header() {
        let t = table(&[
            vec!["a".into(), "long".into()],
            vec!["xx".into(), "1".into()],
        ]);
        assert_eq!(t, " a  long\n--  ----\nxx     1\n");
    }
}
