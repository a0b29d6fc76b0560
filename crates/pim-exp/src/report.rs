//! Small plain-text table renderer shared by the experiment binaries.

/// Renders a table with a header row and aligned columns, suitable for
/// terminal output and for pasting into `CHANGES.md`.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), columns, "row width must match the header");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&render_row(header, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out
}

/// Formats a floating point value with a sensible number of digits for
/// throughput/ratio tables.
pub fn fmt_f64(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1000.0 {
        format!("{value:.0}")
    } else if value.abs() >= 10.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let header = vec!["stm".to_string(), "tx/s".to_string()];
        let rows = vec![
            vec!["NOrec".to_string(), "12345".to_string()],
            vec!["Tiny ETLWB".to_string(), "7".to_string()],
        ];
        let table = render_table(&header, &rows);
        assert!(table.contains("NOrec"));
        assert!(table.contains("Tiny ETLWB"));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].chars().filter(|&c| c == '-').count(), lines[1].len());
    }

    #[test]
    fn float_formatting_is_reasonable() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(42.25), "42.2");
        assert_eq!(fmt_f64(1.5), "1.500");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        render_table(&["a".to_string()], &[vec!["1".to_string(), "2".to_string()]]);
    }
}
