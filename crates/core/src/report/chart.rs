//! Terminal bar charts for the figure binaries.
//!
//! The paper's figures are grouped bar charts; [`BarChart`] renders an
//! equivalent in plain text so `fig*` binaries can show the shape directly
//! in the terminal alongside the numeric tables.

use std::fmt::Write as _;

/// A horizontal grouped bar chart.
#[derive(Debug, Clone, Default)]
pub struct BarChart {
    title: String,
    max_value: Option<f64>,
    groups: Vec<(String, Vec<(String, f64)>)>,
}

impl BarChart {
    /// Creates an empty chart.
    pub fn new(title: impl Into<String>) -> Self {
        BarChart {
            title: title.into(),
            max_value: None,
            groups: Vec::new(),
        }
    }

    /// Fixes the value that maps to a full-width bar (otherwise the maximum
    /// of the data is used). Useful to make normalized-performance charts
    /// comparable across figures (`1.0` = full width).
    pub fn with_max(mut self, max: f64) -> Self {
        self.max_value = Some(max);
        self
    }

    /// Adds a group of labelled bars.
    pub fn group(&mut self, name: impl Into<String>, bars: Vec<(String, f64)>) -> &mut Self {
        self.groups.push((name.into(), bars));
        self
    }

    /// Renders the chart with bars up to `width` characters.
    pub fn render(&self, width: usize) -> String {
        let width = width.max(8);
        let data_max = self
            .groups
            .iter()
            .flat_map(|(_, bars)| bars.iter().map(|&(_, v)| v))
            .fold(0.0f64, |a, b| if b.is_finite() { a.max(b) } else { a });
        let scale_max = self.max_value.unwrap_or(data_max).max(1e-12);

        let label_width = self
            .groups
            .iter()
            .flat_map(|(_, bars)| bars.iter().map(|(l, _)| l.len()))
            .max()
            .unwrap_or(0);

        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        for (name, bars) in &self.groups {
            if !name.is_empty() {
                let _ = writeln!(out, "{name}:");
            }
            for (label, value) in bars {
                let v = if value.is_finite() { *value } else { 0.0 };
                let filled = ((v / scale_max).clamp(0.0, 1.2) * width as f64).round() as usize;
                let (solid, overflow) = if filled > width {
                    (width, filled - width)
                } else {
                    (filled, 0)
                };
                let bar: String = "█".repeat(solid) + &">".repeat(overflow.min(3));
                let _ = writeln!(out, "  {label:<label_width$} |{bar:<width$}| {v:.3}");
            }
        }
        out
    }

    /// Renders and prints with a 40-character bar width.
    #[expect(
        clippy::print_stdout,
        reason = "this is the report layer; print() is its stdout sink"
    )]
    pub fn print(&self) {
        println!("{}", self.render(40));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scaled_bars() {
        let mut c = BarChart::new("demo").with_max(1.0);
        c.group(
            "g",
            vec![
                ("full".into(), 1.0),
                ("half".into(), 0.5),
                ("zero".into(), 0.0),
            ],
        );
        let s = c.render(10);
        assert!(s.contains("demo"));
        assert!(s.contains(&"█".repeat(10)), "{s}");
        assert!(s.contains(&"█".repeat(5)), "{s}");
        assert!(s.contains("| 0.000"), "{s}");
    }

    #[test]
    fn auto_scale_uses_data_max() {
        let mut c = BarChart::new("");
        c.group("", vec![("a".into(), 4.0), ("b".into(), 2.0)]);
        let s = c.render(8);
        assert!(s.contains(&"█".repeat(8)));
        assert!(s.contains(&"█".repeat(4)));
    }

    #[test]
    fn overflow_is_marked() {
        let mut c = BarChart::new("").with_max(1.0);
        c.group("", vec![("over".into(), 1.2)]);
        let s = c.render(10);
        assert!(s.contains('>'), "{s}");
    }

    #[test]
    fn non_finite_values_render_as_zero() {
        let mut c = BarChart::new("").with_max(1.0);
        c.group("", vec![("inf".into(), f64::INFINITY)]);
        let s = c.render(10);
        assert!(s.contains("0.000"), "{s}");
    }
}
