//! Minimal SVG line charts for the regenerated figures.
//!
//! Follows the data-viz method: form first (trend over the TW sweep →
//! lines), color by identity with a fixed, validated categorical order
//! (palette below — CVD worst adjacent ΔE 47.2, two slots below 3:1
//! contrast which the relief rule covers via direct end-labels plus the
//! `results/*.txt` table views), 2 px lines with ≥8 px markers ringed in
//! the surface color, hairline solid gridlines, text in ink tokens
//! (never the series hue), a legend for ≥2 series plus selective direct
//! end labels. Static SVG artifacts: the interactive hover layer is not
//! applicable; the table view ships beside every chart.

use std::fmt::Write as _;

/// Chart surface (light mode).
const SURFACE: &str = "#fcfcfb";
/// Primary ink.
const INK: &str = "#0b0b0b";
/// Secondary ink for axis text.
const INK_2: &str = "#52514e";
/// Hairline grid color, one step off the surface.
const GRID: &str = "#e8e8e6";
/// Fixed categorical order (validated; see module docs).
const SERIES_COLORS: [&str; 4] = ["#2a78d6", "#1baf7a", "#eda100", "#4a3aa7"];

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend / end-label name.
    pub name: String,
    /// `(x, y)` points in data space.
    pub points: Vec<(f64, f64)>,
}

/// A line chart over a shared x axis, optionally log-scaled in y.
#[derive(Debug, Clone)]
pub struct LineChart {
    title: String,
    x_label: String,
    y_label: String,
    log_y: bool,
    x_ticks: Vec<(f64, String)>,
    series: Vec<Series>,
}

impl LineChart {
    /// Creates an empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        LineChart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            log_y: false,
            x_ticks: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Switches the y axis to log10.
    pub fn log_y(mut self) -> Self {
        self.log_y = true;
        self
    }

    /// Sets explicit x tick positions and labels.
    pub fn x_ticks(mut self, ticks: Vec<(f64, String)>) -> Self {
        self.x_ticks = ticks;
        self
    }

    /// Adds a series (colors follow insertion order, never cycled past
    /// the fixed palette).
    ///
    /// # Panics
    ///
    /// Panics when more series are added than the validated palette has
    /// slots — fold extras into another chart instead.
    pub fn series(mut self, name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        assert!(
            self.series.len() < SERIES_COLORS.len(),
            "more than {} series: split into small multiples",
            SERIES_COLORS.len()
        );
        self.series.push(Series {
            name: name.into(),
            points,
        });
        self
    }

    fn y_of(&self, v: f64) -> f64 {
        if self.log_y {
            v.max(f64::MIN_POSITIVE).log10()
        } else {
            v
        }
    }

    /// Renders the chart to an SVG string.
    ///
    /// # Panics
    ///
    /// Panics if no series or points were supplied.
    pub fn to_svg(&self) -> String {
        assert!(
            self.series.iter().any(|s| !s.points.is_empty()),
            "a chart needs data"
        );
        let (w, h) = (720.0, 420.0);
        let (ml, mr, mt, mb) = (64.0, 120.0, 44.0, 52.0);
        let (pw, ph) = (w - ml - mr, h - mt - mb);

        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| self.y_of(p.1)))
            .collect();
        let (x0, x1) = (
            xs.iter().copied().fold(f64::INFINITY, f64::min),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        let (mut y0, mut y1) = (
            ys.iter().copied().fold(f64::INFINITY, f64::min),
            ys.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        if (y1 - y0).abs() < 1e-12 {
            y0 -= 1.0;
            y1 += 1.0;
        }
        let pad = (y1 - y0) * 0.06;
        y0 -= pad;
        y1 += pad;
        let sx = move |x: f64| ml + (x - x0) / (x1 - x0).max(1e-12) * pw;
        let sy = move |y: f64| mt + ph - (y - y0) / (y1 - y0) * ph;

        let mut svg = String::new();
        let _ = write!(
            svg,
            r##"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="system-ui, sans-serif"><rect width="{w}" height="{h}" fill="{SURFACE}"/>"##
        );
        let _ = write!(
            svg,
            r##"<text x="{ml}" y="24" fill="{INK}" font-size="15" font-weight="600">{}</text>"##,
            xml_escape(&self.title)
        );

        // Horizontal gridlines + y ticks (clean steps in plot space).
        for k in 0..=4 {
            let gy = mt + ph * k as f64 / 4.0;
            let val = y1 - (y1 - y0) * k as f64 / 4.0;
            let shown = if self.log_y { 10f64.powf(val) } else { val };
            let _ = write!(
                svg,
                r##"<line x1="{ml}" y1="{gy:.1}" x2="{:.1}" y2="{gy:.1}" stroke="{GRID}" stroke-width="1"/><text x="{:.1}" y="{:.1}" fill="{INK_2}" font-size="11" text-anchor="end">{}</text>"##,
                ml + pw,
                ml - 8.0,
                gy + 4.0,
                format_tick(shown)
            );
        }
        // X ticks.
        for (x, label) in &self.x_ticks {
            let gx = sx(*x);
            let _ = write!(
                svg,
                r##"<text x="{gx:.1}" y="{:.1}" fill="{INK_2}" font-size="11" text-anchor="middle">{}</text>"##,
                mt + ph + 18.0,
                xml_escape(label)
            );
        }
        // Axis labels.
        let _ = write!(
            svg,
            r##"<text x="{:.1}" y="{:.1}" fill="{INK_2}" font-size="12" text-anchor="middle">{}</text>"##,
            ml + pw / 2.0,
            h - 12.0,
            xml_escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r##"<text x="16" y="{:.1}" fill="{INK_2}" font-size="12" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"##,
            mt + ph / 2.0,
            mt + ph / 2.0,
            xml_escape(&self.y_label)
        );

        // Series: 2px round-capped lines, 8px markers with a 2px surface
        // ring, direct end labels in ink (identity from the mark color).
        for (i, s) in self.series.iter().enumerate() {
            let color = SERIES_COLORS[i];
            let mut d = String::new();
            for (k, (x, y)) in s.points.iter().enumerate() {
                let _ = write!(
                    d,
                    "{}{:.1} {:.1}",
                    if k == 0 { "M" } else { " L" },
                    sx(*x),
                    sy(self.y_of(*y))
                );
            }
            let _ = write!(
                svg,
                r##"<path d="{d}" fill="none" stroke="{color}" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>"##
            );
            for (x, y) in &s.points {
                let _ = write!(
                    svg,
                    r##"<circle cx="{:.1}" cy="{:.1}" r="4" fill="{color}" stroke="{SURFACE}" stroke-width="2"/>"##,
                    sx(*x),
                    sy(self.y_of(*y))
                );
            }
            if let Some((x, y)) = s.points.last() {
                let _ = write!(
                    svg,
                    r##"<text x="{:.1}" y="{:.1}" fill="{INK}" font-size="11">{}</text>"##,
                    sx(*x) + 10.0,
                    sy(self.y_of(*y)) + 4.0,
                    xml_escape(&s.name)
                );
            }
        }

        // Legend (always present for >= 2 series).
        if self.series.len() >= 2 {
            for (i, s) in self.series.iter().enumerate() {
                let ly = mt + 16.0 * i as f64;
                let lx = ml + pw + 14.0;
                let _ = write!(
                    svg,
                    r##"<line x1="{lx}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{}" stroke-width="2"/><text x="{:.1}" y="{:.1}" fill="{INK_2}" font-size="11">{}</text>"##,
                    ly,
                    lx + 14.0,
                    ly,
                    SERIES_COLORS[i],
                    lx + 20.0,
                    ly + 4.0,
                    xml_escape(&s.name)
                );
            }
        }
        svg.push_str("</svg>");
        svg
    }

    /// Writes the SVG to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_svg(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_svg())
    }
}

/// X ticks for a TW sweep plotted on a log2 axis: each TW at
/// `log2(tw)`, labelled with the TW itself.
pub fn tw_ticks(tws: &[u32]) -> Vec<(f64, String)> {
    tws.iter()
        .map(|&tw| (f64::from(tw).log2(), tw.to_string()))
        .collect()
}

fn format_tick(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if (1e-2..1e4).contains(&a) {
        if a >= 100.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.2}")
        }
    } else {
        format!("{v:.0e}")
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chart() -> LineChart {
        LineChart::new("t", "x", "y")
            .x_ticks(vec![(1.0, "1".into()), (2.0, "2".into())])
            .series("a", vec![(1.0, 1.0), (2.0, 4.0)])
            .series("b", vec![(1.0, 2.0), (2.0, 3.0)])
    }

    #[test]
    fn svg_contains_marks_and_identity_channels() {
        let svg = sample_chart().to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // 2px lines, ringed markers, legend and direct labels present.
        assert!(svg.contains(r#"stroke-width="2" stroke-linejoin="round""#));
        assert!(svg.matches("<circle").count() == 4);
        assert!(svg.contains(">a</text>"));
        assert!(svg.contains(">b</text>"));
        // Text never wears the series color.
        assert!(!svg.contains(&format!(
            r##"<text x="16" y="210.0" fill="{}""##,
            SERIES_COLORS[0]
        )));
    }

    #[test]
    fn log_scale_handles_decades() {
        let svg = LineChart::new("t", "x", "y")
            .log_y()
            .series("a", vec![(1.0, 1e-6), (2.0, 1e-2)])
            .to_svg();
        assert!(
            svg.contains("e-"),
            "log ticks should show scientific notation"
        );
    }

    #[test]
    #[should_panic]
    fn refuses_fifth_series() {
        let mut c = LineChart::new("t", "x", "y");
        for i in 0..5 {
            c = c.series(format!("s{i}"), vec![(0.0, 1.0)]);
        }
    }

    #[test]
    #[should_panic]
    fn refuses_empty_chart() {
        LineChart::new("t", "x", "y").to_svg();
    }

    #[test]
    fn escapes_markup_in_labels() {
        let svg = LineChart::new("a<b", "x", "y")
            .series("s&t", vec![(0.0, 1.0), (1.0, 2.0)])
            .to_svg();
        assert!(svg.contains("a&lt;b"));
        assert!(svg.contains("s&amp;t"));
    }
}
