//! Report generation: figure/table data structures, aligned ASCII tables,
//! ASCII line charts, CSV and SVG writers.
//!
//! Everything is dependency-free and deterministic: the same data renders
//! to byte-identical artifacts, which lets EXPERIMENTS.md pin outputs.

use crate::json::JsonWriter;
use std::fmt::Write as _;

/// One plotted series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Build from an iterator of points.
    pub fn new(label: &str, points: Vec<(f64, f64)>) -> Series {
        Series {
            label: label.to_string(),
            points,
        }
    }

    /// y value at the given x, if sampled.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }
}

/// A figure: several series over a shared axis.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Identifier ("fig1").
    pub id: String,
    /// Title as in the paper.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl FigureData {
    /// The series with the given label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// CSV rendering: `x,label1,label2,...` header then one row per x.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label.replace(',', ";"));
        }
        out.push('\n');
        for x in xs {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, ",{y:.6}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// An ASCII chart (width×height characters), one glyph per series.
    pub fn to_ascii(&self, width: usize, height: usize) -> String {
        let glyphs = ['*', 'o', '+', 'x', '#', '@'];
        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        if all.is_empty() {
            return format!("{} (no data)\n", self.title);
        }
        let (mut x0, mut x1, mut y0, mut y1) =
            (f64::INFINITY, f64::NEG_INFINITY, 0.0_f64, f64::NEG_INFINITY);
        for &(x, y) in &all {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if (x1 - x0).abs() < 1e-12 {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < 1e-12 {
            y1 = y0 + 1.0;
        }
        let mut grid = vec![vec![' '; width]; height];
        for (si, s) in self.series.iter().enumerate() {
            let g = glyphs[si % glyphs.len()];
            for &(x, y) in &s.points {
                let cx = ((x - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
                let cy = ((y - y0) / (y1 - y0) * (height - 1) as f64).round() as usize;
                let row = height - 1 - cy.min(height - 1);
                grid[row][cx.min(width - 1)] = g;
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let _ = writeln!(out, "{} [{:.3} .. {:.3}]", self.y_label, y0, y1);
        for row in grid {
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        out.push('+');
        out.extend(std::iter::repeat_n('-', width));
        out.push('\n');
        let _ = writeln!(out, " {} [{:.3} .. {:.3}]", self.x_label, x0, x1);
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(out, "  {} {}", glyphs[si % glyphs.len()], s.label);
        }
        out
    }

    /// A minimal standalone SVG line chart.
    pub fn to_svg(&self, width: u32, height: u32) -> String {
        let colors = ["#0a6", "#d33", "#36c", "#e90", "#936", "#333"];
        let (w, h) = (width as f64, height as f64);
        let (ml, mr, mt, mb) = (60.0, 20.0, 40.0, 50.0);
        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        let (mut x0, mut x1, mut y0, mut y1) =
            (f64::INFINITY, f64::NEG_INFINITY, 0.0_f64, f64::NEG_INFINITY);
        for &(x, y) in &all {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if all.is_empty() {
            x0 = 0.0;
            x1 = 1.0;
            y1 = 1.0;
        }
        if (x1 - x0).abs() < 1e-12 {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < 1e-12 {
            y1 = y0 + 1.0;
        }
        let px = |x: f64| ml + (x - x0) / (x1 - x0) * (w - ml - mr);
        let py = |y: f64| h - mb - (y - y0) / (y1 - y0) * (h - mt - mb);
        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">"#
        );
        let _ = write!(
            svg,
            r#"<rect width="{width}" height="{height}" fill="white"/>"#
        );
        let _ = write!(
            svg,
            r#"<text x="{}" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">{}</text>"#,
            w / 2.0,
            xml_escape(&self.title)
        );
        // axes
        let _ = write!(
            svg,
            r#"<line x1="{ml}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
            h - mb,
            w - mr,
            h - mb
        );
        let _ = write!(
            svg,
            r#"<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{}" stroke="black"/>"#,
            h - mb
        );
        let _ = write!(
            svg,
            r#"<text x="{}" y="{}" font-family="sans-serif" font-size="12" text-anchor="middle">{}</text>"#,
            w / 2.0,
            h - 12.0,
            xml_escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r#"<text x="16" y="{}" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 16 {})">{}</text>"#,
            h / 2.0,
            h / 2.0,
            xml_escape(&self.y_label)
        );
        // axis extreme ticks
        for (x, anchor) in [(x0, "start"), (x1, "end")] {
            let _ = write!(
                svg,
                r#"<text x="{}" y="{}" font-family="sans-serif" font-size="10" text-anchor="{anchor}">{x:.0}</text>"#,
                px(x),
                h - mb + 16.0
            );
        }
        for y in [y0, y1] {
            let _ = write!(
                svg,
                r#"<text x="{}" y="{}" font-family="sans-serif" font-size="10" text-anchor="end">{y:.1}</text>"#,
                ml - 6.0,
                py(y) + 4.0
            );
        }
        for (si, s) in self.series.iter().enumerate() {
            let color = colors[si % colors.len()];
            let path: Vec<String> = s
                .points
                .iter()
                .map(|&(x, y)| format!("{:.1},{:.1}", px(x), py(y)))
                .collect();
            if path.len() > 1 {
                let _ = write!(
                    svg,
                    r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
                    path.join(" ")
                );
            }
            for &(x, y) in &s.points {
                let _ = write!(
                    svg,
                    r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>"#,
                    px(x),
                    py(y)
                );
            }
            // legend
            let ly = mt + 16.0 * si as f64;
            let _ = write!(
                svg,
                r#"<rect x="{}" y="{}" width="10" height="10" fill="{color}"/>"#,
                ml + 10.0,
                ly
            );
            let _ = write!(
                svg,
                r#"<text x="{}" y="{}" font-family="sans-serif" font-size="11">{}</text>"#,
                ml + 25.0,
                ly + 9.0,
                xml_escape(&s.label)
            );
        }
        svg.push_str("</svg>");
        svg
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

impl FigureData {
    /// Machine-readable JSON rendering (used by `summary.json`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj()
            .key("id")
            .str(&self.id)
            .key("title")
            .str(&self.title)
            .key("x_label")
            .str(&self.x_label)
            .key("y_label")
            .str(&self.y_label)
            .key("series")
            .begin_arr();
        for s in &self.series {
            w.begin_obj()
                .key("label")
                .str(&s.label)
                .key("points")
                .begin_arr();
            for &(x, y) in &s.points {
                w.begin_arr().f64(x).f64(y).end_arr();
            }
            w.end_arr().end_obj();
        }
        w.end_arr().end_obj();
        w.finish()
    }
}

/// A table: headers plus string rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TableData {
    /// Identifier ("table-deployment").
    pub id: String,
    /// Title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl TableData {
    /// Aligned ASCII rendering.
    pub fn to_ascii(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.extend(std::iter::repeat_n('-', w + 2));
            }
            out.push_str("+\n");
        };
        let mut out = format!("{} — {}\n", self.id, self.title);
        sep(&mut out);
        for (i, hdr) in self.headers.iter().enumerate() {
            let _ = write!(out, "| {hdr:w$} ", w = widths[i]);
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &self.rows {
            for (i, w) in widths.iter().enumerate().take(ncols) {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "| {cell:w$} ", w = w);
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        out
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| s.replace(',', ";");
        let mut out = self
            .headers
            .iter()
            .map(|h| esc(h))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Machine-readable JSON rendering (used by `summary.json`).
    pub fn to_json(&self) -> String {
        let strings = |w: &mut JsonWriter, items: &[String]| {
            w.begin_arr();
            for s in items {
                w.str(s);
            }
            w.end_arr();
        };
        let mut w = JsonWriter::new();
        w.begin_obj()
            .key("id")
            .str(&self.id)
            .key("title")
            .str(&self.title)
            .key("headers");
        strings(&mut w, &self.headers);
        w.key("rows").begin_arr();
        for row in &self.rows {
            strings(&mut w, row);
        }
        w.end_arr().end_obj();
        w.finish()
    }
}

/// Format seconds compactly for tables.
pub fn fmt_seconds(s: f64) -> String {
    if s < 1.0 {
        format!("{:.0} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.1} s")
    } else {
        format!("{:.1} min", s / 60.0)
    }
}

/// Format bytes compactly for tables.
pub fn fmt_bytes(b: u64) -> String {
    let bf = b as f64;
    if bf >= 1e9 {
        format!("{:.2} GB", bf / 1e9)
    } else if bf >= 1e6 {
        format!("{:.0} MB", bf / 1e6)
    } else if bf >= 1e3 {
        format!("{:.0} KB", bf / 1e3)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> FigureData {
        FigureData {
            id: "figT".into(),
            title: "test".into(),
            x_label: "Nodes".into(),
            y_label: "Time [s]".into(),
            series: vec![
                Series::new("a", vec![(1.0, 10.0), (2.0, 5.0), (4.0, 2.5)]),
                Series::new("b", vec![(1.0, 12.0), (2.0, 8.0)]),
            ],
        }
    }

    #[test]
    fn csv_has_header_and_gaps() {
        let csv = fig().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "Nodes,a,b");
        assert_eq!(lines.len(), 4);
        assert!(
            lines[3].ends_with(','),
            "series b missing at x=4: {}",
            lines[3]
        );
    }

    #[test]
    fn ascii_chart_contains_series_glyphs_and_legend() {
        let s = fig().to_ascii(40, 10);
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("a\n") || s.contains("* a"));
        assert!(s.contains("Nodes"));
    }

    #[test]
    fn svg_well_formed() {
        let svg = fig().to_svg(640, 400);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 5);
    }

    #[test]
    fn table_alignment() {
        let t = TableData {
            id: "t".into(),
            title: "x".into(),
            headers: vec!["Runtime".into(), "Size".into()],
            rows: vec![
                vec!["Docker".into(), "412 MB".into()],
                vec!["Singularity".into(), "451 MB".into()],
            ],
        };
        let a = t.to_ascii();
        // every rendered line between separators has equal width
        let widths: Vec<usize> = a.lines().skip(1).map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{a}");
        let csv = t.to_csv();
        assert!(csv.starts_with("Runtime,Size\n"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_seconds(0.5), "500 ms");
        assert_eq!(fmt_seconds(12.34), "12.3 s");
        assert_eq!(fmt_seconds(300.0), "5.0 min");
        assert_eq!(fmt_bytes(999), "999 B");
        assert_eq!(fmt_bytes(450_000_000), "450 MB");
        assert_eq!(fmt_bytes(2_300_000_000), "2.30 GB");
    }

    #[test]
    fn json_renderings_are_well_formed() {
        let j = fig().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains(r#""id":"figT""#));
        assert!(j.contains("[1,10]"));
        let t = TableData {
            id: "t".into(),
            title: "quo\"ted".into(),
            headers: vec!["a".into()],
            rows: vec![vec!["b,c".into()]],
        };
        let j = t.to_json();
        assert!(j.contains(r#""title":"quo\"ted""#));
        assert!(j.contains(r#"[["b,c"]]"#));
    }

    #[test]
    fn series_lookup() {
        let f = fig();
        assert_eq!(f.series_named("a").unwrap().y_at(2.0), Some(5.0));
        assert_eq!(f.series_named("a").unwrap().y_at(3.0), None);
        assert!(f.series_named("zzz").is_none());
    }
}
