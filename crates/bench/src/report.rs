//! Output helpers of the repro binary and the scaling tests: a
//! fixed-width table renderer, time formatting and robust medians.

use std::time::{Duration, Instant};

/// Render rows of cells as an aligned ASCII table with a header rule.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!(
            "{:<w$}{}",
            h,
            if i + 1 < headers.len() { "  " } else { "\n" },
            w = widths[i]
        ));
    }
    for (i, w) in widths.iter().enumerate() {
        out.push_str(&"-".repeat(*w));
        out.push_str(if i + 1 < widths.len() { "--" } else { "\n" });
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!(
                "{:<w$}{}",
                cell,
                if i + 1 < row.len() { "  " } else { "\n" },
                w = widths[i]
            ));
        }
    }
    out
}

/// Format seconds in an adaptive unit.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}min", s / 60.0)
    }
}

/// Wall time of one call of `f`.
pub fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// Median of `runs` timed calls of `run`, after one untimed warm-up
/// call, in nanoseconds. `run` returns the time it counts, usually
/// through [`timed`], so it can clean up untimed after the timed part.
pub fn median_ns(runs: usize, mut run: impl FnMut() -> Duration) -> f64 {
    run(); // warm-up: fill caches, fault pages
    let samples: Vec<f64> = (0..runs).map(|_| run().as_nanos() as f64).collect();
    criterion::stats::summarize(&samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let s = render(
            &["model", "rmse"],
            &[
                vec!["HP0".into(), "0.77".into()],
                vec!["Classroom".into(), "1.6442".into()],
            ],
        );
        assert!(s.contains("model      rmse"));
        assert!(s.contains("HP0        0.77"));
    }

    #[test]
    fn time_formats() {
        assert_eq!(fmt_secs(0.0000005), "0.5us");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(1.5), "1.50s");
        assert_eq!(fmt_secs(300.0), "5.0min");
    }
}
