//! Metric rows: the human-readable table and the one-line JSON result.

use crate::stats;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarises (passes, jobs or timed loops).
    pub n: usize,
    /// Interquartile distance over median across those samples; `None`
    /// for a value that is not a median of per-sample values.
    pub spread: Option<f64>,
    /// How the value was taken, when the name does not say it.
    pub note: String,
}

impl Row {
    /// The median of per-sample values.
    pub fn median(name: impl Into<String>, unit: &'static str, xs: &[f64]) -> Row {
        Row {
            name: name.into(),
            unit,
            value: if xs.is_empty() {
                0.0
            } else {
                stats::median(xs)
            },
            n: xs.len(),
            spread: Some(stats::spread(xs)),
            note: String::new(),
        }
    }

    /// A single value with no per-sample spread (a run total, or a value
    /// derived from two medians).
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Row {
        Row {
            name: name.into(),
            unit,
            value,
            n,
            spread: None,
            note: String::new(),
        }
    }

    /// The highest percentile of `xs` with at least ten samples beyond it.
    /// With fewer than eleven samples it falls back to the maximum and
    /// says so.
    pub fn tail(name: impl Into<String>, unit: &'static str, xs: &[f64]) -> Row {
        let (value, note) = match stats::tail(xs) {
            Some((pct, v)) => (v, format!("p{pct:.1}")),
            None => (
                xs.iter().copied().fold(0.0, f64::max),
                "max (fewer than 11 samples)".to_string(),
            ),
        };
        Row::single(name, unit, value, xs.len()).note(note)
    }

    pub fn note(mut self, note: impl Into<String>) -> Row {
        self.note = note.into();
        self
    }
}

/// Print `rows` as an aligned table under `title`.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("== {title}");
    println!(
        "{:<34} {:>14} {:<6} {:>7} {:>8}  note",
        "metric", "value", "unit", "n", "spread"
    );
    for r in rows {
        let spread = r
            .spread
            .map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
        println!(
            "{:<34} {:>14.4} {:<6} {:>7} {:>8}  {}",
            r.name, r.value, r.unit, r.n, spread, r.note
        );
    }
}

/// The result line: `correct`, `attempted`, `failed` and every row of
/// `rows` as `{"value", "unit"}`. A value left undefined by failed solves
/// is written as 0; in a correct run it is a bug.
pub fn json_line(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            assert!(
                r.value.is_finite() || !correct,
                "metric {} is not finite",
                r.name
            );
            let value = if r.value.is_finite() { r.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name, value, r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let rows = [Row::single("solve_ms", "ms", 1.25, 3)];
        assert_eq!(
            json_line(true, 10, 0, &rows),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"solve_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn tail_row_names_its_percentile() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let r = Row::tail("t", "ms", &xs);
        assert_eq!(r.value, 10.0);
        assert_eq!(r.note, "p50.0");
        let r = Row::tail("t", "ms", &[3.0, 1.0]);
        assert_eq!(r.value, 3.0);
    }
}
