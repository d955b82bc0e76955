//! Percentiles, named metrics and the result line.

/// Nearest-rank percentile of an ascending slice (`0.0` when empty).
pub fn pct(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Sorts a sample for [`pct`].
pub fn sorted(v: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = v.into_iter().collect();
    v.sort_unstable();
    v
}

/// Median of an unsorted float sample (`0.0` when empty).
pub fn median_f(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => (m.1, m.2) = (value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` object.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// One `name  value unit` line per metric.
    pub fn table(&self, indent: &str) -> String {
        let width = self.0.iter().map(|m| m.0.len()).max().unwrap_or(0);
        self.0
            .iter()
            .map(|(n, v, u)| format!("{indent}{n:<width$}  {v:>14.3} {u}\n"))
            .collect()
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = sorted((1..=100).rev());
        assert_eq!(pct(&v, 0.5), 50.0);
        assert_eq!(pct(&v, 0.99), 99.0);
        assert_eq!(pct(&v, 1.0), 100.0);
        assert_eq!(pct(&[], 0.5), 0.0);
        assert_eq!(median_f(&[3.0, 1.0, 2.0]), 2.0);
    }
}
