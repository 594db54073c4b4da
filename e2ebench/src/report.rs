//! Sample statistics and the JSON the benchmark prints.
//!
//! The build has no serde, so the few JSON shapes the benchmark emits are
//! written by hand here. Wall timings and deterministic counts go into
//! separate maps so a reader can compare the latter for equality.

use std::fmt::Write as _;

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted samples; 0
/// for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// Host CPU time so far as `(total, stolen)` jiffies over all CPUs, from
/// the first line of `/proc/stat`; `None` when the kernel does not report
/// it. Stolen time is time the hypervisor gave to other guests.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    let steal = *fields.get(7)?;
    Some((fields[..8].iter().sum(), steal))
}

/// Ordered `name -> (value, unit)` metrics.
#[derive(Default, Debug, Clone, PartialEq)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Set `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    /// Value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with all the digits Rust's shortest round-trip form has.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One JSON object from pre-rendered `(key, value-json)` pairs.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.set("a.b", 1.5, "ms");
        m.set("n", 3.0, "count");
        m.set("a.b", 2.25, "ms");
        assert_eq!(
            m.to_json(),
            r#"{"a.b": {"value": 2.25, "unit": "ms"}, "n": {"value": 3, "unit": "count"}}"#
        );
        assert_eq!(quote("x\"y"), r#""x\"y""#);
    }
}
