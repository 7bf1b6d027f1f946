//! Exact order statistics and a minimal JSON writer.
//!
//! Every percentile the benchmark reports is an order statistic of the
//! run's raw samples (nearest-rank definition), never a histogram bucket
//! bound, and travels with its sample count.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q·n` samples at or below it. `NaN` on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, 90th and 99th percentiles of one sample set, with its
/// count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Samples strictly above the reported p99 position (`n − ⌈0.99·n⌉`);
    /// a p99 is only meaningful with at least 10 of them.
    pub beyond_p99: usize,
}

impl Summary {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Summary {
            n,
            p50: quantile(&sorted, 0.50),
            p90: quantile(&sorted, 0.90),
            p99: quantile(&sorted, 0.99),
            beyond_p99: n - ((0.99 * n as f64).ceil() as usize).min(n),
        }
    }
}

/// A JSON value. Objects keep their keys sorted so reports diff cleanly.
#[derive(Debug, Clone, Default)]
pub enum Json {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// A whole number.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Sets `key` on an object (no-op on other variants).
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
        if let Json::Obj(map) = self {
            map.insert(key.into(), value.into());
        }
        self
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    f.write_str(&out)
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // `{}` on f64 prints the shortest round-tripping form: every
            // digit as measured, no fixed rounding.
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p90, 900.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.beyond_p99, 10);
        assert_eq!(Summary::of(&[3.0]).p99, 3.0);
        assert!(Summary::of(&[]).p50.is_nan());
    }

    #[test]
    fn json_renders_sorted_and_escaped() {
        let mut o = Json::obj();
        o.set("b", 1.5)
            .set("a", "x\"y")
            .set("c", Json::Num(f64::NAN));
        assert_eq!(o.to_string(), r#"{"a": "x\"y", "b": 1.5, "c": null}"#);
    }
}
