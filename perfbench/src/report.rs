//! A run's result: named metrics with units, failure counts and detail.

use crate::stats::Json;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// What it was computed from (sample count, base of a ratio, …).
    pub basis: String,
    /// Whether the final JSON line carries it; the others are printed and
    /// saved only.
    pub gated: bool,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics the final JSON line carries.
    pub metrics: Vec<Metric>,
    /// Operations attempted (their replies were checked).
    pub attempted: usize,
    /// Operations that failed: transport errors, refusals, budget
    /// exceedances and replies the oracle rejected.
    pub failed: usize,
    /// Correctness and durability problems; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Further detail for the saved report.
    pub detail: Json,
}

impl Report {
    /// Adds a metric listed in `BENCHMARK.json`.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        basis: impl Into<String>,
    ) {
        self.push(name.into(), unit, value, basis.into(), true);
    }

    /// Adds a metric that is printed and saved but not listed in
    /// `BENCHMARK.json`.
    pub fn info(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        basis: impl Into<String>,
    ) {
        self.push(name.into(), unit, value, basis.into(), false);
    }

    fn push(&mut self, name: String, unit: &'static str, value: f64, basis: String, gated: bool) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            basis,
            gated,
        });
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> Json {
        let mut metrics = Json::obj();
        for m in self.metrics.iter().filter(|m| m.gated) {
            let mut v = Json::obj();
            v.set("value", m.value).set("unit", m.unit);
            metrics.set(m.name.clone(), v);
        }
        let mut out = Json::obj();
        out.set("correct", self.problems.is_empty())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        out
    }

    /// The saved report: the result plus every metric's basis and the
    /// run's detail.
    pub fn to_json(&self, context: Json) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut v = Json::obj();
            v.set("value", m.value)
                .set("unit", m.unit)
                .set("basis", m.basis.clone())
                .set("gated", m.gated);
            metrics.set(m.name.clone(), v);
        }
        let mut out = Json::obj();
        out.set("context", context)
            .set("correct", self.problems.is_empty())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set(
                "problems",
                Json::Arr(
                    self.problems
                        .iter()
                        .map(|p| Json::from(p.as_str()))
                        .collect(),
                ),
            )
            .set("metrics", metrics)
            .set("detail", self.detail.clone());
        out
    }
}
