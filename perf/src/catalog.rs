//! The metric catalogue: names, units, directions and regression bounds,
//! read from the repository's `BENCHMARK.json` so the file that declares
//! the metrics and the numbers this program prints cannot drift apart.

use cfaopc_eval::Json;

/// `BENCHMARK.json`, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<MetricDef>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

impl Catalog {
    /// The compiled-in catalogue.
    ///
    /// # Errors
    ///
    /// Returns a message when the embedded file is malformed.
    pub fn embedded() -> Result<Catalog, String> {
        Catalog::parse(BENCHMARK_JSON)
    }

    /// Parses a `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let array = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
        };
        let workloads = array("workloads")?
            .iter()
            .map(|w| str_field(w, "name").map(str::to_string))
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            array(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: str_field(m, "name")?.to_string(),
                        unit: str_field(m, "unit")?.to_string(),
                        higher_is_better: match str_field(m, "better")? {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("unknown direction {other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_usize)
            .ok_or("BENCHMARK.json: missing \"run_seconds\"")? as u64;
        Ok(Catalog {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds,
        })
    }

    /// The metrics a run prints: per-layer with tracing, else end-to-end.
    pub fn printed(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: missing string {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_catalogue_parses_and_is_consistent() {
        let c = Catalog::embedded().unwrap();
        assert_eq!(
            c.workloads,
            ["eval_small", "tile_large", "chip_small", "serve_mixed"]
        );
        assert!(c.end_to_end.iter().all(|m| m.bound.is_some()));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        let widest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(c.end_to_end.iter().all(|m| m.bound.unwrap() <= 0.25));
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
    }

    #[test]
    fn bad_direction_is_rejected() {
        let text = r#"{"workloads":[],"run_seconds":1,"per_layer":[],
            "end_to_end":[{"name":"x","unit":"s","better":"sideways","bound":0.1}]}"#;
        assert!(Catalog::parse(text).unwrap_err().contains("sideways"));
    }
}
