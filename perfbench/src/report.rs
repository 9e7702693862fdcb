//! The metric catalogue and the benchmark's output: a human-readable
//! summary, then one JSON line.

use std::fmt::Write as _;

use crate::stats::share;

/// A metric's name and unit, exactly as `BENCHMARK.json` lists them.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of `esvm solve` / `esvm serve` sees; measured with
/// tracing off, on every workload.
pub const END_TO_END: [MetricDef; 6] = [
    def("setup_s", "s"),
    def("solve_s", "s"),
    def("energy_wmin", "W.min"),
    def("req_p50_us", "us"),
    def("capacity_rps", "1/s"),
    def("peak_rss_mb", "MiB"),
];

/// The per-layer budget of the traced run. A layer that a workload's
/// command never enters reports 0.
pub const PER_LAYER: [MetricDef; 35] = [
    def("workload.esvt_read_s", "s"),
    def("core.miec.allocate_s", "s"),
    def("core.miec.servers_visited", "count"),
    def("core.miec.candidates_scored", "count"),
    def("core.miec.scored_share", "ratio"),
    def("core.local_search.refine_s", "s"),
    def("core.local_search.moves_considered", "count"),
    def("core.local_search.accept_share", "ratio"),
    def("simcore.audit_s", "s"),
    def("solve.residual_s", "s"),
    def("core.online.new_ms", "ms"),
    def("exper.serve.parse_us", "us"),
    def("exper.serve.handle_us.p50", "us"),
    def("exper.serve.handle_us.p99", "us"),
    def("exper.serve.session_self_us", "us"),
    def("core.online.arrive_us.p50", "us"),
    def("core.online.arrive_us.p99", "us"),
    def("core.online.awake_servers", "count"),
    def("core.online.repair_us", "us"),
    def("exper.journal.append_us.p50", "us"),
    def("exper.journal.append_us.p99", "us"),
    def("exper.journal.bytes_per_request", "B"),
    def("exper.journal.fsyncs", "count"),
    def("exper.journal.fsync_ms.p50", "ms"),
    def("exper.journal.fsync_ms.max", "ms"),
    def("exper.journal.recover_s", "s"),
    def("exper.serve.replay_s", "s"),
    def("wire.rtt_us", "us"),
    def("wire.closed_p99_us", "us"),
    def("wire.service_us.p50", "us"),
    def("wire.service_us.p99", "us"),
    def("wire.queue_wait_us.p50", "us"),
    def("wire.queue_wait_us.p99", "us"),
    def("gen.late_max_ms", "ms"),
    def("gen.late_share", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

/// `value` in `unit`, converted to seconds (time units only).
fn seconds(value: f64, unit: &str) -> f64 {
    match unit {
        "ms" => value * 1e-3,
        "us" => value * 1e-6,
        _ => value,
    }
}

/// One end-to-end figure split into layer metrics plus a residual; the
/// parts and the residual add up to the figure.
pub struct Budget {
    /// The end-to-end metric decomposed.
    pub figure: &'static str,
    /// Layer metrics on the figure's blocking path.
    pub parts: Vec<&'static str>,
    /// Layer metrics nested inside one of `parts`, shown with their
    /// share but not summed.
    pub nested: Vec<&'static str>,
    /// What the residual holds.
    pub residual: &'static str,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: request lines sent and processes run.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failures.
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Traced runs: how each end-to-end figure splits into layers.
    pub budgets: Vec<Budget>,
    /// The wall-clock counterparts of metrics measured in processor
    /// time, for the summary.
    pub wall: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!unit_of(name).is_empty(), "{name} is not in the catalogue");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Records a metric measured in processor time, keeping its
    /// wall-clock counterpart for the summary.
    pub fn set_wall(&mut self, name: &'static str, value: f64, wall: f64) {
        self.set(name, value);
        self.wall.retain(|(n, _)| *n != name);
        self.wall.push((name, wall));
    }

    /// A recorded metric, or 0 for a layer this workload never enters.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Counts `failed` of `attempted` operations, keeping the first
    /// few problem descriptions.
    pub fn tally(
        &mut self,
        attempted: u64,
        failed: u64,
        problems: impl IntoIterator<Item = String>,
    ) {
        self.attempted += attempted;
        self.failed += failed;
        for p in problems {
            if self.problems.len() < 10 {
                self.problems.push(p);
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable summary.
    pub fn summary(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        let defs = if traced {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let kind = if traced {
            "per-layer (traced run)"
        } else {
            "end-to-end"
        };
        let _ = writeln!(out, "{workload}: {kind} metrics");
        for d in defs {
            let _ = write!(
                out,
                "  {:<36} {:>16.4} {}",
                d.name,
                self.get(d.name),
                d.unit
            );
            match self.wall.iter().find(|(n, _)| *n == d.name) {
                Some((_, v)) => writeln!(out, "  (wall-clock {v:.4})"),
                None => writeln!(out),
            }
            .expect("writing to a String");
        }
        for b in &self.budgets {
            let total = self.get(b.figure);
            let total_unit = unit_of(b.figure);
            let _ = writeln!(out, "budget of {} = {total:.4} {total_unit}", b.figure);
            let in_figure_units =
                |name: &str| seconds(self.get(name), unit_of(name)) / seconds(1.0, total_unit);
            let mut summed = 0.0;
            for part in &b.parts {
                let v = in_figure_units(part);
                summed += v;
                let _ = writeln!(
                    out,
                    "  {:<36} {:>12.4} {:>7.1}%",
                    part,
                    v,
                    100.0 * share(v, total)
                );
            }
            for part in &b.nested {
                let v = in_figure_units(part);
                let _ = writeln!(
                    out,
                    "    (within) {:<27} {:>12.4} {:>7.1}%",
                    part,
                    v,
                    100.0 * share(v, total)
                );
            }
            let rest = total - summed;
            let _ = writeln!(
                out,
                "  residual: {:<26} {:>12.4} {:>7.1}%",
                b.residual,
                rest,
                100.0 * share(rest, total)
            );
        }
        let _ = writeln!(
            out,
            "checks: {} of {} operations failed (fail_share {:.6})",
            self.failed,
            self.attempted,
            share(self.failed as f64, self.attempted as f64)
        );
        for p in &self.problems {
            let _ = writeln!(out, "  {p}");
        }
        out
    }

    /// The result line: every end-to-end metric, or with `traced` every
    /// per-layer metric.
    pub fn json(&self, traced: bool) -> String {
        let defs = if traced {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics in BENCHMARK.json"
        );
    }

    #[test]
    fn json_lists_every_metric_once_with_full_digits() {
        let mut o = Outcome::default();
        o.tally(3, 0, []);
        o.set("solve_s", 2.1234567891);
        let line = o.json(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(
            line.contains("\"solve_s\": {\"value\": 2.1234567891, \"unit\": \"s\"}"),
            "{line}"
        );
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(o.json(true).matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_check_is_incorrect() {
        let mut o = Outcome::default();
        o.tally(5, 1, ["bad reply".to_owned()]);
        assert!(!o.correct());
        assert!(o.json(false).starts_with("{\"correct\": false"));
    }
}
