//! Design-space analysis helpers: labelled series for the figure harness and
//! Pareto-frontier extraction over (performance, NCF).

use crate::classify::{classify, Classification};
use crate::design::DesignPoint;
use crate::ncf::Ncf;
use crate::scenario::Scenario;
use crate::weight::E2oWeight;
use std::fmt;

/// One point of a figure series: a labelled design with its normalized
/// performance and NCF value.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Human-readable point label (e.g. `"16 BCEs"` or `"f=0.95"`).
    pub label: String,
    /// Normalized performance (x-axis of most FOCAL figures).
    pub performance: f64,
    /// NCF value (y-axis).
    pub ncf: f64,
}

/// A labelled series of sweep points, matching one curve of a paper figure.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Series name (e.g. `"f=0.95"` in Figure 3).
    pub name: String,
    /// The curve's points, in sweep order.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        SweepSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point computed from a design comparison.
    pub fn push_design(
        &mut self,
        label: impl Into<String>,
        x: &DesignPoint,
        y: &DesignPoint,
        scenario: Scenario,
        alpha: E2oWeight,
    ) {
        let ncf = Ncf::evaluate(x, y, scenario, alpha);
        self.points.push(SweepPoint {
            label: label.into(),
            performance: x.performance() / y.performance(),
            ncf: ncf.value(),
        });
    }

    /// Appends a raw (performance, ncf) point.
    pub fn push_raw(&mut self, label: impl Into<String>, performance: f64, ncf: f64) {
        self.points.push(SweepPoint {
            label: label.into(),
            performance,
            ncf,
        });
    }

    /// The point with the lowest NCF, if the series is non-empty.
    pub fn min_ncf(&self) -> Option<&SweepPoint> {
        self.points.iter().min_by(|a, b| a.ncf.total_cmp(&b.ncf))
    }

    /// The point with the highest performance, if the series is non-empty.
    pub fn max_performance(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.performance.total_cmp(&b.performance))
    }
}

impl fmt::Display for SweepSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "series `{}` ({} points):", self.name, self.points.len())?;
        for p in &self.points {
            writeln!(
                f,
                "  {:<14} perf={:.4} ncf={:.4}",
                p.label, p.performance, p.ncf
            )?;
        }
        Ok(())
    }
}

/// A candidate in a design-space exploration: a named design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Candidate name for reports.
    pub name: String,
    /// The design's model quantities.
    pub design: DesignPoint,
}

impl Candidate {
    /// Creates a named candidate.
    pub fn new(name: impl Into<String>, design: DesignPoint) -> Self {
        Candidate {
            name: name.into(),
            design,
        }
    }
}

/// Extracts the Pareto-optimal candidates under the bi-objective
/// (maximize performance, minimize NCF vs `baseline`).
///
/// A candidate is dominated if some other candidate has performance at least
/// as high *and* NCF at least as low, with at least one strict. The paper's
/// "design points towards the bottom-right are optimal" (§5.6) is exactly
/// this frontier.
///
/// The result preserves the input order of the surviving candidates.
///
/// # Examples
///
/// ```
/// use focal_core::{pareto_frontier, Candidate, DesignPoint, E2oWeight, Scenario};
///
/// let baseline = DesignPoint::reference();
/// let cands = vec![
///     Candidate::new("slow-clean", DesignPoint::from_power_perf(1.0, 1.0, 1.0)?),
///     Candidate::new("fast-dirty", DesignPoint::from_power_perf(1.4, 2.3, 1.75)?),
///     Candidate::new("dominated", DesignPoint::from_power_perf(1.4, 2.3, 1.0)?),
/// ];
/// let frontier = pareto_frontier(&cands, &baseline, Scenario::FixedWork, E2oWeight::BALANCED);
/// let names: Vec<_> = frontier.iter().map(|c| c.name.as_str()).collect();
/// assert_eq!(names, ["slow-clean", "fast-dirty"]);
/// # Ok::<(), focal_core::ModelError>(())
/// ```
pub fn pareto_frontier<'a>(
    candidates: &'a [Candidate],
    baseline: &DesignPoint,
    scenario: Scenario,
    alpha: E2oWeight,
) -> Vec<&'a Candidate> {
    let scored: Vec<(f64, f64)> = candidates
        .iter()
        .map(|c| {
            (
                c.design.performance() / baseline.performance(),
                Ncf::evaluate(&c.design, baseline, scenario, alpha).value(),
            )
        })
        .collect();
    candidates
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let (perf_i, ncf_i) = scored[*i];
            !scored.iter().enumerate().any(|(j, &(perf_j, ncf_j))| {
                j != *i && perf_j >= perf_i && ncf_j <= ncf_i && (perf_j > perf_i || ncf_j < ncf_i)
            })
        })
        .map(|(_, c)| c)
        .collect()
}

/// Classifies every candidate against a baseline, returning
/// `(candidate, classification)` pairs — the bulk operation behind the
/// "findings" tables.
pub fn classify_all<'a>(
    candidates: &'a [Candidate],
    baseline: &DesignPoint,
    alpha: E2oWeight,
) -> Vec<(&'a Candidate, Classification)> {
    candidates
        .iter()
        .map(|c| (c, classify(&c.design, baseline, alpha)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Sustainability;

    fn dp(area: f64, power: f64, perf: f64) -> DesignPoint {
        DesignPoint::from_power_perf(area, power, perf).unwrap()
    }

    #[test]
    fn series_push_design_computes_normalized_axes() {
        let baseline = DesignPoint::reference();
        let mut s = SweepSeries::new("test");
        s.push_design(
            "x",
            &dp(2.0, 2.0, 2.0),
            &baseline,
            Scenario::FixedWork,
            E2oWeight::BALANCED,
        );
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].performance, 2.0);
        // NCF = 0.5·2 + 0.5·1 = 1.5 (energy = 2/2 = 1)
        assert!((s.points[0].ncf - 1.5).abs() < 1e-12);
    }

    #[test]
    fn series_extrema() {
        let mut s = SweepSeries::new("t");
        s.push_raw("a", 1.0, 0.9);
        s.push_raw("b", 2.0, 1.3);
        s.push_raw("c", 1.5, 0.7);
        assert_eq!(s.min_ncf().unwrap().label, "c");
        assert_eq!(s.max_performance().unwrap().label, "b");
        assert!(SweepSeries::new("empty").min_ncf().is_none());
    }

    #[test]
    fn pareto_keeps_non_dominated() {
        let baseline = DesignPoint::reference();
        let cands = vec![
            Candidate::new("a", dp(1.0, 1.0, 1.0)),
            Candidate::new("b", dp(0.9, 0.9, 1.1)), // dominates a
            Candidate::new("c", dp(2.0, 3.0, 2.0)), // fastest, worst NCF
        ];
        let frontier = pareto_frontier(&cands, &baseline, Scenario::FixedWork, E2oWeight::BALANCED);
        let names: Vec<_> = frontier.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["b", "c"]);
    }

    #[test]
    fn pareto_of_single_candidate_is_itself() {
        let baseline = DesignPoint::reference();
        let cands = vec![Candidate::new("only", dp(1.0, 1.0, 1.0))];
        let frontier = pareto_frontier(&cands, &baseline, Scenario::FixedTime, E2oWeight::BALANCED);
        assert_eq!(frontier.len(), 1);
    }

    #[test]
    fn pareto_deduplicates_identical_points_keeping_one() {
        let baseline = DesignPoint::reference();
        let cands = vec![
            Candidate::new("x1", dp(1.0, 1.0, 1.0)),
            Candidate::new("x2", dp(1.0, 1.0, 1.0)),
        ];
        let frontier = pareto_frontier(&cands, &baseline, Scenario::FixedWork, E2oWeight::BALANCED);
        // Neither strictly dominates the other, so both survive.
        assert_eq!(frontier.len(), 2);
    }

    #[test]
    fn classify_all_matches_individual_classification() {
        let baseline = DesignPoint::reference();
        let cands = vec![
            Candidate::new("good", dp(0.5, 0.5, 1.0)),
            Candidate::new("bad", dp(2.0, 2.0, 1.0)),
        ];
        let results = classify_all(&cands, &baseline, E2oWeight::BALANCED);
        assert_eq!(results[0].1.class, Sustainability::Strongly);
        assert_eq!(results[1].1.class, Sustainability::Less);
    }

    #[test]
    fn display_renders_points() {
        let mut s = SweepSeries::new("fig");
        s.push_raw("p1", 1.0, 1.0);
        let out = s.to_string();
        assert!(out.contains("fig") && out.contains("p1"));
    }
}
