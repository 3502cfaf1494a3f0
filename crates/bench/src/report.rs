//! Paper-style text reports of experiment series.

use crate::experiment::SeriesPoint;
use std::collections::BTreeSet;

/// Formats a figure's series as the table the paper's plot encodes: one
/// row per x value, one column per λ.
///
/// `x_name` labels the swept quantity (`n`, `m`, or `labeled fraction`);
/// `metric` names the cell values (`RMSE` or `AUC`).
pub fn format_series_table(points: &[SeriesPoint], x_name: &str, metric: &str) -> String {
    if points.is_empty() {
        return format!("(no data)  x={x_name} metric={metric}\n");
    }
    let lambdas: Vec<f64> = {
        let mut set = BTreeSet::new();
        for p in points {
            set.insert(ordered(p.lambda));
        }
        set.into_iter().map(|o| o.0).collect()
    };
    let xs: Vec<f64> = {
        let mut set = BTreeSet::new();
        for p in points {
            set.insert(ordered(p.x));
        }
        set.into_iter().map(|o| o.0).collect()
    };

    let mut out = String::new();
    out.push_str(&format!("avg {metric} (rows: {x_name}; columns: lambda)\n"));
    out.push_str(&format!("{x_name:>10}"));
    for l in &lambdas {
        out.push_str(&format!("  λ={l:<8}"));
    }
    out.push('\n');
    for &x in &xs {
        out.push_str(&format!("{x:>10}"));
        for &l in &lambdas {
            match points.iter().find(|p| p.lambda == l && p.x == x) {
                Some(p) => out.push_str(&format!("  {:<10.4}", p.mean)),
                None => out.push_str("  -         "),
            }
        }
        out.push('\n');
    }
    out
}

/// Serializes series points as CSV (`lambda,x,mean,std_error,repetitions`)
/// for downstream plotting.
pub fn format_series_csv(points: &[SeriesPoint]) -> String {
    let mut out = String::from("lambda,x,mean,std_error,repetitions\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{}\n",
            p.lambda, p.x, p.mean, p.std_error, p.repetitions
        ));
    }
    out
}

/// Checks the paper's headline ordering on a series: at every x, the hard
/// criterion (λ = 0) should have the best (smallest for RMSE, largest for
/// AUC) mean. Returns the x values where the ordering is violated.
pub fn ordering_violations(points: &[SeriesPoint], larger_is_better: bool) -> Vec<f64> {
    let mut violations = Vec::new();
    let xs: BTreeSet<Ordered> = points.iter().map(|p| ordered(p.x)).collect();
    for x in xs {
        let x = x.0;
        let hard = points.iter().find(|p| p.x == x && p.lambda == 0.0);
        let Some(hard) = hard else { continue };
        for p in points.iter().filter(|p| p.x == x && p.lambda != 0.0) {
            let hard_wins = if larger_is_better {
                hard.mean >= p.mean
            } else {
                hard.mean <= p.mean
            };
            if !hard_wins {
                violations.push(x);
                break;
            }
        }
    }
    violations
}

/// Total-ordering wrapper for finite f64 keys.
#[derive(PartialEq, Clone, Copy, Debug)]
struct Ordered(f64);

impl Eq for Ordered {}

impl PartialOrd for Ordered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ordered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `ordered` admits finite keys only, so `partial_cmp` never fails.
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

fn ordered(x: f64) -> Ordered {
    assert!(x.is_finite(), "series keys must be finite");
    Ordered(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<SeriesPoint> {
        vec![
            SeriesPoint {
                lambda: 0.0,
                x: 10.0,
                mean: 0.20,
                std_error: 0.01,
                repetitions: 5,
            },
            SeriesPoint {
                lambda: 1.0,
                x: 10.0,
                mean: 0.25,
                std_error: 0.01,
                repetitions: 5,
            },
            SeriesPoint {
                lambda: 0.0,
                x: 50.0,
                mean: 0.10,
                std_error: 0.01,
                repetitions: 5,
            },
            SeriesPoint {
                lambda: 1.0,
                x: 50.0,
                mean: 0.15,
                std_error: 0.01,
                repetitions: 5,
            },
        ]
    }

    #[test]
    fn table_contains_all_cells() {
        let table = format_series_table(&sample_points(), "n", "RMSE");
        assert!(table.contains("λ=0"));
        assert!(table.contains("λ=1"));
        assert!(table.contains("0.2000"));
        assert!(table.contains("0.1500"));
        assert!(table.contains("RMSE"));
        assert!(format_series_table(&[], "n", "RMSE").contains("no data"));
    }

    #[test]
    fn csv_round_numbers() {
        let csv = format_series_csv(&sample_points());
        assert!(csv.starts_with("lambda,x,mean"));
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.contains("0,10,0.200000,0.010000,5"));
    }

    #[test]
    fn ordering_checker_flags_violations() {
        // RMSE: smaller is better. The sample is clean.
        assert!(ordering_violations(&sample_points(), false).is_empty());
        // Make the soft criterion win at x = 10 — a violation.
        let mut points = sample_points();
        points[1].mean = 0.05;
        assert_eq!(ordering_violations(&points, false), vec![10.0]);
        // For AUC (larger better) the same data flips.
        assert_eq!(ordering_violations(&sample_points(), true).len(), 2);
    }

    #[test]
    fn missing_cells_render_dashes() {
        let mut points = sample_points();
        points.remove(3);
        let table = format_series_table(&points, "n", "RMSE");
        assert!(table.contains('-'));
    }
}
