//! Least-squares line fitting.
//!
//! Every upper-bound theorem in the paper predicts a quantity that grows
//! like `a + b·log₂ p`; the experiments fit measured ratios against
//! `log₂ p` and report the slope and `R²` so the *shape* claim is checked
//! numerically, not by eyeball.

/// A fitted line `y = intercept + slope·x`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearFit {
    /// Slope `b`.
    pub slope: f64,
    /// Intercept `a`.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 for a perfect fit;
    /// defined as 0 when `y` is constant and the fit is exact).
    pub r2: f64,
}

impl LinearFit {
    /// Predicted `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Fits `y = a + b·x` by ordinary least squares.
///
/// Returns `None` for fewer than two points or a degenerate (constant) `x`.
pub fn fit_linear(points: &[(f64, f64)]) -> Option<LinearFit> {
    let n = points.len() as f64;
    if points.len() < 2 {
        return None;
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (intercept + slope * p.0)).powi(2))
        .sum();
    let r2 = if ss_tot < 1e-12 {
        if ss_res < 1e-12 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(LinearFit {
        slope,
        intercept,
        r2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let fit = fit_linear(&pts).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-9);
        assert!((fit.intercept - 3.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
        assert!((fit.predict(100.0) - 203.0).abs() < 1e-6);
    }

    #[test]
    fn noisy_line_has_lower_r2() {
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let x = i as f64;
                let noise = if i % 2 == 0 { 1.5 } else { -1.5 };
                (x, 1.0 + 0.5 * x + noise)
            })
            .collect();
        let fit = fit_linear(&pts).unwrap();
        assert!(fit.r2 < 1.0);
        assert!((fit.slope - 0.5).abs() < 0.1);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(fit_linear(&[]).is_none());
        assert!(fit_linear(&[(1.0, 2.0)]).is_none());
        assert!(fit_linear(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn constant_y_perfect_fit() {
        let fit = fit_linear(&[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r2, 1.0);
    }
}
