//! Order statistics over timing samples. Every timing the harness prints
//! carries its sample count and quartiles beside the median.

/// Linear-interpolated quantile of an ascending-sorted slice; 0 for an
/// empty one (every op of the sample failed, and the run reports that).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sample count, quartiles, median and p95 of one timing.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p95: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            p25: quantile_sorted(&s, 0.25),
            p50: quantile_sorted(&s, 0.50),
            p75: quantile_sorted(&s, 0.75),
            p95: quantile_sorted(&s, 0.95),
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// Quantile of an unsorted sample (sorts a copy).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, q)
}

/// Geometric mean; ratios to a baseline average this way (Steuwer et al.).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
