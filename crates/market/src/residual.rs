//! The one residual definition every solver in this workspace reports.
//!
//! # Semantics: relative excess demand
//!
//! All solvers measure convergence as the **relative excess demand**
//! between consecutive iterates, evaluated in money space:
//!
//! ```text
//! residual = max_j |p'_j − p_j| / max(|p_j|, |p'_j|, 1e-12)
//! ```
//!
//! where `p_j` is the money committed to resource `j` (`Σ_i b_ij`) before
//! an iteration and `p'_j` after it. Under proportional pricing the money
//! on a good, its unit price, and the demand it attracts are all
//! proportional (`p_j = Σ_i b_ij / C_j`, demand `Σ_i x_ij = C_j` exactly
//! when the committed money matches the price), so the per-good *relative*
//! change is identical whether it is computed over money, unit prices, or
//! excess demand — this is the quantity the paper monitors when it waits
//! for prices to "fluctuate within 1%".
//!
//! Centralizing the fold here guarantees the number in
//! [`crate::SolveReport::residual`] means the same thing for the dense
//! Jacobi engine, the sparse proportional-response solver, and the dense
//! first-order reference — a residual
//! of `1e-6` is `1e-6` regardless of which solver produced it (asserted by
//! the `first_order` integration suite's regression test).

/// Denominator floor: keeps the relative gap finite when a good's price is
/// (numerically) zero on both sides of an iteration.
pub const RESIDUAL_FLOOR: f64 = 1e-12;

/// Maximum per-coordinate relative gap between two price (or per-good
/// money) vectors — the workspace-wide convergence residual.
///
/// Returns `0.0` for empty vectors. A non-finite input coordinate yields
/// NaN (an infinite price is ∞/∞ under the relative formula) so callers
/// can detect numerical blow-ups — a non-finite residual is treated as
/// divergence by every solver's guardrails.
///
/// # Panics
///
/// Does not panic; if the vectors differ in length the shorter one bounds
/// the fold (callers always pass equal-length vectors).
pub fn relative_price_gap(old: &[f64], new: &[f64]) -> f64 {
    let mut worst = 0.0_f64;
    for (&old, &new) in old.iter().zip(new) {
        let gap = (new - old).abs() / old.abs().max(new.abs()).max(RESIDUAL_FLOOR);
        if gap.is_nan() {
            // `f64::max` would silently drop NaN; divergence must surface.
            return f64::NAN;
        }
        if gap > worst {
            worst = gap;
        }
    }
    worst
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_have_zero_gap() {
        assert_eq!(relative_price_gap(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(relative_price_gap(&[], &[]), 0.0);
    }

    #[test]
    fn gap_is_relative_and_takes_the_max_coordinate() {
        // 10 → 11 is a 1/11 relative change; 100 → 100 contributes nothing.
        let gap = relative_price_gap(&[10.0, 100.0], &[11.0, 100.0]);
        assert!((gap - 1.0 / 11.0).abs() < 1e-15);
        // The worst coordinate wins.
        let gap = relative_price_gap(&[10.0, 100.0], &[11.0, 50.0]);
        assert!((gap - 0.5).abs() < 1e-15);
    }

    #[test]
    fn zero_to_zero_is_zero_not_nan() {
        assert_eq!(relative_price_gap(&[0.0], &[0.0]), 0.0);
    }

    #[test]
    fn appearing_price_is_a_full_relative_change() {
        // 0 → p is a relative change of 1 for any p > floor.
        let gap = relative_price_gap(&[0.0], &[3.0]);
        assert!((gap - 1.0).abs() < 1e-15);
    }

    #[test]
    fn non_finite_inputs_surface_as_nan() {
        assert!(relative_price_gap(&[1.0], &[f64::NAN]).is_nan());
        // 1 → ∞ is ∞/∞ under the relative formula: also NaN.
        assert!(relative_price_gap(&[1.0], &[f64::INFINITY]).is_nan());
        // A non-finite coordinate anywhere poisons the whole residual.
        assert!(relative_price_gap(&[1.0, 2.0], &[1.0, f64::NAN]).is_nan());
    }

    #[test]
    fn symmetric_in_direction() {
        let up = relative_price_gap(&[10.0], &[15.0]);
        let down = relative_price_gap(&[15.0], &[10.0]);
        assert_eq!(up, down);
    }
}
