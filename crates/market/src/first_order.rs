//! Proportional response dynamics, and the first-order outer loop it
//! shares with the dense reference.
//!
//! Proportional response is the classic first-order method for large
//! Fisher markets (Wu & Zhang; analyzed at scale by Gao & Kroer,
//! *First-Order Methods for Large-Scale Market Equilibrium Computation*):
//! each player splits its budget across goods **in proportion to the
//! utility each good currently earns it**. For linear utilities, with
//! per-good money `p̂_j = Σ_i b_ij` and allocation `x_ij = b_ij·C_j/p̂_j`:
//!
//! ```text
//! b'_ij = B_i · (v_ij·x_ij) / Σ_k (v_ik·x_ik)
//! ```
//!
//! which is entropic mirror descent on the Shmyrev reformulation of the
//! Eisenberg–Gale program with unit step. (A smaller step only damps the
//! update, and [`drive`] already damps on regression, so no other step is
//! offered.) For Leontief utilities the response spends proportionally to
//! `a_ij·p_j`, the equilibrium spending profile of a perfect-complements
//! player.
//!
//! Proportional response computes the **price-taking** (Fisher/Walrasian)
//! equilibrium. The dense Jacobi engine computes the *price-anticipating*
//! Nash equilibrium of the paper; the two coincide as `N → ∞` but differ
//! at small `N` — cross-validation therefore runs against the dense
//! price-taking reference in [`crate::fisher`] (see DESIGN.md
//! "Large-scale solvers").
//!
//! This module owns the outer loop both first-order engines run —
//! [`drive`]: iterate "players respond to the current per-good money,
//! money is re-totalled" until the relative excess demand
//! ([`crate::residual`]) drops below the tolerance, with the deadline
//! accounting, guardrail set (damping, divergence restart, non-finite
//! sanitization) and telemetry schema of the dense Jacobi solver.
//!
//! It also owns the sparse sweep kernel ([`solve_sparse`]): `O(nnz)`
//! allocation-free in-place updates over the CSR bid values — linear in
//! the number of (player, resource) interests, not `N·M`, which is what
//! makes `10⁶`-player markets tractable — parallelized over fixed
//! 4096-player blocks with per-block partial column sums reduced serially
//! in block order, so results are bit-identical under every
//! [`crate::ParallelPolicy`], exactly like the dense engine.

use rebudget_telemetry as telemetry;

use crate::equilibrium::{
    emit_solve_end, emit_solve_start, push_recovery, EquilibriumOptions, RecoveryAction,
    SolveReport, DIVERGENCE_FACTOR, MAX_RESTARTS, MIN_DAMPING,
};
use crate::par;
use crate::residual::relative_price_gap;
use crate::sparse::{SparseMarket, SparseOutcome, SparseUtilityKind};
use crate::Result;

/// Players per parallel work block. Fixed (independent of the thread
/// count) so the per-block partial sums — and therefore every float in
/// the solve — are a pure function of the market, not of the execution
/// schedule.
pub(crate) const BLOCK_PLAYERS: usize = 4096;

/// What one [`drive`] loop produced: the final bid values, the final
/// per-good money vector, and the usual solve report.
pub(crate) struct FirstOrderRun {
    /// Final bid values, in the same layout the sweep maintained.
    pub(crate) vals: Vec<f64>,
    /// Final per-good money `p̂_j = Σ_i b_ij` (unit price × capacity).
    pub(crate) money: Vec<f64>,
    /// Convergence/guardrail report. The caller appends any
    /// post-processing sanitizations before emitting `solve_end`.
    pub(crate) report: SolveReport,
    /// Per-iteration *unit* price vectors when history is requested.
    pub(crate) price_history: Vec<Vec<f64>>,
}

fn unit_prices(money: &[f64], capacities: &[f64]) -> Vec<f64> {
    money.iter().zip(capacities).map(|(p, c)| p / c).collect()
}

/// The first-order outer loop: repeatedly calls `sweep` to update the bid
/// values in place against the current per-good money snapshot, then
/// measures the relative excess demand and applies the shared guardrails.
///
/// `sweep(vals, money, damping, new_money)` must (1) rewrite `vals` as
/// the damped step from the `money` snapshot, (2) fill `new_money` with
/// the per-good sums of the rewritten values using a thread-count-
/// independent accumulation order, and (3) return how many rows it had to
/// sanitize (kept at their previous values because the step went
/// non-finite).
///
/// Guardrail differences from the Jacobi engine, by design:
/// first-order dynamics descend smoothly but can plateau for thousands of
/// iterations, so damping tightens only on a clear regression (residual
/// more than 2× the previous iteration's), not on every non-improving
/// step. Divergence restarts and non-finite handling are identical. The
/// two loops stay separate because the policies do not transfer: giving
/// Jacobi either this `> 2×` oscillation test or this loop's
/// 2×-improvement snapshot throttle changes the checked-in golden outputs
/// (with the `> 2×` test, `simulate bbpc 8 3 --mechanism=rebudget
/// --seed=1` moves from 4.452/0.977 to 4.430/0.975).
pub(crate) fn drive(
    capacities: &[f64],
    mut vals: Vec<f64>,
    init_money: Vec<f64>,
    options: &EquilibriumOptions,
    mut sweep: impl FnMut(&mut [f64], &[f64], f64, &mut [f64]) -> u64,
) -> FirstOrderRun {
    let m = capacities.len();
    let mut money = init_money;
    let mut new_money = vec![0.0; m];
    let mut iterations: u64 = 0;
    let mut converged = false;
    let mut timed_out = false;
    let mut residual = f64::INFINITY;
    let mut prev_residual = f64::INFINITY;
    let mut best_vals = vals.clone();
    let mut best_money = money.clone();
    let mut best_residual = f64::INFINITY;
    let mut damping = 1.0_f64;
    let mut restarts = 0usize;
    let mut recovery: Vec<RecoveryAction> = Vec::new();
    let mut price_history = Vec::new();
    let mut clock = options.deadline.start();

    while iterations < options.max_iterations as u64 {
        iterations += 1;
        // Deadline accounting mirrors the dense engine: charge up front,
        // apply the verdict after the sweep so at least one iteration
        // always runs and a final-iteration convergence still counts.
        let deadline_hit = clock.charge(1);
        let sanitized = sweep(&mut vals, &money, damping, &mut new_money);
        if sanitized > 0 {
            // One event per iteration (not per row): a poisoned market at
            // 10⁶ players must not grow an unbounded recovery trace.
            push_recovery(
                &mut recovery,
                RecoveryAction::NonFiniteSanitized {
                    iteration: iterations,
                    what: "bid row",
                },
            );
        }
        let fluctuation = relative_price_gap(&money, &new_money);
        std::mem::swap(&mut money, &mut new_money);
        residual = fluctuation;
        if telemetry::enabled() {
            telemetry::record(
                telemetry::Event::new("solver_iteration")
                    .field_u64("iteration", iterations)
                    .field_f64("residual", fluctuation)
                    .field_f64s("prices", &unit_prices(&money, capacities)),
            );
        }
        if options.record_history {
            price_history.push(unit_prices(&money, capacities));
        }
        if fluctuation <= options.price_tolerance {
            converged = true;
            break;
        }
        if deadline_hit || clock.expired() {
            timed_out = true;
            break;
        }
        let diverged = !fluctuation.is_finite()
            || fluctuation > DIVERGENCE_FACTOR * best_residual.max(options.price_tolerance);
        if diverged && restarts < MAX_RESTARTS && best_residual.is_finite() {
            restarts += 1;
            vals.clone_from(&best_vals);
            money.clone_from(&best_money);
            damping = (damping * 0.5).max(MIN_DAMPING);
            push_recovery(
                &mut recovery,
                RecoveryAction::RestartedFromStable {
                    iteration: iterations,
                },
            );
            prev_residual = f64::INFINITY;
            continue;
        }
        if fluctuation > prev_residual * 2.0 && damping > MIN_DAMPING {
            damping = (damping * 0.5).max(MIN_DAMPING);
            push_recovery(
                &mut recovery,
                RecoveryAction::OscillationDamped {
                    iteration: iterations,
                    damping,
                },
            );
        }
        // Snapshot the fallback iterate only on a 2× improvement: cloning
        // the full bid vector every iteration would dominate the sweep at
        // 10⁶ players (the residual improves monotonically on smooth
        // markets). The snapshot therefore lags the true best by at most
        // 2×, which only shifts the divergence-restart threshold and the
        // non-converged fallback slightly — never a converged result.
        if fluctuation.is_finite() && fluctuation < best_residual * 0.5 {
            best_residual = fluctuation;
            best_vals.clone_from(&vals);
            best_money.clone_from(&money);
        }
        prev_residual = fluctuation;
    }

    // Non-converged fail-safe: hand back the lowest-residual stable
    // iterate, exactly like the dense engine.
    if !converged && best_residual < residual {
        vals.clone_from(&best_vals);
        money.clone_from(&best_money);
        residual = best_residual;
        if options.record_history {
            price_history.push(unit_prices(&money, capacities));
        }
    }

    FirstOrderRun {
        vals,
        money,
        report: SolveReport {
            converged,
            iterations,
            residual,
            recovery,
            timed_out,
        },
        price_history,
    }
}

/// One entry's proportional-response step weight. The next bid row is
/// `B_i · w_ij / Σ_j w_ij`:
///
/// * linear, `w = b · v·C/p̂` — the utility the entry currently earns.
///   Fixed point: the bang-per-buck `v_j·C_j/p̂_j` is equal across the
///   support — the Eisenberg–Gale first-order condition.
/// * Leontief, `w = a·p̂/C` — fixed point `b ∝ a_j·p_j`, the Leontief
///   equilibrium spending profile.
///
/// `ratio` is the per-good factor precomputed by [`good_ratios`] — it
/// carries the division (`C/p̂` or `p̂/C`), so the per-entry hot path is
/// multiply-only. A good nobody funds (`p̂ ≤ 0`) has ratio 0 and gets
/// weight 0: with no money on it the good is free and earns no spend.
/// Multiplicative updates keep funded entries strictly positive, so this
/// only triggers for structurally unfunded goods (all interested players
/// broke).
#[inline]
fn step_weight(kind: SparseUtilityKind, bid: f64, weight: f64, ratio: f64) -> f64 {
    match kind {
        SparseUtilityKind::Linear => bid * (weight * ratio),
        SparseUtilityKind::Leontief => weight * ratio,
    }
}

/// Per-good step factor for [`step_weight`], computed once per iteration
/// (`m` divisions instead of `nnz`): linear `C_j/p̂_j`, Leontief `p̂_j/C_j`;
/// 0 for an unfunded good either way.
fn good_ratios(kind: SparseUtilityKind, capacities: &[f64], money: &[f64], out: &mut [f64]) {
    for ((r, &c), &p) in out.iter_mut().zip(capacities).zip(money) {
        *r = if p > 0.0 {
            match kind {
                SparseUtilityKind::Linear => c / p,
                SparseUtilityKind::Leontief => p / c,
            }
        } else {
            0.0
        };
    }
}

/// Solves a sparse market with proportional response dynamics — the
/// engine behind [`SparseMarket::solve`].
///
/// Per iteration this makes two passes over each player's own CSR row
/// (one to total the step weights, one to write the damped step and
/// accumulate the block's partial column sums) — `O(nnz)` work, zero
/// allocation, and bit-identical results under every thread count.
pub(crate) fn solve_sparse(
    market: &SparseMarket,
    options: &EquilibriumOptions,
) -> Result<SparseOutcome> {
    let n = market.players();
    let m = market.resources();
    let capacities = market.capacities();
    let budgets = market.budgets();
    let interests = market.interests();
    let row_ptr = interests.row_ptr();
    let cols = interests.cols();
    let weights = interests.vals();
    let kind = market.kind();

    let _solve_span = telemetry::span!("solve");
    emit_solve_start(n, m);

    // Initial bids: each player's budget split equally over its interest
    // set — strictly positive everywhere, which multiplicative updates
    // preserve (a zero bid can never revive, so never start at zero).
    // (A value-proportional warm start was tried and saves ~1 iteration:
    // the cost is the slow geometric tail, not the initial transient.)
    let mut vals = vec![0.0; interests.nnz()];
    for i in 0..n {
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        if hi > lo {
            vals[lo..hi].fill(budgets[i] / (hi - lo) as f64);
        }
    }
    // Warm start: overlay usable seed rows (CSR value layout) over the
    // equal split, rescaled to each player's current budget. Exact-zero
    // seed entries (underflow in the previous converged run) are lifted
    // to a tiny positive floor — a zero can never revive under the
    // multiplicative step; unusable rows keep the cold start.
    if let Some(warm) = options.warm_start.as_deref() {
        if warm.bids.len() == vals.len() {
            for i in 0..n {
                let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
                crate::equilibrium::warm_overlay_multiplicative(
                    &mut vals[lo..hi],
                    &warm.bids[lo..hi],
                    budgets[i],
                );
            }
        }
    }
    let mut init_money = vec![0.0; m];
    for (&c, &b) in cols.iter().zip(&vals) {
        init_money[c as usize] += b;
    }

    // Fixed player blocks: the parallel unit of work. `block_ptr[b]` is
    // the CSR value offset where block `b` begins; per-block scratch
    // carries `m` partial column sums plus a sanitized-row count.
    let blocks = n.div_ceil(BLOCK_PLAYERS);
    let block_ptr: Vec<usize> = (0..=blocks)
        .map(|b| row_ptr[(b * BLOCK_PLAYERS).min(n)])
        .collect();
    let stride = m + 1;
    let mut aux = vec![0.0; blocks * stride];
    // Persistent per-good step factors: recomputed serially each sweep
    // (m divisions), shared read-only by every block.
    let mut ratios = vec![0.0; m];
    // Blocks are coarse work items (thousands of players each), so even a
    // fan-out of 2 amortizes thread cost.
    let threads = options.parallel.resolved_threads_coarse(blocks);

    let mut run = drive(
        capacities,
        vals,
        init_money,
        options,
        |vals, money, damping, new_money| {
            good_ratios(kind, capacities, money, &mut ratios);
            let ratios = &ratios;
            par::for_each_block(
                threads,
                vals,
                &block_ptr,
                &mut aux,
                stride,
                |b, band, aux| {
                    aux.fill(0.0);
                    let p_lo = (b * BLOCK_PLAYERS).min(n);
                    let p_hi = ((b + 1) * BLOCK_PLAYERS).min(n);
                    let base = row_ptr[p_lo];
                    for i in p_lo..p_hi {
                        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
                        let row = &mut band[lo - base..hi - base];
                        let row_cols = &cols[lo..hi];
                        let row_weights = &weights[lo..hi];
                        // Pass 1: total the step weights from the old row.
                        let mut w_sum = 0.0;
                        for ((&b, &c), &w) in row.iter().zip(row_cols).zip(row_weights) {
                            w_sum += step_weight(kind, b, w, ratios[c as usize]);
                        }
                        if !w_sum.is_finite() {
                            // Keep the old row; it still carries money.
                            aux[m] += 1.0;
                            for (&b, &c) in row.iter().zip(row_cols) {
                                aux[c as usize] += b;
                            }
                            continue;
                        }
                        if w_sum <= 0.0 {
                            // No positive step weight (zero budget or all
                            // goods unfunded): keep the old row silently.
                            for (&b, &c) in row.iter().zip(row_cols) {
                                aux[c as usize] += b;
                            }
                            continue;
                        }
                        // Pass 2: write the damped step and accumulate
                        // this block's partial column sums.
                        let scale = budgets[i] / w_sum;
                        for ((b, &c), &w) in row.iter_mut().zip(row_cols).zip(row_weights) {
                            let c = c as usize;
                            let target = scale * step_weight(kind, *b, w, ratios[c]);
                            let next = if damping < 1.0 {
                                (1.0 - damping) * *b + damping * target
                            } else {
                                target
                            };
                            *b = next;
                            aux[c] += next;
                        }
                    }
                },
            );
            // Serial reduce in block order: deterministic for any thread
            // count because the blocks themselves are fixed.
            new_money.fill(0.0);
            let mut sanitized = 0u64;
            for chunk in aux.chunks_exact(stride) {
                for (sum, &part) in new_money.iter_mut().zip(chunk) {
                    *sum += part;
                }
                sanitized += chunk[m] as u64;
            }
            sanitized
        },
    );

    // Final utilities at the proportional allocation `x_ij = b_ij·C_j/p̂_j`.
    let mut utilities = vec![0.0; n];
    let mut bad_utilities = false;
    for (i, u) in utilities.iter_mut().enumerate() {
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        let mut value = match kind {
            SparseUtilityKind::Linear => 0.0,
            SparseUtilityKind::Leontief => {
                if hi > lo {
                    f64::INFINITY
                } else {
                    0.0
                }
            }
        };
        for k in lo..hi {
            let c = cols[k] as usize;
            let p = run.money[c];
            let x = if p > 0.0 {
                run.vals[k] * capacities[c] / p
            } else {
                0.0
            };
            match kind {
                SparseUtilityKind::Linear => value += weights[k] * x,
                SparseUtilityKind::Leontief => value = value.min(x / weights[k]),
            }
        }
        if !value.is_finite() {
            value = 0.0;
            bad_utilities = true;
        }
        *u = value;
    }
    if bad_utilities {
        push_recovery(
            &mut run.report.recovery,
            RecoveryAction::NonFiniteSanitized {
                iteration: run.report.iterations,
                what: "utility",
            },
        );
    }

    emit_solve_end(&run.report);
    let prices = unit_prices(&run.money, capacities);
    Ok(SparseOutcome {
        bids: interests.with_vals(run.vals),
        prices,
        utilities,
        iterations: run.report.iterations,
        report: run.report,
        price_history: run.price_history,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::sparse::{SparseBids, SynthSpec};
    use crate::ParallelPolicy;

    fn tight() -> EquilibriumOptions {
        let mut opts = EquilibriumOptions::large_scale();
        opts.max_iterations = 100_000;
        opts.price_tolerance = 1e-10;
        opts
    }

    fn linear_market(
        capacities: Vec<f64>,
        budgets: Vec<f64>,
        rows: Vec<Vec<(usize, f64)>>,
    ) -> SparseMarket {
        let m = capacities.len();
        let interests = SparseBids::from_rows(m, rows).unwrap();
        SparseMarket::new(capacities, budgets, interests, SparseUtilityKind::Linear).unwrap()
    }

    #[test]
    fn complementary_linear_market_hits_known_equilibrium() {
        // v₁ = (3,1), v₂ = (1,2), B = (1,1), C = (1,1): each player spends
        // everything on its favorite good, so p = (1,1), u₁ = 3, u₂ = 2.
        // (Deliberately asymmetric: on a perfectly symmetric instance the
        // aggregate money vector is stationary while bids still move, so
        // the price residual would stop the solve early.)
        let market = linear_market(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![vec![(0, 3.0), (1, 1.0)], vec![(0, 1.0), (1, 2.0)]],
        );
        let out = solve_sparse(&market, &tight()).unwrap();
        assert!(out.converged(), "residual {}", out.report.residual);
        assert!((out.prices[0] - 1.0).abs() < 1e-6, "{:?}", out.prices);
        assert!((out.prices[1] - 1.0).abs() < 1e-6, "{:?}", out.prices);
        assert!((out.utilities[0] - 3.0).abs() < 1e-6, "{:?}", out.utilities);
        assert!((out.utilities[1] - 2.0).abs() < 1e-6, "{:?}", out.utilities);
    }

    #[test]
    fn budgets_set_prices_on_a_single_contested_good() {
        // Both players only want good 0: its price is the total budget and
        // shares are proportional to budgets.
        let market = linear_market(
            vec![1.0, 1.0],
            vec![3.0, 1.0],
            vec![vec![(0, 1.0)], vec![(0, 1.0), (1, 1.0)]],
        );
        let out = solve_sparse(&market, &tight()).unwrap();
        assert!(out.converged());
        let alloc0 = out.allocation_of(0);
        assert_eq!(alloc0[0].0, 0);
        // Player 1 splits between the contested good and the free-for-it
        // good 1; player 0's share of good 0 exceeds 3/4 of nothing-else
        // competition... just assert market clearing instead.
        let money: f64 = out.prices.iter().sum::<f64>();
        assert!((money - 4.0).abs() < 1e-6, "prices {:?}", out.prices);
    }

    #[test]
    fn leontief_symmetric_market_splits_evenly() {
        // Identical Leontief players: for them the step depends only
        // on prices (not on own bids), so the symmetric fixed point is
        // reached exactly and the even split is the equilibrium.
        let interests =
            SparseBids::from_rows(2, vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]])
                .unwrap();
        let market = SparseMarket::new(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            interests,
            SparseUtilityKind::Leontief,
        )
        .unwrap();
        let out = solve_sparse(&market, &tight()).unwrap();
        assert!(out.converged());
        for (_, x) in out.allocation_of(0) {
            assert!((x - 0.5).abs() < 1e-6);
        }
        assert!((out.utilities[0] - 0.5).abs() < 1e-6);
        assert!((out.utilities[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn leontief_fixed_point_spends_proportionally_to_prices() {
        // a₁ = (1, 2): at equilibrium b₁ ∝ (p₀, 2·p₁).
        let interests =
            SparseBids::from_rows(2, vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 1.0), (1, 1.0)]])
                .unwrap();
        let market = SparseMarket::new(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            interests,
            SparseUtilityKind::Leontief,
        )
        .unwrap();
        let out = solve_sparse(&market, &tight()).unwrap();
        assert!(out.converged());
        let b = out.bids.row_vals(0);
        let expected = [out.prices[0], 2.0 * out.prices[1]];
        let ratio = b[0] / b[1];
        let expected_ratio = expected[0] / expected[1];
        assert!(
            (ratio - expected_ratio).abs() < 1e-5,
            "bids {b:?} vs prices {:?}",
            out.prices
        );
    }

    #[test]
    fn converges_on_a_synthetic_market_to_paper_grade_residual() {
        let market = SynthSpec::new(1000, 16, 1).generate().unwrap();
        let out = solve_sparse(&market, &EquilibriumOptions::large_scale()).unwrap();
        assert!(out.converged(), "residual {}", out.report.residual);
        assert!(out.report.residual <= 1e-6);
        assert!(out.report.is_clean(), "{:?}", out.report.recovery);
        assert!(out.efficiency() > 0.0);
    }

    #[test]
    fn results_are_bit_identical_under_every_policy() {
        // Enough players for several blocks once BLOCK_PLAYERS is exceeded
        // would be slow in a unit test; instead check Serial vs Threads on
        // a market that still spans multiple blocks cheaply via a small
        // block count (n > BLOCK_PLAYERS ⇒ ≥ 2 blocks).
        let market = SynthSpec::new(2 * BLOCK_PLAYERS + 123, 16, 5)
            .generate()
            .unwrap();
        let mut opts = EquilibriumOptions::large_scale();
        opts.max_iterations = 50;
        opts.price_tolerance = 0.0; // run all 50 iterations
        let solve = |policy: ParallelPolicy| {
            let mut o = opts.clone();
            o.parallel = policy;
            solve_sparse(&market, &o).unwrap()
        };
        let serial = solve(ParallelPolicy::Serial);
        let threaded = solve(ParallelPolicy::Threads(4));
        let auto = solve(ParallelPolicy::Auto);
        assert!(serial
            .bids
            .vals()
            .iter()
            .zip(threaded.bids.vals())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(serial
            .prices
            .iter()
            .zip(&auto.prices)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(serial.report, threaded.report);
    }

    #[test]
    fn deadline_budget_is_honored() {
        let market = SynthSpec::new(500, 8, 2).generate().unwrap();
        let mut opts = EquilibriumOptions::large_scale();
        opts.price_tolerance = 0.0; // unreachable
        opts.deadline = crate::DeadlineBudget {
            wall_clock: None,
            max_iterations: Some(7),
        };
        let out = solve_sparse(&market, &opts).unwrap();
        assert!(out.report.timed_out);
        assert!(out.iterations <= 8, "ran {}", out.iterations);
        assert!(out.report.ensure_within_deadline().is_err());
    }

    #[test]
    fn history_is_recorded_on_request() {
        let market = SynthSpec::new(100, 8, 3).generate().unwrap();
        let mut opts = tight();
        opts.record_history = true;
        let out = solve_sparse(&market, &opts).unwrap();
        assert_eq!(out.price_history.len() as u64, out.iterations);
        assert_eq!(out.price_history.last().unwrap(), &out.prices);
    }

    #[test]
    fn budgets_are_conserved_by_the_update() {
        // Conservation holds at every iterate, so the default large-scale
        // tolerance is enough here.
        let market = SynthSpec::new(300, 12, 9).generate().unwrap();
        let out = solve_sparse(&market, &EquilibriumOptions::large_scale()).unwrap();
        for i in 0..market.players() {
            let spent: f64 = out.bids.row_vals(i).iter().sum();
            assert!(
                (spent - market.budgets()[i]).abs() < 1e-9,
                "player {i}: spent {spent} of {}",
                market.budgets()[i]
            );
        }
        // Market clearing: money on each good equals its column sum.
        let sums = out.bids.column_sums();
        for (j, (&p, &c)) in out.prices.iter().zip(market.capacities()).enumerate() {
            assert!(
                (p * c - sums[j]).abs() < 1e-9 * sums[j].max(1.0),
                "good {j}"
            );
        }
    }

    #[test]
    fn sparse_warm_start_converges_in_fewer_iterations() {
        use crate::equilibrium::WarmStart;
        let market = SynthSpec::new(2_000, 32, 17).generate().unwrap();
        let opts = EquilibriumOptions::large_scale();
        let cold = solve_sparse(&market, &opts).unwrap();
        assert!(cold.converged());
        let warm_opts = opts
            .clone()
            .with_warm_start(WarmStart::from_sparse(&cold).shared());
        let warm = solve_sparse(&market, &warm_opts).unwrap();
        assert!(warm.converged());
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        // And it is deterministic: bit-identical across repeats.
        let again = solve_sparse(&market, &warm_opts).unwrap();
        assert_eq!(warm.prices, again.prices);
        assert_eq!(warm.bids, again.bids);
    }

    #[test]
    fn sparse_warm_rows_with_zeros_are_lifted() {
        use crate::equilibrium::WarmStart;
        // A zero entry would be frozen forever by the multiplicative
        // step, so it is lifted to a tiny positive floor rather than
        // discarding the whole row (a converged run underflows most
        // rows' unattractive bids to exact 0.0, and rejecting them all
        // would forfeit the warm start). The seeded solve must still
        // converge to the same equilibrium.
        let market = linear_market(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![vec![(0, 3.0), (1, 1.0)], vec![(0, 1.0), (1, 2.0)]],
        );
        let opts = tight();
        let cold = solve_sparse(&market, &opts).unwrap();
        let seeded = opts.clone().with_warm_start(
            WarmStart {
                bids: vec![0.0, 1.0, 0.5, 0.5],
            }
            .shared(),
        );
        let out = solve_sparse(&market, &seeded).unwrap();
        assert!(out.converged());
        for (w, c) in out.prices.iter().zip(&cold.prices) {
            assert!((w - c).abs() < 1e-4, "warm {w} vs cold {c}");
        }
    }

    #[test]
    fn sparse_warm_rows_with_negatives_cold_start() {
        use crate::equilibrium::WarmStart;
        // Negative or non-finite seed entries are not liftable: the row
        // falls back to the equal split, which reproduces the cold solve
        // bitwise (player 1's strictly positive seed *is* the equal
        // split here).
        let market = linear_market(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![vec![(0, 3.0), (1, 1.0)], vec![(0, 1.0), (1, 2.0)]],
        );
        let opts = tight();
        let cold = solve_sparse(&market, &opts).unwrap();
        let seeded = opts.clone().with_warm_start(
            WarmStart {
                bids: vec![-0.5, 1.5, 0.5, 0.5],
            }
            .shared(),
        );
        let out = solve_sparse(&market, &seeded).unwrap();
        assert_eq!(out.prices, cold.prices);
        assert_eq!(out.bids, cold.bids);
    }

    #[test]
    fn zero_budget_player_keeps_zero_bids() {
        let market = linear_market(
            vec![1.0],
            vec![1.0, 0.0],
            vec![vec![(0, 1.0)], vec![(0, 1.0)]],
        );
        let out = solve_sparse(&market, &tight()).unwrap();
        assert!(out.converged());
        assert_eq!(out.bids.row_vals(1), &[0.0]);
        assert!((out.prices[0] - 1.0).abs() < 1e-9);
        assert!(out.report.is_clean());
    }
}
