//! Regret arithmetic (Eq. 3–4) and per-ad regret reports.

/// Budget-regret: `|B − Π|` (the first term of Eq. 3).
#[inline]
pub fn budget_regret(target_budget: f64, revenue: f64) -> f64 {
    (target_budget - revenue).abs()
}

/// Overall regret for one ad: `|B − Π| + λ·|S|` (Eq. 3).
#[inline]
pub fn ad_regret(target_budget: f64, revenue: f64, lambda: f64, num_seeds: usize) -> f64 {
    budget_regret(target_budget, revenue) + lambda * num_seeds as f64
}

/// Regret decomposition for one advertiser.
#[derive(Clone, Copy, Debug)]
pub struct AdRegret {
    /// The (boosted) target budget `B'_i`.
    pub budget: f64,
    /// Expected revenue `Π_i(S_i)`.
    pub revenue: f64,
    /// Number of seeds `|S_i|`.
    pub seeds: usize,
    /// `|B'_i − Π_i|`.
    pub budget_regret: f64,
    /// `λ·|S_i|`.
    pub seed_regret: f64,
}

impl AdRegret {
    /// Builds the decomposition.
    pub fn new(budget: f64, revenue: f64, lambda: f64, seeds: usize) -> Self {
        AdRegret {
            budget,
            revenue,
            seeds,
            budget_regret: budget_regret(budget, revenue),
            seed_regret: lambda * seeds as f64,
        }
    }

    /// `R_i(S_i)` (Eq. 3).
    #[inline]
    pub fn total(&self) -> f64 {
        self.budget_regret + self.seed_regret
    }

    /// Signed slack `Π − B'`: positive = overshoot (free service),
    /// negative = undershoot (lost opportunity). The Fig. 5 metric.
    #[inline]
    pub fn signed_slack(&self) -> f64 {
        self.revenue - self.budget
    }
}

/// Regret report for a whole allocation (Eq. 4 plus diagnostics).
#[derive(Clone, Debug)]
pub struct RegretReport {
    /// Per-advertiser decomposition.
    pub per_ad: Vec<AdRegret>,
}

impl RegretReport {
    /// Builds the report from per-ad `(B'_i, Π_i, |S_i|)` tuples.
    pub fn new(rows: impl IntoIterator<Item = (f64, f64, usize)>, lambda: f64) -> Self {
        RegretReport {
            per_ad: rows
                .into_iter()
                .map(|(b, r, s)| AdRegret::new(b, r, lambda, s))
                .collect(),
        }
    }

    /// Overall regret `R(S) = Σ_i R_i(S_i)` (Eq. 4).
    pub fn total(&self) -> f64 {
        self.per_ad.iter().map(|a| a.total()).sum()
    }

    /// Total budget `B = Σ_i B'_i` — the yardstick of Theorems 2–4.
    pub fn total_budget(&self) -> f64 {
        self.per_ad.iter().map(|a| a.budget).sum()
    }

    /// Total expected revenue.
    pub fn total_revenue(&self) -> f64 {
        self.per_ad.iter().map(|a| a.revenue).sum()
    }

    /// Regret as a fraction of total budget (the §6.1 headline metric:
    /// "2.5%, 26.1%, 122%, 141% … relative to the total budget").
    pub fn relative_regret(&self) -> f64 {
        let b = self.total_budget();
        if b == 0.0 {
            0.0
        } else {
            self.total() / b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_1_allocation_a() {
        // Fig. 1 / Example 1, λ = 0: budgets (4,2,2,1); revenues (5.6,0,0,0)
        // (rounded to the first decimal as in the paper) → regret 6.6.
        let report = RegretReport::new(
            vec![(4.0, 5.6, 6), (2.0, 0.0, 0), (2.0, 0.0, 0), (1.0, 0.0, 0)],
            0.0,
        );
        assert!((report.total() - 6.6).abs() < 1e-9);
    }

    #[test]
    fn example_1_allocation_b() {
        // Allocation B: revenues (2.5, 1.7, 1.5, 0.6) → regret 2.7.
        let report = RegretReport::new(
            vec![(4.0, 2.5, 2), (2.0, 1.7, 1), (2.0, 1.5, 2), (1.0, 0.6, 1)],
            0.0,
        );
        assert!((report.total() - 2.7).abs() < 1e-9);
    }

    #[test]
    fn example_2_lambda_penalty() {
        // Example 2: with λ = 0.1 and 6 seeds, regrets become 7.2 and 3.3.
        let a = RegretReport::new(
            vec![(4.0, 5.6, 6), (2.0, 0.0, 0), (2.0, 0.0, 0), (1.0, 0.0, 0)],
            0.1,
        );
        assert!((a.total() - 7.2).abs() < 1e-9);
        let b = RegretReport::new(
            vec![(4.0, 2.5, 2), (2.0, 1.7, 1), (2.0, 1.5, 2), (1.0, 0.6, 1)],
            0.1,
        );
        assert!((b.total() - 3.3).abs() < 1e-9);
    }

    #[test]
    fn slack_sign_convention() {
        let r = AdRegret::new(10.0, 12.0, 0.0, 3);
        assert!(r.signed_slack() > 0.0, "overshoot positive");
        let r2 = AdRegret::new(10.0, 7.0, 0.5, 4);
        assert!(r2.signed_slack() < 0.0);
        assert!((r2.total() - (3.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn relative_regret() {
        let r = RegretReport::new(vec![(100.0, 95.0, 0), (100.0, 105.0, 0)], 0.0);
        assert!((r.relative_regret() - 0.05).abs() < 1e-12);
        assert!((r.total_revenue() - 200.0).abs() < 1e-12);
    }
}
