//! Ad topic distributions `γ_i` over the latent topic space.

/// Errors from constructing a [`TopicDist`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopicError {
    /// The weight vector was empty.
    Empty,
    /// A weight was negative or non-finite.
    InvalidWeight,
    /// Weights do not sum to 1 within tolerance.
    NotNormalized,
}

impl std::fmt::Display for TopicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopicError::Empty => write!(f, "topic distribution must have at least one topic"),
            TopicError::InvalidWeight => write!(f, "topic weights must be finite and >= 0"),
            TopicError::NotNormalized => write!(f, "topic weights must sum to 1"),
        }
    }
}

impl std::error::Error for TopicError {}

/// A probability distribution over `K` latent topics: `γ^z_i = Pr(Z=z | i)`
/// with `Σ_z γ^z_i = 1` (§3 of the paper).
#[derive(Clone, Debug, PartialEq)]
pub struct TopicDist {
    weights: Vec<f32>,
}

impl TopicDist {
    /// Validates and wraps a weight vector. Weights must be non-negative,
    /// finite and sum to 1 within `1e-4`.
    pub fn new(weights: Vec<f32>) -> Result<Self, TopicError> {
        if weights.is_empty() {
            return Err(TopicError::Empty);
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(TopicError::InvalidWeight);
        }
        let sum: f32 = weights.iter().sum();
        if (sum - 1.0).abs() > 1e-4 {
            return Err(TopicError::NotNormalized);
        }
        Ok(TopicDist { weights })
    }

    /// Uniform distribution over `k` topics.
    pub fn uniform(k: usize) -> Self {
        assert!(k > 0);
        TopicDist {
            weights: vec![1.0 / k as f32; k],
        }
    }

    /// Point mass on a single topic (`k = 1` collapses TIC to plain IC).
    pub fn single(k: usize, topic: usize) -> Self {
        assert!(topic < k);
        let mut weights = vec![0.0; k];
        weights[topic] = 1.0;
        TopicDist { weights }
    }

    /// The paper's §6 shape: mass `main_mass` on `main_topic`, the remainder
    /// spread evenly over the other topics (0.91 / 0.01 with `K = 10`).
    pub fn concentrated(k: usize, main_topic: usize, main_mass: f32) -> Self {
        assert!(k >= 1 && main_topic < k);
        assert!((0.0..=1.0).contains(&main_mass));
        if k == 1 {
            return TopicDist::single(1, 0);
        }
        let rest = (1.0 - main_mass) / (k as f32 - 1.0);
        let mut weights = vec![rest; k];
        weights[main_topic] = main_mass;
        TopicDist { weights }
    }

    /// Number of topics `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.weights.len()
    }

    /// Weight `γ^z` of topic `z`.
    #[inline]
    pub fn weight(&self, z: usize) -> f32 {
        self.weights[z]
    }

    /// Raw weight slice.
    #[inline]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The topic carrying the largest mass.
    pub fn dominant_topic(&self) -> usize {
        self.weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(z, _)| z)
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(TopicDist::new(vec![]), Err(TopicError::Empty));
        assert_eq!(
            TopicDist::new(vec![-0.5, 1.5]),
            Err(TopicError::InvalidWeight)
        );
        assert_eq!(
            TopicDist::new(vec![0.3, 0.3]),
            Err(TopicError::NotNormalized)
        );
        assert_eq!(
            TopicDist::new(vec![f32::NAN, 1.0]),
            Err(TopicError::InvalidWeight)
        );
    }

    #[test]
    fn paper_concentration_shape() {
        let d = TopicDist::concentrated(10, 3, 0.91);
        assert_eq!(d.k(), 10);
        assert!((d.weight(3) - 0.91).abs() < 1e-6);
        assert!((d.weight(0) - 0.01).abs() < 1e-6);
        assert!((d.weights().iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(d.dominant_topic(), 3);
    }

    #[test]
    fn uniform_and_single() {
        let u = TopicDist::uniform(4);
        assert!((u.weight(2) - 0.25).abs() < 1e-7);
        let s = TopicDist::single(5, 4);
        assert_eq!(s.weight(4), 1.0);
        assert_eq!(s.weight(0), 0.0);
        assert_eq!(s.dominant_topic(), 4);
    }
}
