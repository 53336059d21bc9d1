//! The linear ranking model.


/// A linear scorer `f(x) = w · x`.
///
/// Dimensions beyond either vector's length are treated as zero, so a model
/// trained on `d` features scores shorter/longer vectors gracefully (useful
/// when a feature schema grows during an online run).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRankModel {
    /// The weight vector.
    pub weights: Vec<f64>,
}

impl LinearRankModel {
    /// Zero-initialized model of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        LinearRankModel { weights: vec![0.0; dim] }
    }

    /// Model with explicit weights.
    pub fn from_weights(weights: Vec<f64>) -> Self {
        LinearRankModel { weights }
    }

    /// Number of weights.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Little-endian `f64::to_bits` byte view of the weights — the
    /// bit-exact vector serialization used by the user-state codec
    /// (`pws-store`). Round-trips NaN payloads and signed zeros exactly.
    pub fn weight_bits_le(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.weights.len() * 8);
        for w in &self.weights {
            out.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        out
    }

    /// Inverse of [`Self::weight_bits_le`]. `None` when the byte length
    /// is not a multiple of 8.
    pub fn from_weight_bits_le(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let weights = bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect();
        Some(LinearRankModel { weights })
    }

    /// Score a feature vector: dot product over the common prefix.
    pub fn score(&self, x: &[f64]) -> f64 {
        self.weights.iter().zip(x).map(|(w, v)| w * v).sum()
    }

    /// Squared L2 norm of the weights.
    pub fn norm_sq(&self) -> f64 {
        self.weights.iter().map(|w| w * w).sum()
    }

    /// `w ← (1 − shrink)·w + step·x`, growing the model if `x` is longer.
    pub fn scale_and_add(&mut self, shrink: f64, step: f64, x: &[f64]) {
        if x.len() > self.weights.len() {
            self.weights.resize(x.len(), 0.0);
        }
        let factor = 1.0 - shrink;
        for w in &mut self.weights {
            *w *= factor;
        }
        for (w, v) in self.weights.iter_mut().zip(x) {
            *w += step * v;
        }
    }

    /// Rank a set of candidate vectors: returns indices sorted by
    /// descending score, ties by ascending index (deterministic).
    pub fn rank(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&a, &b| {
            self.score(&xs[b])
                .partial_cmp(&self.score(&xs[a]))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_scores_zero() {
        let m = LinearRankModel::zeros(3);
        assert_eq!(m.score(&[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(m.dim(), 3);
    }

    #[test]
    fn score_is_dot_product() {
        let m = LinearRankModel::from_weights(vec![1.0, -2.0]);
        assert_eq!(m.score(&[3.0, 1.0]), 1.0);
    }

    #[test]
    fn length_mismatch_truncates() {
        let m = LinearRankModel::from_weights(vec![1.0, 1.0]);
        assert_eq!(m.score(&[5.0]), 5.0);
        assert_eq!(m.score(&[5.0, 1.0, 100.0]), 6.0);
    }

    #[test]
    fn scale_and_add_updates() {
        let mut m = LinearRankModel::from_weights(vec![2.0, 4.0]);
        m.scale_and_add(0.5, 1.0, &[1.0, 0.0]);
        assert_eq!(m.weights, vec![2.0, 2.0]);
    }

    #[test]
    fn scale_and_add_grows_dimension() {
        let mut m = LinearRankModel::from_weights(vec![1.0]);
        m.scale_and_add(0.0, 2.0, &[0.0, 3.0]);
        assert_eq!(m.weights, vec![1.0, 6.0]);
    }

    #[test]
    fn rank_orders_by_score_desc() {
        let m = LinearRankModel::from_weights(vec![1.0]);
        let xs = vec![vec![1.0], vec![3.0], vec![2.0]];
        assert_eq!(m.rank(&xs), vec![1, 2, 0]);
    }

    #[test]
    fn rank_tie_breaks_by_index() {
        let m = LinearRankModel::zeros(1);
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        assert_eq!(m.rank(&xs), vec![0, 1, 2]);
    }

    #[test]
    fn norm_sq() {
        let m = LinearRankModel::from_weights(vec![3.0, 4.0]);
        assert_eq!(m.norm_sq(), 25.0);
    }
}
