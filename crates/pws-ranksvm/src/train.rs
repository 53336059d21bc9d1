//! Pairwise hinge-loss training (the RSVM objective) by seeded SGD.
//!
//! Objective over preference pairs `(x⁺ ≻ x⁻)`:
//!
//! ```text
//! L(w) = (1/m) Σ max(0, 1 − w·(x⁺ − x⁻)) + (λ/2)‖w‖²
//! ```
//!
//! SGD with the Pegasos-style step size `η_t = η₀ / (1 + λ η₀ t)`: on each
//! pair, shrink by `η_t λ` (the regularizer), and when the margin is
//! violated add `η_t (x⁺ − x⁻)`.

use crate::model::LinearRankModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One mined preference: `better` should outrank `worse`.
#[derive(Debug, Clone, PartialEq)]
pub struct PreferencePair {
    /// Feature vector of the preferred item.
    pub better: Vec<f64>,
    /// Feature vector of the dispreferred item.
    pub worse: Vec<f64>,
}

impl PreferencePair {
    /// Convenience constructor.
    pub fn new(better: Vec<f64>, worse: Vec<f64>) -> Self {
        PreferencePair { better, worse }
    }

    /// The difference vector `x⁺ − x⁻` (padded to the longer length).
    pub fn diff(&self) -> Vec<f64> {
        let n = self.better.len().max(self.worse.len());
        (0..n)
            .map(|i| {
                self.better.get(i).copied().unwrap_or(0.0)
                    - self.worse.get(i).copied().unwrap_or(0.0)
            })
            .collect()
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Initial learning rate η₀.
    pub eta0: f64,
    /// L2 regularization strength λ.
    pub lambda: f64,
    /// Passes over the pair set.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
    /// Bitmask of weight dimensions the trainer must not change (bit `i`
    /// set = dimension `i` frozen at its pre-training value).
    ///
    /// Needed when learning from clicks: skipped documents are, by
    /// construction, ranked above the click, so the pair differences are
    /// systematically negative in rank-derived features (baseline score,
    /// rank prior). Left free, SGD drives those weights negative — the
    /// model "learns" to distrust the baseline purely from position bias.
    /// Freezing them keeps the trusted prior while the preference features
    /// train normally.
    pub frozen_mask: u32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { eta0: 0.1, lambda: 1e-4, epochs: 20, seed: 7, frozen_mask: 0 }
    }
}

/// The trainer. Stateless apart from its config; every `train` call is
/// independent and deterministic.
#[derive(Debug, Clone)]
pub struct PairwiseTrainer {
    cfg: TrainConfig,
}

impl PairwiseTrainer {
    /// Build a trainer.
    pub fn new(cfg: TrainConfig) -> Self {
        PairwiseTrainer { cfg }
    }

    /// Train a fresh model of dimension `dim` on `pairs`.
    pub fn train(&self, dim: usize, pairs: &[PreferencePair]) -> LinearRankModel {
        let mut model = LinearRankModel::zeros(dim);
        self.train_into(&mut model, pairs);
        model
    }

    /// Continue training an existing model in place (used for periodic
    /// re-training as new clicks arrive). Regularizes towards **zero**.
    pub fn train_into(&self, model: &mut LinearRankModel, pairs: &[PreferencePair]) {
        let anchor = vec![0.0; model.dim()];
        self.train_anchored(model, &anchor, pairs);
    }

    /// Train with the L2 regularizer anchored at `anchor` instead of zero:
    /// the objective becomes
    /// `Σ hinge + (λ/2)‖w − anchor‖²`.
    ///
    /// This is how the engine trains per-user models online: `anchor` is
    /// the hand-tuned prior, so when click pairs are uninformative (or
    /// purely position-biased) the model *stays at the prior* rather than
    /// drifting to zero — without it, shrinkage erases the prior even when
    /// nothing useful was learned.
    pub fn train_anchored(
        &self,
        model: &mut LinearRankModel,
        anchor: &[f64],
        pairs: &[PreferencePair],
    ) {
        if pairs.is_empty() {
            return;
        }
        // Every optimization path funnels through here, so this one span
        // covers `train`, `train_into`, and online re-training alike.
        static STAGE: std::sync::OnceLock<std::sync::Arc<pws_obs::StageMetrics>> =
            std::sync::OnceLock::new();
        let _span = STAGE.get_or_init(|| pws_obs::stage("ranksvm.train")).span();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut t: u64 = 0;
        // Snapshot frozen weights so each update can restore them.
        let frozen: Vec<(usize, f64)> = (0..model.dim())
            .filter(|i| *i < 32 && self.cfg.frozen_mask & (1 << i) != 0)
            .map(|i| (i, model.weights[i]))
            .collect();
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1;
                let eta = self.cfg.eta0 / (1.0 + self.cfg.lambda * self.cfg.eta0 * t as f64);
                let diff = pairs[i].diff();
                let margin = model.score(&diff);
                // Shrink towards the anchor: w ← w − ηλ(w − a) = (1−ηλ)w + ηλa.
                let shrink = eta * self.cfg.lambda;
                if margin < 1.0 {
                    model.scale_and_add(shrink, eta, &diff);
                } else {
                    model.scale_and_add(shrink, 0.0, &[]);
                }
                for (w, a) in model.weights.iter_mut().zip(anchor) {
                    *w += shrink * a;
                }
                for &(d, w) in &frozen {
                    model.weights[d] = w;
                }
            }
        }
    }

    /// Average hinge loss (without the regularizer) of `model` on `pairs`.
    pub fn hinge_loss(model: &LinearRankModel, pairs: &[PreferencePair]) -> f64 {
        if pairs.is_empty() {
            return 0.0;
        }
        pairs
            .iter()
            .map(|p| (1.0 - model.score(&p.diff())).max(0.0))
            .sum::<f64>()
            / pairs.len() as f64
    }
}

/// Fraction of pairs ranked correctly (strictly) by `model`.
pub fn pairwise_accuracy(model: &LinearRankModel, pairs: &[PreferencePair]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let correct = pairs
        .iter()
        .filter(|p| model.score(&p.better) > model.score(&p.worse))
        .count();
    correct as f64 / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// Pairs separable by w* = (1, -1).
    fn separable_pairs(n: usize, seed: u64) -> Vec<PreferencePair> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let base: f64 = rng.gen_range(-1.0..1.0);
                // better has larger (x0 - x1).
                PreferencePair::new(
                    vec![base + rng.gen_range(0.2..1.0), base],
                    vec![base, base + rng.gen_range(0.2..1.0)],
                )
            })
            .collect()
    }

    #[test]
    fn learns_separable_data() {
        let pairs = separable_pairs(200, 1);
        let model = PairwiseTrainer::new(TrainConfig::default()).train(2, &pairs);
        assert!(pairwise_accuracy(&model, &pairs) > 0.95);
    }

    #[test]
    fn loss_decreases_with_training() {
        let pairs = separable_pairs(200, 2);
        let t = PairwiseTrainer::new(TrainConfig { epochs: 1, ..Default::default() });
        let m1 = t.train(2, &pairs);
        let t20 = PairwiseTrainer::new(TrainConfig { epochs: 20, ..Default::default() });
        let m20 = t20.train(2, &pairs);
        let l1 = PairwiseTrainer::hinge_loss(&m1, &pairs);
        let l20 = PairwiseTrainer::hinge_loss(&m20, &pairs);
        assert!(l20 <= l1, "loss went up: {l1} -> {l20}");
        let l0 = PairwiseTrainer::hinge_loss(&LinearRankModel::zeros(2), &pairs);
        assert!(l20 < l0, "training never beat the zero model");
    }

    #[test]
    fn deterministic_training() {
        let pairs = separable_pairs(50, 3);
        let t = PairwiseTrainer::new(TrainConfig::default());
        assert_eq!(t.train(2, &pairs).weights, t.train(2, &pairs).weights);
    }

    #[test]
    fn empty_pairs_noop() {
        let t = PairwiseTrainer::new(TrainConfig::default());
        let m = t.train(3, &[]);
        assert_eq!(m.weights, vec![0.0; 3]);
        assert_eq!(PairwiseTrainer::hinge_loss(&m, &[]), 0.0);
        assert_eq!(pairwise_accuracy(&m, &[]), 0.0);
    }

    #[test]
    fn regularization_bounds_weights() {
        let pairs = separable_pairs(100, 4);
        let strong = PairwiseTrainer::new(TrainConfig { lambda: 1.0, ..Default::default() })
            .train(2, &pairs);
        let weak = PairwiseTrainer::new(TrainConfig { lambda: 1e-6, ..Default::default() })
            .train(2, &pairs);
        assert!(strong.norm_sq() < weak.norm_sq());
    }

    #[test]
    fn train_into_continues_from_existing_weights() {
        let pairs = separable_pairs(100, 5);
        let t = PairwiseTrainer::new(TrainConfig { epochs: 5, ..Default::default() });
        let mut m = t.train(2, &pairs);
        let acc1 = pairwise_accuracy(&m, &pairs);
        t.train_into(&mut m, &pairs);
        let acc2 = pairwise_accuracy(&m, &pairs);
        assert!(acc2 >= acc1 - 0.05, "continued training degraded accuracy");
    }

    #[test]
    fn frozen_dimensions_keep_their_values() {
        let pairs = separable_pairs(100, 8);
        let cfg = TrainConfig { frozen_mask: 0b01, ..Default::default() };
        let mut model = LinearRankModel::from_weights(vec![0.7, 0.0]);
        PairwiseTrainer::new(cfg).train_into(&mut model, &pairs);
        assert_eq!(model.weights[0], 0.7, "frozen dim changed");
        assert_ne!(model.weights[1], 0.0, "free dim should train");
    }

    #[test]
    fn diff_pads_mismatched_lengths() {
        let p = PreferencePair::new(vec![1.0], vec![0.0, 2.0]);
        assert_eq!(p.diff(), vec![1.0, -2.0]);
    }

    #[test]
    fn noisy_data_still_learns_majority_direction() {
        let mut pairs = separable_pairs(180, 6);
        // 10% label noise: flip some pairs.
        let flipped: Vec<PreferencePair> = separable_pairs(20, 7)
            .into_iter()
            .map(|p| PreferencePair::new(p.worse, p.better))
            .collect();
        pairs.extend(flipped);
        let model = PairwiseTrainer::new(TrainConfig::default()).train(2, &pairs);
        assert!(pairwise_accuracy(&model, &pairs) > 0.8);
    }

    proptest! {
        #[test]
        fn accuracy_is_a_fraction(
            pairs in proptest::collection::vec(
                (proptest::collection::vec(-5.0f64..5.0, 3),
                 proptest::collection::vec(-5.0f64..5.0, 3)),
                1..30,
            )
        ) {
            let pairs: Vec<PreferencePair> =
                pairs.into_iter().map(|(b, w)| PreferencePair::new(b, w)).collect();
            let m = PairwiseTrainer::new(TrainConfig { epochs: 3, ..Default::default() })
                .train(3, &pairs);
            let acc = pairwise_accuracy(&m, &pairs);
            prop_assert!((0.0..=1.0).contains(&acc));
            let loss = PairwiseTrainer::hinge_loss(&m, &pairs);
            prop_assert!(loss >= 0.0 && loss.is_finite());
        }
    }
}
