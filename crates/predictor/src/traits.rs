//! The predictor vocabulary: [`Predictor`], what a differentiable search
//! needs from a hardware-metric model, and [`BatchPredictor`], the
//! coalescing interface the serving layer rides on.
//!
//! A serving layer that pulls several queued requests at once wants to
//! answer them in **one** forward pass — [`MlpPredictor::predict_batch`]
//! turns a batch into a single GEMM and is bit-identical to the per-row
//! path, so coalescing changes throughput, never values. [`BatchPredictor`]
//! abstracts exactly that capability over the [`Predictor`] vocabulary: the
//! default method is the per-row loop (correct for any predictor), and
//! models with a genuine batched path override it.

use lightnas_space::Architecture;

use crate::{EnsemblePredictor, LutPredictor, MlpPredictor};

/// The querying interface shared by the MLP predictor, the ensemble, and
/// caching wrappers — everything a differentiable search needs from a
/// hardware-metric model.
pub trait Predictor {
    /// Predicted metric for a flattened `ᾱ` encoding (Eq. 4).
    fn predict_encoding(&self, encoding: &[f32]) -> f64;

    /// Gradient of the prediction w.r.t. the encoding (`∂LAT/∂ᾱ`, Eq. 12).
    fn gradient(&self, encoding: &[f32]) -> Vec<f32>;

    /// Predicted metric for an architecture.
    fn predict(&self, arch: &Architecture) -> f64 {
        self.predict_encoding(&arch.encode())
    }
}

impl Predictor for MlpPredictor {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        MlpPredictor::predict_encoding(self, encoding)
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        MlpPredictor::gradient(self, encoding)
    }
}

impl Predictor for EnsemblePredictor {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        EnsemblePredictor::predict_encoding(self, encoding)
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        EnsemblePredictor::gradient(self, encoding)
    }
}

impl<P: Predictor + ?Sized> Predictor for &P {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        (**self).predict_encoding(encoding)
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        (**self).gradient(encoding)
    }

    fn predict(&self, arch: &Architecture) -> f64 {
        (**self).predict(arch)
    }
}

/// A [`Predictor`] that can answer many encodings in one call.
///
/// The contract is strict: `predict_encodings(encs)[i]` must be
/// **bit-identical** to `predict_encoding(&encs[i])` — batching is a
/// throughput optimization, never a semantic one. The default
/// implementation trivially satisfies this by looping.
pub trait BatchPredictor: Predictor {
    /// Predicted metric for every encoding, in order.
    fn predict_encodings(&self, encodings: &[Vec<f32>]) -> Vec<f64> {
        encodings.iter().map(|e| self.predict_encoding(e)).collect()
    }
}

impl BatchPredictor for MlpPredictor {
    /// One batched GEMM over all rows; see [`MlpPredictor::predict_batch`]
    /// for the bit-identity argument.
    fn predict_encodings(&self, encodings: &[Vec<f32>]) -> Vec<f64> {
        self.predict_batch(encodings)
    }
}

/// The LUT sum is already a handful of flops per row; the default loop *is*
/// the batched path.
impl BatchPredictor for LutPredictor {}

/// Member MLPs batch internally per [`EnsemblePredictor::predict_encoding`];
/// the loop keeps member-averaging order identical to the scalar path.
impl BatchPredictor for EnsemblePredictor {}

impl<P: BatchPredictor + ?Sized> BatchPredictor for &P {
    fn predict_encodings(&self, encodings: &[Vec<f32>]) -> Vec<f64> {
        (**self).predict_encodings(encodings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metric, MetricDataset, TrainConfig};
    use lightnas_hw::Xavier;
    use lightnas_space::SearchSpace;

    #[test]
    fn batched_trait_path_matches_per_row_for_mlp_and_lut() {
        let space = SearchSpace::standard();
        let device = Xavier::maxn();
        let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 300, 7);
        let mlp = MlpPredictor::train(
            &data,
            &TrainConfig {
                epochs: 5,
                batch_size: 128,
                lr: 2e-3,
                seed: 0,
            },
        );
        let lut = LutPredictor::build(&device, &space);
        let encs: Vec<Vec<f32>> = data.encodings()[..16].to_vec();
        for p in [&mlp as &dyn BatchPredictorDyn, &lut] {
            let batched = p.predict_encodings_dyn(&encs);
            for (enc, got) in encs.iter().zip(&batched) {
                assert_eq!(got.to_bits(), p.predict_encoding_dyn(enc).to_bits());
            }
        }
    }

    /// Object-safe shim so the test can iterate heterogeneous predictors.
    trait BatchPredictorDyn {
        fn predict_encodings_dyn(&self, encs: &[Vec<f32>]) -> Vec<f64>;
        fn predict_encoding_dyn(&self, enc: &[f32]) -> f64;
    }
    impl<P: BatchPredictor> BatchPredictorDyn for P {
        fn predict_encodings_dyn(&self, encs: &[Vec<f32>]) -> Vec<f64> {
            self.predict_encodings(encs)
        }
        fn predict_encoding_dyn(&self, enc: &[f32]) -> f64 {
            self.predict_encoding(enc)
        }
    }
}
