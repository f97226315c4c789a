//! Training loop and batched inference.
//!
//! Follows the paper's schedule: Adam, minibatches of 32, up to the epoch
//! cap or until "a decrease in training loss of less than 1% over
//! [the convergence window]". Each exploration step warm-starts from the
//! previous step's weights ("the model is initialized with the weights
//! from the previous step, enabling it to build on prior learning").
//!
//! Gradient computation is data-parallel: each minibatch is split into
//! shards, every shard runs forward/backward into a private gradient
//! buffer, and the buffers are reduced in shard order (deterministic given
//! the seed). Inference over the full workload matrix fans out across
//! threads in fixed-size tree chunks.

use crate::adam::Adam;
use crate::batch::TreeBatch;
use crate::features::WorkloadFeatures;
use crate::loss::{loss_and_grad, LatencyTransform, Target};
use crate::net::{TcnnNet, Tensors};
use limeqo_core::matrix::{Cell, WorkloadMatrix};
use limeqo_linalg::par::par_map;
use limeqo_linalg::rng::SeededRng;
use limeqo_linalg::Mat;

/// Trainer bundling the network, Adam state, and the latency transform.
pub struct TcnnTrainer {
    /// The network (public for diagnostics).
    pub net: TcnnNet,
    adam: Adam,
    m: Tensors,
    v: Tensors,
    transform: Option<LatencyTransform>,
    rng: SeededRng,
    /// Epoch-mean training losses of the most recent [`TcnnTrainer::fit`].
    pub last_loss_curve: Vec<f64>,
    fits: usize,
}

struct Sample {
    row: usize,
    col: usize,
    target: Target,
}

impl TcnnTrainer {
    /// Wrap a freshly initialized network.
    pub fn new(net: TcnnNet, seed: u64) -> Self {
        let m = net.weights.zeros_like();
        let v = net.weights.zeros_like();
        let adam = Adam::new(net.cfg().lr);
        TcnnTrainer {
            net,
            adam,
            m,
            v,
            transform: None,
            rng: SeededRng::new(seed ^ 0x7417),
            last_loss_curve: Vec::new(),
            fits: 0,
        }
    }

    /// The latency transform (fitted on the first fit call).
    pub fn transform(&self) -> Option<LatencyTransform> {
        self.transform
    }

    fn build_samples(&self, wm: &WorkloadMatrix) -> Vec<Sample> {
        let censored = self.net.cfg().censored_loss;
        let mut samples = Vec::new();
        for row in 0..wm.n_rows() {
            for col in 0..wm.n_cols() {
                match wm.cell(row, col) {
                    Cell::Complete(v) => {
                        samples.push(Sample { row, col, target: Target::Exact(v) })
                    }
                    Cell::Censored(b) if censored => {
                        samples.push(Sample { row, col, target: Target::Censored(b) })
                    }
                    _ => {}
                }
            }
        }
        samples
    }

    /// Train on the observed cells of `wm`. Returns the final epoch loss.
    pub fn fit(&mut self, features: &WorkloadFeatures, wm: &WorkloadMatrix) -> f64 {
        assert!(
            wm.n_rows() <= features.n && wm.n_cols() == features.k,
            "workload matrix exceeds featurized plans ({}x{} vs {}x{})",
            wm.n_rows(),
            wm.n_cols(),
            features.n,
            features.k
        );
        let mut samples = self.build_samples(wm);
        if samples.is_empty() {
            return 0.0;
        }
        // Fit the latency transform once, on the first observed set.
        if self.transform.is_none() {
            let lats: Vec<f64> = samples
                .iter()
                .map(|s| match s.target {
                    Target::Exact(v) | Target::Censored(v) => v,
                })
                .collect();
            self.transform = Some(LatencyTransform::fit(&lats));
        }
        let tf = self.transform.expect("transform fitted");
        // Move targets into model space.
        for s in &mut samples {
            s.target = match s.target {
                Target::Exact(v) => Target::Exact(tf.forward(v)),
                Target::Censored(b) => Target::Censored(tf.forward(b)),
            };
        }

        let cfg = self.net.cfg().clone();
        let threads = cfg.effective_threads();
        let mut order: Vec<usize> = (0..samples.len()).collect();
        // Warm-started refits only need to absorb the newly observed cells.
        let epoch_cap = if self.fits == 0 { cfg.max_epochs } else { cfg.warm_epochs };
        self.fits += 1;
        let mut losses: Vec<f64> = Vec::with_capacity(epoch_cap);

        for epoch in 0..epoch_cap {
            self.rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut seen = 0usize;
            for (batch_idx, chunk) in order.chunks(cfg.batch_size).enumerate() {
                let (grads, loss_sum) =
                    self.batch_gradients(features, &samples, chunk, epoch, batch_idx, threads);
                epoch_loss += loss_sum;
                seen += chunk.len();
                self.adam.tick();
                let scale = 1.0 / chunk.len() as f64;
                for ((w, g), (m, v)) in self
                    .net
                    .weights
                    .fields_mut()
                    .into_iter()
                    .zip(grads.fields())
                    .zip(self.m.fields_mut().into_iter().zip(self.v.fields_mut()))
                {
                    if w.is_empty() {
                        continue;
                    }
                    let scaled = g.scale(scale);
                    self.adam.update(w, &scaled, m, v);
                }
            }
            let mean = epoch_loss / seen.max(1) as f64;
            losses.push(mean);
            // Convergence: relative decrease below threshold over window.
            if losses.len() > cfg.convergence_window {
                let past = losses[losses.len() - 1 - cfg.convergence_window];
                if past > 0.0 && (past - mean) / past < cfg.convergence_rel {
                    break;
                }
            }
        }
        self.last_loss_curve = losses;
        self.last_loss_curve.last().copied().unwrap_or(0.0)
    }

    /// Compute summed gradients and loss over one minibatch, sharded
    /// across threads.
    fn batch_gradients(
        &mut self,
        features: &WorkloadFeatures,
        samples: &[Sample],
        chunk: &[usize],
        epoch: usize,
        batch_idx: usize,
        threads: usize,
    ) -> (Tensors, f64) {
        // Thread-spawn overhead outweighs the work for small batches;
        // shard only when each worker gets a meaningful slice.
        let shard_count = threads.min(chunk.len() / 16).max(1);
        let shards: Vec<&[usize]> = chunk.chunks(chunk.len().div_ceil(shard_count)).collect();
        let net = &self.net;
        let base_seed = self.rng.raw_seed_for(epoch as u64, batch_idx as u64);
        // One worker per shard.
        let results = par_map(shards.len(), shards.len(), |shard_idx| {
            let shard = shards[shard_idx];
            let mut rng = SeededRng::new(base_seed ^ (shard_idx as u64).wrapping_mul(0x9E3779B9));
            let trees: Vec<_> =
                shard.iter().map(|&i| features.tree(samples[i].row, samples[i].col)).collect();
            let batch = TreeBatch::build(&trees);
            let qidx: Vec<usize> = shard.iter().map(|&i| samples[i].row).collect();
            let hidx: Vec<usize> = shard.iter().map(|&i| samples[i].col).collect();
            let (preds, cache) = net.forward(&batch, &qidx, &hidx, Some(&mut rng));
            let mut d_preds = vec![0.0; preds.len()];
            let mut loss_sum = 0.0;
            for (j, &i) in shard.iter().enumerate() {
                let (l, g) = loss_and_grad(preds[j], samples[i].target);
                loss_sum += l;
                d_preds[j] = g;
            }
            let mut grads = net.weights.zeros_like();
            net.backward(&batch, &qidx, &hidx, &cache, &d_preds, &mut grads);
            (grads, loss_sum)
        });
        let mut iter = results.into_iter();
        let (mut grads, mut loss) = iter.next().expect("at least one shard");
        for (g, l) in iter {
            grads.add_assign(&g);
            loss += l;
        }
        (grads, loss)
    }

    /// Predict the full matrix: observed values kept, unobserved cells
    /// predicted, censored cells predicted-then-clamped to their bound.
    pub fn predict_all(&self, features: &WorkloadFeatures, wm: &WorkloadMatrix) -> Mat {
        let (n, k) = (wm.n_rows(), wm.n_cols());
        let tf = self.transform.unwrap_or(LatencyTransform { mu: 0.0, sigma: 1.0 });
        let mut out = Mat::zeros(n, k);
        // Cells needing prediction.
        let mut cells: Vec<(usize, usize)> = Vec::new();
        for row in 0..n {
            for col in 0..k {
                match wm.cell(row, col) {
                    Cell::Complete(v) => out[(row, col)] = v,
                    _ => cells.push((row, col)),
                }
            }
        }
        let preds = self.predict_cells(features, &cells, tf);
        for (&(row, col), pred) in cells.iter().zip(preds) {
            out[(row, col)] = match wm.cell(row, col) {
                Cell::Censored(bound) => pred.max(bound),
                _ => pred,
            };
        }
        out
    }

    /// Predict raw latencies for specific cells (parallel, chunked).
    pub fn predict_cells(
        &self,
        features: &WorkloadFeatures,
        cells: &[(usize, usize)],
        tf: LatencyTransform,
    ) -> Vec<f64> {
        const CHUNK: usize = 512;
        let chunks: Vec<&[(usize, usize)]> = cells.chunks(CHUNK).collect();
        let preds = par_map(chunks.len(), self.net.cfg().effective_threads(), |i| {
            let chunk = chunks[i];
            let trees: Vec<_> = chunk.iter().map(|&(r, c)| features.tree(r, c)).collect();
            let batch = TreeBatch::build(&trees);
            let qidx: Vec<usize> = chunk.iter().map(|&(r, _)| r).collect();
            let hidx: Vec<usize> = chunk.iter().map(|&(_, c)| c).collect();
            let (preds, _) = self.net.forward(&batch, &qidx, &hidx, None);
            preds.into_iter().map(|p| tf.inverse(p)).collect::<Vec<f64>>()
        });
        preds.concat()
    }
}

/// Small extension to derive deterministic per-batch seeds.
trait SeedStream {
    fn raw_seed_for(&mut self, a: u64, b: u64) -> u64;
}

impl SeedStream for SeededRng {
    fn raw_seed_for(&mut self, a: u64, b: u64) -> u64 {
        use rand::RngCore;
        self.raw().next_u64() ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(17)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TcnnConfig;
    use limeqo_sim::workloads::WorkloadSpec;

    fn setup(n: usize, seed: u64) -> (std::sync::Arc<WorkloadFeatures>, Mat) {
        let mut w = WorkloadSpec::tiny(n, seed).build();
        let o = w.build_oracle();
        let f = WorkloadFeatures::build(&w);
        (f, o.true_latency)
    }

    fn observed_matrix(truth: &Mat, frac: f64, seed: u64) -> WorkloadMatrix {
        let mut rng = SeededRng::new(seed);
        let (n, k) = truth.shape();
        let mut wm = WorkloadMatrix::new(n, k);
        for i in 0..n {
            wm.set_complete(i, 0, truth[(i, 0)]);
            for j in 1..k {
                if rng.chance(frac) {
                    wm.set_complete(i, j, truth[(i, j)]);
                }
            }
        }
        wm
    }

    #[test]
    fn training_reduces_loss() {
        let (features, truth) = setup(8, 80);
        let wm = observed_matrix(&truth, 0.3, 1);
        let cfg = TcnnConfig::test_scale();
        let net =
            TcnnNet::new(limeqo_sim::features::NODE_FEATURE_DIM, 3, features.n, features.k, cfg, 2);
        let mut trainer = TcnnTrainer::new(net, 3);
        trainer.fit(&features, &wm);
        let curve = &trainer.last_loss_curve;
        assert!(curve.len() >= 2, "at least two epochs");
        let first = curve[0];
        let last = *curve.last().unwrap();
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn predict_all_keeps_observed_and_fills_rest() {
        let (features, truth) = setup(6, 81);
        let wm = observed_matrix(&truth, 0.3, 2);
        let cfg = TcnnConfig::test_scale();
        let net =
            TcnnNet::new(limeqo_sim::features::NODE_FEATURE_DIM, 0, features.n, features.k, cfg, 4);
        let mut trainer = TcnnTrainer::new(net, 5);
        trainer.fit(&features, &wm);
        let pred = trainer.predict_all(&features, &wm);
        for i in 0..wm.n_rows() {
            for j in 0..wm.n_cols() {
                match wm.cell(i, j) {
                    Cell::Complete(v) => assert_eq!(pred[(i, j)], v),
                    _ => assert!(pred[(i, j)] > 0.0 && pred[(i, j)].is_finite()),
                }
            }
        }
    }

    #[test]
    fn censored_predictions_clamped() {
        let (features, truth) = setup(5, 82);
        let mut wm = observed_matrix(&truth, 0.2, 3);
        let (r, c) = wm.unobserved_cells().next().expect("unobserved");
        wm.set_censored(r, c, 1e5);
        let cfg = TcnnConfig::test_scale();
        let net =
            TcnnNet::new(limeqo_sim::features::NODE_FEATURE_DIM, 2, features.n, features.k, cfg, 6);
        let mut trainer = TcnnTrainer::new(net, 7);
        trainer.fit(&features, &wm);
        let pred = trainer.predict_all(&features, &wm);
        assert!(pred[(r, c)] >= 1e5);
    }

    #[test]
    fn warm_start_keeps_transform_and_improves() {
        let (features, truth) = setup(6, 83);
        let wm1 = observed_matrix(&truth, 0.2, 4);
        let wm2 = observed_matrix(&truth, 0.4, 4);
        let cfg = TcnnConfig::test_scale();
        let net =
            TcnnNet::new(limeqo_sim::features::NODE_FEATURE_DIM, 2, features.n, features.k, cfg, 8);
        let mut trainer = TcnnTrainer::new(net, 9);
        trainer.fit(&features, &wm1);
        let t1 = trainer.transform().expect("fitted");
        trainer.fit(&features, &wm2);
        let t2 = trainer.transform().expect("kept");
        assert_eq!(t1.mu, t2.mu);
        assert_eq!(t1.sigma, t2.sigma);
    }

    /// FNV-1a-style fold over the bit patterns of `values`.
    fn bits_hash(values: &[f64]) -> u64 {
        values
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, v| (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3))
    }

    #[test]
    fn sharded_fit_and_chunked_inference_are_pinned() {
        // 24 queries × 49 hints: 1176 cells, three 512-cell inference chunks.
        let (features, truth) = setup(24, 84);
        let wm = observed_matrix(&truth, 0.3, 5);
        // Minibatches of 64 split into four 16-sample gradient shards, each
        // drawing its own dropout mask, reduced in shard order.
        let cfg =
            TcnnConfig { batch_size: 64, dropout: 0.3, threads: 4, ..TcnnConfig::test_scale() };
        let dim = limeqo_sim::features::NODE_FEATURE_DIM;
        let net = TcnnNet::new(dim, 3, features.n, features.k, cfg.clone(), 10);
        let mut trainer = TcnnTrainer::new(net, 11);
        trainer.fit(&features, &wm);
        let pred = trainer.predict_all(&features, &wm);
        assert_eq!(
            bits_hash(pred.as_slice()),
            0x2c5c_2998_6bca_a7a8,
            "fit or inference bits moved"
        );

        // The same weights predict the same bits serially.
        let cells: Vec<(usize, usize)> =
            (0..features.n).flat_map(|r| (0..features.k).map(move |c| (r, c))).collect();
        assert!(cells.len() > 2 * 512);
        let tf = trainer.transform().expect("fitted");
        let mut serial_net =
            TcnnNet::new(dim, 3, features.n, features.k, TcnnConfig { threads: 1, ..cfg }, 10);
        serial_net.weights = trainer.net.weights.clone();
        let serial = TcnnTrainer::new(serial_net, 11);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(serial.predict_cells(&features, &cells, tf)),
            bits(trainer.predict_cells(&features, &cells, tf))
        );
    }
}
