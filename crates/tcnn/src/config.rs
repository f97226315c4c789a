//! TCNN hyperparameters.

/// Configuration shared by the plain and transductive TCNNs.
///
/// Paper settings: "the same TCNN architecture as Bao, except that we add a
/// dropout layer with p = 0.3 between each tree convolution layer … For the
/// embedding layer, we set r = 5. Training is performed with Adam using a
/// batch size of 32, and is run for 100 epochs or convergence (defined as a
/// decrease in training loss of less than 1% over 10 epochs)."
///
/// Defaults below keep those training rules but shrink the convolution
/// channels from Bao's 256/128/64 so the full experiment suite runs on a
/// CPU. [`TcnnConfig::paper_scale`] restores Bao-size channels.
#[derive(Debug, Clone)]
pub struct TcnnConfig {
    /// Output channels of the three tree-convolution layers.
    pub channels: (usize, usize, usize),
    /// Width of the fully connected hidden layer after pooling.
    pub hidden: usize,
    /// Dropout probability between tree-convolution layers (paper: 0.3).
    pub dropout: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Minibatch size (paper: 32).
    pub batch_size: usize,
    /// Epoch cap for the first (cold) fit (paper: 100).
    pub max_epochs: usize,
    /// Epoch cap for warm-started refits during later exploration steps —
    /// the model "is initialized with the weights from the previous step",
    /// so only the newly observed cells need absorbing.
    pub warm_epochs: usize,
    /// Convergence: stop when loss decreased less than this fraction …
    pub convergence_rel: f64,
    /// … over this many epochs (paper: 1% over 10 epochs).
    pub convergence_window: usize,
    /// Train on censored cells with the Eq. 8 loss (Fig. 16 ablation
    /// disables this, training on complete cells only with plain MSE).
    pub censored_loss: bool,
    /// Worker threads for gradient shards and batched inference
    /// (0 = available parallelism).
    pub threads: usize,
}

impl Default for TcnnConfig {
    fn default() -> Self {
        TcnnConfig {
            channels: (32, 16, 8),
            hidden: 16,
            dropout: 0.3,
            lr: 1e-3,
            batch_size: 32,
            max_epochs: 40,
            warm_epochs: 12,
            convergence_rel: 0.01,
            convergence_window: 3,
            censored_loss: true,
            threads: 0,
        }
    }
}

impl TcnnConfig {
    /// Bao-size network and the paper's full training schedule (expensive
    /// on CPU; exposed for `--full` runs).
    pub fn paper_scale() -> Self {
        TcnnConfig {
            channels: (256, 128, 64),
            hidden: 32,
            max_epochs: 100,
            warm_epochs: 100,
            convergence_window: 10,
            ..Default::default()
        }
    }

    /// A very small network for unit tests.
    pub fn test_scale() -> Self {
        TcnnConfig {
            channels: (8, 8, 4),
            hidden: 8,
            max_epochs: 30,
            warm_epochs: 15,
            batch_size: 16,
            dropout: 0.0,
            ..Default::default()
        }
    }

    /// Resolved worker thread count.
    pub fn effective_threads(&self) -> usize {
        limeqo_linalg::par::resolve_threads(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_training_rules() {
        let c = TcnnConfig::default();
        assert_eq!(c.batch_size, 32);
        assert_eq!(c.dropout, 0.3);
        assert!(c.censored_loss);
    }

    #[test]
    fn paper_scale_uses_bao_channels() {
        let c = TcnnConfig::paper_scale();
        assert_eq!(c.channels, (256, 128, 64));
        assert_eq!(c.max_epochs, 100);
        assert_eq!(c.convergence_window, 10);
    }

    #[test]
    fn effective_threads_positive() {
        assert!(TcnnConfig::default().effective_threads() >= 1);
        assert_eq!(TcnnConfig { threads: 3, ..Default::default() }.effective_threads(), 3);
    }
}
