"""LBP + linear SVM baseline [Jaiswal et al. 2017].

A linear support-vector machine trained by deterministic full-batch
subgradient descent on the L2-regularised hinge loss (with momentum).
The paper's protocol provides only tens of training windows, so full
batches are cheap and remove SGD noise entirely — the same seed and data
always give the same hyperplane.  Features are the per-window,
per-electrode LBP-code histograms of
:func:`repro.baselines.features.window_lbp_histograms`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import WindowedDetector
from repro.baselines.features import window_lbp_histograms


class LinearSVM:
    """Binary linear SVM (primal hinge + L2, full-batch subgradient).

    Args:
        lam: L2 regularisation strength.
        epochs: Full-batch descent iterations.
        lr: Step size.
        momentum: Heavy-ball momentum coefficient.
        seed: Kept for interface stability (training is deterministic).
    """

    def __init__(
        self,
        lam: float = 1e-3,
        epochs: int = 300,
        lr: float = 0.1,
        momentum: float = 0.9,
        seed: int = 0,
    ) -> None:
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lam = lam
        self.epochs = epochs
        self.lr = lr
        self.momentum = momentum
        self.seed = seed
        self.weights: np.ndarray | None = None
        self.bias = 0.0
        self.training_losses: list[float] = []

    def _loss_and_grad(
        self, x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float
    ) -> tuple[float, np.ndarray, float]:
        scores = x @ w + b
        margins = 1.0 - y * scores
        active = margins > 0
        n = x.shape[0]
        loss = float(
            np.where(active, margins, 0.0).mean()
            + 0.5 * self.lam * (w @ w)
        )
        coeff = np.where(active, -y, 0.0) / n
        grad_w = x.T @ coeff + self.lam * w
        grad_b = float(coeff.sum())
        return loss, grad_w, grad_b

    def fit(self, features: np.ndarray, labels01: np.ndarray) -> "LinearSVM":
        """Train on ``(n, d)`` features with 0/1 labels."""
        x = np.asarray(features, dtype=np.float64)
        y01 = np.asarray(labels01)
        if x.ndim != 2 or y01.shape != (x.shape[0],):
            raise ValueError("features must be (n, d) with aligned labels")
        if len(np.unique(y01)) < 2:
            raise ValueError("training data must contain both classes")
        y = np.where(y01 > 0, 1.0, -1.0)
        w = np.zeros(x.shape[1])
        b = 0.0
        vel_w = np.zeros_like(w)
        vel_b = 0.0
        self.training_losses = []
        for _ in range(self.epochs):
            loss, grad_w, grad_b = self._loss_and_grad(x, y, w, b)
            self.training_losses.append(loss)
            vel_w = self.momentum * vel_w - self.lr * grad_w
            vel_b = self.momentum * vel_b - self.lr * grad_b
            w = w + vel_w
            b = b + vel_b
        self.weights = w
        self.bias = b
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Signed margins ``x @ w + b``."""
        if self.weights is None:
            raise RuntimeError("SVM not fitted")
        return np.asarray(features, dtype=np.float64) @ self.weights + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        """0/1 labels from the margin sign."""
        return (self.decision_function(features) > 0).astype(np.int64)


class LbpSvmDetector(WindowedDetector):
    """The LBP + linear SVM seizure detector of Table I.

    Args:
        n_electrodes: Electrode count.
        fs: Sampling rate.
        lbp_length: LBP code length (6, matching Laelaps).
        lam: SVM regularisation strength.
        epochs: SVM training iterations.
        seed: Determinism seed.
    """

    def __init__(
        self,
        n_electrodes: int,
        fs: float,
        lbp_length: int = 6,
        lam: float = 1e-3,
        epochs: int = 300,
        seed: int = 0,
        window_s: float = 1.0,
        step_s: float = 0.5,
    ) -> None:
        super().__init__(n_electrodes, fs, window_s, step_s, seed)
        self.lbp_length = lbp_length
        self.model = LinearSVM(lam=lam, epochs=epochs, seed=seed)

    @property
    def code_margin(self) -> int:
        # An LBP code compares the next ``lbp_length`` samples, as in
        # Laelaps: both stamp a window at its last code's raw sample.
        return self.lbp_length

    def _features(self, signal: np.ndarray) -> np.ndarray:
        return window_lbp_histograms(
            signal, self.fs, self.window_s, self.step_s, self.lbp_length
        )

    def _train(self, features: np.ndarray, labels: np.ndarray) -> None:
        self.model.fit(features, labels)

    def _scores(self, features: np.ndarray) -> np.ndarray:
        return self.model.decision_function(features)
