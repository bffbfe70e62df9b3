"""Differential-privacy primitives: noise mechanisms, selection, the accountant.

``epsilon = math.inf`` is the supported noiseless sentinel: the accountant
calibrates no noise and the exponential mechanism degenerates to argmax.
``DpParams`` is the budget alone; seeds are passed to each run as arguments.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ParameterError, SelectionError


@dataclass(frozen=True)
class DpParams:
    epsilon: float
    delta: float = 0.0
    theta: float = None

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigurationError("epsilon must be positive")
        if not 0.0 <= self.delta < 1.0:
            raise ConfigurationError("delta must lie in [0, 1)")
        if self.theta is not None and not self.theta > 0:
            raise ConfigurationError("theta must be positive")


@dataclass
class Accountant:
    """The (epsilon, delta) budget of one generator run, spent mechanism by mechanism.

    Each call calibrates one mechanism from its share of the budget and
    records that share. A share is a ``(fraction, count)`` pair: the
    mechanism is one of ``count`` equal ones splitting ``fraction`` of the
    total, so it gets ``fraction * total / count``. At ``epsilon = inf``
    nothing is noised and nothing is recorded.
    """

    total: DpParams
    spent: list = field(default_factory=list)

    def gaussian(self, label, sensitivity, share, delta_share):
        """Sigma of a Gaussian measurement with this L1 sensitivity; None at epsilon = inf."""
        if math.isinf(self.total.epsilon):
            return None
        if not self.total.delta > 0:
            raise ConfigurationError("the Gaussian mechanism needs delta > 0 at finite epsilon")
        epsilon = self._spend(label, "gaussian", share, delta_share)
        return gaussian_sigma(epsilon, _part(self.total.delta, delta_share), sensitivity)

    def laplace(self, label, sensitivity, share):
        """Scale of a Laplace measurement with this L1 sensitivity; None at epsilon = inf."""
        if math.isinf(self.total.epsilon):
            return None
        return sensitivity / self._spend(label, "laplace", share)

    def exponential(self, label, share):
        """Epsilon of one exponential-mechanism selection; inf (argmax) at epsilon = inf."""
        if math.isinf(self.total.epsilon):
            return math.inf
        return self._spend(label, "exponential", share)

    def _spend(self, label, mechanism, share, delta_share=(0.0, 1)):
        (fraction, count), (delta_fraction, delta_count) = share, delta_share
        self.spent.append((label, fraction / count, delta_fraction / delta_count, mechanism))
        if self.epsilon_spent() > 1.0 + 1e-9 or self.delta_spent() > 1.0 + 1e-9:
            raise ConfigurationError(f"privacy budget exceeded at {label!r}")
        return _part(self.total.epsilon, share)

    def epsilon_spent(self):
        return sum(e for _, e, _, _ in self.spent)

    def delta_spent(self):
        return sum(d for _, _, d, _ in self.spent)

    def to_json(self):
        return {
            "epsilon": self.total.epsilon,
            "delta": self.total.delta,
            "spent": [
                {"label": l, "epsilon_share": e, "delta_share": d, "mechanism": m}
                for l, e, d, m in self.spent
            ],
        }


def _part(total, share):
    # fraction * total / count, in that order: the generators' noise depends
    # on its last bit, and total * (fraction / count) rounds differently
    fraction, count = share
    return fraction * total / count


def as_generator(seed):
    """Accept either an integer seed or an existing numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(seed, index):
    """Stable 63-bit sub-seed for parallel replicas and staged pipelines."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def laplace_noise(scale, n, seed):
    if not scale > 0:
        raise ParameterError("laplace scale must be positive")
    rng = as_generator(seed)
    return rng.laplace(0.0, scale, size=int(n))


def gaussian_noise(sigma, n, seed):
    if not sigma > 0:
        raise ParameterError("gaussian sigma must be positive")
    rng = as_generator(seed)
    return rng.normal(0.0, sigma, size=int(n))


def gaussian_sigma(epsilon, delta, sensitivity):
    """Classic Gaussian-mechanism calibration for one measurement."""
    if not (epsilon > 0 and 0 < delta < 1):
        raise ParameterError("gaussian calibration needs epsilon > 0 and delta in (0, 1)")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def exponential_mechanism(scores, epsilon, sensitivity, seed, size=None):
    """Select index k with probability proportional to exp(eps * s_k / (2 * sens)).

    Computed in log-space for stability. With epsilon = inf this is an
    argmax with lowest-index tie-breaking. ``size`` draws a vector of
    independent selections (used for statistical testing).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise SelectionError("exponential mechanism received no candidates")
    if not np.isfinite(scores).all():
        raise SelectionError("scores must be finite")
    if not sensitivity > 0:
        raise ParameterError("sensitivity must be positive")
    if math.isinf(epsilon):
        best = int(np.argmax(scores))
        return np.full(size, best, dtype=np.int64) if size is not None else best
    logits = epsilon * scores / (2.0 * sensitivity)
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    rng = as_generator(seed)
    if size is not None:
        return rng.choice(scores.size, size=int(size), p=probs)
    return int(rng.choice(scores.size, p=probs))
