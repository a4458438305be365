"""Fluid-limit ODE for the homogeneous path-count population model.

Section 5.1 of the paper models a homogeneously mixing population: every
node's contact opportunities form a Poisson process of intensity λ and the
contacted peer is uniform.  The state of node ``x_n`` is ``S_n(t)``, the
number of paths from the source that have reached it; when ``x_n`` contacts
``x_m`` the transition ``S_m ← S_m + S_n`` occurs.  Writing ``u_k(t)`` for
the *fraction* of nodes with exactly ``k`` paths, Kurtz's limit theorem gives
the deterministic fluid limit (the paper's Proposition 3):

    du_k/dt = λ ( Σ_{i=0..k} u_i u_{k-i}  −  u_k )

This module integrates that (truncated) infinite ODE system with scipy
(imported on the first solve, so ``import repro`` does not pay for it) and
exposes the moments of the resulting distribution, which the closed-form
results of :mod:`repro.model.generating_function` predict exactly
(``E[S(t)] = E[S(0)] e^{λt}``, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["PathDensitySolution", "initial_condition", "solve_path_density_ode"]


@dataclass(frozen=True)
class PathDensitySolution:
    """Solution of the truncated fluid-limit ODE.

    Attributes
    ----------
    times:
        The evaluation times, shape ``(T,)``.
    densities:
        Array of shape ``(T, K+1)``; ``densities[t, k]`` is ``u_k`` at
        ``times[t]``.  Each row sums to (approximately) 1 as long as the
        truncation level is large enough for the horizon considered.
    contact_rate:
        The λ used.
    """

    times: np.ndarray
    densities: np.ndarray
    contact_rate: float

    @property
    def truncation(self) -> int:
        """The largest path count K represented."""
        return self.densities.shape[1] - 1

    def mean_paths(self) -> np.ndarray:
        """``E[S(t)] = Σ_k k u_k(t)`` at each evaluation time."""
        k = np.arange(self.densities.shape[1], dtype=float)
        return self.densities @ k

    def second_moment(self) -> np.ndarray:
        """``E[S(t)^2]`` at each evaluation time."""
        k = np.arange(self.densities.shape[1], dtype=float)
        return self.densities @ (k ** 2)

    def variance(self) -> np.ndarray:
        mean = self.mean_paths()
        return self.second_moment() - mean ** 2

    def mass(self) -> np.ndarray:
        """Total probability mass captured by the truncation at each time.

        Values noticeably below 1 signal that the truncation level is too
        small for the requested horizon (probability is escaping to path
        counts above K).
        """
        return self.densities.sum(axis=1)

    def fraction_with_at_least(self, k_min: int) -> np.ndarray:
        """Fraction of nodes with at least *k_min* paths, over time."""
        if k_min < 0:
            raise ValueError("k_min must be non-negative")
        k_min = min(k_min, self.densities.shape[1])
        return self.densities[:, k_min:].sum(axis=1)


def initial_condition(num_nodes: int, truncation: int) -> np.ndarray:
    """The paper's initial condition: one node (the source) holds one path.

    ``u_1(0) = 1/N`` and ``u_0(0) = 1 − 1/N``, so ``E[S(0)] = 1/N``.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    u0 = np.zeros(truncation + 1, dtype=float)
    u0[0] = 1.0 - 1.0 / num_nodes
    u0[1] = 1.0 / num_nodes
    return u0


def solve_path_density_ode(
    contact_rate: float,
    horizon: float,
    initial: Optional[Sequence[float]] = None,
    num_nodes: int = 100,
    truncation: int = 200,
    num_eval: int = 200,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> PathDensitySolution:
    """Integrate the truncated fluid-limit ODE.

    Parameters
    ----------
    contact_rate:
        λ, in contact opportunities per node per second.
    horizon:
        Integration horizon in seconds.
    initial:
        Initial density vector ``u(0)``; defaults to
        :func:`initial_condition`\\ ``(num_nodes, truncation)``.
    truncation:
        Largest path count K retained.  The convolution term only uses
        indices up to K, which matches the paper's threshold-process argument
        (states above K are collapsed); choose K large enough that
        :meth:`PathDensitySolution.mass` stays close to 1 over the horizon.
    """
    from scipy.integrate import solve_ivp

    if contact_rate < 0:
        raise ValueError("contact_rate must be non-negative")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if initial is None:
        u0 = initial_condition(num_nodes, truncation)
    else:
        u0 = np.asarray(initial, dtype=float)
        if u0.ndim != 1 or u0.size != truncation + 1:
            raise ValueError(
                f"initial condition must have length truncation+1={truncation + 1}"
            )
        if np.any(u0 < -1e-12):
            raise ValueError("initial densities must be non-negative")

    lam = float(contact_rate)

    def rhs(_t: float, u: np.ndarray) -> np.ndarray:
        # Full convolution (Σ_{i=0..k} u_i u_{k-i}) truncated at K.
        conv = np.convolve(u, u)[: u.size]
        return lam * (conv - u)

    times = np.linspace(0.0, horizon, num_eval)
    solution = solve_ivp(
        rhs, (0.0, horizon), u0, t_eval=times, rtol=rtol, atol=atol,
        method="RK45",
    )
    if not solution.success:  # pragma: no cover - scipy failure is exceptional
        raise RuntimeError(f"ODE integration failed: {solution.message}")
    densities = np.clip(solution.y.T, 0.0, None)
    return PathDensitySolution(times=times, densities=densities, contact_rate=lam)
