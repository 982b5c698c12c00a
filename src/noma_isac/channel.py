"""Ordered Rayleigh fading model, reproducible sampling, and sensing-array geometry.

The two unordered links are CN(0, rho1) and CN(0, rho2), so their squared
magnitudes are exponential with means rho1 and rho2.  The near user takes the
larger gain, the far user the smaller one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig

__all__ = [
    "CorrelationMatrix", "Target", "TargetScene", "build_correlation", "gain_samples",
    "scene_eigenvalues", "steering_vector", "trial_uniforms",
]


@dataclass(frozen=True)
class Target:
    """Point target: average reflection strength and angle of arrival (rad)."""

    strength: float
    aoa: float

    def __post_init__(self) -> None:
        if not self.strength > 0.0:
            raise ValueError("target strength must be positive")
        if not -math.pi / 2 <= self.aoa <= math.pi / 2:
            raise ValueError("target aoa must lie in [-pi/2, pi/2]")


@dataclass(frozen=True)
class TargetScene:
    """Collection of at least one point target."""

    targets: tuple[Target, ...]

    def __post_init__(self) -> None:
        if len(self.targets) == 0:
            raise ValueError("scene must contain at least one target")


@dataclass(frozen=True)
class CorrelationMatrix:
    """Hermitian PSD correlation matrix of the target response vector."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.entries)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("correlation matrix must be square")
        if np.max(np.abs(r - r.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(r))):
            raise ValueError("correlation matrix must be Hermitian")
        if np.min(np.linalg.eigvalsh((r + r.conj().T) / 2.0)) < -1e-10:
            raise ValueError("correlation matrix must be positive semidefinite")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum, clipped at zero."""
        lam = np.linalg.eigvalsh((self.entries + self.entries.conj().T) / 2.0)
        return np.clip(lam, 0.0, None)


def trial_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform variates for trials [start, start+count), shape (count, 4).

    Trial i always occupies counter block i of a Philox stream keyed by
    `seed`, so row i is a pure function of (seed, i): any chunking or
    execution order reproduces the same variates bit for bit.
    """
    bitgen = np.random.Philox(key=np.uint64(seed))
    if start:
        bitgen.advance(int(start))
    return np.random.Generator(bitgen).random((count, 4))


def gain_samples(
    cfg: SystemConfig, seed: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ordered gain arrays (gain_n, gain_f) for trials [start, start+count).

    Exponential variates come from inverse-CDF transformation of the
    per-trial uniform blocks, keeping the stream reproducible.
    """
    u = trial_uniforms(seed, start, count)
    e1 = -cfg.rho1 * np.log1p(-u[:, 0])
    e2 = -cfg.rho2 * np.log1p(-u[:, 1])
    return np.maximum(e1, e2), np.minimum(e1, e2)


def steering_vector(theta: float, m: int) -> np.ndarray:
    """Receive steering vector of a half-wavelength ULA, entry i = e^{j pi i sin(theta)}."""
    if m < 1:
        raise ValueError("antenna count m must be at least 1")
    return np.exp(1j * math.pi * np.arange(m) * math.sin(theta))


def build_correlation(scene: TargetScene, m: int) -> CorrelationMatrix:
    """Correlation matrix sum_k strength_k * a(aoa_k) a(aoa_k)^H of a scene."""
    if m < 1:
        raise ValueError("antenna count m must be at least 1")
    r = np.zeros((m, m), dtype=complex)
    for tgt in scene.targets:
        a = steering_vector(tgt.aoa, m)
        r += tgt.strength * np.outer(a, a.conj())
    return CorrelationMatrix(entries=r)


def scene_eigenvalues(scene: TargetScene, m: int) -> tuple[float, ...]:
    """Sensing eigen-spectrum of a scene-built correlation matrix (descending).

    Eigenvalues below the numerical noise floor of the decomposition are
    reported as exact zeros so rank counts stay meaningful.
    """
    lam = build_correlation(scene, m).eigenvalues()
    floor = 1e-12 * max(float(lam[-1]), 1.0)
    return tuple(float(v) if v > floor else 0.0 for v in lam[::-1])
