"""Unitary characters of the deck group and their variance constants.

Two kinds of twist enter the variance formulas.  Abelian flux characters
exp(-i alpha <Phi, h>) depend on a class only through its homology vector h,
which is why they are evaluated by an exact integer pairing and never by a
line integral.  Matrix representations contribute through the trace of the
holonomy image.  The limiting variance of a dense matrix twist is governed
by the Haar average of (Tr g + conj Tr g)^2 over the closure group, which
``haar_sigma_constant`` estimates by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import stream
from .words import GroupPreset, Word

HAAR_KINDS = ("U1", "SU2", "UN")


@dataclass(frozen=True)
class FluxCharacter:
    """Abelian character exp(-i * scale * <flux, homology>).

    One flux entry per generator, in radians of phase per homology unit.
    Commutators have zero homology, so the value is automatically 1 on
    them and the evaluation is well defined on conjugacy classes.
    """

    flux: tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "flux", tuple(float(f) for f in self.flux))
        if not self.flux:
            raise ValueError("flux vector must be nonempty")

    @property
    def rank(self) -> int:
        return len(self.flux)


def phases_on_lattice(char: FluxCharacter | None, period: float, tol: float = 1e-12) -> bool:
    """True iff every generator phase scale*flux_j lies in period*Z within tol.

    At period 2*pi this says the character is trivial; at period pi, that
    its square is.  The trivial character (None) passes at every period;
    characters other than flux characters raise TypeError.
    """
    if char is None:
        return True
    if not isinstance(char, FluxCharacter):
        raise TypeError(f"unsupported character {type(char).__name__}")
    for f in char.flux:
        phase = char.scale * f
        nearest = round(phase / period)
        if abs(phase - nearest * period) > tol:
            return False
    return True


def breaks_time_reversal(char: FluxCharacter | None, tol: float = 1e-12) -> bool:
    """True iff the squared character is nontrivial.

    Equivalent to some generator phase scale*flux_j lying outside pi*Z.
    The trivial character (None) never breaks time reversal.
    """
    return not phases_on_lattice(char, math.pi, tol)


@dataclass(frozen=True)
class MatrixRep:
    """Unitary matrix representation given by generator images.

    Images must be unitary within 1e-10.  For surface presets the relator
    image must be the identity within 1e-8; free presets carry no relation.
    """

    images: tuple[np.ndarray, ...]
    preset: GroupPreset | None = None
    dimension: int = field(init=False)

    def __post_init__(self) -> None:
        mats = tuple(np.asarray(m, dtype=complex) for m in self.images)
        if not mats:
            raise ValueError("need at least one generator image")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape != (n, n):
                raise ValueError("images must be square matrices of equal size")
            if np.max(np.abs(m.conj().T @ m - np.eye(n))) > 1e-10:
                raise ValueError("generator image is not unitary within 1e-10")
        object.__setattr__(self, "images", mats)
        object.__setattr__(self, "dimension", n)
        if self.preset is not None:
            if self.preset.rank != len(mats):
                raise ValueError("one image per generator required")
            if self.preset.relator:
                rel = self.image_of(self.preset.relator)
                if np.max(np.abs(rel - np.eye(n))) > 1e-8:
                    raise ValueError("relator image differs from identity")

    def image_of(self, word: Word) -> np.ndarray:
        """Holonomy image of a word; inverse letters use the adjoint."""
        out = np.eye(self.dimension, dtype=complex)
        for letter in word:
            if letter == 0 or abs(letter) > len(self.images):
                raise ValueError(f"letter {letter} out of range")
            m = self.images[abs(letter) - 1]
            out = out @ (m if letter > 0 else m.conj().T)
        return out


# ---------------------------------------------------------------------------
# Haar-measure variance constants


def _haar_f_batch(kind: str, dim: int, g: np.random.Generator, size: int) -> np.ndarray:
    if kind == "U1":
        theta = g.uniform(0.0, 2.0 * np.pi, size)
        return (2.0 * np.cos(theta)) ** 2
    if kind == "SU2":
        # unit quaternion (w,x,y,z) uniform on S^3; Tr = 2w is real
        q = g.standard_normal((size, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        return 16.0 * q[:, 0] ** 2
    # U(N): QR of a complex Ginibre matrix, with the phase correction
    # R -> R/|R| on the diagonal that makes the distribution exactly Haar
    z = g.standard_normal((size, dim, dim)) + 1j * g.standard_normal((size, dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, np.newaxis, :]
    tr = np.trace(q, axis1=1, axis2=2)
    return (2.0 * tr.real) ** 2


def haar_sigma_constant(
    kind: str,
    samples: int,
    seed: int,
    dim: int = 3,
    batch: int = 4096,
) -> tuple[float, float]:
    """Monte Carlo estimate of the Haar average of (Tr g + conj Tr g)^2.

    Returns (estimate, standard error).  Batches draw from independent
    counter-based streams keyed by (seed, batch index), so the result does
    not depend on how batches are scheduled.
    """
    if kind not in HAAR_KINDS:
        raise ValueError(f"unknown group kind {kind!r}")
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    if kind == "UN" and dim < 1:
        raise ValueError("U(N) needs N >= 1")
    total = 0.0
    total_sq = 0.0
    done = 0
    index = 0
    while done < samples:
        size = min(batch, samples - done)
        vals = _haar_f_batch(kind, dim, stream(seed, index), size)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        done += size
        index += 1
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)
