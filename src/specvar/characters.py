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

from . import Refused
from .rng import streams
from .windows import Window, sigma2_goe, sigma2_gue
from .words import GroupPreset, Word

# Haar average of (Tr g + conj Tr g)^2 on each closure group kind
HAAR_TARGETS = {"U1": 2.0, "SU2": 4.0, "UN": 2.0}


class UndefinedTarget(Refused):
    """The character has no GOE/GUE target: it is a matrix twist."""


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


def phases_on_lattice(char: FluxCharacter | None, period: float) -> bool:
    """True iff every generator phase scale*flux_j lies in period*Z within 1e-12.

    At period 2*pi this says the character is trivial; at period pi, that
    its square is.  The trivial character (None) passes at every period.
    A matrix twist raises UndefinedTarget, the one refusal of matrix
    characters; other types raise TypeError.
    """
    if char is None:
        return True
    if isinstance(char, MatrixRep):
        raise UndefinedTarget(
            "no GOE/GUE target is defined for matrix twists; only flux characters carry one"
        )
    if not isinstance(char, FluxCharacter):
        raise TypeError(f"unsupported character {type(char).__name__}")
    for f in char.flux:
        phase = char.scale * f
        nearest = round(phase / period)
        if abs(phase - nearest * period) > 1e-12:
            return False
    return True


def breaks_time_reversal(char: FluxCharacter | None) -> bool:
    """True iff the squared character is nontrivial.

    Equivalent to some generator phase scale*flux_j lying outside pi*Z.
    The trivial character (None) never breaks time reversal.
    """
    return not phases_on_lattice(char, math.pi)


def ensemble_target(char: FluxCharacter | None, window: Window) -> float:
    """The limiting variance constant of the twist: GUE when the character
    breaks time reversal, else GOE.  Matrix twists raise UndefinedTarget."""
    return sigma2_gue(window) if breaks_time_reversal(char) else sigma2_goe(window)


@dataclass(frozen=True)
class MatrixRep:
    """Unitary matrix representation given by generator images.

    Images must be unitary within 1e-10, one per generator of ``preset``.
    For surface presets the relator image must be the identity within
    1e-8; free presets carry no relation.
    """

    images: tuple[np.ndarray, ...]
    preset: GroupPreset
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
        if self.preset.rank != len(mats):
            raise ValueError(
                f"{len(mats)} generator images for rank {self.preset.rank}; one per generator required"
            )
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

_HAAR_BATCH = 4096  # draws per (seed, batch index) stream


def _haar_f_batch(kind: str, dim: int, g: np.random.Generator, size: int) -> np.ndarray:
    if kind == "U1":
        theta = g.uniform(0.0, 2.0 * np.pi, size)
        return (2.0 * np.cos(theta)) ** 2
    if kind == "SU2":
        # unit quaternion (w,x,y,z) uniform on S^3; Tr = 2w is real
        q = g.standard_normal((size, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        return 16.0 * q[:, 0] ** 2
    return (2.0 * _unitary_traces(dim, g, size).real) ** 2


def _unitary_traces(dim: int, g: np.random.Generator, size: int) -> np.ndarray:
    """Traces of ``size`` Haar-random elements of U(dim).

    The Q factor of a complex Ginibre matrix whose R has a positive real
    diagonal is exactly Haar (Mezzadri 2007).  Modified Gram-Schmidt on the
    columns builds that unique Q directly, so no QR factorisation and no
    phase correction is needed.  q[j, i] is entry (i, j) of every draw:
    column j is q[j], with the batch axis last.
    """
    q = np.empty((dim, dim, size), dtype=complex)
    q.real = g.standard_normal((size, dim, dim)).transpose(2, 1, 0)
    q.imag = g.standard_normal((size, dim, dim)).transpose(2, 1, 0)
    tr = np.zeros(size, dtype=complex)
    for j in range(dim):
        col = q[j]
        col /= np.sqrt(np.sum(col.real**2 + col.imag**2, axis=0))
        tr += col[j]
        rest = q[j + 1 :]
        rest -= col * np.sum(col.conj() * rest, axis=1, keepdims=True)
    return tr


def haar_sigma_constant(
    kind: str,
    samples: int,
    seed: int,
    dim: int = 3,
) -> tuple[float, float]:
    """Monte Carlo estimate of the Haar average of (Tr g + conj Tr g)^2.

    Returns (estimate, standard error).  Batches draw from independent
    counter-based streams keyed by (seed, batch index), so the result does
    not depend on how batches are scheduled.
    """
    if kind not in HAAR_TARGETS:
        raise Refused(f"unknown group kind {kind!r}; pick one of {', '.join(HAAR_TARGETS)}")
    if samples < 10_000:
        raise Refused("need at least 1e4 samples")
    if kind == "UN" and dim < 1:
        raise Refused("U(N) needs N >= 1")
    total = 0.0
    total_sq = 0.0
    batches = -(-samples // _HAAR_BATCH)
    for index, g in enumerate(streams(seed, np.arange(batches)[:, None])):
        vals = _haar_f_batch(kind, dim, g, min(_HAAR_BATCH, samples - index * _HAAR_BATCH))
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)
