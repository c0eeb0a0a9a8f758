"""Reference implementations the tests check the library against.

Scalar and per-record loops that the library replaced by table and array
expressions, the per-word class closure beside the array one, the
per-sample cover path beside the batch sampler, and helpers that only
tests call.  They are kept as they were written, so a
test can compare the vectorised path with the plain definition.
"""

from __future__ import annotations

import cmath
import csv
import dataclasses
import itertools
import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, NamedTuple, Sequence

import numpy as np
import pytest

from specvar import Refused
from specvar.characters import FluxCharacter, MatrixRep
from specvar.dynamics import _equidistribution_weight, _flux_array, _half_mass
from specvar.fuchsian import (
    FuchsianGroup,
    InvalidParameters,
    LengthSpectrum,
    _letter_codes,
    _padded,
    _products,
    _shell_classes,
    log_poincare_det,
    unoriented_rows,
)
from specvar.ks import kstwo_sf
from specvar.poisson import PoissonSurrogate, _draw_buffers, _invert_cdf, _poisson_draws
from specvar.rng import stream
from specvar.variance import _require_certified, _resolved_grid
from specvar.windows import Window, sigma2_goe
from specvar.words import (
    ConjugacyClass,
    GroupPreset,
    Word,
    _half_replacements,
    _letter_key,
    _overlong_replacements,
    cyclic_reduce,
    invert_word,
    reduce_word,
    rotation_period,
    word_sort_key,
)


# ---------------------------------------------------------------------------
# words: the per-word closure of shortest spellings the array closure replaced


class TrivialElementError(ValueError):
    """Raised when an operation needs a nontrivial group element."""


def min_rotation(word: Word) -> Word:
    """Lexicographically minimal rotation under the fixed letter order."""
    n = len(word)
    if n < 2:
        return word
    # letter keys once; each rotation is a slice of the doubled key list
    keys = [_letter_key(l) for l in word] * 2
    start = min(range(n), key=lambda i: keys[i : i + n])
    return word[start:] + word[:start]


def _cyclic_window(word: Word, start: int, length: int) -> Word:
    doubled = word + word
    return doubled[start : start + length]


def dehn_cyclic_reduce(word: Word, preset: GroupPreset) -> Word:
    """Shorten a cyclic word until no subword exceeds half the relator."""
    w = cyclic_reduce(reduce_word(word))
    if preset.kind == "free":
        return w
    half = len(preset.relator) // 2
    table = _overlong_replacements(preset)
    changed = True
    while changed and w:
        changed = False
        if len(w) < half + 1:
            break
        for start in range(len(w)):
            window = _cyclic_window(w, start, half + 1)
            if len(window) < half + 1:
                continue
            repl = table.get(window)
            if repl is not None:
                rotated = w[start:] + w[:start]
                w = cyclic_reduce(reduce_word(repl + rotated[half + 1 :]))
                changed = True
                break
    return w


def _half_swap_closure(word: Word, preset: GroupPreset) -> set[Word]:
    """All cyclic words reachable by half-relator swaps, as min-rotations.

    Each swap replaces a subword equal to half a relator form by the inverse
    of the complementary half; the word length is preserved and the element
    is unchanged.  The closure restarts from the shorter word whenever a
    swap exposes one, and ends with the full set of shortest cyclic
    spellings of the conjugacy class.
    """
    table = _half_replacements(preset)
    half = len(preset.relator) // 2
    first = min_rotation(word)
    seen = {first}
    frontier = [first]
    while frontier:
        w = frontier.pop()
        if len(w) < half:
            continue
        for start in range(len(w)):
            window = _cyclic_window(w, start, half)
            repl = table.get(window)
            if repl is None:
                continue
            rotated = w[start:] + w[:start]
            swapped = cyclic_reduce(reduce_word(repl + rotated[half:]))
            if len(swapped) < len(w):
                # swap exposed a shorter spelling; restart from it
                return _half_swap_closure(dehn_cyclic_reduce(swapped, preset), preset)
            key = min_rotation(swapped)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return seen


def shortest_spellings(word: Word, preset: GroupPreset) -> frozenset[Word]:
    """Every shortest cyclic spelling of the class of ``word``, as min-rotations.

    A free group has one, a surface group the half-swap closure; the
    identity has none.
    """
    w = dehn_cyclic_reduce(word, preset)
    if not w:
        return frozenset()
    if preset.kind == "free":
        return frozenset({min_rotation(w)})
    return frozenset(_half_swap_closure(w, preset))


def inverse_spellings(spellings) -> set[Word]:
    """Shortest spellings of the inverse class: the inverted ones, min-rotated."""
    return {min_rotation(invert_word(w)) for w in spellings}


def root_spelling(spellings) -> tuple[Word, int]:
    """Root spelling and power k of a class, from its shortest spellings.

    A class is a proper power exactly when one of its shortest spellings is
    periodic; that spelling's period block spells the root, and the least
    period gives the largest k (k = 1 for a primitive class).
    """
    period, word = min((rotation_period(w), w) for w in spellings)
    return word[:period], len(word) // period


def canonical_class(word: Word, preset: GroupPreset) -> ConjugacyClass:
    """Canonical form of the conjugacy class of ``word``, one word at a time.

    One closure of shortest spellings decides a primitive class, named by
    its least spelling and the least inverse spelling; a proper power is
    named by k copies of its root's names.  Raises TrivialElementError if
    the word represents the identity.
    """
    spellings = shortest_spellings(word, preset)
    if not spellings:
        raise TrivialElementError(f"word {word!r} reduces to the identity")
    root, k = root_spelling(spellings)
    if k > 1:
        spellings = shortest_spellings(root, preset)
    name, inverse = (min(s, key=word_sort_key) for s in (spellings, inverse_spellings(spellings)))
    return ConjugacyClass(name * k, inverse * k)


def trace_spelling(cls: ConjugacyClass, preset: GroupPreset) -> Word:
    """Canonical word of the orientation whose trace sets a primitive pair's length.

    The orientation whose shortest spellings hold the least one under
    minimal rotation in generator-first code order (a1 < b1 < a2 < ... <
    a1^-1 < b1^-1 < ...).
    """
    rank = preset.rank
    spellings = shortest_spellings(cls.canonical, preset)

    def least(spellings) -> list[int]:
        codes = ([l - 1 if l > 0 else rank - l - 1 for l in w] for w in spellings)
        return min(min(c[i:] + c[:i] for i in range(len(c))) for c in codes)

    if least(spellings) < least(invert_word(w) for w in spellings):
        return cls.canonical
    return cls.inverse_canonical


# ---------------------------------------------------------------------------
# words: concatenation, powers, class enumeration and conjugates


def abelianize(word: Word, preset: GroupPreset) -> tuple[int, ...]:
    """Exponent-sum vector in Z^rank, one letter at a time.

    Well defined on surface groups because the relator is a product of
    commutators and abelianizes to zero.
    """
    vec = [0] * preset.rank
    for letter in word:
        if abs(letter) > preset.rank:
            raise ValueError(f"letter {letter} out of range for rank {preset.rank}")
        vec[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(vec)


def concat(*parts: Word) -> Word:
    """Freely reduced concatenation."""
    out: Word = ()
    for part in parts:
        out = reduce_word(out + part)
    return out


def word_power(word: Word, k: int) -> Word:
    if k < 0:
        return word_power(invert_word(word), -k)
    return concat(*([word] * k)) if k else ()


def _cyclically_reduced_words(preset: GroupPreset, length: int):
    """Yield freely and cyclically reduced words of exactly this length."""
    letters = [i for g in range(1, preset.rank + 1) for i in (g, -g)]
    if length == 1:
        yield from ((l,) for l in letters)
        return
    for first in letters:
        stack = [(first,)]
        while stack:
            w = stack.pop()
            if len(w) == length:
                if w[-1] != -w[0]:
                    yield w
                continue
            for l in letters:
                if l != -w[-1]:
                    stack.append(w + (l,))


def enumerate_classes(preset: GroupPreset, max_word_len: int) -> list[ConjugacyClass]:
    """Every conjugacy class with a cyclically reduced spelling of length
    <= max_word_len, each exactly once, in a deterministic order."""
    if max_word_len < 1:
        raise ValueError("max_word_len must be >= 1")
    seen: dict[Word, ConjugacyClass] = {}
    for n in range(1, max_word_len + 1):
        for w in _cyclically_reduced_words(preset, n):
            try:
                cls = canonical_class(w, preset)
            except TrivialElementError:
                continue
            if len(cls.canonical) <= max_word_len and cls.canonical not in seen:
                seen[cls.canonical] = cls
    return [seen[w] for w in sorted(seen, key=word_sort_key)]


def conjugate_by_all(word: Word, preset: GroupPreset, conj_len: int):
    """All conjugates u w u^-1 over words u up to the given length."""
    letters = [i for g in range(1, preset.rank + 1) for i in (g, -g)]
    for n in range(conj_len + 1):
        for u in itertools.product(letters, repeat=n):
            yield concat(u, word, invert_word(u))


def pick_unoriented(cls: ConjugacyClass) -> Word:
    """Deterministic representative of the pair {class, inverse class}."""
    return min(cls.canonical, cls.inverse_canonical, key=word_sort_key)


# ---------------------------------------------------------------------------
# words: the probing power rule the periodic-spelling rule replaced


def _canonical_word(word: Word, preset: GroupPreset) -> Word:
    spellings = shortest_spellings(word, preset)
    return min(spellings, key=word_sort_key) if spellings else ()


def _class_word(word: Word, preset: GroupPreset) -> Word:
    # canonical spelling; powers are normalized to repetitions of the root's
    # canonical spelling so word-level periodicity reflects power structure
    w = _canonical_word(word, preset)
    if not w:
        return ()
    root, k = _root_of_canonical(w, preset)
    if k > 1:
        w = min_rotation(root * k)
    return w


def _root_of_canonical(w: Word, preset: GroupPreset) -> tuple[Word, int]:
    """Primitive root word and power of a canonical cyclic word."""
    n = len(w)
    if preset.kind == "free":
        p = rotation_period(w)
        return w[:p], n // p
    # Surface group: a shortest spelling of a proper power need not be
    # periodic (half-relator swaps can mix spellings of the root), so probe
    # every rotation prefix whose repetition lands in the same class.  The
    # homology of a k-th power is divisible by k, which rules out most k
    # without touching the expensive canonical form.  A class word of a
    # power is normalized to min_rotation(root^k), which need not be its
    # least shortest spelling, so candidates are compared with the latter.
    hom = abelianize(w, preset)
    target = None
    for k in sorted((k for k in range(2, n + 1) if n % k == 0), reverse=True):
        if any(h % k for h in hom):
            continue
        if target is None:
            target = _canonical_word(w, preset)
        p = n // k
        for start in range(n):
            candidate = (w + w)[start : start + p]
            if len(reduce_word(candidate)) != p:
                continue
            if _canonical_word(candidate * k, preset) == target:
                return _canonical_word(candidate, preset), k
    return w, 1


def probed_canonical_class(word: Word, preset: GroupPreset) -> ConjugacyClass:
    """Canonical class with the power structure found by probing root candidates."""
    w = _class_word(word, preset)
    if not w:
        raise TrivialElementError(f"word {word!r} reduces to the identity")
    inv = _class_word(invert_word(w), preset)
    return ConjugacyClass(w, inv)


def probed_primitive_root(cls: ConjugacyClass, preset: GroupPreset) -> tuple[ConjugacyClass, int]:
    """Root class and power of a canonical class, by probing root candidates."""
    root_word, k = _root_of_canonical(cls.canonical, preset)
    if k == 1:
        return cls, 1
    return probed_canonical_class(root_word, preset), k


# ---------------------------------------------------------------------------
# characters and windows: flux values, traces, the pi-lattice predicate, GSE


def trivial_character(rank: int) -> FluxCharacter:
    return FluxCharacter(flux=(0.0,) * rank)


def _homology_of(cls) -> Sequence[int]:
    if hasattr(cls, "homology"):
        return cls.homology
    return cls


def eval_flux(char: FluxCharacter, cls) -> complex:
    """Value of the character on a class, a modulus-1 complex number.

    ``cls`` is a homology vector or anything carrying a ``homology``
    attribute (spectrum rows do).
    """
    hom = _homology_of(cls)
    if len(hom) != char.rank:
        raise ValueError(f"homology length {len(hom)} != rank {char.rank}")
    pairing = sum(f * h for f, h in zip(char.flux, hom))
    return cmath.exp(-1j * char.scale * pairing)


def eval_flux_word(char: FluxCharacter, word: Word, preset: GroupPreset) -> complex:
    return eval_flux(char, abelianize(word, preset))


def breaks_time_reversal(char: FluxCharacter | None, tol: float = 1e-12) -> bool:
    """True iff the squared character is nontrivial.

    Equivalent to some generator phase scale*flux_j lying outside pi*Z.
    The trivial character (None) never breaks time reversal.
    """
    if char is None:
        return False
    for f in char.flux:
        phase = char.scale * f
        nearest = round(phase / math.pi)
        if abs(phase - nearest * math.pi) > tol:
            return True
    return False


def char_trace(rep: MatrixRep, cls) -> complex:
    """Trace of the holonomy image; conjugation invariant."""
    word = cls.word if hasattr(cls, "word") else cls
    return complex(np.trace(rep.image_of(tuple(word))))


def sigma2_gse(w: Window) -> float:
    """Quarter of the GOE constant (half of GUE)."""
    return sigma2_goe(w) / 4.0


# ---------------------------------------------------------------------------
# rng and Haar draws: the per-stream seeding and the QR sampler


def seedsequence_stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of (seed, *key), seeded through numpy's SeedSequence."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(int(k) & 0xFFFFFFFFFFFFFFFF for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def qr_unitary_traces(dim: int, g: np.random.Generator, size: int) -> np.ndarray:
    """Traces of Haar U(dim) draws: QR of a complex Ginibre matrix, with the
    phase correction R -> R/|R| on the diagonal that makes it exactly Haar."""
    z = g.standard_normal((size, dim, dim)) + 1j * g.standard_normal((size, dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, np.newaxis, :]
    return np.trace(q, axis1=1, axis2=2)


# ---------------------------------------------------------------------------
# fuchsian: holonomy, determinant, power check, tail sum


def letter_code(letter: int) -> int:
    """Code of one signed letter: generator i -> 2(i-1), its inverse -> 2(i-1)+1."""
    return _letter_key(letter) - 2


def forbidden_5gram_codes(group: GroupPreset, n_letters: int) -> np.ndarray:
    """Base-(2r) codes of all 5-letter windows of the cyclic relator forms.

    Read off the doubled relator and its doubled inverse, first letter most
    significant; the library packs Dehn's overlong-window table instead.
    """
    rel = group.relator
    grams = set()
    for base_word in (rel, invert_word(rel)):
        codes = [letter_code(l) for l in base_word]
        doubled = codes + codes
        for i in range(len(codes)):
            grams.add(tuple(doubled[i : i + 5]))
    packed = sorted(
        sum(c * n_letters ** (4 - j) for j, c in enumerate(g)) for g in grams
    )
    return np.asarray(packed, dtype=np.int64)


class NonHyperbolicElement(Refused):
    """Raised when a trace belongs to an elliptic or parabolic element."""


def length_of(trace: float) -> float:
    """Geodesic length from a holonomy trace, ell = 2*arccosh(|tr|/2)."""
    t = abs(float(trace))
    if t <= 2.0:
        raise NonHyperbolicElement(f"|trace| = {t} <= 2 is not hyperbolic")
    return 2.0 * math.acosh(t / 2.0)


def _code_matrix(words: Sequence[Word], n_letters: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded code matrix and lengths of words; a code outside range(n_letters) is refused."""
    word_len = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    codes = _letter_codes(np.fromiter(itertools.chain.from_iterable(words), dtype=np.int64))
    if codes.size and (codes.min() < 0 or codes.max() >= n_letters):
        raise InvalidParameters(f"word letter out of range for rank {n_letters // 2}")
    return _padded(codes, word_len), word_len


def holonomies(group: FuchsianGroup, words: Sequence[Word]) -> np.ndarray:
    """Holonomy matrices of many words, (len(words), 2, 2), by the library's batched
    products; a letter outside the rank is refused."""
    return _products(group.generator_array(), *_code_matrix(words, 2 * group.rank))


def holonomy(group: FuchsianGroup, word: Word) -> np.ndarray:
    """Product of generator matrices and inverses in word order, one word at a time."""
    mats = group.generator_array()
    out = np.eye(2)
    for letter in word:
        out = out @ mats[letter_code(letter)]
    return out


class Row(NamedTuple):
    """One spectrum row as a record, for the row-by-row reference loops."""

    class_id: int
    word: Word
    inverse_word: Word | None
    length: float
    primitive_length: float
    power: int
    log_det: float
    homology: tuple[int, ...]


def spectrum_rows(spectrum: LengthSpectrum) -> list[Row]:
    """Every row of a spectrum as a ``Row``, read off its columns."""
    words = spectrum.words()
    columns = zip(
        words,
        spectrum.inverse_id.tolist(),
        spectrum.length.tolist(),
        spectrum.primitive_length.tolist(),
        spectrum.power.tolist(),
        spectrum.log_det.tolist(),
        map(tuple, spectrum.homology.tolist()),
    )
    return [
        Row(i, w, words[j] if j >= 0 else None, ell, ell0, k, log_det, hom)
        for i, (w, j, ell, ell0, k, log_det, hom) in enumerate(columns)
    ]


def take_rows(spectrum: LengthSpectrum, rows, **changes) -> LengthSpectrum:
    """The spectrum of the given rows, in that order, with inverse ids renumbered.

    A row whose inverse row is not taken gets inverse id -1; ``changes``
    replaces other fields, such as the certificate.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    new_id = np.full(len(spectrum.length) + 1, -1, dtype=np.int64)  # the last entry is for -1
    new_id[rows] = np.arange(len(rows))
    columns = {
        name: getattr(spectrum, name)[rows]
        for name in ("codes", "word_len", "length", "primitive_length", "power", "log_det", "homology")
    }
    columns["codes"] = columns["codes"][:, : columns["word_len"].max(initial=0)]  # the longest word taken
    return dataclasses.replace(
        spectrum, **columns, inverse_id=new_id[spectrum.inverse_id[rows]], **changes
    )


def p0_rows(spectrum: LengthSpectrum) -> list[Row]:
    """The rows of ``unoriented_rows``: P0, one orientation per primitive pair."""
    rows = spectrum_rows(spectrum)
    return [rows[i] for i in unoriented_rows(spectrum)]


def record_det(record: Row) -> float:
    """|det(I - P)| of a row, from the log it stores."""
    return math.exp(record.log_det)


def primitives(spectrum: LengthSpectrum) -> list[Row]:
    """The power-1 rows, both orientations."""
    return [r for r in spectrum_rows(spectrum) if r.power == 1]


def truncate_spectrum(spectrum: LengthSpectrum, l_max: float) -> LengthSpectrum:
    """Restrict to classes with ell <= l_max.

    A complete spectrum stays complete under truncation, so one expensive
    enumeration can serve every shorter cutoff.
    """
    if l_max > spectrum.certified_l_max:
        raise ValueError(
            f"cannot truncate to {l_max}: certified only to {spectrum.certified_l_max}"
        )
    rows = np.flatnonzero(spectrum.length <= l_max)
    cert = dict(spectrum.certificate)
    cert["certified_l_max"] = l_max
    cert["truncated_from"] = spectrum.l_max
    cert["shell_classes"] = _shell_classes(spectrum.word_len[rows])
    return take_rows(spectrum, rows, l_max=l_max, certificate=cert)


def poincare_det(ell: float) -> float:
    """|det(I - P)| = 4*sinh^2(ell/2) for the return map P = diag(e^l, e^-l)."""
    if ell <= 0:
        raise InvalidParameters(f"geodesic length must be positive, got {ell}")
    return 4.0 * math.sinh(ell / 2.0) ** 2


def anosov_power_check(spectrum: LengthSpectrum) -> dict:
    """Verify |det(I-P_{g^k})| >= e^{(k-1) ell0} |det(I-P_g)| on all records.

    In curvature -1 the contraction bound holds with C = 1, theta = 1:
    sinh(k x) >= e^{(k-1) x} sinh(x).
    """
    checked = 0
    min_margin = math.inf
    for rec in spectrum_rows(spectrum):
        lhs = rec.log_det
        rhs = (rec.power - 1) * rec.primitive_length + log_poincare_det(
            rec.primitive_length
        )
        min_margin = min(min_margin, lhs - rhs)
        checked += 1
    return {
        "checked": checked,
        "min_log_margin": min_margin,
        "all_pass": min_margin >= -1e-12,
    }


def exponential_tail(spectrum: LengthSpectrum, degree: int, s: float) -> float:
    """Sum of ell^degree * e^{-s*ell} / |det(I-P)| over the spectrum.

    Accumulated from log-space with compensated summation; the terms decay
    like e^{-(1+s) ell} so the value is finite and decreasing in s.
    """
    total = 0.0
    comp = 0.0
    for rec in spectrum_rows(spectrum):
        term = math.exp(
            degree * math.log(rec.length) - s * rec.length - rec.log_det
        )
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


# ---------------------------------------------------------------------------
# fuchsian: the shell BFS without the necklace rule, and its rotation dedup


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a < b for equal-shape 2-d unsigned arrays."""
    less = np.zeros(len(a), dtype=bool)
    decided = np.zeros(len(a), dtype=bool)
    for j in range(a.shape[1]):
        lt = a[:, j] < b[:, j]
        gt = a[:, j] > b[:, j]
        less |= lt & ~decided
        decided |= lt | gt
    return less


def _pack_rows(block: np.ndarray) -> np.ndarray:
    """Pack uint8 code rows into big-endian uint64 words for fast compares."""
    n = block.shape[1]
    pad = (-n) % 8
    if pad:
        block = np.concatenate(
            [block, np.zeros((len(block), pad), np.uint8)], axis=1
        )
    return np.ascontiguousarray(block).view(">u8").reshape(len(block), -1)


def _unique_min_rotations(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Deduplicate code rows up to cyclic rotation, vectorized per length.

    Each kept row is the least rotation of its spelling in byte order.
    """
    out: list[np.ndarray] = []
    by_len: dict[int, list[np.ndarray]] = {}
    for b in blocks:
        if len(b):
            by_len.setdefault(b.shape[1], []).append(b)
    for n, parts in sorted(by_len.items()):
        block = np.concatenate(parts).astype(np.uint8, copy=False)
        best = _pack_rows(block)
        best_start = np.zeros(len(block), dtype=np.int32)
        for r in range(1, n):
            packed = _pack_rows(
                np.concatenate([block[:, r:], block[:, :r]], axis=1)
            )
            swap = _lex_less(packed, best)
            best[swap] = packed[swap]
            best_start[swap] = r
        _, first = np.unique(
            best.view(np.dtype((np.void, best.shape[1] * 8))), return_index=True
        )
        rows = block[first]
        starts = best_start[first]
        rotated = np.empty_like(rows)
        for r in np.unique(starts):
            sel = starts == r
            rotated[sel] = np.concatenate(
                [rows[sel][:, r:], rows[sel][:, :r]], axis=1
            )
        out.append(rotated)
    return out


def extend_shell_unpruned(
    words: np.ndarray,
    mats: np.ndarray,
    gen_mats: np.ndarray,
    forbidden_codes: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Append every non-cancelling letter to every row, in every rotation."""
    n_letters = len(gen_mats)
    new_words, new_mats = [], []
    for letter in range(n_letters):
        sel = np.flatnonzero(words[:, -1] != letter ^ 1)
        w2 = np.concatenate(
            [words[sel], np.full((len(sel), 1), letter, np.int8)], axis=1
        )
        m2 = mats[sel]
        if forbidden_codes is not None and w2.shape[1] >= 5:
            code = np.zeros(len(w2), dtype=np.int64)
            for j in range(5):
                code = code * n_letters + w2[:, w2.shape[1] - 5 + j]
            good = ~np.isin(code, forbidden_codes)
            w2, m2 = w2[good], m2[good]
        prod = np.einsum(
            "nij,jk->nik", m2.reshape(-1, 2, 2), gen_mats[letter]
        ).reshape(-1, 4)
        new_words.append(w2)
        new_mats.append(prod)
    return np.concatenate(new_words), np.concatenate(new_mats)


def extend_shell_by_letter(
    words: np.ndarray,
    mats: np.ndarray,
    period: np.ndarray,
    gen_mats: np.ndarray,
    windows: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The FKM prenecklace extension one letter at a time, products by einsum.

    The loop form of ``fuchsian._extend_shell``: for each letter in turn,
    the rows it extends (reduced, FKM, and with no packed relator window
    from ``windows`` ending at the new letter), in row order.
    """
    n_letters = len(gen_mats)
    n, t = words.shape
    ref = words[np.arange(n), t - period]
    new_words, new_mats, new_period = [np.empty((0, t + 1), np.int8)], [np.empty((0, 4))], []
    for letter in range(n_letters):
        ok = (words[:, -1] != letter ^ 1) & (ref <= letter)
        if windows is not None and t >= 4:
            tail = np.zeros(n, dtype=np.int64)
            for column in words[:, t - 4 :].T:
                tail = tail * n_letters + column
            ok &= ~np.isin(tail * n_letters + letter, windows)
        sel = np.flatnonzero(ok)
        column = np.full((len(sel), 1), letter, np.int8)
        new_words.append(np.concatenate([words[sel], column], axis=1))
        new_period.append(np.where(ref[sel] == letter, period[sel], t + 1).astype(np.int16))
        prod = np.einsum("nij,jk->nik", mats[sel].reshape(-1, 2, 2), gen_mats[letter])
        new_mats.append(prod.reshape(-1, 4))
    return np.concatenate(new_words), np.concatenate(new_mats), np.concatenate(new_period)


def unpruned_shells(
    group, l_max: float, n_shells: int, displacement_cut: float | None = None
) -> list[np.ndarray]:
    """Survivor rows of the shell BFS that grows every rotation of every spelling.

    Survivors are the cyclically reduced hyperbolic rows with ell <= l_max.
    With a displacement cut (the co-compact preset) rows that move the base
    point farther are dropped, as are forbidden relator 5-grams.
    """
    tr_cut = 2.0 * math.cosh(l_max / 2) * (1.0 + 1e-9)
    gen_mats = group.generator_array()
    forbidden = None
    if displacement_cut is not None:
        norm2_cut = 2.0 * math.cosh(displacement_cut)
        forbidden = forbidden_5gram_codes(group.group, len(gen_mats))
    words = np.arange(len(gen_mats), dtype=np.int8)[:, None]
    mats = gen_mats.reshape(len(gen_mats), 4).copy()
    survivors = []
    for shell in range(1, n_shells + 1):
        tr = np.abs(mats[:, 0] + mats[:, 3])
        keep = (tr > 2.0 + 1e-9) & (tr <= tr_cut)
        if shell > 1:
            keep &= words[:, 0] != words[:, -1] ^ 1
        survivors.append(words[keep].copy())
        if displacement_cut is not None:
            within = (mats * mats).sum(axis=1) <= norm2_cut
            words, mats = words[within], mats[within]
        if not len(words) or shell == n_shells:
            break
        words, mats = extend_shell_unpruned(words, mats, gen_mats, forbidden)
    return survivors


# ---------------------------------------------------------------------------
# variance: the scalar divisor functions and coefficient path


def divisor_count(k: int) -> int:
    """d(k), the number of divisors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(1 for d in range(1, k + 1) if k % d == 0)


def divisor_sum(k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(d for d in range(1, k + 1) if k % d == 0)


def gcd_weight(k1: int, k2: int) -> int:
    """V(k1,k2) = sum of divisors of gcd(k1,k2); V(1,1) = 1."""
    if k1 < 1 or k2 < 1:
        raise ValueError("k must be >= 1")
    return divisor_sum(math.gcd(k1, k2))


def _pair_value(char, record: Row, k: int) -> float:
    """(chi + conj chi) evaluated on the k-th power of the record's root."""
    if char is None:
        return 2.0
    if isinstance(char, FluxCharacter):
        theta = char.scale * sum(f * h for f, h in zip(char.flux, record.homology))
        return 2.0 * math.cos(k * theta)
    if isinstance(char, MatrixRep):
        return 2.0 * char_trace(char, word_power(record.word, k)).real
    raise TypeError(f"unsupported character {type(char).__name__}")


def coeff_A(
    record: Row,
    k: int,
    char,
    window: Window,
    lam: float,
    L: float,
) -> float:
    """A(gamma,k): one term of the variance double sum.

    Zero whenever k*l > L by the psi_hat support; the determinant is
    evaluated in log space so long geodesics cannot overflow.
    """
    if record.power != 1:
        raise ValueError("record must be primitive (power 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    if lam <= 0 or L <= 0:
        raise ValueError("lambda and L must be positive")
    ell = record.primitive_length
    psi = window.psi_hat(k * ell / L)
    if psi == 0.0:
        return 0.0
    det_half = math.exp(0.5 * log_poincare_det(k * ell))
    return _pair_value(char, record, k) * math.cos(lam * k * ell) * psi * ell / det_half


def coeff_bound(record: Row, k: int, char, window: Window) -> float:
    """Upper bound 2N * l * max psi_hat / |det|^(1/2), independent of lambda."""
    dim = char.dimension if isinstance(char, MatrixRep) else 1
    ell = record.primitive_length
    det_half = math.exp(0.5 * log_poincare_det(k * ell))
    return 2.0 * dim * ell * abs(window.psi_hat(0.0)) / det_half


def quadratic_average(
    fn: Callable[[float], float],
    lam: float,
    span: float,
    target: float,
    l_max: float,
) -> float:
    """(1/span) * integral of |fn - target|^2 over [lam, lam+span]."""
    simpson = pytest.importorskip("scipy.integrate").simpson
    grid = _resolved_grid(lam, span, l_max)
    vals = np.array([abs(fn(mu) - target) ** 2 for mu in grid])
    return float(simpson(vals, x=grid)) / span


def _simpson_panels(x: np.ndarray):
    """The coefficients of composite Simpson on the grid x.

    The arithmetic of SciPy's ``integrate.simpson`` (1.11 and later): the
    rule for unequal spacings on each pair of intervals, with panel j
    weighing its three samples by ``scale[j] * (a[j], b[j], c[j])``, and
    on an even number of points Cartwright's correction for the last
    interval, ``(alpha, beta, eta)`` on the last, second-last and
    third-last sample (``None`` on an odd count).  Needs at least 3
    strictly increasing points.
    """
    n = len(x)
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    h0_over_h1 = h0 / h1
    a = 2.0 - 1.0 / h0_over_h1
    b = hsum * (hsum / (h0 * h1))
    c = 2.0 - h0_over_h1
    tail = None
    if n % 2 == 0:
        ha, hb = h[-2:]
        alpha = (2 * hb**2 + 3 * ha * hb) / (6 * (hb + ha))
        beta = (hb**2 + 3.0 * ha * hb) / (6 * ha)
        eta = hb**3 / (6 * ha * (ha + hb))
        tail = (alpha, beta, eta)
    return stop, hsum / 6.0, a, b, c, tail


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson integral of y over its last axis, sampled at x.

    Evaluated in SciPy's operation order, so the results keep its bits;
    the library's ``_simpson_weights`` regroups the same sum per sample.
    """
    stop, scale, a, b, c, tail = _simpson_panels(x)
    result = np.sum(
        scale * (y[..., 0:stop:2] * a + y[..., 1 : stop + 1 : 2] * b + y[..., 2 : stop + 2 : 2] * c),
        axis=-1,
    )
    if tail is not None:
        alpha, beta, eta = tail
        result += alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    return result


# ---------------------------------------------------------------------------
# ks: the exact normal CDF at every sample point


def ks_normal_exact(x) -> tuple[float, float]:
    """(D, p) of the two-sided KS test against N(0, 1), math.erfc at every point."""
    xs = np.sort(np.asarray(x, dtype=float))
    n = len(xs)
    cdf = 0.5 * np.fromiter(map(math.erfc, (-xs / math.sqrt(2.0)).tolist()), float, count=n)
    d_plus = float(np.max(np.arange(1.0, n + 1) / n - cdf))
    d_minus = float(np.max(cdf - np.arange(0.0, n) / n))
    d = max(d_plus, d_minus)
    return d, kstwo_sf(n, d)


# ---------------------------------------------------------------------------
# poisson: per-class draws


def invert_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Number of CDF entries <= u, per uniform draw u, as int64."""
    _, count, hit = _draw_buffers(len(u))
    return _invert_cdf(cdf, u, count, hit).astype(np.int64)


def sample_cycle_counts(seed: int, class_id: int, dmax: int, draws: int) -> np.ndarray:
    """(draws, dmax) matrix of Z_{gamma,d} draws, d = 1..dmax."""
    out = np.empty((draws, dmax), dtype=np.int64)
    buffers = _draw_buffers(draws)
    for d in range(1, dmax + 1):
        _poisson_draws(stream(seed, class_id, d), d, buffers)
        out[:, d - 1] = buffers[1]
    return out


def sample_Ninfty(surrogate: PoissonSurrogate) -> float:
    """A single draw (index 0) of the limiting fluctuation."""
    return float(surrogate.sample(1)[0])


def _pair_coefficient(table, col: int, d: int, L: float, mu: np.ndarray) -> np.ndarray:
    """c_{gamma,d}(mu) = (2/L) d sum_j A(gamma, d j) at each energy in mu.

    gamma is the class of table column ``col``; the j-sum stops where the
    window support cuts it, at d j <= floor(L / l).
    """
    ki = int(L / table.freqs[0, col])
    w = table.weights[d - 1 :: d, col][: ki // d]
    f = table.freqs[d - 1 :: d, col][: ki // d]
    return (2.0 / L) * d * (np.cos(np.outer(mu, f)) @ w)


def surrogate_pairs(surrogate: PoissonSurrogate) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(classIds, d, c at lambda) of the nonzero pairs, one (column, d) at a time."""
    t = surrogate.sigma
    at_lam = np.array([surrogate.lam])
    ids, ds, cs = [], [], []
    for col in range(len(t.rows)):
        for d in range(1, int(surrogate.L / t.freqs[0, col]) + 1):
            c = float(_pair_coefficient(t, col, d, surrogate.L, at_lam)[0])
            if c != 0.0:
                ids.append(t.rows[col])
                ds.append(d)
                cs.append(c)
    return np.array(ids, dtype=np.int64), np.array(ds, dtype=np.int64), np.array(cs)


def dense_energy_integrals(surrogate: PoissonSurrogate, mu: np.ndarray, draws: int) -> np.ndarray:
    """Simpson integral of N_tilde(mu)^2 per draw from the dense matrices.

    Builds the (energies x pairs) coefficient matrix and the
    (draws x energies) values of N_tilde, so it needs memory in both.
    """
    t = surrogate.sigma
    col_of = {int(cid): j for j, cid in enumerate(t.rows)}
    coeff = np.empty((len(mu), surrogate.n_pairs))
    for j, (cid, d) in enumerate(zip(surrogate.pair_class_ids, surrogate.pair_d)):
        coeff[:, j] = _pair_coefficient(t, col_of[int(cid)], int(d), surrogate.L, mu)
    z = np.empty((draws, surrogate.n_pairs))
    buffers = _draw_buffers(draws)
    for j, (g, d) in enumerate(zip(surrogate._pair_streams(), surrogate.pair_d)):
        z[:, j] = _poisson_draws(g, int(d), buffers)
    return _simpson((z @ coeff.T) ** 2, mu)


# ---------------------------------------------------------------------------
# covers: the per-sample path and the exhaustive small-n moment


@dataclass(frozen=True)
class PermutationRep:
    """One uniform permutation per generator, with seed provenance."""

    n: int
    images: tuple[np.ndarray, ...]
    seed: int
    sample_index: int = 0

    def __post_init__(self) -> None:
        for p in self.images:
            if sorted(p.tolist()) != list(range(self.n)):
                raise ValueError("image is not a permutation of 0..n-1")


def _cycle_scan(perm, dmax: int) -> np.ndarray:
    """Number of d-cycles of one permutation of 0..n-1, d = 1..dmax, by walking them."""
    p = perm.tolist()
    counts = np.zeros(dmax, dtype=np.int64)
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        if length <= dmax:
            counts[length - 1] += 1
    return counts


def sample_rep(rank: int, n: int, seed: int, sample_index: int = 0) -> PermutationRep:
    """Uniform rep; generator g draws from the stream (seed, sample, g)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    images = tuple(
        stream(seed, sample_index, g).permutation(n) for g in range(rank)
    )
    return PermutationRep(n=n, images=images, seed=seed, sample_index=sample_index)


def eval_perm(rep: PermutationRep, word: Word) -> np.ndarray:
    """Image of a word, composed left to right; inverses are argsorts."""
    out = np.arange(rep.n)
    for letter in word:
        if letter == 0 or abs(letter) > len(rep.images):
            raise ValueError(f"letter {letter} out of range")
        p = rep.images[abs(letter) - 1]
        out = out[p] if letter > 0 else out[np.argsort(p)]
    return out


def batch_word_images(images: np.ndarray, word: Word) -> np.ndarray:
    """Word image on a widened block of ``_sample_blocks``, composed left to right like ``eval_perm``."""
    rank = images.shape[0]
    for letter in word:
        if letter == 0 or abs(letter) > rank:
            raise ValueError(f"letter {letter} out of range for rank {rank}")
    out = np.arange(images[0].size).reshape(images[0].shape)
    for letter in word:
        p = images[abs(letter) - 1]
        if letter < 0:
            inv = np.empty_like(p)
            np.put(inv, p, np.arange(p.size))
            p = inv
        out = out.take(p)
    return out


def fixed_points(rep: PermutationRep, word: Word) -> int:
    perm = eval_perm(rep, word)
    return int(np.count_nonzero(perm == np.arange(rep.n)))


def cycle_counts(rep: PermutationRep, word: Word, dmax: int) -> np.ndarray:
    """Number of d-cycles of the word image for d = 1..dmax."""
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    return _cycle_scan(eval_perm(rep, word), dmax)


def fixed_points_of_powers(rep: PermutationRep, word: Word, kmax: int) -> np.ndarray:
    """F_n(gamma^k) for k = 1..kmax: points on cycles whose length divides k."""
    c = cycle_counts(rep, word, kmax)
    return np.array(
        [
            sum(d * c[d - 1] for d in range(1, k + 1) if k % d == 0)
            for k in range(1, kmax + 1)
        ],
        dtype=np.int64,
    )


def exact_cover_moment(word: Word, n: int, kmax: int = 4) -> np.ndarray:
    """E[F_n(gamma^k)], k = 1..kmax, by enumerating all homomorphisms.

    Only the generators appearing in the word need enumeration; absent
    generators integrate out exactly.  Feasible for n <= 4.
    """
    if n > 4:
        raise ValueError("exhaustive enumeration is for n <= 4")
    used = sorted({abs(l) for l in word})
    perms = [np.array(p) for p in permutations(range(n))]
    total = np.zeros(kmax)
    count = 0
    for combo in product(perms, repeat=len(used)):
        images = dict(zip(used, combo))
        out = np.arange(n)
        for letter in word:
            p = images[abs(letter)]
            out = out[p] if letter > 0 else out[np.argsort(p)]
        c = _cycle_scan(out, kmax)
        for k in range(1, kmax + 1):
            total[k - 1] += sum(d * c[d - 1] for d in range(1, k + 1) if k % d == 0)
        count += 1
    return total / count


# ---------------------------------------------------------------------------
# dynamics: the record loops


def _is_trivial_character(char) -> bool:
    if char is None:
        return True
    if isinstance(char, FluxCharacter):
        return all(
            abs(char.scale * f - 2.0 * math.pi * round(char.scale * f / (2.0 * math.pi)))
            <= 1e-12
            for f in char.flux
        )
    raise TypeError("sum rules support the trivial or flux characters only")


def sum_rule_value(spectrum: LengthSpectrum, phi: Window, L: float, char=None) -> float:
    """The sum rule's (1/L) sum as the record loop computed it."""
    total = 0.0
    for rec in spectrum_rows(spectrum):
        psi = float(phi.psi_hat(rec.length / L))
        if psi == 0.0:
            continue
        re_chi = 0.5 * _pair_value(char, rec, 1)
        total += re_chi * rec.primitive_length * psi * math.exp(-rec.log_det)
    return total / L


def cluster_sums(spectrum: LengthSpectrum, omega: Window, T: float) -> tuple[float, float]:
    """(value, unit-window sum) of the cluster sum, record by record."""
    value = 0.0
    unit = 0.0
    for rec in spectrum_rows(spectrum):
        x = rec.length - T
        if abs(x) >= 1.0:
            continue
        w = rec.primitive_length * math.exp(-rec.log_det)
        value += w * float(omega.psi_hat(x))
        unit += w
    return value, unit


def window_mass(w: Window) -> float:
    return w.amplitude * (2.0 * _half_mass(w.kind))


@dataclass(frozen=True)
class ClusterReport:
    value: float
    mass: float
    T: float
    unit_window_sum: float
    window_kind: str


def cluster_sum(spectrum: LengthSpectrum, omega: Window, T: float) -> ClusterReport:
    """sum of l_sharp omega(l - T) / |I - P|, limiting to the mass of omega.

    The companion unit-window sum (indicator on [T-1, T+1]) is the
    boundedness check: cluster sums stay O(1) uniformly in T.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    _require_certified(spectrum, T + 1.0, "T+1")
    near = np.flatnonzero(np.abs(spectrum.length - T) < 1.0)
    weight = _equidistribution_weight(spectrum, near)
    value = float(np.sum(weight * omega.psi_hat(spectrum.length[near] - T)))
    unit = float(np.sum(weight))
    return ClusterReport(
        value=value,
        mass=window_mass(omega),
        T=T,
        unit_window_sum=unit,
        window_kind=omega.kind,
    )


def orbit_ensemble_weights(
    spectrum: LengthSpectrum, T: float, omega: Window
) -> tuple[tuple[Row, ...], np.ndarray]:
    """Rows and normalised weights of the orbit ensemble near T."""
    records: list[Row] = []
    weights: list[float] = []
    for rec in spectrum_rows(spectrum):
        x = rec.length - T
        if abs(x) >= 1.0:
            continue
        w = rec.primitive_length * float(omega.psi_hat(x)) * math.exp(-rec.log_det)
        if w > 0.0:
            records.append(rec)
            weights.append(w)
    probs = np.array(weights)
    probs /= probs.sum()
    return tuple(records), probs


def variance_estimate(spectrum: LengthSpectrum, flux_vector, T: float, eps: float = 1.0) -> float:
    """Var(a) over the window [T, T+eps], record by record."""
    flux = _flux_array(flux_vector, spectrum.group.rank)
    total = 0.0
    for rec in spectrum_rows(spectrum):
        if T <= rec.length <= T + eps:
            pairing = float(np.dot(flux, rec.homology))
            total += rec.primitive_length * math.exp(-rec.log_det) * pairing**2
    return total / (eps * T)


# ---------------------------------------------------------------------------
# spectrum CSV rows, checked one at a time as the loader once did


_LETTER_OF = {ch: i + 1 for i, ch in enumerate("abcdefgh")} | {
    ch: -(i + 1) for i, ch in enumerate("ABCDEFGH")
}


def csv_rows(path: str) -> list[dict]:
    """The data rows of a spectrum CSV as dicts, parsed cell by cell."""
    with open(path, newline="") as fh:
        table = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(table)
        return [
            {
                "classId": int(cells[0]),
                "inverseId": int(cells[1]),
                "word": tuple(_LETTER_OF[ch] for ch in cells[2]),
                "ell": float(cells[3]),
                "ell_sharp": float(cells[4]),
                "k": int(cells[5]),
                "log_detIminusP": float(cells[6]),
                "homology": tuple(int(c) for c in cells[7 : len(header)]),
            }
            for cells in table
        ]


def _row_fault(
    group: FuchsianGroup, rows: list[dict], i: int, certified_l_max: float
) -> str | None:
    """What is wrong with row i on its own and beside its inverse row."""
    row = rows[i]
    word, ell, k, j = row["word"], row["ell"], row["k"], row["inverseId"]
    if row["classId"] != i:
        return f"classId {row['classId']} is not the row index"
    if not word or max(map(abs, word)) > group.rank or 0 in word:
        return f"word uses a letter outside rank {group.rank}"
    if cyclic_reduce(reduce_word(word)) != word or min_rotation(word) != word:
        return "word is not a cyclically reduced least rotation"
    if abelianize(word, group.group) != row["homology"]:
        return "homology is not the word's exponent sums"
    if j == i:
        return f"inverseId {j} is the row's own classId; no class is its own inverse"
    if not (0 <= j < len(rows) and rows[j]["inverseId"] == i):
        return f"inverseId {j} is not an involution"
    partner = rows[j]
    if (partner["ell"], partner["ell_sharp"], partner["k"], partner["log_detIminusP"]) != (
        ell, row["ell_sharp"], k, row["log_detIminusP"]
    ):
        return f"inverse row {j} differs in ell, ell_sharp, k or log_detIminusP"
    if partner["homology"] != tuple(-h for h in row["homology"]):
        return f"inverse row {j} does not carry the negated homology"
    if len(partner["word"]) != len(word):
        return f"inverse row {j} has a word of another length"
    if k < 1 or ell != k * row["ell_sharp"]:
        return "ell is not k * ell_sharp"
    if not 0 < ell <= certified_l_max:
        return f"ell {ell!r} is outside (0, certified_l_max]"
    if row["log_detIminusP"] != log_poincare_det(ell):
        return "log_detIminusP is not log_poincare_det(ell)"
    return None


def row_refusal(group: FuchsianGroup, rows: list[dict], certified_l_max: float) -> str | None:
    """The loader's row checks, row by row: the refusal of the first faulty row, or None."""
    keys = [(row["ell"], word_sort_key(row["word"])) for row in rows]
    for i in range(len(rows)):
        fault = _row_fault(group, rows, i, certified_l_max)
        if fault is None and i and not keys[i - 1] < keys[i]:
            fault = "rows are not sorted by (ell, word)"
        if fault is not None:
            return f"row {i}: {fault}"
    traces = [np.trace(holonomy(group, row["word"])) for row in rows]
    traced = [2.0 * math.acosh(abs(t) / 2.0) if abs(t) > 2.0 else math.nan for t in traces]
    for i, row in enumerate(rows):
        if not abs(traced[i] - row["ell"]) <= 1e-9 * row["ell"]:
            return f"row {i}: ell {row['ell']!r} is not the length {traced[i]!r} of the word's trace"
    for i, row in enumerate(rows):
        if row["k"] == 1 and row["ell_sharp"] not in (traced[i], traced[row["inverseId"]]):
            return f"row {i}: ell_sharp is not the length of its own trace or its inverse's"
    return None
