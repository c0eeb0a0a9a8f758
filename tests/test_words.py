from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    abelianize,
    concat,
    conjugate_by_all,
    enumerate_classes,
    probed_canonical_class,
    probed_primitive_root,
    word_power,
)
from specvar import fuchsian as F
from specvar.words import (
    TrivialElementError,
    _letter_key,
    canonical_class,
    cyclic_reduce,
    dehn_cyclic_reduce,
    free_group,
    invert_word,
    min_rotation,
    primitive_root,
    reduce_word,
    shortest_spellings,
    surface_group,
    word_sort_key,
)

F2 = free_group(2)
G2 = surface_group(2)
G3 = surface_group(3)


def letters_strategy(rank=2, max_len=10):
    alphabet = [i for g in range(1, rank + 1) for i in (g, -g)]
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(tuple)


# ---------------------------------------------------------------------------
# rotation and sort keys against the brute-force definitions


def min_rotation_oracle(word):
    """Every rotation spelled out, keyed by its letter-key tuple."""
    if not word:
        return word
    rots = (word[i:] + word[:i] for i in range(len(word)))
    return min(rots, key=lambda w: tuple(_letter_key(l) for l in w))


def word_sort_key_oracle(word):
    return (len(word), tuple(_letter_key(l) for l in word))


# a periodic word has as many minimal rotations as repeats of its period
periodic_words = st.tuples(
    letters_strategy(rank=4, max_len=4), st.integers(min_value=2, max_value=4)
).map(lambda t: t[0] * t[1])


@given(st.one_of(letters_strategy(rank=4, max_len=16), periodic_words))
@example(())
@example((3,))
@example((1, 2, 1, 2))
@example((2, 1, 2, 1))
@example((-1, 1, -1, 1, -1, 1))
@example((1, 1, 1))
def test_min_rotation_matches_oracle(w):
    got = min_rotation(w)
    assert got == min_rotation_oracle(w)
    assert type(got) is tuple
    assert word_sort_key(w) == word_sort_key_oracle(w)


# ---------------------------------------------------------------------------
# free reduction


def test_reduce_cancels_adjacent_inverse_pair():
    assert reduce_word((1, 2, -2, 1)) == (1, 1)


def test_reduce_identity():
    assert reduce_word((1, -1)) == ()


def test_reduce_fixed_point():
    assert reduce_word((1, 2)) == (1, 2)


@given(letters_strategy())
def test_reduce_idempotent(w):
    assert reduce_word(reduce_word(w)) == reduce_word(w)


@given(letters_strategy())
def test_cyclic_reduce_idempotent(w):
    cr = cyclic_reduce(reduce_word(w))
    assert cyclic_reduce(cr) == cr


def test_cyclic_reduce_conjugation_collapse():
    assert cyclic_reduce(reduce_word((-2, 1, 2))) == (1,)
    assert cyclic_reduce((1, 2)) == (1, 2)
    # inner reduction first, then cyclic: b a b^-1 b a b^-1 -> a a
    assert cyclic_reduce(reduce_word((2, 1, -2, 2, 1, -2))) == (1, 1)


# ---------------------------------------------------------------------------
# canonical conjugacy classes, free presets


def test_canonical_free_conjugate_of_generator():
    assert canonical_class((2, 1, -2), F2).canonical == (1,)


def test_canonical_free_rotation():
    assert canonical_class((1, 2), F2) == canonical_class((2, 1), F2)


def test_canonical_trivial_raises():
    with pytest.raises(TrivialElementError):
        canonical_class((1, -1), F2)


@given(letters_strategy(max_len=6), letters_strategy(max_len=4))
def test_canonical_free_invariant_under_conjugation(w, u):
    if not reduce_word(w):
        return
    conj = concat(u, w, invert_word(u))
    assert canonical_class(w, F2) == canonical_class(conj, F2)


def test_inverse_class_roundtrip():
    cls = canonical_class((1, 2, -1, 2), F2)
    inv = canonical_class(invert_word(cls.canonical), F2)
    assert inv.canonical == cls.inverse_canonical
    assert inv.inverse_canonical == cls.canonical


# ---------------------------------------------------------------------------
# primitive roots


def test_primitive_root_period_two():
    root, k = primitive_root(canonical_class((1, 2, 1, 2), F2), F2)
    assert (root.canonical, k) == ((1, 2), 2)


def test_primitive_root_primitive():
    root, k = primitive_root(canonical_class((1, 2), F2), F2)
    assert (root.canonical, k) == ((1, 2), 1)


def test_primitive_root_cube():
    root, k = primitive_root(canonical_class((1, 1, 1), F2), F2)
    assert (root.canonical, k) == ((1,), 3)


@given(letters_strategy(max_len=4), st.integers(min_value=1, max_value=4))
def test_primitive_root_powers_multiply(w, k):
    if not cyclic_reduce(reduce_word(w)):
        return
    base = canonical_class(w, F2)
    _, k0 = primitive_root(base, F2)
    powered = canonical_class(word_power(base.canonical, k), F2)
    _, k1 = primitive_root(powered, F2)
    assert k1 == k * k0


# ---------------------------------------------------------------------------
# abelianization


def test_abelianize_commutator_is_zero():
    assert abelianize((1, 2, -1, -2), F2) == (0, 0)


def test_abelianize_exponent_sums():
    assert abelianize((1, 1, -2), F2) == (2, -1)


def test_abelianize_genus2_relator_is_zero():
    assert abelianize(G2.relator, G2) == (0, 0, 0, 0)


@given(letters_strategy(max_len=6), letters_strategy(max_len=6))
def test_abelianize_is_homomorphism(u, v):
    uv = abelianize(concat(u, v), F2)
    expected = tuple(a + b for a, b in zip(abelianize(u, F2), abelianize(v, F2)))
    assert uv == expected
    assert abelianize(invert_word(u), F2) == tuple(-a for a in abelianize(u, F2))


# ---------------------------------------------------------------------------
# enumeration, free presets


def brute_force_classes(rank, max_len):
    """Oracle: all words up to max_len, deduplicated by conjugacy via
    cyclic reduction + rotation (exact in a free group)."""
    alphabet = [i for g in range(1, rank + 1) for i in (g, -g)]
    seen = set()
    for n in range(1, max_len + 1):
        for w in itertools.product(alphabet, repeat=n):
            cr = cyclic_reduce(reduce_word(w))
            if cr:
                seen.add(min_rotation(cr))
    return {w for w in seen if len(w) <= max_len}


def test_enumerate_classes_length_one():
    got = {c.canonical for c in enumerate_classes(F2, 1)}
    assert got == {(1,), (-1,), (2,), (-2,)}


def test_enumerate_classes_length_two_matches_brute_force():
    got = {c.canonical for c in enumerate_classes(F2, 2)}
    assert got == brute_force_classes(2, 2)
    assert len(got) == 12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_enumerate_classes_counts_match_necklace_oracle(n):
    got = {c.canonical for c in enumerate_classes(F2, n)}
    assert got == brute_force_classes(2, n)


def test_enumerate_classes_closed_under_inversion():
    classes = enumerate_classes(F2, 4)
    have = {c.canonical for c in classes}
    for c in classes:
        assert c.inverse_canonical in have


def test_enumerate_classes_deterministic_order():
    twice = [enumerate_classes(F2, 4) for _ in range(2)]
    assert twice[0] == twice[1]
    keys = [word_sort_key(c.canonical) for c in twice[0]]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# surface groups: Dehn reduction and half-relator ambiguity


def test_relator_is_trivial():
    with pytest.raises(TrivialElementError):
        canonical_class(G2.relator, G2)


def test_overlong_relator_prefix_shortens():
    # first five letters of the relator equal the inverse of the last three,
    # which as a cyclic word collapses all the way to a single generator
    w = G2.relator[:5]
    expected = invert_word(G2.relator[5:])
    assert dehn_cyclic_reduce(w, G2) == dehn_cyclic_reduce(expected, G2)
    assert dehn_cyclic_reduce(w, G2) == (3,)


def test_dehn_reduced_survivor_is_not_shortest():
    # one of the 19 octagon survivors at Lmax 9.5 that Dehn reduction leaves
    # longer than their class: it has no subword longer than half the
    # relator, but half swaps reach a 7-letter spelling
    octagon = F.preset("octagon_genus2")
    assert octagon.group == G2
    w = (-1, -2, -1, 4, 3, 3, -4, -3, 2)
    assert dehn_cyclic_reduce(w, G2) == w
    shortest = (1, 2, -1, -1, -1, -2, 3)
    assert shortest_spellings(w, G2) == {shortest}
    assert canonical_class(w, G2).canonical == shortest
    # conjugate elements have equal holonomy traces (necessary, not sufficient)
    tw, ts = np.trace(F.holonomies(octagon, [w, shortest]), axis1=1, axis2=2)
    assert ts == pytest.approx(tw, rel=1e-12)
    # no swap or reduction applies to the 7-letter spelling: it holds no
    # cyclic subword of half a relator form
    forms = [f[i:] + f[:i] for f in (G2.relator, invert_word(G2.relator)) for i in range(len(f))]
    halves = {f[: len(f) // 2] for f in forms}
    doubled = shortest * 2
    assert not {doubled[i : i + 4] for i in range(len(shortest))} & halves


def test_half_relator_spellings_merge():
    # [a1,b1] and the inverse of [a2,b2] are the same element
    u = (1, 2, -1, -2)
    v = invert_word((3, 4, -3, -4))
    assert canonical_class(u, G2) == canonical_class(v, G2)


def test_half_relator_power_spellings_merge():
    u = (1, 2, -1, -2)
    v = invert_word((3, 4, -3, -4))
    for mix, k in [((u + v), 2), ((v + u + u), 3)]:
        assert canonical_class(mix, G2) == canonical_class(word_power(u, k), G2)
        _, got_k = primitive_root(canonical_class(mix, G2), G2)
        assert got_k == k


@settings(deadline=None)
@given(letters_strategy(rank=4, max_len=6), letters_strategy(rank=4, max_len=3))
def test_canonical_surface_invariant_under_conjugation(w, u):
    try:
        cls = canonical_class(w, G2)
    except TrivialElementError:
        return
    conj = concat(u, w, invert_word(u))
    assert canonical_class(conj, G2) == cls


def test_canonical_surface_invariant_under_short_conjugators_exhaustive():
    for w in [(1,), (1, 2), (1, 2, -1, -2), (1, 3), (2, 4, -2)]:
        cls = canonical_class(w, G2)
        for conj in conjugate_by_all(w, G2, 2):
            assert canonical_class(conj, G2) == cls


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from([G2, G3, F2]).flatmap(
        lambda preset: st.tuples(
            st.just(preset),
            letters_strategy(rank=preset.rank, max_len=7),
            st.integers(min_value=1, max_value=4),
        )
    )
)
@example((G2, (-1, -2, 3, 2), 2))
def test_power_rule_matches_probing_oracle(case):
    # forced powers of random words: a periodic shortest spelling marks a
    # power, and the oracle probes every rotation block and divisor instead
    preset, w, k = case
    word = word_power(w, k)
    try:
        want = probed_canonical_class(word, preset)
    except TrivialElementError:
        with pytest.raises(TrivialElementError):
            canonical_class(word, preset)
        return
    cls = canonical_class(word, preset)
    assert cls == want
    assert primitive_root(cls, preset) == probed_primitive_root(want, preset)
