"""``check_delta_derivation`` against the residual written from its definition.

The check sums each pair's residual on ints and reads every image once per
call; ``residual_oracle.residual_at`` evaluates the three images of each
pair and brackets them as vectors. The two must give the same violations,
in the same order and with the same residuals, and the same error on a
window that cannot answer. The work-count tests pin how many images a check
evaluates and how many brackets it asks for.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltader import acceptance, dersolve
from deltader.algebras import E, F, KeyOutOfDomain, solv_abelian, thin, wab, witt_one_sided, witt_pos, witt_z
from deltader.dersolve import check_delta_derivation, derivation_pairs, find_violation_witness
from deltader.operators import (
    ShiftOp,
    SolvDeltaBar,
    SolvHalfDer,
    ThinHalfDer,
    ThinLocalDelta,
    ThinNabla,
    WabHalfDer,
    Window,
    WindowedMap,
    WindowTooSmall,
    materialize,
    window_from_ranges,
)
from residual_oracle import residual_at

HALF = Fraction(1, 2)
DELTAS = [0, 1, HALF, Fraction(1, 4), Fraction(-3, 2), Fraction(5, 7)]
ALGEBRAS = [
    witt_z(),
    witt_pos(),
    witt_one_sided(),
    thin(),
    solv_abelian(),
    wab(0, -1),
    wab(Fraction(1, 2), Fraction(-1, 3)),
    wab(Fraction(2, 3), 2),
]
# One image of a windowed map: up to three (index, coefficient) entries, the
# index standing for ``out_keys[index % len(out_keys)]``, so two entries may
# name one key and the later one is kept. 18 is the most output keys a case
# has (two lines of nine). A coefficient is any of the 37 fractions in
# [-3, 3] with denominator at most 4, simplest first. Both are built once:
# a strategy built inside each draw, as ``st.fractions`` builds one for its
# numerator, costs more than the draw.
FRACTIONS = st.sampled_from(
    sorted(
        {Fraction(n, d) for d in range(1, 5) for n in range(-3 * d, 3 * d + 1)},
        key=lambda x: (x.denominator, abs(x), x < 0),
    )
)
IMAGE = st.lists(st.tuples(st.integers(0, 17), FRACTIONS), max_size=3)


def reference_check(alg, candidate, delta, pairs):
    """The check as a loop over ``residual_at``, pair by pair."""
    violations = []
    for k1, k2 in pairs:
        try:
            residual = residual_at(alg, candidate, delta, k1, k2)
        except WindowTooSmall as exc:
            raise WindowTooSmall(f"pair ({k1}, {k2}): {exc}") from None
        if residual:
            violations.append(((k1, k2), residual))
    return violations


def outcome(check, *args):
    """What ``check(*args)`` returns, or the type and message of its error."""
    try:
        return check(*args)
    except (WindowTooSmall, KeyOutOfDomain) as exc:
        return type(exc), str(exc)


def assert_same_outcome(alg, candidate, delta, pairs):
    got = outcome(check_delta_derivation, alg, candidate, delta, pairs)
    assert got == outcome(reference_check, alg, candidate, delta, pairs)
    if isinstance(got, list):
        entries = [x for _, residual in got for x in residual.entries.values()]
        assert all(type(x) is int or x.denominator > 1 for x in entries)
    return got


@st.composite
def windowed_cases(draw):
    """An algebra, a map with Fraction entries on a range window of it, a
    delta, and pairs: the window's closed pairs, or every pair of its keys
    and maybe one key past it, in a drawn order."""
    alg = draw(st.sampled_from(ALGEBRAS))
    floor = alg.record.floor
    lo = draw(st.integers(-3, 3)) if floor is None else floor + draw(st.integers(0, 2))
    hi = lo + draw(st.integers(1, 3))
    out_lo = lo - draw(st.integers(0, 2))
    if floor is not None:
        out_lo = max(out_lo, floor)
    w = window_from_ranges(alg, (lo, hi), (out_lo, hi + draw(st.integers(0, 3))))
    out_keys = w.out_keys
    images = {k: {out_keys[i % len(out_keys)]: c for i, c in draw(IMAGE)} for k in w.keys}
    if draw(st.booleans()):
        pairs = list(derivation_pairs(alg, w.keys))
    else:
        keys = list(w.keys) + draw(st.sampled_from([[], [E(hi + 1)]]))
        pairs = list(itertools.combinations(keys, 2))
    pairs = draw(st.permutations(pairs))
    return alg, WindowedMap(w, images), draw(st.sampled_from(DELTAS)), pairs


@given(windowed_cases())
@settings(max_examples=300, deadline=None)
def test_the_check_agrees_with_the_oracle_on_windowed_maps(case):
    assert_same_outcome(*case)


@pytest.mark.parametrize("delta", DELTAS, ids=str)
@pytest.mark.parametrize(
    "alg, op, keys",
    [
        (thin(), ThinLocalDelta(), range(1, 9)),
        (thin(), ThinHalfDer(alpha=(1, HALF), beta=(2, Fraction(-1, 3))), range(1, 9)),
        (solv_abelian(), SolvDeltaBar(), range(1, 7)),
        (solv_abelian(), SolvHalfDer(alpha=(Fraction(3, 4), 1)), range(1, 7)),
        (witt_z(), ShiftOp(2, Fraction(-2, 3)), range(-3, 4)),
        (wab(Fraction(1, 2), -1), WabHalfDer(alpha={1: HALF}, beta={0: 1}), range(-2, 3)),
    ],
    ids=["thin-delta", "thin-half-der", "solv-deltabar", "solv-half-der", "shift", "wab"],
)
def test_the_check_agrees_with_the_oracle_on_closed_forms(alg, op, keys, delta):
    # closed forms evaluate anywhere, so every pair of the keys is checked
    keys = sorted(k for i in keys for k in (E(i), F(i)) if k.kind in alg.record.lines)
    pairs = list(itertools.combinations(keys, 2))
    assert_same_outcome(alg, op, delta, pairs)
    found = find_violation_witness(alg, op, delta, keys)
    reference = reference_check(alg, op, delta, pairs)
    assert found == (reference[0] if reference else None)


@pytest.mark.parametrize(
    "in_range, pair, missing",
    [((-1, 1), (E(-1), E(2)), "e2"), ((-1, 1), (E(1), E(2)), "e3")],
    ids=["image", "bracket"],
)
def test_a_window_too_small_is_named_as_the_oracle_names_it(in_range, pair, missing):
    alg = witt_z()
    w = window_from_ranges(alg, in_range, (-3, 3))
    identity = WindowedMap(w, {k: {k: 1} for k in w.keys})
    pairs = [(E(0), E(1)), pair]
    got = assert_same_outcome(alg, identity, HALF, pairs)
    assert got == (WindowTooSmall, f"pair ({pair[0]}, {pair[1]}): {missing} outside input window")


@pytest.mark.parametrize("bad", [E(1), E(2)], ids=["phi-x", "phi-y"])
def test_an_output_key_outside_the_domain_is_named_as_the_oracle_names_it(bad):
    # two keys outside thin's domain: the first in key order is named
    alg = thin()
    w = Window((E(1), E(2), E(3)), (E(-1), E(0), E(1), E(2), E(3), E(4)))
    images = {E(1): {}, E(2): {}, E(3): {E(4): HALF}, bad: {E(0): 1, E(-1): 2}}
    got = assert_same_outcome(alg, WindowedMap(w, images), HALF, derivation_pairs(alg, w.keys))
    assert got == (KeyOutOfDomain, "e-1 is not a basis key of thin")


@pytest.mark.parametrize("pairs", [[], [(E(0), E(1))]], ids=["no-pairs", "one-pair"])
def test_a_float_delta_is_refused(pairs):
    alg = witt_z()
    w = window_from_ranges(alg, (-1, 1), (-2, 2))
    with pytest.raises(TypeError):
        check_delta_derivation(alg, materialize(ShiftOp(1, 1), w), 0.5, pairs)


def test_a_nonlinear_map_is_refused():
    # thin-nabla vanishes on every basis key, so read through unit vectors it
    # would pass; it is not additive, and has no value_at
    alg = thin()
    w = window_from_ranges(alg, (1, 8), (1, 9))
    with pytest.raises(TypeError, match="^ThinNabla is not linear: it has no value_at$"):
        check_delta_derivation(alg, ThinNabla(), HALF, derivation_pairs(alg, w.keys))
    with pytest.raises(TypeError):
        check_delta_derivation(alg, ThinNabla(), HALF, [])
    with pytest.raises(TypeError):
        find_violation_witness(alg, ThinNabla(), HALF, [E(i) for i in range(1, 9)])


def count_calls(monkeypatch, owner, name):
    """The arguments of every call to ``owner.<name>`` from here on."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_each_image_is_evaluated_once_per_call(monkeypatch):
    alg = thin()
    w = window_from_ranges(alg, (1, 8), (1, 9))
    candidate = materialize(ThinHalfDer(alpha=(1, 2), beta=(HALF, 3)), w)
    pairs = derivation_pairs(alg, w.keys)
    calls = count_calls(monkeypatch, WindowedMap, "value_at")
    check_delta_derivation(alg, candidate, HALF, pairs)
    needed = {k for pair in pairs for k in pair}
    needed |= {s for k1, k2 in pairs for s in dersolve.bracket(alg, k1, k2).support()}
    evaluated = [key for _, key in calls]
    assert sorted(evaluated) == sorted(needed)
    # nothing is kept between calls
    check_delta_derivation(alg, candidate, HALF, pairs)
    assert [key for _, key in calls] == evaluated * 2


def test_criterion_2_evaluates_each_shift_image_once_and_brackets_each_pair_once(monkeypatch):
    pairs = []
    check = acceptance.check_delta_derivation

    def recorded(alg, candidate, delta, checked):
        pairs.extend(checked)
        return check(alg, candidate, delta, checked)

    monkeypatch.setattr(acceptance, "check_delta_derivation", recorded)
    evaluations = count_calls(monkeypatch, WindowedMap, "value_at")
    brackets = count_calls(monkeypatch, dersolve, "bracket")
    assert acceptance.criterion_2().passed
    # three images per pair, 2,508, when each pair evaluated its own
    assert len(pairs) == 836
    assert len(evaluations) == 315
    assert len(brackets) == len(pairs)
