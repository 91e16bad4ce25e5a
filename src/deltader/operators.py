"""Linear maps on windowed algebras.

Two representations coexist:

* ``WindowedMap`` tabulates images of the input-window keys, supported inside
  an output window; this is what the constraint solver produces and consumes.
* Closed-form families (``ShiftOp``, ``ThinHalfDer``, ``WabHalfDer``,
  ``SolvHalfDer``) and the fixed probe operators (``ThinLocalDelta``,
  ``SolvDeltaBar`` and the nonlinear ``ThinNabla``) evaluate anywhere in the
  algebra and can be truncated onto a window via ``materialize``.

A map is linear exactly when it has ``value_at``; ``ThinNabla`` has none. A
key that a window lacks raises ``WindowTooSmall``, and one outside the
algebra's domain the catalogue's ``KeyOutOfDomain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence, Tuple

from .algebras import AlgebraSpec, BasisKey, E, F, require_in_domain, solv_abelian, thin, witt_z
from .exactlin import Scalar, SparseVec, as_scalar


class SupportOverflow(ValueError):
    """A WindowedMap was given an image outside its output window."""


class WindowTooSmall(Exception):
    """A map or a check needed the image of a key that the window lacks."""


# The domains of the thin and solvable closed forms.
_THIN, _SOLV = thin(), solv_abelian()


def _half_power(j: int) -> Scalar:
    """2**(2-j) as a canonical scalar: an int for j <= 2."""
    return 2 ** (2 - j) if j <= 2 else Fraction(1, 2 ** (j - 2))


@dataclass(frozen=True)
class Window:
    """Input window I and output window O, canonically sorted, with I <= O."""

    keys: Tuple[BasisKey, ...]
    out_keys: Tuple[BasisKey, ...]

    def __post_init__(self):
        for name, ks in (("keys", self.keys), ("out_keys", self.out_keys)):
            if list(ks) != sorted(set(ks)):
                raise ValueError(f"window {name} must be sorted and duplicate-free")
        # Not fields: equality and hash stay on the tuples.
        object.__setattr__(self, "_key_set", frozenset(self.keys))
        object.__setattr__(self, "_out_key_set", frozenset(self.out_keys))
        if not self._key_set <= self._out_key_set:
            raise ValueError("input window must be contained in output window")

    def key_set(self) -> frozenset:
        return self._key_set

    def out_key_set(self) -> frozenset:
        return self._out_key_set

    def columns(self) -> list:
        """Canonical unknown order: (input key, output key), both sorted."""
        return [(i, k) for i in self.keys for k in self.out_keys]


def window(in_keys: Sequence[BasisKey], out_keys: Sequence[BasisKey]) -> Window:
    return Window(tuple(sorted(set(in_keys))), tuple(sorted(set(out_keys))))


def window_from_ranges(
    alg: AlgebraSpec,
    in_range: Tuple[int, int],
    out_range: Optional[Tuple[int, int]] = None,
) -> Window:
    """Build a window from inclusive index ranges.

    Every basis line of the algebra gets the range: the e-line, and the
    f-line on ``wab``. Raises ValueError on an empty range, and the
    catalogue's KeyOutOfDomain if a bound leaves the algebra's domain.
    """
    if out_range is None:
        out_range = in_range

    def expand(lo: int, hi: int) -> list:
        if lo > hi:
            raise ValueError(f"empty index range {lo}..{hi}")
        keys = [BasisKey(kind, i) for kind in alg.record.lines for i in range(lo, hi + 1)]
        require_in_domain(alg, keys)
        return keys

    return window(expand(*in_range), expand(*out_range))


def require_inside(key: BasisKey, image: Mapping, out_keys) -> None:
    """Raise SupportOverflow when the image of ``key`` has a key outside ``out_keys``."""
    escaped = image.keys() - out_keys
    if escaped:
        raise SupportOverflow(f"image of {key} reaches {sorted(escaped)} outside the output window")


def _extend_linearly(value_at, v: SparseVec) -> SparseVec:
    """sum_k v_k * value_at(k), accumulated in one dict."""
    out: dict = {}
    for k, c in v._entries.items():
        for key, value in value_at(k)._entries.items():
            out[key] = out.get(key, 0) + c * value
    return SparseVec(out)


@dataclass(frozen=True)
class WindowedMap:
    """A linear map given by images of the input-window keys; unhashable,
    as its images are a dict. ``_wrap`` skips the constructor's checks, for
    images valid by construction: sums, multiples, commutators, solved maps."""

    window: Window
    image: Mapping[BasisKey, SparseVec]

    __hash__ = None

    def __post_init__(self):
        img = {k: (v if isinstance(v, SparseVec) else SparseVec(v)) for k, v in self.image.items()}
        if set(img) != set(self.window.keys):
            raise ValueError("image must be defined exactly on the input window")
        out = self.window.out_key_set()
        for k, v in img.items():
            require_inside(k, v._entries, out)
        object.__setattr__(self, "image", img)

    @classmethod
    def _wrap(cls, window: Window, image: dict) -> "WindowedMap":
        m = object.__new__(cls)
        object.__setattr__(m, "window", window)
        object.__setattr__(m, "image", image)
        return m

    def value_at(self, key: BasisKey) -> SparseVec:
        try:
            return self.image[key]
        except KeyError:
            raise WindowTooSmall(f"{key} outside input window") from None

    def evaluate(self, v: SparseVec) -> SparseVec:
        return _extend_linearly(self.value_at, v)

    def __add__(self, other: "WindowedMap") -> "WindowedMap":
        if self.window != other.window:
            raise ValueError("window mismatch")
        image = {k: self.image[k] + other.image[k] for k in self.window.keys}
        return WindowedMap._wrap(self.window, image)

    def scaled(self, factor) -> "WindowedMap":
        factor = as_scalar(factor)
        return WindowedMap._wrap(self.window, {k: v._times(factor) for k, v in self.image.items()})


def _int_images(m: WindowedMap) -> Tuple[dict, int]:
    """``d`` times every image of ``m`` as an int dict, and ``d``, the lcm of
    the denominators of all its entries."""
    d = lcm(*(v.denominator for image in m.image.values() for v in image._entries.values()))
    return {
        k: {o: v.numerator * (d // v.denominator) for o, v in image._entries.items()}
        for k, image in m.image.items()
    }, d


def commutator(a: WindowedMap, b: WindowedMap) -> WindowedMap:
    """a b - b a on the common input keys where both compositions are defined,
    over the union of the two output windows.

    Each map's images are scaled once to ints by the lcm of their entries'
    denominators, ``d_a`` and ``d_b``; the compositions are summed on ints,
    and each entry is divided once, by ``d_a*d_b``.
    """
    a_in, b_in = a.window.key_set(), b.window.key_set()
    keys = tuple(
        k
        for k in a.window.keys
        if k in b_in and b.image[k]._entries.keys() <= a_in and a.image[k]._entries.keys() <= b_in
    )
    out = tuple(sorted(a.window.out_key_set() | b.window.out_key_set()))
    int_a, d_a = _int_images(a)
    int_b, d_b = _int_images(b)
    d = d_a * d_b
    image = {}
    for k in keys:
        total: dict = {}
        for j, c in int_b[k].items():
            for o, v in int_a[j].items():
                total[o] = total.get(o, 0) + c * v
        for j, c in int_a[k].items():
            for o, v in int_b[j].items():
                total[o] = total.get(o, 0) - c * v
        image[k] = SparseVec._wrap({o: as_scalar(Fraction(x, d)) for o, x in total.items() if x})
    return WindowedMap._wrap(Window(keys, out), image)


@dataclass(frozen=True)
class ShiftOp:
    """e_i -> weight * e_{i+t} on a Witt-family algebra.

    One-sided domains only admit t >= 0 (negative shifts leave the domain),
    which the constructor enforces from the algebra's ``floor``.
    """

    t: int
    weight: Scalar
    algebra: AlgebraSpec = field(default_factory=witt_z)

    def __post_init__(self):
        object.__setattr__(self, "weight", as_scalar(self.weight))
        record = self.algebra.record
        if "shift" not in record.heads:
            raise ValueError("shift operators are defined on the Witt family only")
        if record.floor is not None and self.t < 0:
            raise ValueError(f"negative shift t={self.t} not admissible on {self.algebra.name}")

    def value_at(self, key: BasisKey) -> SparseVec:
        require_in_domain(self.algebra, (key,))
        if not self.weight:
            return SparseVec()
        return SparseVec._wrap({E(key.index + self.t): self.weight})


@dataclass(frozen=True)
class ThinHalfDer:
    """Two-parameter family of half-derivations of the thin algebra.

    ``alpha`` lists coefficients from index 1, ``beta`` from index 2:

        e_1 -> sum alpha_i e_i
        e_2 -> sum beta_i e_i
        e_j -> ((1 - 2^(2-j)) alpha_1 + 2^(2-j) beta_2) e_j
               + 2^(2-j) sum_{i>=3} beta_i e_{i+j-2}      (j >= 3)
    """

    alpha: Tuple[Scalar, ...] = ()
    beta: Tuple[Scalar, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(as_scalar(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(as_scalar(b) for b in self.beta))

    def alpha_at(self, i: int) -> Scalar:
        return self.alpha[i - 1] if 1 <= i <= len(self.alpha) else 0

    def beta_at(self, i: int) -> Scalar:
        return self.beta[i - 2] if 2 <= i <= len(self.beta) + 1 else 0

    def value_at(self, key: BasisKey) -> SparseVec:
        require_in_domain(_THIN, (key,))
        j = key.index
        if j == 1:
            return SparseVec({E(i): a for i, a in enumerate(self.alpha, start=1)})
        if j == 2:
            return SparseVec({E(i): b for i, b in enumerate(self.beta, start=2)})
        p = _half_power(j)
        a1, b2 = self.alpha_at(1), self.beta_at(2)
        out = {E(j): (1 - p) * a1 + p * b2} if a1 or b2 else {}
        for i, b in enumerate(self.beta[1:], start=3):
            if b:
                out[E(i + j - 2)] = p * b
        return SparseVec(out)


@dataclass(frozen=True)
class WabHalfDer:
    """Half-derivation family of W(a, -1):

        e_i -> sum_t alpha_t e_{i+t} + sum_t beta_t f_{i+t}
        f_i -> sum_t alpha_t f_{i+t}
    """

    alpha: Mapping[int, Scalar] = field(default_factory=dict)
    beta: Mapping[int, Scalar] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("alpha", "beta"):
            coeffs = {t: as_scalar(v) for t, v in dict(getattr(self, name)).items()}
            object.__setattr__(self, name, {t: v for t, v in coeffs.items() if v})

    def value_at(self, key: BasisKey) -> SparseVec:
        i = key.index
        if key.kind == "e":
            out = {E(i + t): v for t, v in self.alpha.items()}
            for t, v in self.beta.items():
                out[F(i + t)] = v
            return SparseVec(out)
        return SparseVec({F(i + t): v for t, v in self.alpha.items()})


@dataclass(frozen=True)
class SolvHalfDer:
    """Half-derivations of the solvable algebra: e_1 -> sum alpha_i e_i,
    e_k -> alpha_1 e_k for k >= 2."""

    alpha: Tuple[Scalar, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(as_scalar(a) for a in self.alpha))

    def value_at(self, key: BasisKey) -> SparseVec:
        require_in_domain(_SOLV, (key,))
        if key.index == 1:
            return SparseVec({E(i): a for i, a in enumerate(self.alpha, start=1)})
        a1 = self.alpha[0] if self.alpha else 0
        return SparseVec({key: a1})


@dataclass(frozen=True)
class ThinLocalDelta:
    """Fixed probe map on the thin algebra: kills e_1, e_2 and scales
    e_j by (1 - 2^(2-j)) for j >= 3."""

    def value_at(self, key: BasisKey) -> SparseVec:
        require_in_domain(_THIN, (key,))
        j = key.index
        if j <= 2:
            return SparseVec()
        return SparseVec({key: 1 - _half_power(j)})


@dataclass(frozen=True)
class SolvDeltaBar:
    """Fixed probe map on the solvable algebra: e_1 -> 0, e_k -> e_k (k >= 2)."""

    def value_at(self, key: BasisKey) -> SparseVec:
        require_in_domain(_SOLV, (key,))
        if key.index == 1:
            return SparseVec()
        return SparseVec({key: 1})


@dataclass(frozen=True)
class ThinNabla:
    """Nonlinear probe map on the thin algebra.

    For x = sum x_i e_i: zero when x_1 = 0, otherwise
    sum_{i>=2} 2^(2-i) x_i e_i. Homogeneous but not additive.
    """

    def evaluate(self, v: SparseVec) -> SparseVec:
        if not v.get(E(1)):
            return SparseVec()
        require_in_domain(_THIN, v.support())
        return SparseVec({k: _half_power(k.index) * c for k, c in v.items() if k.index >= 2})


def evaluate(op, v: SparseVec) -> SparseVec:
    """Evaluate any operator at a sparse vector.

    Linear operators extend their basis images linearly; ThinNabla, which
    has no ``value_at``, applies its case rule to the whole vector.
    """
    if hasattr(op, "value_at"):
        return _extend_linearly(op.value_at, v)
    return op.evaluate(v)


def materialize(op, w: Window) -> WindowedMap:
    """Tabulate a closed-form operator on a window.

    Raises TypeError for a nonlinear map (one without ``value_at``), and
    SupportOverflow when any image escapes the output window, which signals
    the window is too small for this operator.
    """
    if not hasattr(op, "value_at"):
        raise TypeError("a nonlinear map cannot be tabulated as a WindowedMap")
    return WindowedMap(w, {k: op.value_at(k) for k in w.keys})
