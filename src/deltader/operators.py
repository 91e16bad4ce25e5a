"""Linear maps on windowed algebras.

Two representations coexist:

* ``WindowedMap`` tabulates images of the input-window keys, supported inside
  an output window; this is what the constraint solver produces and consumes.
* Closed-form families (``ShiftOp``, ``ThinHalfDer``, ``WabHalfDer``,
  ``SolvHalfDer``) and the fixed probe operators (``ThinLocalDelta``,
  ``SolvDeltaBar`` and the nonlinear ``ThinNabla``) evaluate anywhere in the
  algebra and can be truncated onto a window via ``materialize``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

from .algebras import AlgebraSpec, BasisKey, E, F, in_domain, witt_z
from .exactlin import Scalar, SparseVec, as_scalar


class KeyOutsideWindow(Exception):
    """A WindowedMap was evaluated at a key outside its input window."""


class SupportOverflow(ValueError):
    """A WindowedMap was given an image outside its output window."""


class WindowTooSmall(Exception):
    """A check needed an image that the window does not provide."""


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
    f-line on ``wab``. Raises ValueError if a bound leaves the algebra's domain.
    """
    if out_range is None:
        out_range = in_range

    def expand(lo: int, hi: int) -> list:
        if lo > hi:
            raise ValueError(f"empty index range {lo}..{hi}")
        keys = [BasisKey(kind, i) for kind in alg.record.lines for i in range(lo, hi + 1)]
        for k in keys:
            if not in_domain(alg, k):
                raise ValueError(f"{k} outside the domain of {alg.label()}")
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
            raise KeyOutsideWindow(f"{key} outside input window") from None

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


def commutator(a: WindowedMap, b: WindowedMap) -> WindowedMap:
    """a b - b a on the common input keys where both compositions are defined,
    over the union of the two output windows."""
    a_in, b_in = a.window.key_set(), b.window.key_set()
    keys = tuple(
        k
        for k in a.window.keys
        if k in b_in and set(b.image[k].support()) <= a_in and set(a.image[k].support()) <= b_in
    )
    out = tuple(sorted(a.window.out_key_set() | b.window.out_key_set()))
    return WindowedMap._wrap(
        Window(keys, out), {k: a.evaluate(b.image[k]) - b.evaluate(a.image[k]) for k in keys}
    )


@dataclass(frozen=True)
class ShiftOp:
    """e_i -> weight * e_{i+t} on a Witt-family algebra.

    One-sided domains only admit t >= 0 (negative shifts leave the domain),
    which the constructor enforces from the algebra's ``least_shift``.
    """

    t: int
    weight: Scalar
    algebra: AlgebraSpec = field(default_factory=witt_z)

    def __post_init__(self):
        object.__setattr__(self, "weight", as_scalar(self.weight))
        record = self.algebra.record
        if "shift" not in record.heads:
            raise ValueError("shift operators are defined on the Witt family only")
        if record.least_shift is not None and self.t < record.least_shift:
            raise ValueError(f"negative shift t={self.t} not admissible on {self.algebra.name}")

    def value_at(self, key: BasisKey) -> SparseVec:
        if key.kind != "e" or not in_domain(self.algebra, key):
            raise KeyOutsideWindow(f"{key} outside domain of {self.algebra.label()}")
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
        if key.kind != "e" or key.index < 1:
            raise KeyOutsideWindow(f"{key} outside thin domain")
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
        if key.kind != "e" or key.index < 1:
            raise KeyOutsideWindow(f"{key} outside solvable domain")
        if key.index == 1:
            return SparseVec({E(i): a for i, a in enumerate(self.alpha, start=1)})
        a1 = self.alpha[0] if self.alpha else 0
        return SparseVec({key: a1})


@dataclass(frozen=True)
class ThinLocalDelta:
    """Fixed probe map on the thin algebra: kills e_1, e_2 and scales
    e_j by (1 - 2^(2-j)) for j >= 3."""

    def value_at(self, key: BasisKey) -> SparseVec:
        if key.kind != "e" or key.index < 1:
            raise KeyOutsideWindow(f"{key} outside thin domain")
        j = key.index
        if j <= 2:
            return SparseVec()
        return SparseVec({key: 1 - _half_power(j)})


@dataclass(frozen=True)
class SolvDeltaBar:
    """Fixed probe map on the solvable algebra: e_1 -> 0, e_k -> e_k (k >= 2)."""

    def value_at(self, key: BasisKey) -> SparseVec:
        if key.kind != "e" or key.index < 1:
            raise KeyOutsideWindow(f"{key} outside solvable domain")
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
        out = {}
        for k, c in v.items():
            if k.kind != "e" or k.index < 1:
                raise KeyOutsideWindow(f"{k} outside thin domain")
            if k.index >= 2:
                out[k] = _half_power(k.index) * c
        return SparseVec(out)


def evaluate(op, v: SparseVec) -> SparseVec:
    """Evaluate any operator at a sparse vector.

    Linear operators extend their basis images linearly; ThinNabla applies
    its case rule to the whole vector.
    """
    whole = getattr(op, "evaluate", None)
    if whole is not None:
        return whole(v)
    return _extend_linearly(op.value_at, v)


def materialize(op, w: Window) -> WindowedMap:
    """Tabulate a closed-form operator on a window.

    Raises SupportOverflow when any image escapes the output window, which
    signals the window is too small for this operator.
    """
    if isinstance(op, ThinNabla):
        raise TypeError("a nonlinear map cannot be tabulated as a WindowedMap")
    return WindowedMap(w, {k: op.value_at(k) for k in w.keys})
