"""Multilinear polynomials with exact rational coefficients.

A multilinear polynomial is a finite sum of squarefree monomials
``c * prod(X_i for i in S)``.  Terms are stored as a map from sorted index
tuples to nonzero Fractions; exact arithmetic is the source of truth, with
float evaluation as a derived mode.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _grid
from .common import (
    AsymmetryError,
    BudgetExceededError,
    Frozen,
    InvalidArgumentError,
    SplitMismatchError,
    effective_budget,
)

Term = tuple[int, ...]

_log = logging.getLogger(__name__)


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise InvalidArgumentError(
            "exact coefficients/coordinates must be Fraction or int, not float"
        )
    if isinstance(value, Rational):
        return Fraction(value)
    raise InvalidArgumentError(f"cannot interpret {value!r} as an exact rational")


class MultilinearPoly(Frozen):
    """An m-variable multilinear polynomial over the rationals."""

    __slots__ = ("m", "terms", "_kernel")

    def __init__(self, m: int, terms: Mapping[Term, object] | Iterable = ()):
        if m < 0:
            raise InvalidArgumentError(f"variable count must be >= 0, got {m}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Term, Fraction] = {}
        for subset, coef in items:
            key = tuple(sorted(int(i) for i in subset))
            if len(set(key)) != len(key):
                raise InvalidArgumentError(f"term {key!r} repeats a variable")
            if key and (key[0] < 0 or key[-1] >= m):
                raise InvalidArgumentError(f"term {key!r} out of range for m={m}")
            value = acc.get(key, Fraction(0)) + _as_fraction(coef)
            if value:
                acc[key] = value
            elif key in acc:
                del acc[key]
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "terms", dict(sorted(acc.items())))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "MultilinearPoly":
        return cls(m)

    @classmethod
    def constant(cls, m: int, value) -> "MultilinearPoly":
        return cls(m, {(): value})

    @classmethod
    def variable(cls, m: int, i: int) -> "MultilinearPoly":
        return cls(m, {(i,): 1})

    @classmethod
    def from_hypergraph(cls, graph) -> "MultilinearPoly":
        """Edge polynomial: one coefficient-1 monomial per edge, m = n."""
        return cls(graph.n, {e: 1 for e in graph.edges})

    # -- basics ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.m, tuple(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultilinearPoly(m={self.m}, terms={len(self.terms)})"

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(s) for s in self.terms), default=0)

    def variables(self) -> frozenset:
        out = set()
        for s in self.terms:
            out.update(s)
        return frozenset(out)

    def coefficient(self, subset: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(sorted(subset)), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _require_same_m(self, other: "MultilinearPoly") -> None:
        if self.m != other.m:
            raise InvalidArgumentError(
                f"variable-count mismatch: {self.m} vs {other.m}"
            )

    def __add__(self, other) -> "MultilinearPoly":
        if isinstance(other, MultilinearPoly):
            self._require_same_m(other)
            acc = dict(self.terms)
            for key, coef in other.terms.items():
                acc[key] = acc.get(key, Fraction(0)) + coef
            return MultilinearPoly(self.m, acc)
        return self + MultilinearPoly.constant(self.m, other)

    def __sub__(self, other) -> "MultilinearPoly":
        return self + (-other if isinstance(other, MultilinearPoly) else -Fraction(other))

    def __neg__(self) -> "MultilinearPoly":
        return MultilinearPoly(self.m, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "MultilinearPoly":
        if isinstance(other, MultilinearPoly):
            self._require_same_m(other)
            acc: dict[Term, Fraction] = {}
            for s1, c1 in self.terms.items():
                set1 = set(s1)
                for s2, c2 in other.terms.items():
                    if set1.intersection(s2):
                        raise InvalidArgumentError(
                            f"product of terms {s1!r} and {s2!r} is not multilinear"
                        )
                    key = tuple(sorted(s1 + s2))
                    acc[key] = acc.get(key, Fraction(0)) + c1 * c2
            return MultilinearPoly(self.m, acc)
        scale = _as_fraction(other)
        return MultilinearPoly(self.m, {k: scale * c for k, c in self.terms.items()})

    __rmul__ = __mul__

    def with_variables(self, m_new: int) -> "MultilinearPoly":
        """Same polynomial viewed in a larger variable space."""
        if m_new < self.m and any(i >= m_new for s in self.terms for i in s):
            raise InvalidArgumentError("cannot shrink below used variables")
        return MultilinearPoly(m_new, self.terms)

    def permuted(self, perm: Sequence[int]) -> "MultilinearPoly":
        """Rename variables by ``i -> perm[i]``."""
        if sorted(perm) != list(range(self.m)):
            raise InvalidArgumentError("perm must be a permutation of 0..m-1")
        return MultilinearPoly(
            self.m, {tuple(perm[i] for i in s): c for s, c in self.terms.items()}
        )

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x: Sequence) -> Fraction:
        """Exact evaluation; coordinates must be Fractions/ints."""
        if len(x) != self.m:
            raise InvalidArgumentError(
                f"point has {len(x)} coordinates, expected {self.m}"
            )
        return self.kernel.rational_values([[_as_fraction(v) for v in x]])[0]

    def evaluate_float(self, x: Sequence) -> float:
        """Double-precision value, summed per degree by the compiled kernel."""
        return float(self.kernel.values(self._float_point(x)[None])[0])

    def gradient(self, x: Sequence) -> np.ndarray:
        """Float gradient vector (d p / d x_k evaluated at x)."""
        return self.kernel.gradients(self._float_point(x)[None])[0]

    def partial(self, k: int) -> "MultilinearPoly":
        """The exact partial derivative d p / d X_k, in the same variable space."""
        if not 0 <= k < self.m:
            raise InvalidArgumentError(f"variable {k} out of range for m={self.m}")
        return MultilinearPoly(
            self.m,
            {tuple(i for i in s if i != k): c for s, c in self.terms.items() if k in s},
        )

    def _float_point(self, x: Sequence) -> np.ndarray:
        if len(x) != self.m:
            raise InvalidArgumentError(
                f"point has {len(x)} coordinates, expected {self.m}"
            )
        return np.asarray(x, dtype=float)

    @property
    def kernel(self) -> "PolyKernel":
        """The compiled numeric form, built on first use and kept."""
        try:
            return self._kernel
        except AttributeError:
            kernel = PolyKernel(self)
            object.__setattr__(self, "_kernel", kernel)
            return kernel

    # -- symmetry and the hat lift ------------------------------------------

    def asymmetry_witness(self, i: int, j: int):
        """A term whose coefficient changes under swapping X_i and X_j, or None."""
        if not (0 <= i < self.m and 0 <= j < self.m) or i == j:
            raise InvalidArgumentError(f"bad variable pair ({i}, {j}) for m={self.m}")
        swap = {i: j, j: i}
        for subset, coef in self.terms.items():
            image = tuple(sorted(swap.get(k, k) for k in subset))
            if self.terms.get(image) != coef:
                return subset
        return None

    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """The variables grouped into twin classes, ordered by lowest member.

        X_i and X_j are twins when no term holds both and swapping them
        fixes every coefficient, so p depends on them only through
        X_i + X_j.  That is exactly when their links {(S - i, c_S) : i in S}
        are equal (a term holding both would put X_j in the link of X_i but
        never in its own), so classes are found by hashing links.
        Variables in no term form one class.
        """
        links: list[list] = [[] for _ in range(self.m)]
        for subset, coef in self.terms.items():
            for i in subset:
                links[i].append((tuple(k for k in subset if k != i), coef))
        classes: dict[frozenset, list[int]] = {}
        for i, link in enumerate(links):
            classes.setdefault(frozenset(link), []).append(i)
        return tuple(tuple(members) for members in classes.values())

    def symmetric_decompose(self, i: int, j: int) -> "SymmetricDecomposition":
        """Split a polynomial symmetric in X_i, X_j as p1 + p2(Xi+Xj) + p3 XiXj.

        p1, p2, p3 live in the same m-variable space but never mention X_i
        or X_j; the split is unique and reconstructs the input exactly.
        """
        witness = self.asymmetry_witness(i, j)
        if witness is not None:
            raise AsymmetryError(
                f"polynomial is not symmetric in X_{i}, X_{j}; witness term {witness}",
                witness=witness,
            )
        p1: dict[Term, Fraction] = {}
        p2: dict[Term, Fraction] = {}
        p3: dict[Term, Fraction] = {}
        for subset, coef in self.terms.items():
            has_i, has_j = i in subset, j in subset
            rest = tuple(k for k in subset if k != i and k != j)
            if has_i and has_j:
                p3[rest] = coef
            elif has_i:
                # the matching j-term exists with the same coefficient
                p2[rest] = coef
            elif not has_j:
                p1[subset] = coef
        return SymmetricDecomposition(
            MultilinearPoly(self.m, p1),
            MultilinearPoly(self.m, p2),
            MultilinearPoly(self.m, p3),
        )

    def hat(
        self,
        i: int,
        j: int,
        p4: "MultilinearPoly",
        p5: "MultilinearPoly",
    ) -> "MultilinearPoly":
        """Two-clone lift on the symmetric pair (i, j).

        With p = p1 + p2(Xi+Xj) + p3 XiXj and a caller-chosen split
        p4 + p5 = p3, returns the (m+2)-variable polynomial

            p1 + p2(Xi+Xi'+Xj+Xj') + p4(Xi+Xi')(Xj+Xj') + p5(Xi+Xj)(Xi'+Xj')

        where the clone variables Xi', Xj' are appended as indices m, m+1
        (relabel afterwards if another ordering is wanted).
        """
        dec = self.symmetric_decompose(i, j)
        for name, q in (("p4", p4), ("p5", p5)):
            if q.m != self.m:
                raise InvalidArgumentError(f"{name} must have m={self.m}, got {q.m}")
            if i in q.variables() or j in q.variables():
                raise InvalidArgumentError(f"{name} must not involve X_{i} or X_{j}")
        if p4 + p5 != dec.p3:
            raise SplitMismatchError(
                f"p4 + p5 differs from the cross coefficient on the pair ({i}, {j})"
            )
        big = self.m + 2
        xi = MultilinearPoly.variable(big, i)
        xj = MultilinearPoly.variable(big, j)
        xi2 = MultilinearPoly.variable(big, self.m)
        xj2 = MultilinearPoly.variable(big, self.m + 1)
        return (
            dec.p1.with_variables(big)
            + dec.p2.with_variables(big) * (xi + xi2 + xj + xj2)
            + p4.with_variables(big) * (xi + xi2) * (xj + xj2)
            + p5.with_variables(big) * (xi + xj) * (xi2 + xj2)
        )

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "terms": [
                {"vars": list(subset), "coef": str(coef)}
                for subset, coef in self.terms.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MultilinearPoly":
        return cls(
            int(data["m"]),
            {tuple(t["vars"]): Fraction(t["coef"]) for t in data["terms"]},
        )


@dataclass(frozen=True)
class SymmetricDecomposition:
    """The unique (p1, p2, p3) split of a polynomial symmetric in a pair."""

    p1: MultilinearPoly
    p2: MultilinearPoly
    p3: MultilinearPoly

    def reconstruct(self, i: int, j: int) -> MultilinearPoly:
        m = self.p1.m
        xi = MultilinearPoly.variable(m, i)
        xj = MultilinearPoly.variable(m, j)
        return self.p1 + self.p2 * (xi + xj) + self.p3 * xi * xj


#: Largest gathered (rows, terms, degree) array of the batched float
#: methods; bigger batches are processed in chunks of rows.
_CHUNK_ELEMENTS = 1 << 20

#: Largest (prefix rows, tail rows) score matrix of one product in
#: :meth:`PolyKernel.scan` (more prefix rows go in chunks); a block of tail
#: sums gets 1/64 of it in factor entries, 128 KB that the allocator reuses.
#: Factor blocks 4 times larger (1/16) made the extremal benchmark slower:
#: ``wall_s`` +12% and ``max_op_s`` +23% on 2 cores.
_SCAN_ELEMENTS = 1 << 20


def _monomials(table: np.ndarray, subsets, dtype, unit: int | None) -> np.ndarray:
    """The (subsets, rows) array of prod(x[:, i] for i in S) in ``dtype``,
    where x is the integer ``table``, divided by ``unit`` if one is given.
    The table is cast once, column-major, so that each product is of
    contiguous columns into a contiguous row; the empty subset gives ones."""
    columns = table.astype(dtype, order="F")
    if unit is not None:
        columns /= unit
    out = np.empty((len(subsets), len(table)), dtype)
    for row, subset in zip(out, subsets):
        if not subset:
            row.fill(1)
        elif len(subset) == 1:
            row[:] = columns[:, subset[0]]
        else:
            np.multiply(columns[:, subset[0]], columns[:, subset[1]], out=row)
            for i in subset[2:]:
                row *= columns[:, i]
    return out


class PolyKernel:
    """A polynomial compiled once into numpy index arrays.

    Two arithmetic paths compute every value.  Float: :meth:`values` sums
    one gathered product per degree group, ascending, at every row of an
    (S, m) array, a chunk of rows at a time.  :meth:`gradients` and
    :meth:`hessians` read one derivative table per order (1 or 2), built on
    first use and kept: for every (term, subset of that many positions), in
    degree-then-``combinations`` order, the product of the term's other
    variables, multiplied in one gathered column at a time and added in
    that order with one ``bincount`` (its bins are kept too, one column per
    row, grown to the largest chunk seen; fewer rows use the first columns).
    A single point is a one-row batch.  A row's gradient and Hessian do not
    depend on the batch around it, nor does its value in a batch of two or
    more rows, which adds a row's terms in term order; a one-row batch adds
    them pairwise (numpy's sum along a contiguous axis), which can differ in
    the last bit.  The float methods call ``np.multiply.reduce``, ``np.add.reduce`` and
    ``np.bincount`` directly, the ufuncs that ``np.prod`` and ``.sum`` call;
    ``bincount`` reads the products in their memory order, and a batch that
    fits in one chunk returns its reshaped ``bincount`` without a copy; and
    coefficients that are all 1, as an edge polynomial's are, are not
    multiplied in (x * 1.0 is x).  So they give the bits of the wrapper
    forms.  Exact:
    :meth:`batch` scores integer rows one term column at a time, in int64
    or Python integers, so memory stays at a few row-length vectors.
    :meth:`rational_values` scores rational points scaled to integer rows,
    :meth:`exact_values` chosen integer rows, and :meth:`scan` every
    integer composition as products of prefix and tail factors, run in
    float64 where that is exact, else in int64 or as a float filter.
    """

    def __init__(self, poly: MultilinearPoly):
        self.m = poly.m
        self.degree = poly.degree()
        self.subsets = tuple(poly.terms)
        self.coefs = tuple(poly.terms.values())
        self.lcm = math.lcm(*(c.denominator for c in self.coefs))
        self.numerators = tuple(int(c * self.lcm) for c in self.coefs)
        self.float_coefs = tuple(float(c) for c in self.coefs)
        self.constant = float(poly.coefficient(()))
        by_degree: dict[int, list] = {}
        for subset, coef in zip(self.subsets, self.float_coefs):
            if subset:
                by_degree.setdefault(len(subset), []).append((subset, coef))
        self.groups = []
        for _, items in sorted(by_degree.items()):
            idx = np.array([s for s, _ in items], dtype=np.intp)
            self.groups.append((idx, np.array([c for _, c in items])))
        self._value_width = sum(idx.size for idx, _ in self.groups)
        # x * 1.0 is x, bit for bit, so unit coefficients are not multiplied in
        self._unit_coefs = all((coefs == 1.0).all() for _, coefs in self.groups)
        # a float value at a point of [0, 1]^m is within half of this of the
        # exact value (see scan), so a farther one rules out equality
        magnitude = sum(abs(c) for c in self.float_coefs)
        self.float_slack = 1e-9 + (len(self.coefs) + 2 * self.degree + 2) * 2.0**-52 * magnitude
        self._derivative_tables: dict[int, tuple] = {}
        # per order, the bincount bins of the largest chunk seen so far
        self._derivative_bins: dict[int, np.ndarray] = {}
        # scan's factoring: the distinct prefix parts T (the groups), the
        # distinct tail parts shifted to 0, and each term's (group, tail part)
        split = self.m // 2
        heads: dict[Term, int] = {}
        tails: dict[Term, int] = {}
        cells = []
        for subset in self.subsets:
            head = tuple(i for i in subset if i < split)
            tail = tuple(i - split for i in subset if i >= split)
            cells.append((heads.setdefault(head, len(heads)), tails.setdefault(tail, len(tails))))
        self._scan_heads, self._scan_tails = tuple(heads), tuple(tails)
        self._scan_cells = tuple(np.array(cells, dtype=np.intp).reshape(-1, 2).T)

    def values(self, X: np.ndarray) -> np.ndarray:
        """Float values at every row of an (S, m) array."""
        out = np.full(X.shape[0], self.constant)
        for rows in self._chunks(X.shape[0], self._value_width):
            block, part = X[rows], out[rows]
            for idx, coefs in self.groups:
                # the reductions np.prod and .sum call; a row-wise sum, unlike
                # a matrix product, adds each row's terms in term order, whatever
                # the other rows (a batch of one row is summed pairwise)
                prod = np.multiply.reduce(block[:, idx], axis=2)
                part += np.add.reduce(prod if self._unit_coefs else prod * coefs, axis=1)
        return out

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """Float gradients at every row of an (S, m) array, as an (S, m) array."""
        return self._derivatives(X, 1)

    def hessians(self, X: np.ndarray) -> np.ndarray:
        """Float Hessians at every row of an (S, m) array, as an (S, m, m) array.

        Entry (i, j), i < j, comes from :meth:`_derivatives`; (j, i) mirrors
        it, and the diagonal of a multilinear polynomial's Hessian is 0.
        """
        upper = self._derivatives(X, 2).reshape(X.shape[0], self.m, self.m)
        return upper + upper.transpose(0, 2, 1)

    def _derivatives(self, X: np.ndarray, order: int) -> np.ndarray:
        """Partial derivatives by every ``order`` variables i1 < i2 < ... at
        every row of X, as an (S, m**order) array indexed i1 m**(order-1) +
        i2 m**(order-2) + ...: each adds the product of the other variables
        of every term holding them, in table order, with one ``bincount``."""
        groups, targets, width = self._derivative_table(order)
        count, size = X.shape[0], self.m**order
        if targets is None or not count:
            return np.zeros((count, size))
        parts = []
        for rows in self._chunks(count, width):
            block = X[rows]
            n = block.shape[0]
            products = [self._products(block, *group) for group in groups]
            terms = products[0] if len(products) == 1 else np.concatenate(products, axis=1)
            # bincount reads the products term by term, the memory order of
            # gathered columns, so ravel("F") copies nothing; row k's targets
            # land in bins k*size .. k*size + size - 1, each added in table
            # order; the (terms, rows) bins of n rows are the first n columns
            # of those of more
            bins = self._derivative_bins.get(order)
            if bins is None or bins.shape[1] < n:
                bins = targets[:, None] + np.arange(n) * size
                self._derivative_bins[order] = bins
            weights = terms.ravel("F")
            parts.append(np.bincount(bins[:, :n].ravel(), weights, n * size).reshape(n, size))
        # a batch of one chunk returns its bincount as it is
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _products(self, block: np.ndarray, others: np.ndarray, coefs: np.ndarray) -> np.ndarray:
        """coefs[k] * prod(block[:, others[k, j]] for j, left to right) at every
        row, one gathered column at a time (the bits of ``np.prod`` on the
        gathered (rows, terms, columns) array, then times the coefficients,
        unless they are all 1)."""
        if not others.shape[1]:
            return np.broadcast_to(coefs, (block.shape[0], coefs.size))
        prod = block[:, others[:, 0]]
        for j in range(1, others.shape[1]):
            prod *= block[:, others[:, j]]
        if not self._unit_coefs:
            prod *= coefs
        return prod

    def _derivative_table(self, order: int):
        """For :meth:`_derivatives`, built on first use and kept: per degree
        group, the other variables of every (term, ``order``-subset of its
        positions, in ``combinations`` order) and their coefficients; the
        flat targets of those subsets; and the gathered row width."""
        if order not in self._derivative_tables:
            groups, targets = [], []
            for idx, coefs in self.groups:
                subsets = list(itertools.combinations(range(idx.shape[1]), order))
                if subsets:
                    others = [np.delete(idx, subset, axis=1) for subset in subsets]
                    groups.append((np.vstack(others), np.tile(coefs, len(subsets))))
                    targets.extend(
                        np.ravel_multi_index(idx[:, subset].T, (self.m,) * order)
                        for subset in subsets
                    )
            width = sum(others.shape[0] * (others.shape[1] + 1) for others, _ in groups)
            flat = np.concatenate(targets) if targets else None
            self._derivative_tables[order] = groups, flat, width
        return self._derivative_tables[order]

    def _chunks(self, count: int, width: int):
        step = max(1, _CHUNK_ELEMENTS // max(width, 1))
        return (slice(start, start + step) for start in range(0, count, step))

    def integer_coefficients(self, total: int) -> tuple[list[int], int]:
        """Integer coefficients for a :meth:`batch` over rows summing to ``total``.

        Coefficient c_S becomes c_S * L * total**(deg - |S|), where L clears
        every denominator, so a row k scans to L * total**deg * p(k / total)
        (for a polynomial whose terms all have degree deg and integer
        coefficients, that is p(k) itself).  Returns (coefficients, that
        scale).
        """
        scaled = [
            n * total ** (self.degree - len(s))
            for s, n in zip(self.subsets, self.numerators)
        ]
        return scaled, self.lcm * total**self.degree

    def fits_int64(self, coefs: Sequence[int], total: int) -> bool:
        """Whether no partial sum of an int64 scan of rows summing to ``total`` overflows."""
        return self._score_bound(coefs, total) < 2**62

    def _score_bound(self, coefs: Sequence[int], total: int) -> int:
        return (sum(abs(c) for c in coefs) or 1) * max(total, 1) ** self.degree

    def batch(self, block: np.ndarray, coefs: Sequence) -> np.ndarray:
        """Values at every row of ``block`` with per-term ``coefs``; the
        result has the block's dtype (int64, float, or object for exact
        Python integers), summed one term column at a time."""
        out = np.zeros(block.shape[0], dtype=block.dtype)
        for subset, c in zip(self.subsets, coefs):
            if subset:
                prod = block[:, subset[0]].copy()
                for i in subset[1:]:
                    prod *= block[:, i]
                out += c * prod
            else:
                out += c
        return out

    def rational_values(self, points: Sequence[Sequence[Fraction]]) -> list[Fraction]:
        """Exact values at rational points, scaled to integer rows of their
        common denominator and scored in Python integers (a coordinate may be
        negative or above 1, outside the :meth:`fits_int64` bound)."""
        total = math.lcm(*(v.denominator for x in points for v in x))
        rows = [[v.numerator * (total // v.denominator) for v in x] for x in points]
        coefs, scale = self.integer_coefficients(total)
        block = np.array(rows, dtype=object).reshape(len(points), self.m)
        return [Fraction(v, scale) for v in self.batch(block, coefs)]

    def exact_values(self, rows: np.ndarray, total: int) -> np.ndarray:
        """Exact scaled values (see :meth:`integer_coefficients`) at integer
        rows summing to ``total``: int64 when that cannot overflow, else
        Python integers."""
        coefs, _ = self.integer_coefficients(total)
        dtype = np.int64 if self.fits_int64(coefs, total) else object
        return self.batch(rows.astype(dtype), coefs)

    def scan(
        self, total: int, budget: int | None, what: str
    ) -> tuple[int, tuple[int, ...], int]:
        """Exact maximum over every composition of ``total`` into m parts.

        A row k scores the integer L * total**deg * p(k / total) (see
        :meth:`integer_coefficients`); ties break toward the
        lexicographically smallest row.  Returns (the maximum score, its
        row, the scale L * total**deg).  Raises BudgetExceededError, naming
        the scan ``what``, when there are more compositions than the budget.

        The scan splits a row into a prefix a, its first m // 2 coordinates, and
        a tail b; each side's compositions of every sum up to ``total`` are one
        stacked table, and one :func:`_grid.composition_tables` build gives
        both (building the tail table passes through the prefix table).
        Grouping the terms by their prefix part T = S & [0, m // 2) writes
        p(a, b) = sum_T a^T q_T(b).  For each tail sum R, M holds the monomials
        a^T of every prefix composition of total - R, Q the tail polynomials
        q_T of every tail composition of R, and M @ Q scores all their pairs;
        its prefix-major flat order is lexicographic order, so its first
        maximum is the lexicographically first within R.  M and Q are computed
        per block of consecutive R (about _SCAN_ELEMENTS / 64 entries) and
        sliced per R: each block's two tables are cast once, column-major, to
        the scan's arithmetic, each monomial a^T and each distinct tail
        monomial b^U is one contiguous column product, and Q = W @ (tail
        monomials), with W[T, U] the scaled coefficient of the term T | U (0
        if there is none).  Across R (and chunks of prefix rows) a row replaces
        the best when it is greater, or equal and lexicographically smaller.

        In the exact paths, the prefix rows of every product are bounded
        first, once there is a running maximum.  M >= 0 entrywise (its entries
        are monomials of nonnegative integers), so with u[T] = max_b Q[T, b]
        over the tails of sum R, no score of prefix row a exceeds M[a] . u,
        whatever the signs of the coefficients.  Only the rows whose bound is
        >= the running maximum are multiplied: a row below it cannot become
        the best, and a row that can tie it is still scored, so the tie rule
        and the result are those of the full product.  M[a] . u adds
        M[a, T] Q[T, b_T] over T, each a sum of term values at some row
        (a, b_T), so every partial sum stays within the bound below.

        A partial sum of M @ Q adds some term values at one row, so it is at
        most sum |c| * total**deg over the scaled coefficients c; a partial sum
        of W @ (tail monomials) adds some c * b^U, each at most |c| * total**|U|,
        so the same bound holds.  Below 2**53 both products run in
        float64 (BLAS), exact on the integer factors; below 2**62, in int64.
        Otherwise the same products run in float on k / total, and the rows
        within :attr:`float_slack` of the running float maximum are rescored with exact
        Python integers; the running float maximum only rises, so every exact
        maximizer is kept.  Each term reaches a float score through at most one
        coefficient rounding, deg coordinate roundings, deg product roundings
        (W[T, U] times b^U, then M[a, T] times a sum of such products, round
        each term alike; a zero of W adds nothing) and fewer additions than
        there are terms, in any summation order.  With
        coordinates in [0, 1], every float score is therefore within
        (terms + 2 deg) units of roundoff of sum |c_S| of its exact value, under
        half the slack; this path is never pruned.  Each scan logs one DEBUG
        record: sizes, factor blocks, products and arithmetic, prefix rows
        pruned, points scored and rows rescored.
        """
        count = _grid.composition_count(total, self.m)
        cap = effective_budget(budget)
        if count > cap:
            raise BudgetExceededError(f"{what} needs {count} points, budget is {cap}")
        coefs, scale = self.integer_coefficients(total)
        in_float = not self.fits_int64(coefs, total)
        dtype = np.float64 if in_float or self._score_bound(coefs, total) < 2**53 else np.int64
        unit = max(total, 1) if in_float else None
        split = self.m // 2
        # one build: building the tail table passes through the prefix table
        for parts, table in enumerate(_grid.composition_tables(total, self.m - split)):
            if parts == split:
                prefixes, prefix_at = table
        tails, tail_at = table
        # W[g, j]: the scaled coefficient of the term with prefix part g and tail part j
        W = np.zeros((len(self._scan_heads), len(self._scan_tails)), dtype)
        W[self._scan_cells] = self.float_coefs if in_float else coefs
        # factor entries at each tail sum R; a block of consecutive R starts
        # where their running sum passes a multiple of the block size
        sizes = (np.diff(tail_at) + np.diff(prefix_at)[::-1]) * len(self._scan_heads)
        block = max(1, _SCAN_ELEMENTS >> 6)
        firsts = np.flatnonzero(np.diff(np.cumsum(sizes) // block, prepend=-1)).tolist()
        best_float = -np.inf
        best = best_row = None
        products = rescored = pruned = scored = 0
        for lo, hi in zip(firsts, firsts[1:] + [total + 1]):
            # prefix sums total - hi + 1 .. total - lo, tail sums lo .. hi - 1
            p0, t0 = prefix_at[total - hi + 1], tail_at[lo]
            a, b = prefixes[p0 : prefix_at[total - lo + 1]], tails[t0 : tail_at[hi]]
            M, Q = self._factors(a, b, W, unit)
            for tail_sum in range(lo, hi):
                t1, t2 = tail_at[tail_sum] - t0, tail_at[tail_sum + 1] - t0
                first, stop = prefix_at[total - tail_sum : total - tail_sum + 2] - p0
                step = max(1, _SCAN_ELEMENTS // (t2 - t1))
                bound = None if in_float else Q[:, t1:t2].max(axis=1)
                for start in range(first, stop, step):
                    end = min(start + step, stop)
                    block_M, kept = M[start:end], None
                    if bound is not None and best is not None:
                        # M >= 0, so no score of row a exceeds M[a] . bound
                        kept = np.flatnonzero(block_M @ bound >= best)
                        pruned += end - start - len(kept)
                        if not len(kept):
                            continue
                        block_M = block_M[kept]
                    scores = block_M @ Q[:, t1:t2]
                    products += 1
                    scored += scores.size
                    if not in_float:
                        i, j = divmod(int(np.argmax(scores)), t2 - t1)
                        head = start + (i if kept is None else int(kept[i]))
                        row = np.concatenate([a[head], b[t1 + j]])
                        value = int(scores[i, j])
                    else:
                        best_float = max(best_float, float(scores.max()))
                        heads, rests = np.nonzero(scores >= best_float - self.float_slack)
                        if not len(heads):
                            continue
                        rows = np.hstack([a[start + heads], b[t1 + rests]]).astype(object)
                        rescored += len(rows)
                        values = self.batch(rows, coefs)
                        i = int(np.argmax(values))
                        value, row = int(values[i]), rows[i]
                    row = tuple(int(v) for v in row)
                    if best is None or value > best or (value == best and row < best_row):
                        best, best_row = value, row
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("scan: total %d, m %d, split %d, stacked rows %d + %d, %d factor blocks, "
                       "%d products in %s, %d prefix rows pruned, %d of %d points scored, "
                       "%d rows rescored", total, self.m, split, len(prefixes), len(tails),
                       len(firsts), products,
                       "float filter" if in_float else f"exact {np.dtype(dtype)}", pruned,
                       scored, count, rescored)
        return best, best_row, scale

    def _factors(
        self, prefixes: np.ndarray, tails: np.ndarray, W: np.ndarray, unit: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The (prefix rows, groups) monomials M and (groups, tail rows)
        tail polynomials Q = W @ (tail monomials) of :meth:`scan`, computed
        in W's dtype on the rows, or on the rows / ``unit`` if one is given."""
        M = _monomials(prefixes, self._scan_heads, W.dtype, unit).T
        return M, W @ _monomials(tails, self._scan_tails, W.dtype, unit)
