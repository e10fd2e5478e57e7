"""Abstract nilpotent layer: ad matrices, Malcev coordinates, group law.

The concrete bracket fields of a WordTable span a finite-dimensional Lie
algebra over Q.  This module extracts a basis by exact linear algebra on
coefficient vectors and reads the bracket off the word table: the matrix of
ad E_i on the span is a commutator of the letters' ad matrices, whose
columns are word coordinates.  These ad matrices are the one form of the
bracket.  The rest works abstractly: weak Malcev bases through a prescribed
subalgebra, the polynomial group law in Malcev coordinates, and the
covering map built from flows at a base point.

All exact linear algebra over Q lives here.  Row reduction, determinants and
the exp(-s ad) series work on integer rows (fraction-free elimination,
Bareiss 1968) and make a Fraction only for an entry they return.  ``Span`` is
the one answer to "coordinates in, or defect from, the span of these
vectors", for word coordinates, the Malcev ad matrices and the normalizer
chain.
``exp_neg_ad`` is the one exp(-s ad A) series, for the torsion Jacobian's
pushforward columns and the group law's Maurer-Cartan matrix.  The covering
map composes flows by ``geometry.compose_flow``; the group law sums the levels
of ``geometry.lie_series`` at time 1.  Jacobians are ``PolyMatrix.jacobian``.

Convention tying the group law to concrete flows: let Phi_x flow e_0 for time
x_0 first, then e_1, and so on, and let X(v) be the field of sum_i v_i e_i.
Then Phi_{r(x1, x2)} = e^(X(x2)) o Phi_{x1} and Phi_{q(x1, x2)} = Phi_{x1} o
e^(X(x2)).  Tests pin both as exact polynomial identities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import (
    PolyVectorField,
    Word,
    WordTable,
    compose_flow,
    lie_series,
    lie_series_flow,
    nilpotency_step,
)
from .polycore import PolyMatrix, RatPoly


class NotASubalgebra(ValueError):
    """A spanning set fed to weak_malcev is not bracket-closed."""


class SingularAtOrigin(ArithmeticError):
    """Covering-map differential is singular at 0 (fields fail to span)."""


# -- exact linear algebra over Q ---------------------------------------------

def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, as ints, and the product
    of those lcms."""
    out, scale = [], 1
    for row in rows:
        d = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    return out, scale


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a copy of ``rows``: (rref rows, pivot columns).

    Elimination runs on integer rows: each row is scaled to integers once,
    a pivot clears its column from every other row by a fraction-free row
    operation, and each new row is divided by the gcd of its entries.  Each
    returned row is divided by its pivot only at the end.  The RREF is
    unique, so this gives the same Fractions as elimination in Q.
    """
    m = _integer_rows(rows)[0]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        pv = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                g = math.gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    zero = Fraction(0)
    return [[Fraction(x, row[c]) if x else zero for x in row]
            for row, c in zip(m, pivots)], pivots


def _rational_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix by Bareiss elimination on its
    integer rows: every division by the previous pivot is exact."""
    m, scale = _integer_rows(rows)
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        prow = m[k]
        pv = prow[k]
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [(pv * x - f * y) // prev for x, y in zip(m[i], prow)]
        prev = pv
    return Fraction(sign * prev, scale)


class Span:
    """Span of rational vectors in Q^dim, row-reduced once.

    One reduction of [A | I], where column j of A is ``vectors[j]``.  The
    pivot columns of A are the greedy basis (each vector independent of the
    earlier ones), ``basis`` lists their indices, and column j of the reduced
    A, ``gen_coords[j]``, holds vector j's coordinates in that basis.  The
    reduced I is the row-operation matrix E with E A = rref(A): its first
    rank rows give any vector's basis coordinates, and its other rows are
    functionals that vanish exactly on the span.
    """

    def __init__(self, vectors: Sequence[Sequence[Fraction]], dim: int):
        k = len(vectors)
        rref, pivots = _echelon(
            [[v[i] for v in vectors] + [Fraction(int(i == j)) for j in range(dim)]
             for i in range(dim)]
        )
        self.basis = [p for p in pivots if p < k]
        self.rank = rank = len(self.basis)
        self.gen_coords = [tuple(r[j] for r in rref[:rank]) for j in range(k)]
        self._coord_rows = [r[k:] for r in rref[:rank]]
        self._defect_rows = [r[k:] for r in rref[rank:]]

    def defect(self, v: Sequence[Fraction]) -> list[Fraction]:
        """Values of the functionals that vanish exactly on the span."""
        return _apply(self._defect_rows, v)

    def coords(self, v: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
        """Coordinates of v in the basis; None when v is outside the span."""
        if any(self.defect(v)):
            return None
        return tuple(_apply(self._coord_rows, v))


def _apply(rows: list[list[Fraction]], v: Sequence[Fraction]) -> list[Fraction]:
    nz = [(i, x) for i, x in enumerate(v) if x != 0]
    return [sum((row[i] * x for i, x in nz), Fraction(0)) for row in rows]


def _nullspace(rows: list[list[Fraction]], dim: int) -> list[list[Fraction]]:
    if not rows:
        return [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    rref, pivots = _echelon(rows)
    free = [c for c in range(dim) if c not in pivots]
    out = []
    for fc in free:
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for row, p in zip(rref, pivots):
            v[p] = -row[fc]
        out.append(v)
    return out


# -- field embedding ----------------------------------------------------------

def _field_vector(f: PolyVectorField, index: dict) -> list[Fraction]:
    v = [Fraction(0)] * len(index)
    for comp_i, comp in enumerate(f.components):
        for exp, c in comp.terms.items():
            v[index[(comp_i, exp)]] = c
    return v


@dataclass
class AbstractNilpotent:
    """Nilpotent Lie algebra presented by exact ad matrices.

    Column k of ``ad[i]`` holds the coordinates of [e_i, e_k] in the basis.
    """

    dim: int
    basis_words: tuple[Word, ...]
    basis_fields: tuple[PolyVectorField, ...]
    ad: list[list[list[Fraction]]]
    step: int

    def bracket_vec(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
        """Bilinear bracket of rational coefficient vectors: sum_i u_i ad[i] v."""
        out = [Fraction(0)] * self.dim
        nz = [(k, x) for k, x in enumerate(v) if x]
        for ui, a in zip(u, self.ad):
            if ui:
                for r, row in enumerate(a):
                    for k, x in nz:
                        if row[k]:
                            out[r] += ui * row[k] * x
        return out

    def element_field(self, coeffs: Sequence[Fraction]) -> PolyVectorField:
        """Concrete field for a rational coefficient vector."""
        n = self.basis_fields[0].dim
        acc = PolyVectorField.zero(n)
        for c, f in zip(coeffs, self.basis_fields):
            if c != 0:
                acc = acc + f.scale(c)
        return acc


@dataclass(frozen=True)
class WordBasis:
    """Greedy Q-basis of a table's word fields and every word's coordinates.

    The basis is the greedy maximal Q-independent subset of the word fields in
    length-then-lex order.  ``coords[w]`` holds the exact coefficients c_j
    with X_w = sum_j c_j * fields[j], for every word of the table.
    """

    words: tuple[Word, ...]
    fields: tuple[PolyVectorField, ...]
    coords: dict[Word, tuple[Fraction, ...]]
    index: dict  # (component, exponent) -> coefficient-vector slot
    span: Span

    def coordinates(self, f: PolyVectorField) -> tuple[Fraction, ...] | None:
        """Coordinates of f in the basis; None when f leaves the span."""
        if any((i, exp) not in self.index
               for i, comp in enumerate(f.components) for exp in comp.terms):
            return None
        return self.span.coords(_field_vector(f, self.index))


def word_basis(table: WordTable) -> WordBasis:
    """Basis fields of the span of a table's word fields, with coordinates.

    The ``Span`` of the words' coefficient vectors: its greedy basis is the
    basis and its generator coordinates are every word's coordinates.
    """
    words = table.words()
    index: dict = {}
    for w in words:
        for comp_i, comp in enumerate(table.entries[w].components):
            for exp in comp.terms:
                index.setdefault((comp_i, exp), len(index))
    span = Span([_field_vector(table.entries[w], index) for w in words], len(index))
    return WordBasis(
        words=tuple(words[p] for p in span.basis),
        fields=tuple(table.entries[words[p]] for p in span.basis),
        coords=dict(zip(words, span.gen_coords)),
        index=index,
        span=span,
    )


def exp_neg_ad(ad: list[list[Fraction]], col: dict[tuple[int, ...], list[Fraction]],
               var: int, limit: int) -> dict[tuple[int, ...], list[Fraction]] | None:
    """exp(-s ad A) applied to a polynomial column of coordinate vectors.

    ``col`` maps exponent tuples to coordinate vectors, s is the variable at
    slot ``var`` of those tuples and ``ad`` is the matrix of ad A.  Each
    vector v contributes sum_k (-s)^k / k! (ad A)^k v, up to its first zero
    term.  Returns None when (ad A)^limit v is still nonzero.

    With ad A = M / L and v = u / d for integer M and u, term k is
    (-1)^k M^k u / (k! L^k d): the powers are taken in ints, and a Fraction
    is made only to add an entry into the result.
    """
    L = math.lcm(*(a.denominator for row in ad for a in row))
    M = [[(m, a.numerator * (L // a.denominator)) for m, a in enumerate(row) if a]
         for row in ad]
    out: dict[tuple[int, ...], list[Fraction]] = {}
    for e, v in col.items():
        (u,), den = _integer_rows([v])
        k = 0
        while any(u):
            if k == limit:
                return None
            ek = e[:var] + (e[var] + k,) + e[var + 1:]
            acc = out.setdefault(ek, [Fraction(0)] * len(u))
            for r, x in enumerate(u):
                if x:
                    acc[r] += Fraction(-x if k % 2 else x, den)
            u = [sum(a * u[m] for m, a in row) for row in M]
            k += 1
            den *= k * L
    return out


@dataclass(frozen=True)
class BasisFrame:
    """A table's word basis E_1..E_N with its frame minors and ad matrices.

    ``minors`` holds every nonzero n-minor det(E_S), the determinant of the
    basis fields indexed by S, as (S, polynomial) in
    ``itertools.combinations`` order.  ``letter_ad[i]`` is the matrix of
    ad X_i on the span: column k is ``coords[(i,) + w_k]``, zero when that
    word vanished within the cap.  ``letter_ad`` is None when some
    (i,) + w_k lies beyond the cap, so the span is not known to be closed.
    """

    basis: WordBasis
    minors: tuple[tuple[tuple[int, ...], RatPoly], ...]
    letter_ad: dict[int, list[list[Fraction]]] | None

    def ad(self, w: Word) -> list[list[Fraction]]:
        """Matrix of ad X_w, by ad X_(i,w) = [ad X_i, ad X_w]."""
        a = self.letter_ad[w[0]]
        if len(w) == 1:
            return a
        b = self.ad(w[1:])
        out = [[Fraction(0)] * len(a) for _ in a]
        for x, y, sign in ((a, b, 1), (b, a, -1)):  # ab - ba, skipping zeros
            for acc, row in zip(out, x):
                for m, xm in enumerate(row):
                    if xm:
                        for c, ymc in enumerate(y[m]):
                            if ymc:
                                acc[c] += sign * xm * ymc
        return out


def basis_frame(table: WordTable) -> BasisFrame:
    """The table's ``BasisFrame``, built once and kept on the table."""
    if table._frame is not None:
        return table._frame
    basis = word_basis(table)
    n, N = table.dim, len(basis.fields)
    minors = []
    for cols in itertools.combinations(range(N), n):
        d = PolyMatrix.from_rows(
            [[basis.fields[j].components[i] for j in cols] for i in range(n)]
        ).det()
        if not d.is_zero():
            minors.append((cols, d))
    letter_ad: dict | None = {}
    zero = (Fraction(0),) * N
    for i in (1, 2):
        iws = [(i,) + w for w in basis.words]
        if any(iw not in basis.coords and len(iw) > table.cap for iw in iws):
            letter_ad = None
            break
        letter_ad[i] = [list(row) for row in zip(*(basis.coords.get(iw, zero) for iw in iws))]
    table._frame = BasisFrame(basis=basis, minors=tuple(minors), letter_ad=letter_ad)
    return table._frame


def abstract_algebra(table: WordTable) -> AbstractNilpotent:
    """Basis, certified step and exact ad matrices of the algebra a table spans.

    The basis is the greedy one of ``word_basis``, and ad E_i is read off the
    table's ``basis_frame`` as ``frame.ad`` of basis word i.
    ``nilpotency_step`` raises NotNilpotentWithinCap unless every nonzero
    word is shorter than the cap.  Then each (i,) + w for a basis word w is
    a table word or vanished within the cap, so the frame's ``letter_ad`` is
    set and the span is closed under the bracket.
    """
    if not table.words():
        raise ValueError("empty word table")
    step = nilpotency_step(table)
    frame = basis_frame(table)
    words = frame.basis.words
    return AbstractNilpotent(
        dim=len(words),
        basis_words=words,
        basis_fields=frame.basis.fields,
        ad=[frame.ad(w) for w in words],
        step=step,
    )


@dataclass(frozen=True)
class MalcevBasis:
    """Ordered basis whose every tail span is a subalgebra.

    Elements are coefficient vectors over the parent algebra's basis; the
    trailing ``dim - split`` elements span the prescribed subalgebra.
    """

    algebra: AbstractNilpotent
    elements: tuple[tuple[Fraction, ...], ...]
    split: int

    def tail_is_subalgebra(self, k: int) -> bool:
        return _is_subalgebra(self.algebra, [list(e) for e in self.elements[k:]])


def _is_subalgebra(alg: AbstractNilpotent, vectors: list[list[Fraction]]) -> bool:
    span = Span(vectors, alg.dim)
    return all(span.coords(alg.bracket_vec(a, b)) is not None
               for a, b in itertools.combinations(vectors, 2))


def _subalgebra_chain(alg: AbstractNilpotent, start: list[list[Fraction]],
                      target: list[list[Fraction]]) -> list[list[Fraction]]:
    """Grow ``start`` to ``target`` one dimension at a time through normalizers.

    Both must be bracket-closed with start inside target; nilpotency makes the
    normalizer strictly larger at every stage, so the chain always completes.
    Returns the added elements in the order they were added (deepest first).
    """
    N = alg.dim
    added: list[list[Fraction]] = []
    current = [list(v) for v in start]
    target_basis = _echelon([list(v) for v in target])[0]
    while True:
        cur = Span(current, N)
        if cur.rank == len(target_basis):
            return added
        # normalizer of current inside target: v with [v, h] in span(current)
        # for every generator h, i.e. every defect functional of span(current)
        # vanishes on [v, h]; unknown v = sum_bi c_bi * target_basis[bi]
        rows_for: list[list[Fraction]] = []
        for h in current:
            cols = [cur.defect(alg.bracket_vec(tb, h)) for tb in target_basis]
            rows_for.extend([list(row) for row in zip(*cols)])
        null = _nullspace(rows_for, len(target_basis))
        chosen = None
        for nv in null:
            cand = [Fraction(0)] * N
            for c, tb in zip(nv, target_basis):
                if c != 0:
                    cand = [a + c * b for a, b in zip(cand, tb)]
            if cur.coords(cand) is None:
                chosen = cand
                break
        if chosen is None:
            raise NotASubalgebra(
                "normalizer chain stalled; ambient algebra is not nilpotent-closed"
            )
        added.append(chosen)
        current.append(chosen)


def weak_malcev(alg: AbstractNilpotent, z_span: Sequence[Sequence[Fraction]]) -> MalcevBasis:
    """Weak Malcev basis of the algebra through the subalgebra spanned by z_span.

    The prescribed set must be bracket-closed (exactly); the returned ordered
    basis has every tail span a subalgebra and its final block spanning z.
    """
    N = alg.dim
    z = [list(map(Fraction, v)) for v in z_span]
    z_basis = _echelon(z)[0]
    if not _is_subalgebra(alg, z_basis):
        raise NotASubalgebra("prescribed span is not closed under the bracket")
    full = [[Fraction(1 if i == j else 0) for j in range(N)] for i in range(N)]
    inner = _subalgebra_chain(alg, [], z_basis)      # builds z from nothing
    outer = _subalgebra_chain(alg, z_basis, full)    # extends z to the algebra
    # added deepest-first; the ordered basis reads outermost-first
    ordered = list(reversed(outer)) + list(reversed(inner))
    basis = MalcevBasis(
        algebra=alg,
        elements=tuple(tuple(v) for v in ordered),
        split=N - len(z_basis),
    )
    for k in range(N + 1):
        if not basis.tail_is_subalgebra(k):
            raise NotASubalgebra(f"tail {k} failed closure; construction bug")
    return basis


@dataclass(frozen=True)
class GroupLaw:
    """Polynomial group law in weak Malcev coordinates.

    q(x1, x2) solves e^(x2 . X) psi(x1) = psi(q); r solves psi(x1) e^(x2 . X)
    = psi(r).  Both are volume-preserving polynomial diffeomorphisms in x1 and
    q is triangular: q_i depends only on x1_1..x1_i and x2.
    """

    q: tuple[RatPoly, ...]
    r: tuple[RatPoly, ...]

    @property
    def dim(self) -> int:
        return len(self.q)


def _malcev_struct(basis: MalcevBasis) -> list[list[list[Fraction]]]:
    """The ad matrices in Malcev coordinates: column j of the i-th holds the
    coordinates of [m_i, m_j] in the basis m, filled in by antisymmetry."""
    alg = basis.algebra
    N = alg.dim
    mats = [list(e) for e in basis.elements]
    span = Span(mats, N)
    ads = [[[Fraction(0)] * N for _ in range(N)] for _ in range(N)]
    for i, j in itertools.combinations(range(N), 2):
        for r, c in enumerate(span.coords(alg.bracket_vec(mats[i], mats[j]))):
            ads[i][r][j] = c
            ads[j][r][i] = -c
    return ads


def group_law(basis: MalcevBasis) -> GroupLaw:
    """Exact group law from the Maurer-Cartan matrix of the chart psi.

    psi(x) = exp(x_0 e_0) ... exp(x_(N-1) e_(N-1)) has psi^-1 dpsi = C(x) dx,
    where column j of C(x) is exp(-x_(N-1) ad e_(N-1)) ... exp(-x_(j+1) ad
    e_(j+1)) e_j.  Every tail span is an ideal of the one before it, so C is
    unipotent lower triangular and C^-1 is a forward substitution.  r is the
    time-1 flow in x1 of C(x1)^-1 x2, and q that of C(x1)^-1 Ad(psi(x1)^-1) x2,
    with Ad(psi(x)^-1) = exp(-x_(N-1) ad e_(N-1)) ... exp(-x_0 ad e_0); both
    flows hold x2 constant and terminate because the law is polynomial.  Each
    is summed straight from its Lie series, x1_i -> sum_k X^k(x1_i)/k!, with
    no flow map in a time variable to compose.
    """
    ads = _malcev_struct(basis)
    N = len(ads)
    nv = 2 * N
    xs = RatPoly.variables(nv)
    one = RatPoly.const(nv, 1)

    def unit(i: int, dim: int) -> tuple[int, ...]:
        return tuple(int(k == i) for k in range(dim))

    def exp_neg_ads(col, order) -> list[RatPoly]:
        """exp(-x_i ad e_i) for i in ``order`` applied in turn, as RatPolys."""
        for i in order:
            col = exp_neg_ad(ads[i], col, i, N)
            if col is None:
                raise ArithmeticError(f"ad e_{i} is not nilpotent; algebra data bad")
        return [RatPoly._of(nv, {e: v[r] for e, v in col.items() if v[r]}) for r in range(N)]

    # Fraction entries: the last column meets no exp_neg_ad before RatPoly._of
    C = [exp_neg_ads({(0,) * nv: [Fraction(k) for k in unit(j, N)]}, range(j + 1, N))
         for j in range(N)]
    if any(C[j][j] != one or any(not C[j][r].is_zero() for r in range(j))
           for j in range(N)):
        raise ArithmeticError(
            "Maurer-Cartan matrix is not unipotent lower triangular; algebra data bad")

    def time1_flow(b: list[RatPoly]) -> list[RatPoly]:
        """sum_k X^k(x1_i)/k! for X = C(x1)^-1 b, the time-1 flow in x1."""
        y: list[RatPoly] = []
        for r in range(N):  # C y = b
            y.append(b[r] - sum((C[j][r] * y[j] for j in range(r)), RatPoly.zero(nv)))
        series = lie_series(PolyVectorField(tuple(y) + (RatPoly.zero(nv),) * N))
        weights = [Fraction(1, math.factorial(k)) for k in range(len(series))]
        return [sum((level[i] * w for level, w in zip(series, weights)), RatPoly.zero(nv))
                for i in range(N)]

    r = time1_flow(xs[N:])
    q = time1_flow(exp_neg_ads({unit(N + i, nv): unit(i, N) for i in range(N)}, range(N)))

    for name, law in (("q", q), ("r", r)):
        if not PolyMatrix.jacobian(law, range(N)).det() == one:
            raise ArithmeticError(
                f"group law {name} is not volume preserving; algebra data bad")
    for i in range(N):
        for j in range(i + 1, N):
            if q[i].degree_in(j) > 0:
                raise ArithmeticError("group law q is not triangular; algebra data bad")
    return GroupLaw(q=tuple(q), r=tuple(r))


@dataclass(frozen=True)
class CoveringMap:
    """Flow-composition chart y -> e^(y1 X1) ... e^(yn Xn)(x0) with diagnostics."""

    map: tuple[RatPoly, ...]
    basis: MalcevBasis
    base_point: tuple[Fraction, ...]
    jacobian_det_at_origin: Fraction
    diagnostics: dict


def isotropy_subalgebra(alg: AbstractNilpotent, x0: Sequence) -> list[list[Fraction]]:
    """Kernel of evaluation at x0: elements whose concrete field vanishes there."""
    vals = [f.eval(x0) for f in alg.basis_fields]
    n = len(vals[0])
    rows = [[vals[i][r] for i in range(alg.dim)] for r in range(n)]
    return _nullspace(rows, alg.dim)


def covering_map(basis: MalcevBasis, x0: Sequence) -> CoveringMap:
    """Local polynomial-coordinates chart at a base point.

    ``basis`` is a weak Malcev basis through the isotropy subalgebra at x0;
    the chart composes the flows of its first n elements.  Raises
    SingularAtOrigin when the fields cannot span.
    """
    alg = basis.algebra
    n = alg.basis_fields[0].dim
    x0 = [Fraction(v) for v in x0]
    if basis.split != n:
        raise SingularAtOrigin(
            f"fields span a {basis.split}-dimensional space at x0, need {n}"
        )
    head = [alg.element_field(e) for e in basis.elements[:n]]
    state = [RatPoly.const(n, c) for c in x0]
    for i in reversed(range(n)):
        state = compose_flow(lie_series_flow(head[i]), RatPoly.variable(n, i), state)
    det0 = PolyMatrix.jacobian(state, range(n)).det().eval([0] * n)
    if det0 == 0:
        raise SingularAtOrigin("covering map differential singular at the origin")
    frame = [f.eval(x0) for f in head]
    frame_det = _rational_det([[frame[j][i] for j in range(n)] for i in range(n)])
    diagnostics = {
        "frame_det": frame_det,
        "det_matches_frame_up_to_sign": abs(det0) == abs(frame_det),
        "pullback_fd_check": _pullback_fd_check(state, head, n),
    }
    return CoveringMap(
        map=tuple(state),
        basis=basis,
        base_point=tuple(x0),
        jacobian_det_at_origin=det0,
        diagnostics=diagnostics,
    )


def _pullback_fd_check(state: list[RatPoly], head: list[PolyVectorField],
                       n: int, samples: int = 4) -> dict:
    """Finite-difference consistency of the pullback frame along the chart.

    At sample points y, the pullback of each basis field solves
    DPhi(y) v = X(Phi(y)); flowing X for a short time from Phi(y) should agree
    with Phi(y + s v) to second order.  Reports the worst first-order defect.
    """
    import numpy as np

    from .numeric import JacobianEvaluator, MapEvaluator

    phi = MapEvaluator(state)
    jac = JacobianEvaluator(state, range(n))
    fields = [MapEvaluator(X.components) for X in head]
    worst = 0.0
    for s_i in range(samples):
        y = np.array([0.05 * (s_i + 1) * ((j + 1) % 3 + 1) % 0.4 for j in range(n)])
        phi_y = phi(y[None])[0]
        J = jac(y[None])[0]
        for field in fields:
            xval = field(phi_y[None])[0]
            try:
                v = np.linalg.solve(J, xval)
            except np.linalg.LinAlgError:
                continue
            h = 1e-5
            phi_shift = phi((y + h * v)[None])[0]
            defect = float(np.max(np.abs(phi_shift - (phi_y + h * xval)))) / h
            worst = max(worst, defect)
    return {"worst_first_order_defect": worst, "samples": samples}
