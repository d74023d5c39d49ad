"""
Exact multivariate Laurent polynomials over the integers in z_1..z_r, with
the Demazure (isobaric divided-difference) operator and its atom variant.

A polynomial stores a map from exponent vectors (length-r integer tuples,
entries may be negative) to nonzero integer coefficients.  Coefficients are
Python ints, so nothing here can overflow.
"""

from . import weyl

__all__ = [
    "LaurentPoly", "zero", "monomial", "eval_ones", "demazure",
    "demazure_atom_op", "demazure_char", "demazure_atom", "format_poly",
]


class LaurentPoly:
    """Immutable-by-convention Laurent polynomial; do not mutate .terms."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != nvars:
                raise ValueError(f"exponent {expo} has wrong length, want {nvars}")
            if coeff != 0:
                clean[tuple(expo)] = coeff
        self.terms = clean

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def _check_rank(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other):
        self._check_rank(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            new = out.get(expo, 0) + coeff
            if new:
                out[expo] = new
            else:
                out.pop(expo, None)
        return LaurentPoly(self.nvars, out)

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_rank(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(expo, 0) + c1 * c2
                if new:
                    out[expo] = new
                else:
                    out.pop(expo, None)
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def __repr__(self):
        return f"LaurentPoly({self.nvars}, {format_poly(self)!r})"


def zero(nvars: int) -> LaurentPoly:
    return LaurentPoly(nvars, {})


def monomial(mu) -> LaurentPoly:
    """The single term z^mu with coefficient 1; every exponent is an int."""
    mu = tuple(mu)
    if not all(type(e) is int for e in mu):
        raise ValueError(f"monomial exponents must be ints: {mu!r}")
    return LaurentPoly(len(mu), {mu: 1})


def eval_ones(f: LaurentPoly) -> int:
    """Evaluation at z_1 = ... = z_r = 1, i.e. the sum of coefficients."""
    return sum(f.terms.values())


def demazure(f: LaurentPoly, i: int) -> LaurentPoly:
    """The Demazure operator (z_i*f - z_{i+1}*f(s_i z)) / (z_i - z_{i+1}),
    term by term: a term whose exponents of z_i, z_{i+1} are (p, q) goes to
    the terms with exponents (x, p+q-x) for q <= x <= p when p >= q, and to
    minus those for p < x < q otherwise.

    Idempotent, and fixes anything symmetric in z_i, z_{i+1}.
    """
    if not 1 <= i <= f.nvars - 1:
        raise ValueError(f"simple index {i} out of range")
    out = {}
    for expo, coeff in f.terms.items():
        p, q = expo[i - 1], expo[i]
        if p >= q:
            xs = range(q, p + 1)
        else:
            xs, coeff = range(p + 1, q), -coeff
        for x in xs:
            key = expo[:i - 1] + (x, p + q - x) + expo[i + 1:]
            out[key] = out.get(key, 0) + coeff
    return LaurentPoly(f.nvars, out)


def demazure_atom_op(f: LaurentPoly, i: int) -> LaurentPoly:
    """The atom operator: demazure(f, i) - f."""
    return demazure(f, i) - f


def _along(lam, w, op):
    """op along a reduced word of w from z^lam; for w None, a dict from
    every flag to its value, each one op step from its left-descent parent
    (weyl.apply_to_every_flag)."""
    lam, w = weyl.check_dominant(lam, w)
    if w is None:
        return weyl.apply_to_every_flag(monomial(lam), len(lam), op)
    return weyl.apply_reduced_word(monomial(lam), w, op)


def demazure_char(lam, w) -> LaurentPoly:
    """Demazure character: the composite Demazure operator over a reduced
    word of w, applied to z^lam.  Word-independent.  With w None, a dict
    from every flag to its character."""
    return _along(lam, w, demazure)


def demazure_atom(lam, w) -> LaurentPoly:
    """Demazure atom: the composite atom operator over a reduced word of w,
    applied to z^lam.  Characters decompose as the sum of atoms over the
    Bruhat interval below w.  With w None, a dict from every flag to its
    atom."""
    return _along(lam, w, demazure_atom_op)


def format_poly(f: LaurentPoly) -> str:
    """Canonical text: terms in descending graded-lex exponent order, with
    explicit '*' and '^', e.g. 'z1^2 + z1*z2'."""
    if not f.terms:
        return "0"
    names = [f"z{k}" for k in range(1, f.nvars + 1)]
    chunks = []
    for expo in sorted(f.terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = f.terms[expo]
        body = "*".join([name if e == 1 else f"{name}^{e}"
                         for name, e in zip(names, expo) if e])
        size = abs(coeff)
        if not body:
            body = str(size)
        elif size != 1:
            body = f"{size}*{body}"
        chunks.append((" - " if coeff < 0 else " + ") + body)
    text = "".join(chunks)  # the first term's sign drops its spaces and a '+'
    return text[3:] if text[1] == "+" else "-" + text[3:]
