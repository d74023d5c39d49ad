"""Reference implementations that the tests check the library against;
the library itself has no use for them."""

from collections import Counter

from fivevertex import lattice, patterns, weyl
from fivevertex.laurent import LaurentPoly, monomial


def longest_element(r: int) -> tuple[int, ...]:
    """The reversal (r, r-1, ..., 1), of length r(r-1)/2."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    return tuple(range(r, 0, -1))


def all_reduced_words(w):
    """Yield every reduced word of w, in the same left-to-right convention
    as weyl.reduced_word."""
    if weyl.length(w) == 0:
        yield ()
        return
    winv = weyl.inverse(w)
    for i in range(1, len(w)):
        if winv[i - 1] > winv[i]:
            shorter = tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)
            for rest in all_reduced_words(shorter):
                yield (i,) + rest


def add_staircase(pattern):
    """Inverse of patterns.subtract_staircase; the result is left-strict."""
    pattern = patterns.check_pattern(pattern)
    r = len(pattern)
    return patterns.check_pattern(tuple(
        tuple(entry + (r - i + 1 - j) for j, entry in enumerate(row, start=1))
        for i, row in enumerate(pattern, start=1)))


def swap_vars(f: LaurentPoly, i: int) -> LaurentPoly:
    """f(s_i z): exchange the exponents of z_i and z_{i+1} in every term;
    the reference side of the Demazure operator's defining identity."""
    if not 1 <= i <= f.nvars - 1:
        raise ValueError(f"simple index {i} out of range")
    out = {}
    for expo, coeff in f.terms.items():
        e = list(expo)
        e[i - 1], e[i] = e[i], e[i - 1]
        out[tuple(e)] = coeff
    return LaurentPoly(f.nvars, out)


def unmatched(tab, i: int):
    """The bracket scan over the whole reading word, as a list of cells
    (rows bottom to top, each left to right): the unmatched i and the
    unmatched i+1, each list in reading order."""
    open_i1 = []
    lone_i = []
    cells = [(a, b) for a in reversed(range(len(tab))) for b in range(len(tab[a]))]
    for cell in cells:
        x = tab[cell[0]][cell[1]]
        if x == i + 1:
            open_i1.append(cell)
        elif x == i:
            if open_i1:
                open_i1.pop()
            else:
                lone_i.append(cell)
    return lone_i, open_i1


def lowering(tab, i: int):
    """f_i by the scan above: the rightmost unmatched i turned into i+1,
    or None."""
    lone_i = unmatched(tab, i)[0]
    if not lone_i:
        return None
    a, b = lone_i[-1]
    return tab[:a] + (tab[a][:b] + (i + 1,) + tab[a][b + 1:],) + tab[a + 1:]


def cut_strings(elements, dem, r: int):
    """Kashiwara's string trichotomy by building every string: each
    i-string of the tableaux (i = 1..r-1) lowered from its head one step
    at a time, and the (i, head) of each string that dem meets in neither
    nothing, all of it, nor its head alone."""
    cuts = []
    for head in elements:
        for i in range(1, r):
            if unmatched(head, i)[1]:
                continue  # e_i applies: not a head
            chain = [head]
            while (down := lowering(chain[-1], i)) is not None:
                chain.append(down)
            inter = dem & frozenset(chain)
            if inter not in (frozenset(), frozenset(chain), frozenset({head})):
                cuts.append((i, head))
    return cuts


def demazure_closure(elements, i: int) -> frozenset:
    """The i-string closure one lowering at a time, each lowering a fresh
    scan: every element lowered until nothing is left."""
    out = set(elements)
    for tab in elements:
        cur = lowering(tab, i)
        while cur is not None:
            out.add(cur)
            cur = lowering(cur, i)
    return frozenset(out)


def vertex_kind_weight(state) -> LaurentPoly:
    """The Boltzmann weight as the product of the local weights, one
    classified vertex at a time: z_i on row i unless the vertex is a1 or
    c2.  The reference for lattice.boltzmann's colored-slot count; it
    names its own weight-one kinds, so it shares no rule with the row
    transfer's lattice._WEIGHT_ONE."""
    return monomial(
        sum(kind not in ("a1", "c2")
            for kind in map(lattice.classify_vertex, h[1:], top, h, bottom))
        for h, top, bottom in zip(state.horizontal, state.vertical, state.vertical[1:]))


def enumeration_sum(r: int, states) -> LaurentPoly:
    """The partition function the slow way, as an oracle for the row
    transfer: the Boltzmann weights of the enumerated states, summed."""
    terms = Counter()
    for state in states:
        terms.update(lattice.boltzmann(state).terms)
    return LaurentPoly(r, terms)


def format_poly(f: LaurentPoly) -> str:
    """Canonical text term by term and factor by factor: descending
    graded-lex exponent order, explicit '*' and '^'."""
    if not f.terms:
        return "0"
    items = sorted(f.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    chunks = []
    for expo, coeff in items:
        factors = [f"z{k}" + (f"^{e}" if e != 1 else "")
                   for k, e in enumerate(expo, start=1) if e != 0]
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = f"{abs(coeff)}*" + "*".join(factors)
        sign = "-" if coeff < 0 else "+"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text
