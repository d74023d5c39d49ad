"""
Permutations of {1, ..., r} in one-line notation, with lengths, the Bruhat
order and its covers, reduced words, and coset representatives.

Conventions:

- a permutation w is the tuple (w(1), ..., w(r)) of the integers 1..r;
- composition acts on the left: compose(u, v)(i) = u(v(i));
- s_i is the adjacent transposition swapping i and i+1, so multiplying by
  s_i on the right swaps the one-line entries at positions i and i+1, and
  multiplying on the left swaps the values i and i+1 wherever they occur;
- cycles from the combinatorics literature translate as: the 3-cycle
  sending 1->2->3->1 is the one-line tuple (2, 3, 1), and the transposition
  exchanging 1 and 3 is (3, 2, 1) in S_3.

All values are plain tuples; nothing here is mutated after construction.
"""

import functools
import itertools
import operator

__all__ = [
    "check_permutation", "inverse", "compose", "transposition", "length",
    "reduced_word", "apply_reduced_word", "apply_to_every_flag", "bruhat_leq",
    "lower_covers", "bruhat_below",
    "coset_longest", "all_permutations",
    "permutations_by_length", "check_dominant",
]

Perm = tuple[int, ...]


def check_permutation(w: Perm) -> Perm:
    """w as a tuple, after checking that its ints rearrange (1, ..., len(w))."""
    w = tuple(w)
    if not all(type(x) is int for x in w) or sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return w


def check_dominant(lam, w: Perm | None) -> tuple[tuple[int, ...], Perm | None]:
    """(lam, w) as tuples, after checking that w is a permutation and lam a
    partition of the same rank: ints, weakly decreasing and nonnegative.  A
    flag of None, meaning every flag, passes through."""
    lam = tuple(lam)
    if not all(type(p) is int for p in lam):
        raise ValueError(f"partition must hold integers: {lam!r}")
    if w is not None:
        w = check_permutation(w)
        if len(lam) != len(w):
            raise ValueError("partition and flag must have the same rank")
    if any(a < b for a, b in zip(lam, lam[1:])) or (lam and lam[-1] < 0):
        raise ValueError(f"not weakly decreasing and nonnegative: {lam!r}")
    return lam, w


def inverse(w: Perm) -> Perm:
    """
    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    out = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        out[wi - 1] = i
    return tuple(out)


def compose(u: Perm, v: Perm) -> Perm:
    """(u*v)(i) = u(v(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(u) != len(v):
        raise ValueError("rank mismatch")
    return tuple(u[vi - 1] for vi in v)


def transposition(i: int, j: int, r: int) -> Perm:
    if not (1 <= i <= r and 1 <= j <= r and i != j):
        raise ValueError(f"bad transposition ({i},{j}) for rank {r}")
    out = list(range(1, r + 1))
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def length(w: Perm) -> int:
    """Number of inversions, i.e. pairs i < j with w(i) > w(j).

    >>> length((3, 2, 1))
    3
    >>> length((2, 3, 1))
    2
    """
    return sum(itertools.starmap(operator.gt, itertools.combinations(w, 2)))


def _left_descent_parent(w: Perm):
    """(a, s_a * w) for the smallest left descent a of w, i.e. the smallest
    a with a + 1 before a in w, or None when w is the identity."""
    winv = inverse(w)
    for a in range(1, len(w)):
        if winv[a - 1] > winv[a]:
            # left-multiply by s_a: swap the values a, a+1 in w
            return a, tuple(a + 1 if x == a else a if x == a + 1 else x for x in w)
    return None


def reduced_word(w: Perm) -> tuple[int, ...]:
    """A reduced word (a_1, ..., a_k) with w = s_{a_1} * s_{a_2} * ... * s_{a_k}.

    Selection rule: repeatedly factor off the smallest left descent.  Any
    reduced word would do; downstream operators are word-independent.

    >>> reduced_word((2, 1, 3))
    (1,)
    >>> reduced_word((1, 2, 3))
    ()
    """
    w = tuple(w)
    word = []
    while (step := _left_descent_parent(w)) is not None:
        a, w = step
        word.append(a)
    return tuple(word)


def apply_reduced_word(x, w: Perm, op):
    """op along reduced_word(w) = (a_1, ..., a_k), rightmost letter first,
    as s_{a_1} * ... * s_{a_k} acts: op(...op(op(x, a_k), a_{k-1})..., a_1)."""
    for i in reversed(reduced_word(w)):
        x = op(x, i)
    return x


def apply_to_every_flag(x, r: int, op) -> dict:
    """apply_reduced_word(x, w, op) for every w in S_r, keyed in
    permutations_by_length(r) order.  reduced_word(w) is a_1 followed by
    reduced_word(s_{a_1} * w), so each value is one step op(., a_1) from
    that of the left-descent parent s_{a_1} * w, which is shorter and so
    comes first: the same operator sequence, one step per flag.

    >>> apply_to_every_flag("", 2, lambda x, a: x + str(a))
    {(1, 2): '', (2, 1): '1'}
    """
    flags = permutations_by_length(r)
    out = {flags[0]: x}
    for w in flags[1:]:
        a, parent = _left_descent_parent(w)
        out[w] = op(out[parent], a)
    return out


def bruhat_leq(y: Perm, w: Perm) -> bool:
    """Bruhat order on S_r, by the dot/tableau criterion: y <= w iff for
    every k the increasing sort of (y(1)..y(k)) is entrywise <= that of
    (w(1)..w(k)).

    >>> bruhat_leq((2, 3, 1), (3, 2, 1))
    True
    >>> bruhat_leq((2, 3, 1), (3, 1, 2))
    False
    """
    if len(y) != len(w):
        raise ValueError("rank mismatch")
    for k in range(1, len(y)):
        ys = sorted(y[:k])
        ws = sorted(w[:k])
        if any(a > b for a, b in zip(ys, ws)):
            return False
    return True


def lower_covers(w: Perm):
    """Yield ((a, b), w*(a, b)) for every lower cover of w in the Bruhat
    order, pairs a < b in lex order: w*(a, b) is covered by w iff
    w(a) > w(b) and no position between a and b holds a value between
    them (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 2).

    >>> [t for t, _ in lower_covers((3, 1, 2))]
    [(1, 2), (1, 3)]
    """
    for a in range(len(w) - 1):
        floor = 0  # the greatest value below w(a) seen between a and b
        for b in range(a + 1, len(w)):
            if floor < w[b] < w[a]:
                floor = w[b]
                swapped = w[:a] + (w[b],) + w[a + 1:b] + (w[a],) + w[b + 1:]
                yield (a + 1, b + 1), swapped


def bruhat_below(r: int, xs):
    """The Bruhat order from the members of xs to all of S_r, as the
    predicate leq(x, w) for x in xs and w in S_r, from covers: in
    permutations_by_length(r) order, the mask of w is its own bit (if w
    is in xs) together with the masks of its lower covers (lower_covers),
    which come first.  A mask has one bit per distinct member of xs.

    >>> leq = bruhat_below(3, [(2, 3, 1), (1, 3, 2)])
    >>> leq((2, 3, 1), (3, 2, 1)), leq((2, 3, 1), (3, 1, 2))
    (True, False)
    """
    bit = {x: 1 << k for k, x in enumerate(dict.fromkeys(xs))}
    masks = {}
    for w in permutations_by_length(r):
        mask = bit.get(w, 0)
        for _, v in lower_covers(w):
            mask |= masks[v]
        masks[w] = mask
    return lambda x, w: bool(masks[w] & bit[x])


def coset_longest(w: Perm, lam: tuple[int, ...]) -> Perm:
    """The longest element of the coset w * W_lam, where W_lam stabilizes lam:
    w with its entries in decreasing order inside each block of equal parts.

    >>> coset_longest((1, 2), (0, 0))
    (2, 1)
    >>> coset_longest((1, 2, 3), (1, 1, 0))
    (2, 1, 3)
    """
    lam, w = check_dominant(lam, w)
    return _coset_longest(w, lam)


def _coset_longest(w: Perm, lam: tuple[int, ...]) -> Perm:
    """coset_longest of a permutation and a partition of its rank already
    known to be valid; unchecked."""
    out = []
    for _, block in itertools.groupby(zip(lam, w), key=lambda pair: pair[0]):
        out.extend(sorted((x for _, x in block), reverse=True))
    return tuple(out)


def all_permutations(r: int) -> list[Perm]:
    """All of S_r in lexicographic order; r must not be negative."""
    if r < 0:
        raise ValueError(f"rank must not be negative, got {r}")
    return [tuple(p) for p in itertools.permutations(range(1, r + 1))]


@functools.lru_cache(maxsize=None)
def permutations_by_length(r: int) -> tuple[Perm, ...]:
    """S_r by (length, one-line lex), once per rank: the order of every
    every-flag result, so a sweep's first counterexample is minimal."""
    return tuple(sorted(all_permutations(r), key=lambda w: (length(w), w)))
