"""
Seeded query generation for the three workloads.  Nothing here imports
fivevertex: the program under test receives only the generated inputs.

A query is a JSON-ready list:
  sweep:            ["sweep", lam, check]      run through verify.run_checks
  partfn / algebra: ["cli", argv]              run through cli.main

The seed changes the inputs but keeps the size of every answer, so that
runs with different seeds measure nearly the same amount of work:

- sweep permutes the order of the partitions; the checks of one partition
  stay together, in CHECKS order;
- partfn and algebra draw a fixed skeleton of (lambda, flag, ...) queries
  once, from DESIGN_SEED, and the run seed then permutes the query order
  and replaces every flag w by a random member of the coset w*W_lambda
  that has the same length as w.  Closed partition functions, characters
  and Demazure crystals depend only on that coset, and among its members
  of one length the atom is either that of the unique minimal
  representative or zero for all of them, so every answer keeps its size.
"""

import itertools
import random

WORKLOADS = ("sweep", "partfn", "algebra")

DESIGN_SEED = 20251205

CHECKS = ("partition", "states", "bijection", "shortcut", "tau", "crystal")

# (rank, lambda-max) of the `fivevertex verify` sweeps the workload runs
SWEEPS = {"full": ((3, 3), (4, 2)), "tiny": ((2, 2),)}

# the closed, longest-flag partition functions ROADMAP names
ROADMAP_SHAPES = ((6, 4, 2, 1, 0), (5, 3, 2, 1, 0, 0))

SIZES = {
    # workload: {size: (population as ((rank, lambda-max), ...), skeleton count)}
    "partfn": {"full": (((5, 3), (6, 2)), 600), "tiny": (((3, 2),), 20)},
    "algebra": {"full": (((6, 4),), 200), "tiny": (((3, 2),), 20)},
}

ALGEBRA_KINDS = ("char", "atom", "crystal", "crystal --atoms")


def partitions(r, max_part):
    """Weakly decreasing vectors of length r with parts in 0..max_part."""
    return [p for p in itertools.product(range(max_part, -1, -1), repeat=r)
            if all(a >= b for a, b in zip(p, p[1:]))]


def sweep_partitions(size):
    """The partitions the `verify` sweeps visit, duplicates included."""
    return [lam for rank, lmax in SWEEPS[size]
            for r in range(1, rank + 1) for lam in partitions(r, lmax)]


def perm_length(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def same_length_coset(lam, w):
    """Members of w*W_lam with the length of w, sorted."""
    blocks = [list(g) for _, g in itertools.groupby(range(len(lam)), key=lambda i: lam[i])]
    out = set()
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        u = [0] * len(lam)
        for block, image in zip(blocks, images):
            for pos, val in zip(block, image):
                u[pos] = val
        v = tuple(w[u[i]] for i in range(len(w)))
        if perm_length(v) == perm_length(w):
            out.add(v)
    return sorted(out)


def _csv(xs):
    return ",".join(str(x) for x in xs)


def _skeleton(workload, size):
    """The fixed (kind, lam, w) draws of a workload, before seeding."""
    population, count = SIZES[workload][size]
    lams = [lam for r, lmax in population for lam in partitions(r, lmax)]
    rng = random.Random(f"{DESIGN_SEED}:{workload}:{size}")
    kinds = ("closed", "open") if workload == "partfn" else ALGEBRA_KINDS
    out = []
    for _ in range(count):
        lam = rng.choice(lams)
        w = list(range(1, len(lam) + 1))
        rng.shuffle(w)
        out.append((rng.choice(kinds), lam, tuple(w)))
    if size == "full":
        kind = "closed" if workload == "partfn" else "char"
        out += [(kind, lam, tuple(range(len(lam), 0, -1))) for lam in ROADMAP_SHAPES]
    return out


def _argv(workload, kind, lam, w):
    if workload == "partfn":
        return ["partfn", "--lambda", _csv(lam), "--w", _csv(w), "--family", kind]
    cmd, *flags = kind.split()
    return [cmd, "--lambda", _csv(lam), "--w", _csv(w)] + flags


def make_queries(workload, seed, size="full"):
    rng = random.Random(seed)
    if workload == "sweep":
        lams = sweep_partitions(size)
        rng.shuffle(lams)
        return [["sweep", list(lam), check] for lam in lams for check in CHECKS]
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    queries = []
    for kind, lam, w in _skeleton(workload, size):
        w = rng.choice(same_length_coset(lam, w))
        queries.append(["cli", _argv(workload, kind, lam, w)])
    rng.shuffle(queries)
    return queries

