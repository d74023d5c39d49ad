"""
Per-layer tracing from outside the library.

Each traced public function is wrapped once, and the wrapper is rebound in
every fivevertex module namespace (and in verify.CHECKS) that holds the
original, because some modules import functions by name: adjust imports
validate_state, lattice imports schuetzenberger.  A wrapper runs in one of
three modes:

  SPAN   times the call and keeps a span (id, name, start, end, parent id,
         query id) in memory;
  TIMED  times the call without keeping a span, for hot functions;
  COUNT  only counts calls, for the hottest leaves (crystal.lowering).

Timed calls form a stack, so self time is a call's duration minus the time
of the timed calls made inside it, and a span's parent is the nearest
enclosing span.  Counts are taken at the same wrappers.
"""

import itertools
import sys
from time import perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"

# (metric name, module, attribute, mode); "laurent.add" is LaurentPoly.__add__
TRACED = (
    ("cli.main", "cli", "main", SPAN),
    ("verify.run_checks", "verify", "run_checks", SPAN),
    ("verify.check_partition", "verify", "check_partition", SPAN),
    ("verify.check_states", "verify", "check_states", SPAN),
    ("verify.check_bijection", "verify", "check_bijection", SPAN),
    ("verify.check_shortcut", "verify", "check_shortcut", SPAN),
    ("verify.check_tau", "verify", "check_tau", SPAN),
    ("verify.check_crystal", "verify", "check_crystal", SPAN),
    ("lattice.enumerate_states", "lattice", "enumerate_states", TIMED),
    ("lattice.partition_function", "lattice", "partition_function", SPAN),
    ("lattice.boltzmann", "lattice", "boltzmann", TIMED),
    ("lattice.validate_state", "lattice", "validate_state", TIMED),
    ("lattice.pair_intersections", "lattice", "pair_intersections", TIMED),
    ("lattice.gtp_of_state", "lattice", "gtp_of_state", TIMED),
    ("adjust.closed_state_of", "adjust", "closed_state_of", SPAN),
    ("adjust.to_closed", "adjust", "to_closed", SPAN),
    ("adjust.raise_flag", "adjust", "raise_flag", SPAN),
    ("laurent.demazure_char", "laurent", "demazure_char", SPAN),
    ("laurent.demazure_atom", "laurent", "demazure_atom", SPAN),
    ("laurent.demazure", "laurent", "demazure", TIMED),
    ("laurent.add", "laurent", "LaurentPoly.__add__", TIMED),
    ("laurent.format_poly", "laurent", "format_poly", SPAN),
    ("crystal.demazure_crystal", "crystal", "demazure_crystal", SPAN),
    ("crystal.demazure_atom_set", "crystal", "demazure_atom_set", SPAN),
    ("crystal.demazure_closure", "crystal", "demazure_closure", SPAN),
    ("crystal.schuetzenberger", "crystal", "schuetzenberger", TIMED),
    ("crystal.lowering", "crystal", "lowering", COUNT),
    ("weyl.bruhat_leq", "weyl", "bruhat_leq", TIMED),
    ("patterns.check_pattern", "patterns", "check_pattern", COUNT),
    ("patterns.enumerate_left_strict", "patterns", "enumerate_left_strict", SPAN),
)

# "<wrapped name>.calls|total_s|self_s" read the wrapper statistics; the
# others are derived in Tracer.metrics()
LAYER_METRICS = [
    "lattice.enumerate_states.calls", "lattice.enumerate_states.self_s",
    "lattice.enumerate_states.hit_ratio", "lattice.states_built",
    "lattice.boltzmann.calls", "lattice.boltzmann.self_s",
    "lattice.partition_function.self_s",
    "lattice.validate_state.calls", "lattice.validate_state.self_s",
    "lattice.pair_intersections.calls", "lattice.pair_intersections.self_s",
    "lattice.gtp_of_state.calls", "lattice.gtp_of_state.self_s",
    "laurent.add.calls", "laurent.add.self_s",
    "laurent.demazure.calls", "laurent.demazure.self_s",
    "laurent.format_poly.self_s",
    "adjust.closed_state_of.calls", "adjust.closed_state_of.self_s",
    "adjust.raise_flag.calls", "adjust.to_closed.calls",
    "adjust.validations_per_state",
    "verify.check_partition.total_s", "verify.check_states.total_s",
    "verify.check_bijection.total_s", "verify.check_shortcut.total_s",
    "verify.check_tau.total_s", "verify.check_crystal.total_s",
    "verify.states.useful_ratio",
    "patterns.check_pattern.calls", "patterns.enumerate_left_strict.self_s",
    "crystal.demazure_closure.calls", "crystal.demazure_closure.self_s",
    "crystal.demazure_atom_set.total_s", "crystal.lowering.calls",
    "crystal.schuetzenberger.calls", "crystal.schuetzenberger.self_s",
    "weyl.bruhat_leq.calls", "weyl.bruhat_leq.self_s",
    "cli.main.calls", "cli.main.self_s",
]


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.ids = itertools.count(1)
        self.stack = [["root", 0.0, 0]]
        self.stats = {}      # name -> [calls] or [calls, total_s, self_s]
        self.spans = []
        self.counters = {"states_built": 0, "validations_in_surgery": 0,
                         "closed_states": 0, "states_scanned": 0, "states_kept": 0}
        self.misses_seen = 0
        self.qid = None
        self.query_time = 0.0
        self.query_covered = 0.0
        self.enumerate_cache = None

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every TRACED function in the imported fivevertex modules."""
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("fivevertex.")}
        hooks = {"lattice.enumerate_states": self._after_enumerate,
                 "lattice.gtp_of_state": self._after_gtp,
                 "adjust.closed_state_of": self._after_closed_state,
                 "lattice.validate_state": self._after_validate}
        wrapped = {}
        for name, modname, attr, mode in TRACED:
            owner_path, _, leaf = attr.rpartition(".")
            owner = _resolve(modules[modname], owner_path) if owner_path else None
            orig = _resolve(modules[modname], attr)
            if name == "lattice.enumerate_states":
                self.enumerate_cache = orig
            if mode == COUNT:
                wrapper = self._counted(name, orig)
            else:
                wrapper = self._timed(name, orig, mode == SPAN, hooks.get(name))
            wrapped[id(orig)] = wrapper
            if owner is not None:          # a method: rebind on its class
                setattr(owner, leaf, wrapper)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, key, wrapped[id(value)])
        checks = modules["verify"].CHECKS
        for key, value in checks.items():
            checks[key] = wrapped.get(id(value), value)

    def _counted(self, name, fn):
        stats = self.stats.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn, keep_span, after):
        stack, spans, ids = self.stack, self.spans, self.ids
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, next(ids) if keep_span else parent[2]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                parent[1] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[1]
                if keep_span:
                    spans.append((frame[2], name, start, end, parent[2], tracer.qid))
            if after is not None:
                after(parent, result)
            return result
        return wrapper

    # -- derived counters ---------------------------------------------------

    def _after_enumerate(self, parent, states):
        misses = self.enumerate_cache.cache_info().misses
        if misses != self.misses_seen:
            self.misses_seen = misses
            self.counters["states_built"] += len(states)

    def _after_gtp(self, parent, pattern):
        if parent[0] == "verify.check_states":
            self.counters["states_scanned"] += 1

    def _after_closed_state(self, parent, state):
        if state is not None:
            self.counters["closed_states"] += 1
            if parent[0] == "verify.check_states":
                self.counters["states_kept"] += 1

    def _after_validate(self, parent, _):
        if any(frame[0] == "adjust.closed_state_of" for frame in self.stack):
            self.counters["validations_in_surgery"] += 1

    # -- queries ------------------------------------------------------------

    def begin_query(self, qid):
        self.qid = qid
        self.stack.append(["query", 0.0, next(self.ids)])
        return perf_counter()

    def end_query(self, start):
        end = perf_counter()
        frame = self.stack.pop()
        self.spans.append((frame[2], "query", start, end, 0, self.qid))
        self.query_time += end - start
        self.query_covered += frame[1]
        self.qid = None

    # -- results ------------------------------------------------------------

    def metrics(self):
        def stat(name, field):
            row = self.stats.get(name, [0, 0.0, 0.0])
            return row[{"calls": 0, "total_s": 1, "self_s": 2}[field]]

        c = self.counters
        info = self.enumerate_cache.cache_info()
        derived = {
            "lattice.enumerate_states.hit_ratio":
                info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0,
            "lattice.states_built": c["states_built"],
            "adjust.validations_per_state":
                c["validations_in_surgery"] / c["closed_states"] if c["closed_states"] else 0.0,
            "verify.states.useful_ratio":
                c["states_kept"] / c["states_scanned"] if c["states_scanned"] else 0.0,
        }
        out = {}
        for metric in LAYER_METRICS:
            if metric in derived:
                out[metric] = derived[metric]
            else:
                name, field = metric.rsplit(".", 1)
                out[metric] = stat(name, field)
        out["trace.coverage"] = (self.query_covered / self.query_time
                                 if self.query_time else 0.0)
        return out
