"""No memory that grows without bound: every module-level functools cache
in src/fivevertex has a maxsize, except the few whose keys the rank bounds,
and verify keeps one partition's work in one cache of one entry."""

import importlib
import pkgutil

import fivevertex

# the unbounded caches, each with why its keys are bounded by the rank
RANK_BOUNDED = {
    "lattice.classify_vertex": "four spins, each in 0..r",
    "lattice._completions": "two spins in 0..r, a right spin in 0..r or "
                            "None, a bool or None and one of three families",
    "weyl.permutations_by_length": "one key per rank",
}


def _module_caches():
    """(module.name, maxsize) of every functools cache defined at the top
    level of a fivevertex module."""
    for info in pkgutil.iter_modules(fivevertex.__path__):
        module = importlib.import_module(f"fivevertex.{info.name}")
        for name, value in vars(module).items():
            if (hasattr(value, "cache_parameters")
                    and value.__module__ == module.__name__):
                yield f"{info.name}.{name}", value.cache_parameters()["maxsize"]


def test_no_module_level_cache_grows_without_bound():
    caches = dict(_module_caches())
    assert {name: maxsize for name, maxsize in caches.items()
            if name.startswith("verify.")} == {"verify._memo": 1}
    assert {name for name, maxsize in caches.items()
            if maxsize is None} == set(RANK_BOUNDED)
