"""Layer tracing from outside the program: wrappers rebound onto pavekit's
module attributes, spans kept in memory, and self-time arithmetic.

No span lives inside ``src/``.  ``Tracer.install`` replaces each public
function of the traced modules with a wrapper wherever a pavekit module
binds it, so a name imported across modules (``pavekit.paving.operator_norm``,
``pavekit.cli.build_frame``) is traced as well; public classes are traced
through their ``__init__``, which every module shares.  ``QuadExt``
arithmetic is too fine-grained for spans and is only counted.

A span is ``[name, start, end, parent, op_id, tag]``: ``parent`` is the index
of the enclosing span (-1 for a root), ``op_id`` the benchmark operation it
belongs to, ``tag`` an optional size (the matrix dimension for
``linalg.operator_norm``).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "pavekit"
LAYERS = ("cli", "paving", "linalg", "rearrange", "counterexample", "exact")

# cli's other public names (cmd_*, build_parser) are main's implementation;
# tracing only main makes cli.main's self time the whole CLI layer cost
# (argparse, dispatch, JSON envelope).  QuadExt is counted, not spanned.
_ONLY = {"cli": {"main"}}
_SKIP = {"exact": {"QuadExt"}}


def _op_dim(m, *args, **kwargs):
    return m.n


# Work counts derived from input sizes at a layer boundary, so that they
# repeat exactly from run to run: span name -> (counter, size function).
COUNTS = {
    "paving.brute_force_min": (
        "paving.symmetries_visited", lambda p, *a, **k: 1 << (p.n - 1)),
    "counterexample.verify_orthonormal": (
        "counterexample.gram_entries", lambda f, *a, **k: f.rank * (f.rank + 1) // 2),
    "counterexample.min_over_symmetries_v0": (
        "counterexample.lattice_cells", lambda m, *a, **k: (m * m + 1) * (2 * m + 2)),
    "rearrange.greedy_rearrange": (
        "rearrange.greedy_steps", lambda family, *a, **k: max(len(family) - 1, 0)),
}
TAGS = {"linalg.operator_norm": _op_dim}
QUADEXT_COUNTERS = {
    "__mul__": "exact.QuadExt.mul_calls",
    "__rmul__": "exact.QuadExt.mul_calls",
    "__add__": "exact.QuadExt.add_calls",
    "__radd__": "exact.QuadExt.add_calls",
}


class Tracer:
    """Collects spans and counters for one process; ``install`` and
    ``uninstall`` rebind and restore the traced attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str, tag=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._op_id, tag]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, kind: str, op_id: int):
        """Root span around one benchmark operation."""
        self._op_id = op_id
        span = self._begin("op." + kind)
        try:
            yield
        finally:
            self._end(span)
            self._op_id = -1

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        tag_of = TAGS.get(name)
        counters = self.counters
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            if count is not None:
                counters[count[0]] += count[1](*args, **kwargs)
            span = begin(name, tag_of(*args, **kwargs) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        return functools.wraps(fn)(traced)

    def _counting(self, counter: str, fn):
        counters = self.counters

        def counted(*args):
            counters[counter] += 1
            return fn(*args)

        return counted

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and constructors of every traced layer."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            mod = sys.modules.get("%s.%s" % (PACKAGE, layer))
            if mod is None:
                continue
            skip = _SKIP.get(layer, set())
            only = _ONLY.get(layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip or (only and attr not in only):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere; wrapped where defined
                name = "%s.%s" % (layer, attr)
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    traced = self._wrap(name, obj)
                    for m in modules:
                        for a, v in list(vars(m).items()):
                            if v is obj:
                                self._rebind(m, a, traced)
                elif (inspect.isclass(obj) and "__init__" in vars(obj)
                      and not issubclass(obj, BaseException)):
                    self._rebind(obj, "__init__", self._wrap(name, vars(obj)["__init__"]))
        exact = sys.modules.get(PACKAGE + ".exact")
        quad = getattr(exact, "QuadExt", None)
        if quad is not None:
            for dunder, counter in QUADEXT_COUNTERS.items():
                if dunder in vars(quad):
                    self._rebind(quad, dunder, self._counting(counter, vars(quad)[dunder]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# -- arithmetic on recorded spans ---------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest strictly (a child begins after and
    ends before its parent), so the children never overlap."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_totals(spans: list) -> dict[str, dict]:
    """Per span name: call count, summed self time, and self time by tag."""
    totals: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(s[0], {"calls": 0, "self_s": 0.0, "by_tag": {}})
        t["calls"] += 1
        t["self_s"] += own
        if s[5] is not None:
            calls, total = t["by_tag"].get(s[5], (0, 0.0))
            t["by_tag"][s[5]] = (calls + 1, total + own)
    return totals


def root_time(spans: list) -> float:
    """Summed duration of the root spans (the benchmark's operations)."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0)
