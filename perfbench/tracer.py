"""In-memory span tracer that wraps epibound's public functions from outside.

The library source is never edited: ``install`` replaces every module-level
binding of each public function (``bounds.tv_exact`` and
``divergences.tv_exact`` are the same function bound under two names) with
one wrapper per function, and wraps a few class methods in place so that
the classes themselves, and every ``isinstance`` check on them, stay
untouched.  Spans stay in memory until ``write_spans`` saves them.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# module short names whose public functions are wrapped
MODULES = ("distributions", "divergences", "bayes", "bounds", "oracle",
           "experiments", "cli", "seeding")

# (class, method) pairs wrapped in place; a class's construction is its
# __post_init__ (validation and freezing), the part the dataclass adds
METHODS = (
    ("Categorical", "__post_init__"),
    ("FiniteTaskDistribution", "__post_init__"),
    ("Gaussian", "__post_init__"),
    ("Gaussian", "logpdf"),
    ("GaussianMixture", "__post_init__"),
    ("GaussianMixture", "logpdf"),
    ("InverseGammaGaussianTasks", "reify"),
)

# modules that bind scipy's adaptive quadrature as ``quad``
QUAD_BINDINGS = ("divergences", "bayes")

# span fields
NAME, PARENT, ITEM, START, END, COUNT, ERROR = range(7)


class Tracer:
    """Records one span per wrapped call: name, parent span, item, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, count=None):
        """Wrap ``fn``; ``count(args, result)`` gives the span's op count."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, self.item, 0.0, 0.0, 0, ""]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def wrap_quad(self, quad, name: str):
        """Wrap scipy's ``quad``; the span's count is the integrand evaluations."""
        evals = [0]

        def counted_quad(func, a, b, *args, **kwargs):
            def integrand(*xs):
                evals[0] += 1
                return func(*xs)

            evals[0] = 0
            return quad(integrand, a, b, *args, **kwargs)

        # nested quadrature would mix counts; epibound never nests it
        return self.wrap(counted_quad, name, lambda args, result: evals[0])

    def write_spans(self, path) -> None:
        """Write every span as one CSV line: name,parent,item,start,end,count,error."""
        with open(path, "w") as fh:
            fh.write("name,parent,item,start,end,count,error\n")
            for s in self.spans:
                fh.write(f"{self.names[s[NAME]]},{s[PARENT]},{s[ITEM]},{s[START]!r},"
                         f"{s[END]!r},{s[COUNT]},{s[ERROR]}\n")

    def summary(self) -> dict:
        """Per span name: calls, busy_s, self_s, count, child_count, errors."""
        child_time = [0.0] * len(self.spans)
        child_count = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
                child_count[s[PARENT]] += s[COUNT]
        out: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0,
                                         "child_count": 0, "errors": defaultdict(int)})
        for i, s in enumerate(self.spans):
            agg = out[self.names[s[NAME]]]
            dur = s[END] - s[START]
            agg["calls"] += 1
            agg["busy_s"] += dur
            agg["self_s"] += dur - child_time[i]
            agg["count"] += s[COUNT]
            agg["child_count"] += child_count[i]
            if s[ERROR]:
                agg["errors"][s[ERROR]] += 1
        return {k: dict(v, errors=dict(v["errors"])) for k, v in out.items()}


def _mixture_evals(args, result) -> int:
    return int(result.size) * int(args[0].weights.size)


def _mc_samples(args, result) -> int:
    return int(result.mc_samples or 0)


def _components(args, result) -> int:
    return int(result.n_tasks)


def _nonzero_exit(args, result) -> int:
    return int(result != 0)


COUNTS = {
    "distributions.GaussianMixture.logpdf": _mixture_evals,
    "distributions.InverseGammaGaussianTasks.reify": _components,
    "divergences.kl_mc": _mc_samples,
    "cli.main": _nonzero_exit,
}


def public_functions(modules: dict) -> dict:
    """{function: span name} for every public function each module defines."""
    found = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                found[obj] = f"{short}.{obj.__name__}"
    return found


def install(tracer: Tracer, package) -> list[str]:
    """Wrap epibound in place; returns the binding names that were replaced."""
    import importlib

    modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
    wrappers = {fn: tracer.wrap(fn, name, COUNTS.get(name))
                for fn, name in public_functions(modules).items()}
    bound = []
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                bound.append(f"{mod.__name__}.{attr}")
    dist = modules["distributions"]
    for cls_name, method in METHODS:
        cls = getattr(dist, cls_name)
        name = f"distributions.{cls_name}.{method}"
        setattr(cls, method, tracer.wrap(cls.__dict__[method], name, COUNTS.get(name)))
        bound.append(f"{dist.__name__}.{cls_name}.{method}")
    for short in QUAD_BINDINGS:
        mod = modules[short]
        mod.quad = tracer.wrap_quad(mod.quad, f"{short}.quad")
        bound.append(f"{mod.__name__}.quad")
    return bound
