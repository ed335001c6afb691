"""Spans around divtol's public functions, recorded from outside the package.

Each wrapper replaces the attribute its caller looks up (``divtol.cli.
parse_binned_counts``, ``divtol.estimator.dataset_divergences``, ...), so no
file under ``src/`` changes. Spans live in flat arrays, which the garbage
collector does not scan, and are written out once when the run ends.

A span's self time is its duration minus the durations of its direct
children. Calls are single-threaded and properly nested, so the self times
of one invocation sum to the duration of its root span.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

ROOT = "cli.main"


class Tracer:
    """Records (name, start, end, parent) spans and per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counts, args, kwargs, result)`` runs after it."""
        code = self._code(name)
        calls, errors = name + ".calls", name + ".errors"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(code)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[errors] += 1
                raise
            finally:
                self.end[sid] = time.perf_counter()
                self._stack.pop()
            self.counts[calls] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`unpatch_all`, remembering the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span, to split the record by invocation."""
        return len(self.start)

    def write(self, path: str, invocations: list[int]) -> None:
        """Dump every span as ``[name, start, end, parent, invocation]`` rows."""
        bounds = invocations + [len(self.start)]
        rows = []
        for inv in range(len(invocations)):
            for i in range(bounds[inv], bounds[inv + 1]):
                rows.append([self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], inv])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "invocation"], "spans": rows}, fh)


def self_times(names, parents, starts, ends) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's.

    ``parents`` holds the index of each span's parent within the same
    sequences, or -1 for a root.
    """
    out: dict[str, float] = {}
    for name, parent, t0, t1 in zip(names, parents, starts, ends):
        dur = t1 - t0
        out[name] = out.get(name, 0.0) + dur
        if parent >= 0:
            pname = names[parent]
            out[pname] = out.get(pname, 0.0) - dur
    return out


def invocation_self_times(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Self times of spans ``lo:hi``, one invocation rooted at span ``lo``."""
    names = [tracer.names[c] for c in tracer.name[lo:hi]]
    parents = [p - lo if p >= 0 else -1 for p in tracer.parent[lo:hi]]
    return self_times(names, parents, tracer.start[lo:hi], tracer.end[lo:hi])


def _len_into(*keys):
    def count(counts, args, kwargs, result):
        for key in keys:
            counts[key] += len(result)

    return count


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer where their callers look them up."""
    import divtol.cli as cli
    import divtol.core as core
    import divtol.estimator as estimator
    import divtol.simulation as simulation

    wrap, patch = tracer.wrap, tracer.patch
    for name, count in (
        ("parse_exposures", _len_into("ingest.rows")),
        ("parse_binned_counts", _len_into("ingest.rows", "ingest.sessions")),
        ("parse_events", _len_into("ingest.rows", "ingest.events")),
        ("bin_events", _len_into("ingest.sessions")),
        ("average_sessions", _len_into("ingest.mice")),
        ("assemble_dataset", None),
    ):
        patch(cli, name, wrap("ingest." + name, getattr(cli, name), count))

    def count_replicates(counts, args, kwargs, result):
        counts["estimator.bootstrap_ci.replicates"] += kwargs["replicates"]

    patch(cli, "bootstrap_ci", wrap("estimator.bootstrap_ci", cli.bootstrap_ci, count_replicates))
    estimate = wrap("estimator.estimate_theta", estimator.estimate_theta)
    patch(cli, "estimate_theta", estimate)
    patch(simulation, "estimate_theta", estimate)
    patch(estimator, "variance_objective", wrap("estimator.variance_objective", estimator.variance_objective))
    patch(estimator, "dataset_divergences", wrap("core.dataset_divergences", core.dataset_divergences))

    patch(cli, "run_monte_carlo", wrap("simulation.run_monte_carlo", cli.run_monte_carlo))
    patch(simulation, "draw_policy", wrap("simulation.draw_policy", simulation.draw_policy))
    patch(
        simulation,
        "generate_study_dataset",
        wrap("simulation.generate_study_dataset", simulation.generate_study_dataset, _len_into("simulation.animals")),
    )
    patch(simulation, "fit_anova", wrap("simulation.fit_anova", simulation.fit_anova))

    Dataset = core.Dataset
    from_arrays = Dataset.__dict__["from_arrays"].__func__
    patch(Dataset, "from_arrays", classmethod(wrap("core.Dataset.from_arrays", from_arrays)))
    for getter in ("states", "actions"):
        fget = Dataset.__dict__[getter].fget
        patch(Dataset, getter, property(wrap("core.Dataset.materialize", fget)))
    post_init = Dataset.__dict__["__post_init__"]

    def counted_post_init(self):
        post_init(self)
        tracer.counts["core.observations"] += len(self.observations)

    patch(Dataset, "__post_init__", counted_post_init)
