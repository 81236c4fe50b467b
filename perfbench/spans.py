"""In-process spans around the public entry points of each acsalign layer.

The program is left untouched: `Tracer.installed()` swaps each entry point
for a timing wrapper in every loaded acsalign module that holds it, and puts
the originals back on exit.  An entry point missing from the program being
measured is skipped and reports 0 calls.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute, report p50/p90).  A dotted attribute is a
# property of a class in that module.
SPANS = (
    ("channel.rotation", "acsalign.channel", "ExtendedRotation.matrix", True),
    ("schemes.build_scheme", "acsalign.schemes", "build_scheme", True),
    ("schemes.sample_feasible_channel", "acsalign.schemes", "sample_feasible_channel", False),
    ("verify.independence_margin", "acsalign.verify", "independence_margin", True),
    ("verify.check_conditions", "acsalign.verify", "check_conditions", False),
    ("rates.sum_rate", "acsalign.rates", "sum_rate", True),
    ("rates.zf_receive", "acsalign.rates", "zf_receive", False),
    ("rates.estimate_dof", "acsalign.rates", "estimate_dof", False),
    ("rates.baseline_rate_profile", "acsalign.rates", "baseline_rate_profile", False),
    ("rates.estimate_baseline_dof", "acsalign.rates", "estimate_baseline_dof", False),
    ("bound.max_dof", "acsalign.bound", "max_dof", False),
    ("cli.run_sweep", "acsalign.cli", "run_sweep", False),
    ("cli.run_bound", "acsalign.cli", "run_bound", False),
)

BOUND_S_MAX = 12

NAME, START, END, PARENT = range(4)


class Tracer:
    """Spans are [name, start, end, parent index] lists kept in memory; the
    parent is the innermost span open when the span started (-1 for none)."""

    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]
        self.receivers_judged = 0
        self.receivers_independent = 0
        self.profiles = 0
        self.max_dof_s: dict[int, float] = {}

    def _observe(self, name: str, args: tuple, kwargs: dict, result, span: list) -> None:
        """Counts taken at the boundary from the entry point's arguments and result."""
        if name == "verify.independence_margin":
            statuses = [getattr(r, "status", None) for r in getattr(result, "receivers", ())]
            self.receivers_judged += len(statuses)
            self.receivers_independent += statuses.count("independent")
        elif name == "bound.max_dof":
            s = int(args[0] if args else kwargs.get("extension", 0))
            self.max_dof_s[s] = self.max_dof_s.get(s, 0.0) + span[END] - span[START]
            self.profiles += int(getattr(result, "num_feasible", 0))

    def _wrap(self, name: str, fn):
        spans, opened, clock = self.spans, self._open, time.perf_counter
        observed = name in ("verify.independence_margin", "bound.max_dof")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, opened[-1]]
            opened.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                opened.pop()
                span[END] = clock()
            if observed:
                self._observe(name, args, kwargs, result, span)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every entry point in SPANS while the block runs."""
        modules = [m for n, m in list(sys.modules.items()) if n == "acsalign" or n.startswith("acsalign.")]
        undo = []
        for name, module_name, attr, _ in SPANS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                prop = vars(owner).get(leaf) if isinstance(owner, type) else None
                if isinstance(prop, property):
                    setattr(owner, leaf, property(self._wrap(name, prop.fget)))
                    undo.append((owner, leaf, prop))
                continue
            original = getattr(module, leaf, None)
            if not callable(original):
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))
        try:
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")

    def _count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` with a span called `ancestor` somewhere above them."""
        count = 0
        for span in self.spans:
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != ancestor:
                parent = self.spans[parent][PARENT]
            count += parent >= 0
        return count

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        per_name: dict[str, list[tuple[float, float]]] = {}
        for span, children in zip(self.spans, child_s):
            duration = span[END] - span[START]
            per_name.setdefault(span[NAME], []).append((duration, duration - children))

        out: dict[str, tuple[float, str]] = {}
        calls = {}
        for name, _, _, percentiles in SPANS:
            entries = per_name.get(name, [])
            calls[name] = len(entries)
            out[f"{name}.calls"] = (len(entries), "count")
            out[f"{name}.total_s"] = (sum(d for d, _ in entries), "s")
            out[f"{name}.self_s"] = (sum(s for _, s in entries), "s")
            if percentiles:
                durations = sorted(d for d, _ in entries)
                out[f"{name}.p50_us"] = (_percentile(durations, 0.5) * 1e6, "us")
                out[f"{name}.p90_us"] = (_percentile(durations, 0.9) * 1e6, "us")

        builds = calls["schemes.build_scheme"]
        out["channel.rotation_per_trial"] = (_ratio(calls["channel.rotation"], builds), "ratio")
        out["schemes.candidates_per_build"] = (
            _ratio(self._count_under("verify.independence_margin", "schemes.build_scheme"), builds), "ratio")
        out["verify.independent_frac"] = (_ratio(self.receivers_independent, self.receivers_judged), "ratio")
        out["rates.sum_rate_per_trial"] = (_ratio(calls["rates.sum_rate"], builds), "ratio")
        out["rates.zf_per_sum_rate"] = (_ratio(calls["rates.zf_receive"], calls["rates.sum_rate"]), "ratio")
        for s in range(1, BOUND_S_MAX + 1):
            out[f"bound.max_dof.s{s}_s"] = (self.max_dof_s.get(s, 0.0), "s")
        out["bound.profiles"] = (self.profiles, "count")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]
