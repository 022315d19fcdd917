"""Spans around rsplfr's public functions, installed from outside the package.

Each wrapped function is replaced at the name its caller looks up (for
example ``rsplfr.sim.user_decode`` and ``rsplfr.rscode.decode``, which
``protocol`` reaches through its ``rscode`` module attribute).  A span
records the layer, start, end, the enclosing span and the pass it ran
in; spans live in flat arrays in memory and are written out once, when
the run ends.  A layer's self time is its span minus its direct child
spans.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from itertools import islice
from operator import sub
from time import perf_counter

import rsplfr.audit
import rsplfr.ff
import rsplfr.pda
import rsplfr.protocol
import rsplfr.rscode
import rsplfr.sim

# layer -> every (module or class, attribute) through which it is called
_SITES = {
    "pda.build": [(rsplfr.pda, "man_pda"), (rsplfr.pda, "parse")],
    "protocol.library_random": [(rsplfr.protocol.Library, "random")],
    "protocol.randomness_sample": [(rsplfr.protocol.Randomness, "sample")],
    "protocol.build_storage": [(rsplfr.sim, "build_storage"),
                               (rsplfr.audit, "build_storage")],
    "protocol.place_user": [(rsplfr.sim, "place_user"), (rsplfr.audit, "place_user")],
    "protocol.make_query": [(rsplfr.sim, "make_query"), (rsplfr.audit, "make_query")],
    # adversary_signal reaches the honest signal through the protocol module
    "protocol.server_signal": [(rsplfr.sim, "server_signal"),
                               (rsplfr.audit, "server_signal"),
                               (rsplfr.protocol, "server_signal")],
    "protocol.adversary_signal": [(rsplfr.sim, "adversary_signal")],
    "protocol.adversary_content": [(rsplfr.sim, "adversary_content")],
    "protocol.user_decode": [(rsplfr.sim, "user_decode")],
    "protocol.recover_library": [(rsplfr.sim, "recover_library")],
    "rscode.decode": [(rsplfr.rscode, "decode")],
    "sim.sweep": [(rsplfr.sim, "sweep")],
    "audit.server_security": [(rsplfr.audit, "audit_server_security")],
    "audit.signal_security": [(rsplfr.audit, "audit_signal_security")],
    "audit.demand_privacy": [(rsplfr.audit, "audit_demand_privacy")],
    "audit.robustness": [(rsplfr.audit, "audit_robustness")],
    "audit.exact_mi": [(rsplfr.audit, "exact_mi")],
}
LAYERS = tuple(_SITES)

# counted without a span: every PrimeField re-runs is_prime
_BUILDS = (rsplfr.ff.PrimeField, "__init__", "ff.prime_field.builds")


class Tracer:
    def __init__(self):
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_of = array("i")
        self.counts: Counter = Counter()  # (pass, name) -> count
        self.pass_no = 0
        self._stack: list[int] = []

    def _span(self, layer_id: int, name: str, fn, on_result=None):
        stack = self._stack
        failures = f"{name}.failures"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.pass_of.append(self.pass_no)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[(self.pass_no, failures)] += 1
                raise
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.pass_no, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_decode(self, result):
        self.counts[(self.pass_no, "rscode.decode.flagged")] += len(result[1])

    def _on_sweep(self, result):
        self.counts[(self.pass_no, "sim.configs")] += result.configurations

    def _on_audit(self, result):
        reports = result if isinstance(result, tuple) else (result,)
        self.counts[(self.pass_no, "audit.outcomes")] += sum(r.outcomes for r in reports)

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore it."""
        hooks = {"rscode.decode": self._on_decode, "sim.sweep": self._on_sweep,
                 "audit.server_security": self._on_audit,
                 "audit.signal_security": self._on_audit,
                 "audit.demand_privacy": self._on_audit,
                 "audit.robustness": self._on_audit}
        saved = []
        try:
            for layer_id, (name, sites) in enumerate(_SITES.items()):
                for owner, attr in sites:
                    original = owner.__dict__[attr]
                    if isinstance(original, classmethod):
                        wrapper = classmethod(self._span(layer_id, name, original.__func__,
                                                         hooks.get(name)))
                    else:
                        wrapper = self._span(layer_id, name, original, hooks.get(name))
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            owner, attr, name = _BUILDS
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._counter(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def pass_counts(self, pass_no: int) -> dict[str, int]:
        return {name: n for (p, name), n in self.counts.items() if p == pass_no}

    def summary(self, passes: list[int]) -> dict:
        """Per-layer calls, self and inclusive seconds per pass, call durations."""
        n = len(self.start)
        dur = array("d", map(sub, self.end, self.start))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        wanted = set(passes)
        per_pass = {p: {"calls": Counter(), "self_s": Counter(), "s": Counter()}
                    for p in passes}
        durations = {i: array("d") for i in range(len(LAYERS))}
        for i in range(n):
            p = self.pass_of[i]
            if p not in wanted:
                continue
            lay = self.layer[i]
            agg = per_pass[p]
            agg["calls"][lay] += 1
            agg["self_s"][lay] += dur[i] - child[i]
            agg["s"][lay] += dur[i]
            durations[lay].append(dur[i])
        return {"per_pass": per_pass, "durations": durations}

    def write(self, path) -> None:
        """Spans as gzipped JSON: one array per field, times in integer ns."""
        origin = self.start[0] if self.start else 0.0
        fields = {
            "layer": self.layer,
            "start_ns": (round((t - origin) * 1e9) for t in self.start),
            "dur_ns": (round(d * 1e9) for d in map(sub, self.end, self.start)),
            "parent": self.parent,
            "pass": self.pass_of,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('{"layers":%s,"counts":%s' % (
                json.dumps(list(LAYERS)),
                json.dumps([[p, name, c] for (p, name), c in sorted(self.counts.items())])))
            for name, values in fields.items():
                fh.write(',"%s":[' % name)
                # streamed in chunks so a long run never holds the text in memory
                it = iter(values)
                sep = ""
                while chunk := list(islice(it, 65536)):
                    fh.write(sep + ",".join(map(str, chunk)))
                    sep = ","
                fh.write("]")
            fh.write("}")


def percentile_us(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of durations in seconds, in microseconds."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1] * 1e6
