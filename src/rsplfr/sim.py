"""Deterministic end-to-end runs and exhaustive delivery sweeps.

A scenario fixes the instance, the placement delivery array, who is
adversarial and how, which J servers answer, and the demands.  All
sampling flows from string-derived random.Random streams keyed by the
scenario seed, so identical scenarios reproduce identical results.
A sweep replays many (J-subset, adversary set, strategy) configurations
against a single placement, checking every user's decoded output and,
optionally, whole-library recovery, against ground truth computed
directly from the raw files.  A single run is the same replay of one
configuration under the first demand sample, with a transcript.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, combinations, islice
from multiprocessing import get_context

from .analysis import MscTriple
from .pda import Pda
from .protocol import (ALL_STRATEGIES, STRATEGY_NAMES, ConfigError,
                       Library, ProtocolError, Randomness, SystemParams, UniformRandom,
                       SCENARIO_FIELDS, _dims, _flag, _int, _ints, adversary_content,
                       adversary_signal, build_storage, cache_side, decode_streams,
                       make_query, params_from_json, place_user, recover_library,
                       server_signal, stream_column, strategy_key, user_decode)
from .rscode import DecodingFailure


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    params: SystemParams
    pda: Pda
    demands: tuple[tuple[int, ...], ...] | None = None
    demand_samples: int = 1
    delivery: tuple[int, ...] | None = None
    adversaries: tuple[int, ...] = ()
    strategy: object = UniformRandom()
    library_mode: str = "random"
    sweep_j_subsets: bool = False
    sweep_adversary_subsets: bool = False
    sweep_strategies: bool = False
    adversary_sizes: tuple[int, ...] | None = None
    allow_excess_adversaries: bool = False
    check_recovery: bool = False
    max_configs: int = 1_000_000

    @property
    def seed(self) -> int:
        return self.params.seed

    @classmethod
    def from_json(cls, doc: dict, base_dir=None) -> "Scenario":
        if not isinstance(doc, dict) or "params" not in doc:
            raise ConfigError('scenario needs a "params" object')
        for key in doc:
            if key not in SCENARIO_FIELDS:
                raise ConfigError(f"unknown scenario field {key!r}")
        params, arr = params_from_json(doc["params"], base_dir)
        if arr is None:
            raise ConfigError('scenario params need a "pda"')
        if params.q is None or params.B is None:
            raise ConfigError('scenario params need "q" and "B"')
        sc = cls(params=params, pda=arr)

        demands = doc.get("demands")
        if demands is not None:
            if isinstance(demands, dict) and set(demands) == {"samples"}:
                sc.demand_samples = _int(demands["samples"], '"demands" samples')
            elif isinstance(demands, list):
                sc.demands = tuple(_ints(row, '"demands" rows') for row in demands)
            else:
                raise ConfigError('"demands" must be a K x N list or {"samples": n}')
        if "delivery" in doc:
            sc.delivery = _ints(doc["delivery"], '"delivery"')
        if "adversaries" in doc:
            sc.adversaries = _ints(doc["adversaries"], '"adversaries"')
        if "strategy" in doc:
            sc.strategy = _strategy_from_json(doc["strategy"])
        if "library" in doc:
            if doc["library"] not in ("random", "zeros"):
                raise ConfigError('"library" must be "random" or "zeros"')
            sc.library_mode = doc["library"]
        sweep = doc.get("sweep")
        if sweep is not None:
            if not isinstance(sweep, dict):
                raise ConfigError('"sweep" must be an object')
            for key in sweep:
                if key not in _SWEEP_FIELDS:
                    raise ConfigError(f"unknown sweep field {key!r}")
            for key, (read, attr) in _SWEEP_FIELDS.items():
                if key in sweep:
                    setattr(sc, attr, read(sweep[key], f'"{key}"'))
            sc.allow_excess_adversaries = "adversary_sizes" in sweep
        return sc


# sweep field -> (reader, Scenario attribute)
_SWEEP_FIELDS = {
    "j_subsets": (_flag, "sweep_j_subsets"),
    "adversary_subsets": (_flag, "sweep_adversary_subsets"),
    "strategies": (_flag, "sweep_strategies"),
    "demand_samples": (_int, "demand_samples"),
    "adversary_sizes": (_ints, "adversary_sizes"),
    "check_recovery": (_flag, "check_recovery"),
    "max_configs": (_int, "max_configs"),
}


def _strategy_from_json(obj):
    if isinstance(obj, str):
        name, extra = obj, {}
    elif isinstance(obj, dict) and "name" in obj:
        name = obj["name"]
        extra = {k: v for k, v in obj.items() if k != "name"}
    else:
        raise ConfigError('"strategy" must be a name or {"name": ...}')
    if not isinstance(name, str) or name not in STRATEGY_NAMES:
        raise ConfigError(f"unknown strategy {name!r}; choose from {sorted(STRATEGY_NAMES)}")
    cls = STRATEGY_NAMES[name]
    kwargs = {f.name: _int(extra.pop(f.name), f'"{f.name}"')
              for f in fields(cls) if f.name in extra}
    if extra:
        raise ConfigError(f"strategy {name!r} does not take fields {sorted(extra)}")
    return cls(**kwargs)


@dataclass(frozen=True)
class RunResult:
    ok: bool
    measured: MscTriple
    configurations: int
    per_user: tuple[bool, ...] | None
    failure_count: int
    failures: tuple[dict, ...]  # sample of witnesses, capped
    elapsed: float
    stage_counts: tuple[tuple[str, int], ...] = ()
    trace: dict | None = None


_WITNESS_CAP = 50


@dataclass
class _State:
    library: Library
    stores: list
    ps: list
    caches: list
    M: Fraction
    T: Fraction


def _build_state(sc: Scenario) -> _State:
    params, arr = sc.params, sc.pda
    seed = sc.seed
    if sc.library_mode == "zeros":
        library = Library.zeros(params)
    else:
        library = Library.random(params, random.Random(f"{seed}:library"))
    randomness = Randomness.sample(params, arr, random.Random(f"{seed}:randomness"))
    stores = build_storage(params, arr, library, randomness)
    prng = random.Random(f"{seed}:p")
    ps = [[prng.randrange(params.q) for _ in range(params.N)]
          for _ in range(params.K)]
    caches = [place_user(params, arr, library, randomness, k, ps[k - 1])
              for k in range(1, params.K + 1)]
    counts = {c.symbol_count() for c in caches}
    if len(counts) != 1:
        raise ScenarioError("users cache unequal symbol counts")
    store_counts = {st.symbol_count() for st in stores}
    if len(store_counts) != 1:
        raise ScenarioError("servers store unequal symbol counts")
    return _State(library=library, stores=stores, ps=ps,
                  caches=caches, M=Fraction(counts.pop(), params.B),
                  T=Fraction(store_counts.pop(), params.B))


def _demand_list(sc: Scenario):
    params = sc.params
    if sc.demands is not None:
        rows = sc.demands
        if len(rows) != params.K or any(len(r) != params.N for r in rows):
            raise ScenarioError(f"demands must be a {params.K} x {params.N} table")
        return [tuple(tuple(v % params.q for v in r) for r in rows)]
    if sc.demand_samples < 1:
        raise ScenarioError(f"demand samples must be >= 1, got {sc.demand_samples}")
    rng = random.Random(f"{sc.seed}:demands")
    return [tuple(tuple(rng.randrange(params.q) for _ in range(params.N))
                  for _ in range(params.K))
            for _ in range(sc.demand_samples)]


def _ground_truth(library: Library, demand, q: int) -> list[int]:
    # computed straight from the raw files; shares nothing with decoding
    B = len(library.files[0])
    out = [0] * B
    for n, dn in enumerate(demand):
        if dn:
            f = library.files[n]
            for b in range(B):
                out[b] += dn * f[b]
    return [v % q for v in out]


def _own_config(sc: Scenario) -> tuple:
    """The scenario's own (delivery, adversaries, strategy), checked with its
    adversary sizes; a run and a sweep both check them, whatever the sweep replaces."""
    params = sc.params
    d = sc.delivery if sc.delivery is not None else tuple(range(1, params.J + 1))
    d = tuple(sorted(d))
    if len(d) != params.J or len(set(d)) != params.J:
        raise ScenarioError(f"delivery must name {params.J} distinct servers")
    if any(not 1 <= h <= params.H for h in d):
        raise ScenarioError(f"delivery servers outside [1..{params.H}]")
    adv = tuple(sorted(sc.adversaries))
    if len(set(adv)) != len(adv) or any(not 1 <= h <= params.H for h in adv):
        raise ScenarioError(f"adversary set {adv} is not a subset of [1..{params.H}]")
    if len(adv) > params.A and not sc.allow_excess_adversaries:
        raise ScenarioError(f"{len(adv)} adversaries exceed A={params.A}")
    for size in sc.adversary_sizes or ():
        if not 0 <= size <= params.H:
            raise ScenarioError(f"adversary size {size} outside [0, {params.H}]")
    return d, adv, sc.strategy


# ---------- replay ----------


def _config_list(sc: Scenario):
    params = sc.params
    H, J, A = params.H, params.J, params.A
    delivery, adversaries, strategy = _own_config(sc)
    if sc.sweep_j_subsets:
        j_subsets = list(combinations(range(1, H + 1), J))
    else:
        j_subsets = [delivery]
    if sc.sweep_adversary_subsets:
        sizes = sc.adversary_sizes if sc.adversary_sizes is not None else tuple(range(A + 1))
        adv_subsets = [adv for size in sizes for adv in combinations(range(1, H + 1), size)]
    else:
        adv_subsets = [adversaries]
    strategies = list(ALL_STRATEGIES) if sc.sweep_strategies else [strategy]
    configs = [(js, tuple(adv), st)
               for js in j_subsets for adv in adv_subsets for st in strategies]
    if not configs:
        raise ScenarioError("the sweep selects no configurations")
    if len(configs) > sc.max_configs:
        raise ScenarioError(f"{len(configs)} configurations exceed the cap {sc.max_configs}")
    return configs


@dataclass
class _Replay:
    """What one replay saw: failures, the measured triple, and the last delivery it judged.

    A replay of one configuration judges its last demand last.
    """

    witnesses: list
    stages: Counter    # failures per stage
    measured: MscTriple
    state: _State
    queries: list      # of the first demand
    delivered: list    # signals of the last (configuration, demand) pair judged
    decoded: list      # each user's output there, None where decoding failed
    per_user: list     # whether each user's output there is right

    @property
    def failure_count(self) -> int:
        return sum(self.stages.values())


def _replay(sc: Scenario, configs, first: int, demand_list) -> _Replay:
    """Replay configs under every demand, checking against ground truth.

    ``configs`` is the slice of the full configuration list that starts
    at index ``first``.  Honest answers, every user's cache side and each
    server's honest stream column are computed once per replay; an
    adversarial server corrupts its honest answers.  The honest answers
    of servers 1..J are decoded once, and every user of every demand is
    decoded from them and checked: only if all are right does that data
    become the reference.  Any J answers with <= A corrupt decode to the
    same data, and a user's output depends only on its cache side and
    the decoded data, so data equal to the reference makes every user
    right.

    Configurations with the same J servers and the same adversaries
    among them put their errors at the same positions of every word, so
    each such group is decoded as one batch: one ``decode_streams`` call
    for the streams of every delivery of every member, and one
    ``recover_library`` call for their stored contents.  Member t's
    delivery d is delivery t*D + d of the batch, with D demands.  Each
    member's data is compared once with the reference: only in a member
    that differs is each delivery's data compared, and only the users of
    a delivery that differs are decoded one by one, for their
    witnesses.  A group's batch is dropped before the next is built.
    The notes are kept per configuration and joined in configuration
    order, so the witnesses are those a replay of one configuration at a
    time would keep.  Per-configuration seeds are keyed by the
    configuration's index in the full list, so a slice replays exactly
    what the whole list would; only a strategy that draws gets a
    generator.
    """
    params, arr = sc.params, sc.pda
    state = _build_state(sc)
    queries_list = [[make_query(params, demand[k - 1], state.ps[k - 1])
                     for k in range(1, params.K + 1)] for demand in demand_list]
    honest = [[server_signal(params, arr, st, queries) for st in state.stores]
              for queries in queries_list]
    truth_list = [[_ground_truth(state.library, demand[k - 1], params.q)
                   for k in range(1, params.K + 1)] for demand in demand_list]
    # a side whose check of the answered queries fails is kept as its
    # error: it fails that user's decodes only
    sides_list = []
    for demand, queries in zip(demand_list, queries_list):
        sides = []
        for k in range(1, params.K + 1):
            try:
                sides.append(cache_side(params, arr, state.caches[k - 1],
                                        demand[k - 1], queries))
            except ProtocolError as exc:
                sides.append(exc)
        sides_list.append(sides)
    honest_columns = {h: stream_column(params, arr, h, [signals[h - 1] for signals in honest])
                      for h in range(1, params.H + 1)}
    D = len(demand_list)
    stages: Counter = Counter()
    notes = [[] for _ in configs]  # each configuration's witnesses, capped

    def note(c, w):
        stages[w["stage"]] += 1
        if len(notes[c]) < _WITNESS_CAP:
            notes[c].append(w)

    def decode_users(di, streams, d):
        """Each user's output for demand di from delivery d of the streams, and its error or None."""
        decoded, errors = [], []
        for k, side in enumerate(sides_list[di], start=1):
            got = None
            if isinstance(side, ProtocolError):
                error = str(side)
            else:
                try:
                    got = user_decode(params, arr, side, streams, d)
                except DecodingFailure as exc:
                    error = str(exc)
                else:
                    error = None if got == truth_list[di][k - 1] else "wrong output"
            decoded.append(got)
            errors.append(error)
        return decoded, errors

    # the honest check decodes every user, with no short cut, so call
    # counts do not depend on where the first wrong output is
    reference = decode_streams(params, arr, {h: honest_columns[h]
                                             for h in range(1, params.J + 1)})
    wrong = [error is not None for di in range(D)
             for error in decode_users(di, reference, di)[1]]
    if any(wrong):
        reference = None
    groups = {}
    for c, (js, adv, _) in enumerate(configs):
        groups.setdefault((js, tuple(h for h in js if h in adv)), []).append(c)
    delivered, decoded, per_user = [], [], []
    for (js, bad), members in groups.items():
        signals = {h: [] for h in bad}
        contents = []
        for c in members:
            ci = first + c
            _, adv, strat = configs[c]
            key = strategy_key(strat)
            if sc.check_recovery:
                contents.append([
                    adversary_content(params, strat, state.stores[h - 1],
                                      random.Random(f"{sc.seed}:content:{ci}:{h}:{key}")
                                      if strat.draws else None)
                    if h in adv else state.stores[h - 1] for h in js])
            for h in bad:
                signals[h].extend(
                    adversary_signal(params, strat, honest[di][h - 1],
                                     random.Random(f"{sc.seed}:adv:{ci}:{di}:{h}:{key}")
                                     if strat.draws else None)
                    for di in range(D))
        recovered = recover_library(params, contents) if sc.check_recovery else None
        streams = decode_streams(params, arr, {
            h: stream_column(params, arr, h, signals[h]) if h in signals
            else honest_columns[h] * len(members) for h in js})
        for t, c in enumerate(members):
            _, adv, strat = configs[c]
            label = {"j_subset": js, "adversaries": adv, "strategy": strategy_key(strat)}
            if recovered is not None:
                got = recovered[t]
                if isinstance(got, Exception):
                    note(c, dict(label, stage="recover", error=str(got)))
                elif got.files != state.library.files:
                    note(c, dict(label, stage="recover", error="wrong library"))
            delivered = [signals[h][(t + 1) * D - 1] if h in signals else honest[-1][h - 1]
                         for h in js]
            if reference is not None and streams.delivery(t * D, D) == reference.data:
                # every user of every delivery is right
                decoded, per_user = truth_list[-1], [True] * params.K
                continue
            for di in range(D):
                d = t * D + di
                if reference is not None and streams.delivery(d) == reference.delivery(di):
                    decoded, per_user = truth_list[di], [True] * params.K
                    continue
                decoded, errors = decode_users(di, streams, d)
                per_user = [error is None for error in errors]
                for k, error in enumerate(errors, start=1):
                    if error is not None:
                        note(c, dict(label, stage="decode", demand_index=di, user=k,
                                     error=error))
        del signals, contents, recovered, streams  # before the next group is built
    witnesses = list(islice(chain.from_iterable(notes), _WITNESS_CAP))
    max_payload = max(sig.payload_symbols() for sig in honest[0])
    measured = MscTriple(M=state.M, T=state.T,
                         R=Fraction(max_payload, params.B),
                         subpacketization=params.L * arr.F)
    return _Replay(witnesses, stages, measured, state, queries_list[0], delivered,
                   decoded, per_user)


def run(sc: Scenario, collect_trace: bool = False) -> RunResult:
    """Replay one configuration under the first demand sample, every user checked.

    The configuration is the scenario's (delivery, adversaries, strategy);
    its sweep settings are ignored.
    """
    t0 = time.perf_counter()
    config = _own_config(sc)
    demand = _demand_list(sc)[0]
    rep = _replay(sc, [config], 0, [demand])
    trace = None
    if collect_trace:
        state = rep.state
        subL, pkt = _dims(sc.params, sc.pda)

        def runs(flat, size):
            """A flat run of symbols as the nested lists of the trace format."""
            return [list(flat[i:i + size]) for i in range(0, len(flat), size)]

        trace = {
            "library": [list(f) for f in state.library.files],
            "blends": [list(p) for p in state.ps],
            "demands": [list(d) for d in demand],
            "queries": [list(qr) for qr in rep.queries],
            "stores": [{"h": st.h,
                        "coded_subfiles": runs(st.coded_subfiles, subL),
                        "coded_keys": runs(st.coded_keys, pkt)}
                       for st in state.stores],
            "signals": [{"h": sig.h, "honest": sig.honest,
                         "payload": runs(sig.payload, pkt)}
                        for sig in rep.delivered],
            "decoded": [list(d) if d is not None else None for d in rep.decoded],
        }
    return RunResult(ok=rep.failure_count == 0, measured=rep.measured,
                     configurations=1, per_user=tuple(rep.per_user),
                     failure_count=rep.failure_count, failures=tuple(rep.witnesses),
                     elapsed=time.perf_counter() - t0,
                     stage_counts=tuple(sorted(rep.stages.items())), trace=trace)


def _sweep_slice(sc: Scenario, configs, first: int):
    """(failure_count, witnesses, measured, stages) of configs from index first."""
    rep = _replay(sc, configs, first, _demand_list(sc))
    return rep.failure_count, rep.witnesses, rep.measured, dict(rep.stages)


def sweep(sc: Scenario, jobs: int = 1) -> RunResult:
    """Replay every selected configuration; aggregate failures with witnesses."""
    t0 = time.perf_counter()
    configs = _config_list(sc)
    n = len(configs)
    jobs = max(1, min(jobs, n))
    bounds = [(i * n) // jobs for i in range(jobs + 1)]
    args = [(sc, configs[bounds[i]:bounds[i + 1]], bounds[i]) for i in range(jobs)]
    if jobs == 1:
        parts = [_sweep_slice(*args[0])]
    else:
        with get_context("fork").Pool(jobs) as pool:
            parts = pool.starmap(_sweep_slice, args)
    failure_count = sum(p[0] for p in parts)
    witnesses = [w for p in parts for w in p[1]][:_WITNESS_CAP]
    measured = parts[0][2]
    stages = Counter()
    for p in parts:
        stages.update(p[3])
    return RunResult(ok=failure_count == 0, measured=measured, configurations=n,
                     per_user=None, failure_count=failure_count,
                     failures=tuple(witnesses), elapsed=time.perf_counter() - t0,
                     stage_counts=tuple(sorted(stages.items())))
