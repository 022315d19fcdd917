"""Deterministic end-to-end runs and exhaustive delivery sweeps.

A scenario fixes the instance, the placement delivery array, who is
adversarial and how, which J servers answer, and the demands.  All
sampling flows from string-derived random.Random streams keyed by the
scenario seed, so identical scenarios reproduce identical results; an
adversary that draws gets one stream per (configuration, server), for
its stored contents first and then its deliveries.
A sweep replays many (J-subset, adversary set, strategy) configurations
against a single placement, checking every user's decoded output and,
optionally, whole-library recovery, against ground truth computed
directly from the raw files.  Configurations are decoded in groups, and
each group's packed decode names, in one comparison with the honest
reference, the deliveries and sets that differ from it; only those are
judged: a differing set's library is unpacked, and the users of a
differing delivery read their slots of it.  A single run is the same replay of
one configuration under the first demand sample, with a transcript.
The honest columns and cache sides the replay starts from are built
packed over its demand samples: one call builds every server's column,
and one call per user that user's side of every demand.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, combinations, islice

from .analysis import MscTriple
from .pda import Pda
from .protocol import (ALL_STRATEGIES, STRATEGY_NAMES, ConfigError,
                       Library, ProtocolError, Randomness, SystemParams,
                       UniformRandom, SCENARIO_FIELDS, _cache_sides, _dims, _flag, _int,
                       _ints, _server_columns, adversary_column, adversary_content,
                       build_storage, decode_group, draws, make_query, params_from_json,
                       place_user, strategy_key, user_decode)
# uncalled here, but bound: instrumentation wraps the sweep's layers at
# this module's names
from .protocol import adversary_signal, recover_library, server_signal  # noqa: F401
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
    ps = [draws(prng, params.q, params.N) for _ in range(params.K)]
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
    return [tuple(tuple(draws(rng, params.q, params.N)) for _ in range(params.K))
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
    adversary sizes; a run and a sweep both check them, whatever the sweep replaces.
    More than A adversaries are allowed only where adversary sizes are set."""
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
    if len(adv) > params.A and sc.adversary_sizes is None:
        raise ScenarioError(f"{len(adv)} adversaries exceed A={params.A}")
    sizes = sc.adversary_sizes or ()
    if len(set(sizes)) != len(sizes):
        raise ScenarioError(f"adversary sizes must be distinct, got {sizes}")
    for size in sizes:
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
    delivered: list    # (h, honest, answer) of the last (configuration, demand) pair judged
    decoded: list      # each user's output there, None where decoding failed
    per_user: list     # whether each user's output there is right

    @property
    def failure_count(self) -> int:
        return sum(self.stages.values())


def _replay(sc: Scenario, configs, first: int, demand_list) -> _Replay:
    """Replay configs under every demand, checking against ground truth.

    ``configs`` is the slice of the full configuration list that starts
    at index ``first``.  A server's honest column, its answers to every
    demand chained in demand order, and every user's cache side of every
    demand are computed once per replay, packed over the D demands: an
    answer is linear in the queries and in the store, and a side in the
    demand and the queries, so one ``_server_columns`` call builds every
    server's column in one integer, keyed here by server, and one
    ``_cache_sides`` call every side of one user, each with one reduce
    and unpack.  An adversarial server
    corrupts its stored contents (when recovery is checked), then its
    whole honest column, one strategy call each, with
    ``adversary_content``, ``adversary_column`` and the one generator of
    its (configuration, server), so its contents do not depend on the
    number of demands.
    The honest columns of servers 1..J, and their stores when recovery
    is checked, are decoded in one ``decode_group`` call.  Only if every
    user of every demand decodes right from it is that data the
    reference, and only if its one library is the sampled one is that
    library the reference library.  Any J answers with <= A corrupt
    decode to the same data, and a user's output depends only on its
    cache side and the decoded data, so data equal to the reference
    makes every user right.

    Configurations with the same J servers and the same adversaries
    among them put their errors at the same positions of every word, so
    each such group is decoded as one batch, in one ``decode_group``
    call: an honest server repeats its column and its store once per
    member, an adversarial one holds each member's corrupted column and
    stores; with recovery unchecked the batch holds no stores.  In a
    group with no adversary among its J servers the batch holds one
    member's, judged for every member: a word's result depends on that
    word alone.  Member t's delivery d is delivery u*D + d of the batch,
    with D demands and u = t, or 0 in such a group.  ``differing``
    names the deliveries of the batch that are no copies of the
    reference's, ``wrong``, and its sets that are no copies of the
    reference library, ``lost``, one xor per data row; without a
    reference all are.  Only a lost set is built and compared with the
    sampled library, and only the users of a wrong delivery are decoded
    one by one, for their witnesses.  The transcript's delivery, the
    batch's last, is cut from it alike for every server, honest when not
    among the group's adversaries; its outputs are the ground truth
    unless it is wrong.  A group's batch is dropped before the next is
    built.
    The notes are kept per configuration and joined in configuration
    order, so the witnesses are those a replay of one configuration at a
    time would keep.  Per-configuration seeds are keyed by the
    configuration's index in the full list, so a slice replays exactly
    what the whole list would; only a strategy that draws gets a
    generator, and each distinct strategy's ``strategy_key`` is
    computed once per replay.
    """
    params, arr = sc.params, sc.pda
    state = _build_state(sc)
    queries_list = [[make_query(params, demand[k - 1], state.ps[k - 1])
                     for k in range(1, params.K + 1)] for demand in demand_list]
    honest_columns = {st.h: column for st, column in zip(
        state.stores, _server_columns(params, arr, state.stores, queries_list))}
    truth_list = [[_ground_truth(state.library, demand[k - 1], params.q)
                   for k in range(1, params.K + 1)] for demand in demand_list]
    # per demand, each user's side, or the error of its check of the
    # answered queries: that fails the user's decodes of the demand only
    sides_list = list(zip(*(_cache_sides(params, arr, cache,
                                         [demand[cache.k - 1] for demand in demand_list],
                                         queries_list)
                            for cache in state.caches)))
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
                    got = user_decode(params, side, streams, d)
                except DecodingFailure as exc:
                    error = str(exc)
                else:
                    error = None if got == truth_list[di][k - 1] else "wrong output"
            decoded.append(got)
            errors.append(error)
        return decoded, errors

    # the honest check decodes every user, with no short cut, so call
    # counts do not depend on where the first wrong output is
    honest = range(1, params.J + 1)
    reference, library = decode_group(
        params, arr, {h: honest_columns[h] for h in honest},
        {h: [state.stores[h - 1]] for h in honest} if sc.check_recovery else None)
    failing = [error is not None for di in range(D)
               for error in decode_users(di, reference, di)[1]]
    if any(failing):
        reference = None
    if library is not None:
        got = library[0]
        if isinstance(got, DecodingFailure) or got.files != state.library.files:
            library = None
    groups = {}
    for c, (js, adv, _) in enumerate(configs):
        groups.setdefault((js, tuple(h for h in js if h in adv)), []).append(c)
    keys = {}  # id(strategy) -> its strategy_key, once per distinct strategy object
    for _, _, strat in configs:
        if id(strat) not in keys:
            keys[id(strat)] = strategy_key(strat)
    size = arr.S * _dims(params, arr)[1]  # symbols per delivery
    delivered, decoded, per_user = [], [], []
    for (js, bad), members in groups.items():
        # every member of an honest group gets the same batch: it holds one
        copies = len(members) if bad else 1
        columns = {h: [] for h in bad}
        contents = {h: [] for h in bad}
        for c in members:
            strat = configs[c][2]
            for h in bad:
                rng = (random.Random(f"{sc.seed}:adv:{first + c}:{h}:{keys[id(strat)]}")
                       if strat.draws else None)
                if sc.check_recovery:
                    contents[h].append(adversary_content(params, strat,
                                                         state.stores[h - 1], rng))
                columns[h] += adversary_column(params, strat, honest_columns[h], D, rng)
        batch = {h: columns[h] if h in columns else honest_columns[h] * copies
                 for h in js}
        stores = {h: contents[h] if h in contents else [state.stores[h - 1]] * copies
                  for h in js} if sc.check_recovery else None
        streams, recovered = decode_group(params, arr, batch, stores)
        # the batch's last delivery, of its last member
        last = copies * D - 1
        delivered = [(h, h not in bad, batch[h][last * size:(last + 1) * size]) for h in js]
        wrong = (streams.differing(reference, copies) if reference is not None
                 else set(range(copies * D)))
        lost = (set() if recovered is None else set(range(copies)) if library is None
                else recovered.differing(library, copies))
        if wrong or lost:
            for t, c in enumerate(members):
                _, adv, strat = configs[c]
                label = {"j_subset": js, "adversaries": adv, "strategy": keys[id(strat)]}
                u = t if bad else 0  # the member's place in the batch
                if u in lost:
                    got = recovered[u]
                    if isinstance(got, DecodingFailure):
                        note(c, dict(label, stage="recover", error=str(got)))
                    elif got.files != state.library.files:
                        note(c, dict(label, stage="recover", error="wrong library"))
                for di in range(D):
                    d = u * D + di
                    if d in wrong:
                        decoded, errors = decode_users(di, streams, d)
                        per_user = [error is None for error in errors]
                        for k, error in enumerate(errors, start=1):
                            if error is not None:
                                note(c, dict(label, stage="decode", demand_index=di,
                                             user=k, error=error))
        if last not in wrong:  # every user of the delivery is right
            decoded, per_user = truth_list[-1], [True] * params.K
        del columns, contents, batch, stores, recovered, streams  # before the next group is built
    witnesses = list(islice(chain.from_iterable(notes), _WITNESS_CAP))
    measured = MscTriple(M=state.M, T=state.T,
                         R=Fraction(len(honest_columns[1]), D * params.B),
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
            "signals": [{"h": h, "honest": honest, "payload": runs(answer, pkt)}
                        for h, honest, answer in rep.delivered],
            "decoded": [list(d) if d is not None else None for d in rep.decoded],
        }
    return RunResult(ok=rep.failure_count == 0, measured=rep.measured,
                     configurations=1, per_user=tuple(rep.per_user),
                     failure_count=rep.failure_count, failures=tuple(rep.witnesses),
                     elapsed=time.perf_counter() - t0,
                     stage_counts=tuple(sorted(rep.stages.items())), trace=trace)


def sweep(sc: Scenario, jobs: int = 1) -> RunResult:
    """Replay every selected configuration; aggregate failures with witnesses.

    The configurations are cut into ``jobs`` slices, at most one per
    configuration and per CPU, each replayed by ``_replay`` (in a pool
    of worker processes when there are several).
    """
    t0 = time.perf_counter()
    configs = _config_list(sc)
    demand_list = _demand_list(sc)
    n = len(configs)
    jobs = max(1, min(jobs, n, os.cpu_count() or 1))
    bounds = [(i * n) // jobs for i in range(jobs + 1)]
    args = [(sc, configs[bounds[i]:bounds[i + 1]], bounds[i], demand_list)
            for i in range(jobs)]
    if jobs == 1:
        parts = [_replay(*args[0])]
    else:
        from multiprocessing import get_context  # slow to import; only pools need it
        with get_context("fork").Pool(jobs) as pool:
            parts = pool.starmap(_replay, args)
    failure_count = sum(p.failure_count for p in parts)
    witnesses = [w for p in parts for w in p.witnesses][:_WITNESS_CAP]
    measured = parts[0].measured
    stages = sum((p.stages for p in parts), Counter())
    return RunResult(ok=failure_count == 0, measured=measured, configurations=n,
                     per_user=None, failure_count=failure_count,
                     failures=tuple(witnesses), elapsed=time.perf_counter() - t0,
                     stage_counts=tuple(sorted(stages.items())))
