"""Seeded scenario runs and exhaustive sweeps."""

import hashlib
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import pytest

from rsplfr.analysis import msc_from_pda
from rsplfr.pda import man_pda
from rsplfr.protocol import (ALL_STRATEGIES, ConfigError, HonestPlusConstant, ServerStore,
                             SystemParams, UniformRandom, adversary_column, read_config,
                             server_signal, strategy_key)
from rsplfr.sim import Scenario, ScenarioError, run, sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TOY = SystemParams(N=4, K=3, H=6, A=1, I=1, J=5, q=7, B=6)
TOY_PDA = man_pda(3, 1)
ROBUST = SystemParams(N=2, K=2, H=5, A=1, I=1, J=4, q=11, B=2)
ROBUST_PDA = man_pda(2, 1)


def toy_scenario(**kwargs):
    return Scenario(params=TOY, pda=TOY_PDA, **kwargs)


def test_single_run_with_unit_demands():
    demands = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    result = run(toy_scenario(demands=demands))
    assert result.ok
    assert result.per_user == (True, True, True)
    assert result.configurations == 1
    assert result.failure_count == 0


def test_measured_triple_matches_the_array_formulas():
    result = run(toy_scenario())
    assert result.measured == msc_from_pda(TOY_PDA, TOY)
    assert result.measured.M == Fraction(2)
    assert result.measured.subpacketization == 6


def test_runs_are_deterministic():
    a = run(toy_scenario(), collect_trace=True)
    b = run(toy_scenario(), collect_trace=True)
    assert a.trace == b.trace
    assert (a.ok, a.per_user, a.measured) == (b.ok, b.per_user, b.measured)


def test_seed_changes_the_sampled_world():
    import dataclasses
    a = run(toy_scenario(), collect_trace=True)
    other = dataclasses.replace(TOY, seed=99)
    b = run(Scenario(params=other, pda=TOY_PDA), collect_trace=True)
    assert a.trace["library"] != b.trace["library"]
    assert b.ok


def test_trace_contains_the_full_transcript():
    result = run(toy_scenario(), collect_trace=True)
    t = result.trace
    assert set(t) == {"library", "blends", "demands", "queries", "stores",
                      "signals", "decoded"}
    assert len(t["library"]) == 4
    assert len(t["signals"]) == 5
    assert all(sig["honest"] for sig in t["signals"])


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=strategy_key)
def test_transcript_of_a_run_with_an_adversary(strategy):
    # server 2 corrupts its honest answer with the generator of
    # configuration 0, server 2; every other server answers the traced
    # queries from its traced store
    sc = toy_scenario(adversaries=(2,), strategy=strategy)
    result = run(sc, collect_trace=True)
    assert result.ok
    t = result.trace
    queries = [tuple(qr) for qr in t["queries"]]
    assert [sig["h"] for sig in t["signals"]] == [1, 2, 3, 4, 5]
    for sig, st in zip(t["signals"], t["stores"]):
        assert sig["honest"] == (sig["h"] != 2)
        store = ServerStore(st["h"], tuple(chain.from_iterable(st["coded_subfiles"])),
                            tuple(chain.from_iterable(st["coded_keys"])))
        honest = list(server_signal(TOY, TOY_PDA, store, queries))
        sent = list(chain.from_iterable(sig["payload"]))
        if sig["h"] == 2:
            key = f"{sc.seed}:adv:0:2:{strategy_key(strategy)}"
            assert sent == adversary_column(
                TOY, strategy, honest, 1,
                random.Random(key) if strategy.draws else None) != honest
        else:
            assert sent == honest


def test_full_sweep_covers_every_configuration():
    sc = toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                      sweep_strategies=True, demand_samples=2)
    result = sweep(sc)
    assert result.ok
    # 6 delivery subsets x (1 empty + 6 single adversary sets) x 4 strategies
    assert result.configurations == 168
    assert result.failure_count == 0
    assert result.per_user is None
    assert result.measured == msc_from_pda(TOY_PDA, TOY)


def packing_the_replay(monkeypatch):
    """A list that is not empty while ``sim``'s packed storage, column or side helper runs.

    Those helpers pack and unpack their own slots before the replay
    decodes anything; tests of the decoder's packing skip their calls.
    """
    import rsplfr.sim
    running = []
    for name in ("build_storage", "_server_columns", "_cache_sides"):
        def wrapped(*args, helper=getattr(rsplfr.sim, name)):
            running.append(helper)
            try:
                return helper(*args)
            finally:
                running.pop()
        monkeypatch.setattr(rsplfr.sim, name, wrapped)
    return running


def shift_slice_0_of_stream_1(monkeypatch):
    """Slice 0 of stream 1 of every delivery one too high in every honest column."""
    import rsplfr.sim
    original = rsplfr.sim._server_columns

    def shifted(params, arr, stores, queries_list):
        columns = original(params, arr, stores, queries_list)
        size = arr.S * params.B // (params.L * arr.F)  # words per delivery
        for column in columns:
            column[::size] = [(v + 1) % params.q for v in column[::size]]
        return columns

    monkeypatch.setattr(rsplfr.sim, "_server_columns", shifted)


@pytest.mark.parametrize("q, paths", [
    (257, {(5, "byte copy"), (5, "to_bytes")}),
    (65537, {(9, "to_bytes")}),
], ids=["257", "65537"])
def test_residues_wider_than_a_byte_sweep_end_to_end(monkeypatch, q, paths):
    # at q = 257 a column packs into 5-byte slots by the byte copy unless
    # it holds a 256; at q = 65537 every column packs into 9-byte slots
    # by to_bytes; the replay's packed columns and sides are not recorded
    import dataclasses
    from rsplfr.rscode import _Slots
    original, seen = _Slots.pack, set()
    packing = packing_the_replay(monkeypatch)

    def recorded(slots, values):
        if not packing:
            seen.add((slots.size, "byte copy" if max(values, default=0) < 256 else "to_bytes"))
        return original(slots, values)

    monkeypatch.setattr(_Slots, "pack", recorded)
    params = dataclasses.replace(TOY, q=q)
    result = sweep(Scenario(params=params, pda=TOY_PDA, sweep_j_subsets=True,
                            sweep_adversary_subsets=True, adversary_sizes=(0, 1),
                            sweep_strategies=True, demand_samples=2, check_recovery=True))
    assert result.ok and result.failure_count == 0 and result.configurations == 168
    assert result.measured == msc_from_pda(TOY_PDA, params)
    assert seen == paths


def test_parallel_sweep_equals_serial():
    sc = toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                      sweep_strategies=True, demand_samples=1,
                      check_recovery=True)
    serial = sweep(sc, jobs=1)
    parallel = sweep(sc, jobs=2)
    assert (serial.ok, serial.configurations, serial.failure_count,
            serial.measured, serial.stage_counts) == \
        (parallel.ok, parallel.configurations, parallel.failure_count,
         parallel.measured, parallel.stage_counts)


def test_a_sweep_starts_at_most_one_worker_per_cpu(monkeypatch):
    # the pool is a fake that records its size and runs every slice in
    # this process, so no worker is started
    import multiprocessing
    sizes = []

    class Pool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, replay, args):
            return [replay(*a) for a in args]

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    sc = toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                      sweep_strategies=True, adversary_sizes=(2,))
    serial = sweep(sc)
    for cpus in (3, None, 1):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        wide = sweep(sc, jobs=100_000)
        assert sizes == [3]  # only 3 CPUs start a pool, of 3 workers
        assert (wide.configurations, wide.failure_count, wide.failures,
                wide.stage_counts) == (serial.configurations, serial.failure_count,
                                       serial.failures, serial.stage_counts)


def test_adversary_outside_the_delivery_set_is_harmless():
    result = run(toy_scenario(delivery=(1, 2, 3, 4, 5), adversaries=(6,),
                              strategy=HonestPlusConstant(5)))
    assert result.ok


def test_recovery_check_catches_excess_corruption():
    sc = Scenario(params=ROBUST, pda=ROBUST_PDA, delivery=(1, 2, 3, 4),
                  adversaries=(1, 2), strategy=HonestPlusConstant(1),
                  adversary_sizes=(2,), check_recovery=True)
    result = run(sc)
    assert not result.ok
    assert result.per_user == (False, False)
    stages = dict(result.stage_counts)
    assert stages["decode"] == 2
    assert stages["recover"] == 1


def test_adversary_budget_enforced_unless_waived():
    sc = toy_scenario(adversaries=(1, 2), strategy=HonestPlusConstant(1))
    with pytest.raises(ScenarioError):
        run(sc)
    sc.adversary_sizes = (2,)
    result = run(sc)  # two corruptions, radius one: must fail, not crash
    assert not result.ok


def test_scenario_shape_errors():
    with pytest.raises(ScenarioError):
        run(toy_scenario(delivery=(1, 2, 3)))
    with pytest.raises(ScenarioError):
        run(toy_scenario(delivery=(1, 2, 3, 4, 9)))
    with pytest.raises(ScenarioError):
        run(toy_scenario(demands=((1, 0, 0, 0),)))
    with pytest.raises(ScenarioError):
        run(toy_scenario(adversaries=(0,), adversary_sizes=(1,)))


def test_demand_samples_below_one_rejected():
    for samples in (0, -1):
        with pytest.raises(ScenarioError):
            run(toy_scenario(demand_samples=samples))
        with pytest.raises(ScenarioError):
            sweep(toy_scenario(demand_samples=samples))


def test_run_is_the_sweep_of_its_one_configuration():
    # (6,) lies outside the delivery 1..5: an honest group of one member
    import dataclasses
    for adversaries in ((), (2,), (1, 2), (6,)):
        sc = toy_scenario(adversaries=adversaries, strategy=HonestPlusConstant(1),
                          demand_samples=3, adversary_sizes=(len(adversaries),),
                          check_recovery=True)
        single = run(sc)
        swept = sweep(dataclasses.replace(sc, demand_samples=1))
        assert (single.ok, single.failure_count, single.stage_counts,
                single.measured, single.failures) == \
            (swept.ok, swept.failure_count, swept.stage_counts, swept.measured,
             swept.failures)


def test_an_honest_group_keeps_each_members_own_witnesses(monkeypatch):
    # slice 0 of stream 1 is one too high on every server, so users 1 and
    # 2 are wrong in every delivery; the configurations with no adversary
    # among their J servers share one decoded batch per J-subset, and each
    # keeps the witnesses of its own run
    import dataclasses

    import rsplfr.sim
    shift_slice_0_of_stream_1(monkeypatch)
    monkeypatch.setattr(rsplfr.sim, "_WITNESS_CAP", 10 ** 9)
    sc = toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                      sweep_strategies=True, check_recovery=True)
    swept = sweep(sc)
    honest = [(js, adv, strategy) for js, adv, strategy in rsplfr.sim._config_list(sc)
              if not set(adv) & set(js)]
    assert len(honest) == 6 * 2 * len(ALL_STRATEGIES)
    for js, adv, strategy in honest:
        single = run(dataclasses.replace(sc, delivery=js, adversaries=adv, strategy=strategy))
        assert single.failure_count == 2
        assert list(single.failures) == [
            w for w in swept.failures
            if (w["j_subset"], w["adversaries"], w["strategy"]) ==
            (js, adv, strategy_key(strategy))]


MID = SystemParams(N=5, K=6, H=12, A=2, I=2, J=10, q=13, B=60)
MID_PDA = man_pda(6, 2)


def test_each_group_is_one_kernel_call(monkeypatch):
    # one call of the packed decoder for the honest check, its deliveries
    # and stored contents together, then one per group of configurations
    # with the same J servers and adversaries among them; the batch of a
    # group with no adversary among its J servers holds one member's words
    import rsplfr.rscode
    original = rsplfr.rscode._decode_packed
    words = []

    def counted(points, positions, dimension, max_errors, columns, count, rows=None):
        words.append(count)
        return original(points, positions, dimension, max_errors, columns, count, rows)

    monkeypatch.setattr(rsplfr.rscode, "_decode_packed", counted)
    D = 2
    toy = sweep(toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                             sweep_strategies=True, demand_samples=D, check_recovery=True))
    assert toy.ok and toy.configurations == 168
    # a member: D deliveries of S*pkt stream words, then one set of N*B/L store words
    streamed = D * TOY_PDA.S * TOY.B // (TOY.L * TOY_PDA.F)
    member = streamed + TOY.N * TOY.B // TOY.L
    # per J-subset: one honest group (no adversary, or the one server left
    # out, with each strategy) and 5 single-adversary groups of 4 members
    assert Counter(words) == {member: 1 + 6, 4 * member: 6 * 5}
    assert len(words) == 37

    words.clear()
    mid = sweep(Scenario(params=MID, pda=MID_PDA, delivery=tuple(range(1, 11)),
                         sweep_adversary_subsets=True, adversary_sizes=(0, 1, 2),
                         strategy=UniformRandom(), check_recovery=True))
    assert mid.ok and mid.configurations == 79
    streamed = MID_PDA.S * MID.B // (MID.L * MID_PDA.F)
    member = streamed + MID.N * MID.B // MID.L
    # the honest group holds 4 configurations (no adversary, 11, 12, both),
    # each single adversary inside 3 (alone, with 11, with 12), each pair inside 1
    assert Counter(words) == {member: 1 + 1 + 45, 3 * member: 10}
    assert len(words) == 57


def test_each_honest_run_is_packed_once_per_replay(monkeypatch):
    # a replay packs each server's honest deliveries, and with recovery
    # checked its coded subfiles, once, and repeats them packed in every
    # group; per group only the adversary's column, then its contents, is
    # packed: on toy 30 groups hold one adversary, of 4 members each
    import rsplfr.rscode
    import rsplfr.sim
    packed, columns, stores = [], [], []
    packing = packing_the_replay(monkeypatch)
    pack, answer, build = (rsplfr.rscode._Slots.pack_mod, rsplfr.sim._server_columns,
                           rsplfr.sim.build_storage)

    def recorded(slots, values, masks):
        if not packing:
            packed.append(tuple(values))
        return pack(slots, values, masks)

    monkeypatch.setattr(rsplfr.rscode._Slots, "pack_mod", recorded)
    monkeypatch.setattr(rsplfr.sim, "_server_columns",
                        lambda *args: columns.extend(answer(*args)) or columns[-TOY.H:])
    monkeypatch.setattr(rsplfr.sim, "build_storage",
                        lambda *args: stores.extend(build(*args)) or stores[-TOY.H:])
    D = 2
    streamed = D * TOY_PDA.S * TOY.B // (TOY.L * TOY_PDA.F)
    for recovery, stored in ((False, 0), (True, TOY.N * TOY.B // TOY.L)):
        for found in (packed, columns, stores):
            found.clear()
        assert sweep(toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                                  sweep_strategies=True, demand_samples=D,
                                  check_recovery=recovery)).ok
        honest = [tuple(column) for column in columns]
        if recovery:
            honest += [st.coded_subfiles for st in stores]
        assert len(honest) == TOY.H * (1 + recovery)
        assert sorted(p for p in packed if p in honest) == sorted(honest)
        assert Counter(len(p) for p in packed if p not in honest) == {
            4 * (streamed + stored): 30}


def test_right_groups_are_judged_on_their_packed_rows(monkeypatch):
    # within the budget every group is right: past the honest check, no
    # decoded row is unpacked and no library is built.  The honest check's
    # users read their slots packed, so it unpacks only the L data rows of
    # its one library, which it compares with the sampled library; with
    # recovery unchecked no decoded row of the whole sweep is unpacked; the
    # replay's packed columns and sides are not recorded
    import dataclasses

    import rsplfr.protocol
    import rsplfr.rscode
    import rsplfr.sim
    events = []
    group, unpack = rsplfr.sim._decode_packed_group, rsplfr.rscode._Slots.unpack
    init = rsplfr.protocol.Library.__init__
    packing = packing_the_replay(monkeypatch)

    def unpacked(slots, *args):
        if not packing:
            events.append("unpack")
        return unpack(slots, *args)

    monkeypatch.setattr(rsplfr.sim, "_decode_packed_group",
                        lambda *args: events.append("decode") or group(*args))
    monkeypatch.setattr(rsplfr.rscode._Slots, "unpack", unpacked)
    monkeypatch.setattr(rsplfr.protocol.Library, "__init__",
                        lambda library, *args: events.append("library") or init(library, *args))
    toy = toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                       sweep_strategies=True, demand_samples=2, check_recovery=True)
    mid = Scenario(params=MID, pda=MID_PDA, delivery=tuple(range(1, 11)),
                   sweep_adversary_subsets=True, adversary_sizes=(0, 1, 2),
                   strategy=UniformRandom(), check_recovery=True)
    for sc, kernels, L in ((toy, 37, TOY.L), (mid, 57, MID.L)):
        events.clear()
        sc.params = dataclasses.replace(sc.params, seed=31)
        assert sweep(sc).ok
        decodes = [i for i, event in enumerate(events) if event == "decode"]
        assert len(decodes) == kernels
        assert Counter(events[decodes[0]:decodes[1]]) == {"decode": 1, "unpack": L,
                                                          "library": 1}
        assert set(events[decodes[1]:]) == {"decode"}
        events.clear()
        assert sweep(dataclasses.replace(sc, check_recovery=False)).ok
        # the one library is the sampled one, built before any decode
        assert Counter(events) == {"library": 1, "decode": kernels}
        assert events[0] == "library"


def test_streams_are_decoded_once_per_delivery(monkeypatch):
    # the error locator runs only where a word is no codeword and the
    # support located earlier for the same configuration does not
    # explain it: one adversary is located once for all its deliveries,
    # and once for the library recovery
    import rsplfr.rscode
    original = rsplfr.rscode._locate
    calls = []
    monkeypatch.setattr(rsplfr.rscode, "_locate",
                        lambda *args: calls.append(args) or original(*args))
    honest = toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                          sweep_strategies=True, adversary_sizes=(0,),
                          demand_samples=3, check_recovery=True)
    assert sweep(honest).ok
    assert calls == []

    single = toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                          sweep_strategies=True, adversary_sizes=(1,),
                          demand_samples=3, check_recovery=True)
    result = sweep(single)
    assert result.ok
    assert 0 < len(calls) <= 2 * result.configurations


def test_cache_sides_are_built_once_per_demand_and_user(monkeypatch):
    # one packed call per user and replay builds the user's side of every demand
    import rsplfr.sim
    original = rsplfr.sim._cache_sides
    calls = []
    monkeypatch.setattr(rsplfr.sim, "_cache_sides",
                        lambda *args: calls.append(args) or original(*args))
    sc = toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                      sweep_strategies=True, demand_samples=3)
    result = sweep(sc)
    assert result.ok and result.configurations == 168
    assert len(calls) == TOY.K
    assert [len(demands) for _, _, _, demands, _ in calls] == [3] * TOY.K


def test_a_failed_query_echo_fails_only_that_users_decodes(monkeypatch):
    # user 1's query disagrees with its demand + blend; the servers answer
    # the queries as sent, so users 2 and 3 still decode
    import rsplfr.sim
    original = rsplfr.sim.make_query
    made = []

    def shifted(params, d_k, p_k):
        query = original(params, d_k, p_k)
        made.append(query)
        if len(made) % params.K == 1:  # queries are made for users 1..K in turn
            return ((query[0] + 1) % params.q,) + query[1:]
        return query

    monkeypatch.setattr(rsplfr.sim, "make_query", shifted)
    result = run(toy_scenario(adversaries=(2,), strategy=HonestPlusConstant(1)))
    assert result.per_user == (False, True, True)
    assert dict(result.stage_counts) == {"decode": 1}
    assert result.failures[0]["error"] == "query of user 1 does not match demand + blend"
    swept = sweep(toy_scenario(sweep_j_subsets=True, demand_samples=2))
    assert swept.failure_count == 6 * 2
    assert {w["user"] for w in swept.failures} == {1}


def test_sweep_size_cap():
    sc = toy_scenario(sweep_j_subsets=True, sweep_strategies=True,
                      max_configs=10)
    with pytest.raises(ScenarioError):
        sweep(sc)


def test_adversary_size_override_controls_the_sweep():
    sc = Scenario(params=ROBUST, pda=ROBUST_PDA, sweep_j_subsets=True,
                  sweep_adversary_subsets=True, sweep_strategies=True,
                  adversary_sizes=(1,), check_recovery=True)
    result = sweep(sc)
    assert result.ok
    assert result.configurations == 5 * 5 * 4

    harder = Scenario(params=ROBUST, pda=ROBUST_PDA, sweep_j_subsets=True,
                      sweep_adversary_subsets=True, adversary_sizes=(2,),
                      strategy=HonestPlusConstant(1))
    over = sweep(harder)
    assert not over.ok
    assert over.configurations == 5 * 10


def test_scenario_from_json_round_trip():
    doc = {
        "params": {"N": 4, "K": 3, "H": 6, "A": 1, "I": 1, "J": 5,
                   "q": 7, "B": 6, "pda": {"man": {"k": 3, "t": 1}}},
        "demands": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        "delivery": [1, 2, 3, 4, 5],
        "adversaries": [3],
        "strategy": {"name": "honest_plus_constant", "constant": 2},
        "library": "zeros",
    }
    sc = Scenario.from_json(doc)
    assert sc.params == TOY
    assert sc.demands == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert sc.adversaries == (3,)
    assert sc.strategy == HonestPlusConstant(2)
    assert sc.library_mode == "zeros"
    result = run(sc)
    assert result.ok  # zero library decodes to zeros under any demand


def test_scenario_from_json_sweep_and_samples():
    doc = {
        "params": {"N": 4, "K": 3, "H": 6, "A": 1, "I": 1, "J": 5,
                   "q": 7, "B": 6, "pda": {"man": {"k": 3, "t": 1}}},
        "demands": {"samples": 4},
        "sweep": {"j_subsets": True, "adversary_subsets": True,
                  "strategies": True, "check_recovery": True},
    }
    sc = Scenario.from_json(doc)
    assert sc.demand_samples == 4
    assert sc.sweep_strategies and sc.check_recovery
    assert sweep(sc).ok


def test_scenario_from_json_rejects_bad_fields():
    base = {"params": {"N": 4, "K": 3, "H": 6, "A": 1, "I": 1, "J": 5,
                       "q": 7, "B": 6, "pda": {"man": {"k": 3, "t": 1}}}}
    with pytest.raises(ConfigError):
        Scenario.from_json(dict(base, bogus=1))
    with pytest.raises(ConfigError):
        Scenario.from_json(dict(base, strategy="no_such_strategy"))
    with pytest.raises(ConfigError):
        Scenario.from_json(dict(base, strategy={"name": "zero_payload",
                                                "constant": 1}))
    with pytest.raises(ConfigError):
        Scenario.from_json(dict(base, library="sparse"))
    with pytest.raises(ConfigError):
        Scenario.from_json(dict(base, sweep={"unknown": True}))
    with pytest.raises(ConfigError):
        Scenario.from_json({"params": dict(base["params"], pda=None)})


def test_uniform_adversary_rng_is_scenario_seeded():
    sc = toy_scenario(adversaries=(2,), strategy=UniformRandom())
    a = run(sc, collect_trace=True)
    b = run(sc, collect_trace=True)
    assert a.trace == b.trace
    assert a.ok and b.ok


def test_only_strategies_that_draw_get_a_generator(monkeypatch):
    # a drawing strategy gets one random.Random per adversarial
    # (configuration, server), which corrupts its store and then its
    # column; the others get None
    import rsplfr.sim
    calls, generators = Counter(), {}
    column, content = rsplfr.sim.adversary_column, rsplfr.sim.adversary_content

    def record(strategy, rng):
        calls[strategy.label, type(rng).__name__] += 1
        assert (rng is None) != strategy.draws
        if rng is not None:
            generators[id(rng)] = rng  # kept, so no two share an id

    def recording_column(params, strategy, honest, runs, rng):
        assert runs == 2  # one run per demand
        record(strategy, rng)
        return column(params, strategy, honest, runs, rng)

    def recording_content(params, strategy, store, rng):
        record(strategy, rng)
        return content(params, strategy, store, rng)

    monkeypatch.setattr(rsplfr.sim, "adversary_column", recording_column)
    monkeypatch.setattr(rsplfr.sim, "adversary_content", recording_content)
    assert sweep(toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                              sweep_strategies=True, demand_samples=2,
                              check_recovery=True)).ok
    # 30 configurations with one adversary per strategy: one column and
    # one store each, and one generator for both where the strategy draws
    assert calls == {(label, rng): 60 for label, rng in (
        ("uniform_random", "Random"), ("zero_payload", "NoneType"),
        ("honest_plus_constant", "NoneType"), ("honest_permuted_slices", "NoneType"))}
    assert len(generators) == 30


def beyond_budget_scenario():
    # two adversaries against a radius of one
    return toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                        sweep_strategies=True, adversary_sizes=(2,), demand_samples=3,
                        check_recovery=True)


def beyond_budget_sweep(monkeypatch, jobs=1):
    # every witness kept
    import rsplfr.sim
    monkeypatch.setattr(rsplfr.sim, "_WITNESS_CAP", 10 ** 9)
    return sweep(beyond_budget_scenario(), jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_outcomes_beyond_the_budget_are_pinned(monkeypatch, jobs):
    result = beyond_budget_sweep(monkeypatch, jobs)
    assert result.configurations == 360
    assert result.failure_count == 2247
    assert result.stage_counts == (("decode", 2007), ("recover", 240))
    assert len(result.failures) == result.failure_count
    digest = hashlib.sha256(repr((result.ok, result.failure_count, result.stage_counts,
                                  result.measured, result.failures)).encode()).hexdigest()
    assert digest == "726ae9955d7ff7f8fa488bb9a817432ad81b9b95e7c3ff32bfaecf7b0ba0a8f3"


def test_corrupted_contents_do_not_depend_on_the_demand_samples(monkeypatch):
    # an adversary's generator corrupts its stored contents before its
    # deliveries, so recovery beyond the budget fails alike at any number
    # of demand samples
    import rsplfr.sim
    monkeypatch.setattr(rsplfr.sim, "_WITNESS_CAP", 10 ** 9)
    recovered = []
    for samples in (1, 3):
        result = sweep(toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                                    adversary_sizes=(2,), strategy=UniformRandom(),
                                    demand_samples=samples, check_recovery=True))
        recovered.append([w for w in result.failures if w["stage"] == "recover"])
    assert len(recovered[0]) == 60
    assert recovered[0] == recovered[1]


def test_grouped_configurations_record_what_each_records_alone(monkeypatch):
    # a replay decodes the configurations that corrupt the same servers
    # in one batch; each must record what a replay of it alone records
    import rsplfr.sim
    result = beyond_budget_sweep(monkeypatch)
    sc = beyond_budget_scenario()
    failures, stages = [], Counter()
    demand_list = rsplfr.sim._demand_list(sc)
    for i, config in enumerate(rsplfr.sim._config_list(sc)):
        rep = rsplfr.sim._replay(sc, [config], i, demand_list)
        assert rep.measured == result.measured
        failures.extend(rep.witnesses)
        stages.update(rep.stages)
    assert tuple(failures) == result.failures
    assert tuple(sorted(stages.items())) == result.stage_counts


@pytest.mark.parametrize("scenario", [
    lambda: toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                         sweep_strategies=True, adversary_sizes=(0, 1), demand_samples=2),
    beyond_budget_scenario,
    lambda: Scenario.from_json(read_config(CONFIGS / "robust_sweep.json")),
], ids=["toy", "toy_beyond_budget", "robust_sweep"])
def test_sweeps_report_what_a_step_by_step_replay_reports(monkeypatch, scenario):
    # the oracle decodes each delivery of each configuration alone, with
    # no group, reference or packed comparison
    import rsplfr.sim
    from oracles import replay
    monkeypatch.setattr(rsplfr.sim, "_WITNESS_CAP", 10 ** 9)
    sc = scenario()
    witnesses, stage_counts = replay(sc)
    result = sweep(sc)
    assert list(result.failures) == witnesses
    assert result.failure_count == len(witnesses)
    assert result.stage_counts == stage_counts


def count_user_decodes(monkeypatch):
    import rsplfr.sim
    original = rsplfr.sim.user_decode
    calls = []
    monkeypatch.setattr(rsplfr.sim, "user_decode",
                        lambda *args: calls.append(args) or original(*args))
    return calls


def test_users_are_decoded_one_by_one_only_in_failing_deliveries(monkeypatch):
    calls = count_user_decodes(monkeypatch)
    for sizes in ((0,), (0, 1)):
        result = sweep(toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                                    sweep_strategies=True, adversary_sizes=sizes,
                                    demand_samples=3, check_recovery=True))
        assert result.ok
    # only the honest check of each sweep's replay: K users x 3 demands
    assert len(calls) == 2 * TOY.K * 3
    calls.clear()

    result = beyond_budget_sweep(monkeypatch)
    decodes = [w for w in result.failures if w["stage"] == "decode"]
    failing = {(w["j_subset"], w["adversaries"], w["strategy"], w["demand_index"])
               for w in decodes}
    assert len(failing) == 693
    # a user who reads a failed word takes its text from the batch and is
    # not decoded, so no call raises; the others of each delivery are
    detected = sum(w["error"] != "wrong output" for w in decodes)
    assert detected == 1102
    assert len(calls) == TOY.K * (len(failing) + 3) - detected


@pytest.mark.parametrize("row", ["stream", "star"])
@pytest.mark.parametrize("user", [1, 2, 3])
def test_a_cache_side_off_by_one_fails_only_that_users_decodes(monkeypatch, user, row):
    # one user's side is off by one at one position, on a stream row it
    # shares with another user or on its star row: no decoded data makes
    # it right, so each of its decodes is a wrong output, and the other
    # users still decode right
    import dataclasses

    import rsplfr.sim
    original = rsplfr.sim._cache_sides

    def off_by_one(params, arr, cache, demands, queries_list):
        sides = original(params, arr, cache, demands, queries_list)
        if cache.k != user:
            return sides
        pkt = params.B // (params.L * arr.F)
        rows = {b // pkt for _, b in sides[0].reads}
        j = min(rows) if row == "stream" else min(set(range(arr.F)) - rows)
        b = j * pkt
        shifted = []
        for side in sides:
            values = list(side.values)
            values[b] = (values[b] + 1) % params.q
            shifted.append(dataclasses.replace(side, values=tuple(values)))
        return shifted

    monkeypatch.setattr(rsplfr.sim, "_cache_sides", off_by_one)
    calls = count_user_decodes(monkeypatch)
    single = run(toy_scenario(adversaries=(2,), strategy=UniformRandom()))
    assert single.per_user == tuple(k != user for k in (1, 2, 3))
    assert single.failures[0]["error"] == "wrong output"
    swept = sweep(toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                               sweep_strategies=True, demand_samples=2))
    assert swept.configurations == 168
    assert swept.failure_count == 168 * 2
    assert swept.stage_counts == (("decode", 168 * 2),)
    assert {(w["user"], w["error"]) for w in swept.failures} == {(user, "wrong output")}
    # each replay's honest check fails too: every delivery decodes per user
    assert len(calls) == TOY.K * (1 + 168 * 2 + 1 + 2)


def test_a_server_side_bug_on_every_server_fails_the_users_of_its_stream(monkeypatch):
    # slice 0 of stream 1 is one too high on every server: the answers
    # are still codewords and decode, to wrong data, so the honest
    # delivery is no reference and users 1 and 2, who receive stream 1,
    # are wrong in every delivery
    import rsplfr.sim
    shift_slice_0_of_stream_1(monkeypatch)
    monkeypatch.setattr(rsplfr.sim, "_WITNESS_CAP", 10 ** 9)
    single = run(toy_scenario(adversaries=(2,), strategy=UniformRandom()))
    assert single.per_user == (False, False, True)
    swept = sweep(toy_scenario(sweep_j_subsets=True, sweep_adversary_subsets=True,
                               sweep_strategies=True, demand_samples=2))
    assert swept.configurations == 168
    assert swept.stage_counts == (("decode", 672),)
    assert Counter((w["user"], w["error"]) for w in swept.failures) == {
        (1, "wrong output"): 336, (2, "wrong output"): 336}
