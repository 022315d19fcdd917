"""The benchmark's workloads: definitions, construction and output checks.

Each workload is plain data (so it can be written next to every result)
plus a builder that turns it into rsplfr objects.  The workload seed
reaches the program only as ``SystemParams(seed=...)``.  Library
functions are looked up through their modules at call time, so the
tracer's wrappers see every call the workload makes.
"""

from __future__ import annotations

from math import comb
from pathlib import Path

import rsplfr
import rsplfr.audit
import rsplfr.pda
import rsplfr.protocol
import rsplfr.sim

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "toy_sweep": {
        "params": {"N": 4, "K": 3, "H": 6, "A": 1, "I": 1, "J": 5, "q": 7, "B": 6},
        "man_pda": [3, 1],
        "sweep": {"j_subsets": True, "adversary_sizes": [0, 1], "strategy": "all",
                  "demand_samples": 50},
        "quick": {"demand_samples": 1},
    },
    "mid_sweep": {
        "params": {"N": 5, "K": 6, "H": 12, "A": 2, "I": 2, "J": 10, "q": 13, "B": 60},
        "man_pda": [6, 2],
        # one strategy keeps a pass near 2 s, so a run holds enough passes
        # for a steady median; the decoder's work does not depend on it
        "sweep": {"delivery": list(range(1, 11)), "adversary_sizes": [0, 1, 2],
                  "strategy": "uniform_random", "demand_samples": 1},
        "quick": {"adversary_sizes": [0, 1]},
    },
    "audit_micro": {
        "config": "configs/micro_audit.json",
        # honest outcome counts of server-security, signal-security, demand-privacy
        "honest_outcomes": [1458, 59049, 59049],
        # the audit each mutation must break (criterion 4)
        "mutations": {"zero-noise": "server-security",
                      "key-removal": "signal-security",
                      "zero-pad": "demand-privacy"},
    },
}


def definition(name: str, quick: bool) -> dict:
    """The workload's data with the quick-mode overrides applied."""
    spec = dict(WORKLOADS[name])
    overrides = spec.pop("quick", None)
    if quick and overrides:
        spec["sweep"] = dict(spec["sweep"], **overrides)
    spec["quick"] = quick
    return spec


class Pass:
    """Outcome of one pass: checked operations, failed ones, failed checks."""

    def __init__(self, attempted: int, failed_ops: int, failed_checks: list[str]):
        self.attempted = attempted
        self.failed_checks = failed_checks
        self.failed = failed_ops + len(failed_checks)


class SweepWorkload:
    def __init__(self, spec: dict, seed: int):
        sw = spec["sweep"]
        every = sw["strategy"] == "all"
        self.params = rsplfr.protocol.SystemParams(**spec["params"], seed=seed)
        self.pda = rsplfr.pda.man_pda(*spec["man_pda"])
        self.scenario = rsplfr.sim.Scenario(
            params=self.params, pda=self.pda,
            demand_samples=sw["demand_samples"],
            delivery=tuple(sw["delivery"]) if "delivery" in sw else None,
            sweep_j_subsets=sw.get("j_subsets", False),
            sweep_adversary_subsets=True,
            adversary_sizes=tuple(sw["adversary_sizes"]),
            sweep_strategies=every,
            strategy=(rsplfr.protocol.UniformRandom() if every
                      else rsplfr.protocol.STRATEGY_NAMES[sw["strategy"]]()),
            check_recovery=True)
        p = spec["params"]
        # expected counts come from the definition, not from the program
        deliveries = comb(p["H"], p["J"]) if sw.get("j_subsets") else 1
        adversary_sets = sum(comb(p["H"], a) for a in sw["adversary_sizes"])
        strategies = len(rsplfr.protocol.ALL_STRATEGIES) if every else 1
        self.configs = deliveries * adversary_sets * strategies
        # every user decode and every library recovery is checked
        self.ops = self.configs * (sw["demand_samples"] * p["K"] + 1)
        self.expected_triple = rsplfr.msc_from_pda(self.pda, self.params)

    def run_pass(self) -> Pass:
        result = rsplfr.sim.sweep(self.scenario, jobs=1)
        checks = []
        if not result.ok:
            checks.append(f"sweep not ok: {result.failures[:3]}")
        if result.configurations != self.configs:
            checks.append(f"{result.configurations} configurations, expected {self.configs}")
        if result.measured != self.expected_triple:
            checks.append(f"measured {result.measured}, expected {self.expected_triple}")
        return Pass(self.ops, result.failure_count, checks)


class AuditWorkload:
    def __init__(self, spec: dict, seed: int):
        params, self.pda = rsplfr.protocol.load_config(ROOT / spec["config"])
        self.params = rsplfr.protocol.with_seed(params, seed)
        self.honest_outcomes = spec["honest_outcomes"]
        self.mutations = spec["mutations"]

    def run_pass(self) -> Pass:
        audit = rsplfr.audit
        checks = []
        honest = audit.run_audits(self.params, self.pda)
        reports = list(honest)
        leakage, replay = honest[:3], honest[3:]
        for r in leakage:
            if not r.satisfied or r.mi_bits != 0.0:
                checks.append(f"honest {r.line()}")
        for r in replay:
            if not r.satisfied:
                checks.append(f"honest {r.line()}")
        outcomes = [r.outcomes for r in leakage]
        if outcomes != self.honest_outcomes:
            checks.append(f"honest outcomes {outcomes}, expected {self.honest_outcomes}")
        for mutation, target in self.mutations.items():
            mutated = audit.run_audits(self.params, self.pda, (mutation,),
                                       robustness=False)
            reports.extend(mutated)
            hit = [r for r in mutated if r.constraint == target]
            if len(hit) != 1 or hit[0].satisfied or not hit[0].mi_bits > 0.0:
                checks.append(f"{mutation} does not break {target}")
        return Pass(sum(r.outcomes for r in reports), 0, checks)


def build(name: str, seed: int, quick: bool = False):
    spec = definition(name, quick)
    if "sweep" in spec:
        return SweepWorkload(spec, seed)
    return AuditWorkload(spec, seed)
