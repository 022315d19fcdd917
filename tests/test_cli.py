"""End-to-end command line checks through main(argv)."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rsplfr import analysis, cli, pda as pda_mod
from rsplfr.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

K4_T2_TEXT = (
    "* * 1 2\n"
    "* 1 * 3\n"
    "* 2 3 *\n"
    "1 * * 4\n"
    "2 * 4 *\n"
    "3 4 * *\n"
)

TOY_PARAMS = {"N": 4, "K": 3, "H": 6, "A": 1, "I": 1, "J": 5, "q": 7, "B": 6,
              "pda": {"man": {"k": 3, "t": 1}}}


def toy_single_config(tmp_path, name="single.json", **extra) -> str:
    doc = {"params": dict(TOY_PARAMS), "demands": [[1, 0, 0, 0],
                                                   [0, 1, 0, 0],
                                                   [0, 0, 1, 0]]}
    doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------- pda ----------


def test_pda_man_prints_grid(capsys):
    assert main(["pda", "man", "--k", "4", "--t", "2"]) == 0
    assert capsys.readouterr().out == K4_T2_TEXT


def test_pda_man_writes_file(tmp_path, capsys):
    out = tmp_path / "grid.txt"
    assert main(["pda", "man", "--k", "4", "--t", "2", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == K4_T2_TEXT
    assert "wrote 6x4 array" in capsys.readouterr().out


def test_pda_man_rejects_bad_gain(capsys):
    assert main(["pda", "man", "--k", "2", "--t", "5"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_pda_validate_accepts_good_grid(tmp_path, capsys):
    path = tmp_path / "toy.pda"
    path.write_text("* 1 2\n1 * 3\n2 3 *\n", encoding="utf-8")
    assert main(["pda", "validate", str(path)]) == 0
    assert capsys.readouterr().out == "valid: K=3 F=3 Z=1 S=3\n"


def test_pda_validate_flags_bad_grid(tmp_path, capsys):
    path = tmp_path / "bad.pda"
    path.write_text("1 1\n", encoding="utf-8")
    assert main(["pda", "validate", str(path)]) == 1
    assert capsys.readouterr().out.startswith("invalid:")


def test_pda_validate_refuses_a_huge_symbol_on_one_short_line(tmp_path, capsys):
    path = tmp_path / "huge.pda"
    path.write_text(f"1 *\n* {10 ** 12}\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["pda", "validate", str(path)]) == 1
    assert time.perf_counter() - start < 1
    out = capsys.readouterr().out
    assert out.startswith("invalid:") and len(out) < 200 and out.count("\n") == 1
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(_with_params(pda={"grid": f"1 *\n* {10 ** 12}\n"})),
                      encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid pda:") and "missing: 2, 3," in err and len(err) < 200


def test_pda_validate_missing_file(capsys):
    assert main(["pda", "validate", "/no/such/file.pda"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------- simulate ----------


def test_simulate_single_run(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    config = toy_single_config(tmp_path)
    assert main(["simulate", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "users decoded: 3/3" in out
    assert "measured: M=2 T=5/2 R=1/2 subpacketization=6" in out
    assert out.rstrip().endswith("ok")


def test_a_failing_single_run_exits_one_with_its_witnesses(tmp_path, capsys,
                                                          monkeypatch):
    # two adversaries among the J = 4 answering servers, past the A = 1
    # that the robust instance corrects; adversary sizes allow them
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    path = tmp_path / "overload.json"
    path.write_text(json.dumps({
        "params": json.loads((CONFIGS / "robust_sweep.json").read_text(
            encoding="utf-8"))["params"],
        "adversaries": [1, 2], "sweep": {"adversary_sizes": [2]}}), encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("users decoded: ")
    decoded, total = map(int, lines[0].removeprefix("users decoded: ").split("/"))
    assert decoded < total == 2
    assert lines[1].startswith("measured: ")
    witnesses = [ast.literal_eval(line.strip()) for line in lines[2:]]
    assert len(witnesses) == total - decoded
    for w in witnesses:
        assert w["adversaries"] == (1, 2) and w["stage"] == "decode"
        assert w["demand_index"] == 0 and w["error"]


def test_simulate_writes_trace(tmp_path, monkeypatch):
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    config = toy_single_config(tmp_path)
    trace_path = tmp_path / "trace.json"
    assert main(["simulate", "--config", config, "--trace", str(trace_path)]) == 0
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    assert set(trace) == {"library", "blends", "demands", "queries",
                          "stores", "signals", "decoded"}
    assert len(trace["signals"]) == 5
    # unit demands: user k decodes file k verbatim
    for k in range(3):
        assert trace["decoded"][k] == trace["library"][k]


# transcripts of `simulate --trace` at seed 0; any change to sampling,
# encoding, corruption or decoding order shows up here
TRACE_SHA256 = {
    "toy_sweep": "914776565591423ba106697915e6f78c5c3015e0e9e026c9573a6c37ce01dbf3",
    "robust_sweep": "33c5e628a70b10da73301d5bcef13424cb4d1af879e6ec37246e5a6f10a13731",
}


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_single_run_transcript_is_pinned(name, tmp_path, monkeypatch):
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    trace_path = tmp_path / "trace.json"
    assert main(["simulate", "--config", str(CONFIGS / f"{name}.json"),
                 "--trace", str(trace_path)]) == 0
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == TRACE_SHA256[name]


def test_trace_with_sweep_is_a_usage_error(tmp_path, capsys):
    config = toy_single_config(tmp_path)
    rc = main(["simulate", "--config", config, "--sweep", "--trace", "t.json"])
    assert rc == 2
    assert "single runs" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before its output file was opened")


def test_simulate_unwritable_trace_fails_before_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.sim, "run", _must_not_run)
    rc = main(["simulate", "--config", str(CONFIGS / "toy_sweep.json"),
               "--trace", str(tmp_path / "missing" / "t.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:")


def test_audit_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.audit_mod, "run_audits", _must_not_run)
    rc = main(["audit", "--config", str(CONFIGS / "micro_audit.json"),
               "--out", str(tmp_path / "missing" / "r.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:")


def test_audit_out_is_replaced_on_success_and_kept_on_refusal(tmp_path, capsys):
    stale = "x" * 100_000
    out = tmp_path / "report.json"
    out.write_text(stale, encoding="utf-8")
    assert main(["audit", "--config", str(CONFIGS / "toy_sweep.json"),
                 "--skip-robustness", "--out", str(out)]) == 2
    assert out.read_text(encoding="utf-8") == stale
    fresh = tmp_path / "fresh.json"
    assert main(["audit", "--config", str(CONFIGS / "toy_sweep.json"),
                 "--skip-robustness", "--out", str(fresh)]) == 2
    assert not fresh.exists()
    assert main(["audit", "--config", str(CONFIGS / "micro_audit.json"),
                 "--skip-robustness", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text(encoding="utf-8"))) == 3
    capsys.readouterr()


def test_a_failed_audit_check_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    # a make_query whose last symbol is always 0 misses query vectors, so
    # the signal audit's rank check raises AuditError
    original = cli.audit_mod.make_query
    monkeypatch.setattr(cli.audit_mod, "make_query",
                        lambda *args: original(*args)[:-1] + (0,))
    out = tmp_path / "report.json"
    rc = main(["audit", "--config", str(CONFIGS / "micro_audit.json"),
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: make_query does not reach every vector")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_simulate_sweep_toy_instance(capsys, monkeypatch):
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    rc = main(["simulate", "--config", str(CONFIGS / "toy_sweep.json"),
               "--sweep"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "measured: M=2 T=5/2 R=1/2 subpacketization=6" in out
    assert "all 168 configurations passed" in out


def test_simulate_sweep_parallel_jobs(capsys, monkeypatch):
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    rc = main(["simulate", "--config", str(CONFIGS / "robust_sweep.json"),
               "--sweep", "--jobs", "2"])
    assert rc == 0
    assert "all 120 configurations passed" in capsys.readouterr().out


def test_simulate_sweep_reports_failures(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    doc = {
        "params": {"N": 2, "K": 2, "H": 5, "A": 1, "I": 1, "J": 4,
                   "q": 11, "B": 2, "pda": {"man": {"k": 2, "t": 1}}},
        "strategy": {"name": "honest_plus_constant", "constant": 1},
        "sweep": {"j_subsets": True, "adversary_subsets": True,
                  "adversary_sizes": [2]},
    }
    path = tmp_path / "overload.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--sweep"]) == 1
    out = capsys.readouterr().out
    assert "failures across 50 configurations" in out


MID_PARAMS = {"N": 5, "K": 6, "H": 12, "A": 2, "I": 2, "J": 10, "q": 13, "B": 60,
              "pda": {"man": {"k": 6, "t": 2}}}


@pytest.mark.parametrize("doc, line", [
    *(({"params": dict(TOY_PARAMS, q=q),
        "sweep": {"j_subsets": True, "adversary_subsets": True, "adversary_sizes": [2],
                  "strategies": True, "demand_samples": 2, "check_recovery": True}},
       f"{failures} failures across 360 configurations")
      for q, failures in ((7, 1541), (257, 1680), (65537, 1680))),
    ({"params": MID_PARAMS, "delivery": list(range(1, 11)),
      "sweep": {"adversary_subsets": True, "adversary_sizes": [3], "demand_samples": 1,
                "check_recovery": True}},
     "840 failures across 220 configurations"),
], ids=["toy_q7", "toy_q257", "toy_q65537", "mid"])
def test_sweeps_beyond_the_budget_print_their_failure_counts(tmp_path, capsys, monkeypatch,
                                                             doc, line):
    # two adversaries against toy's radius of one, three against mid's
    # two: each run exits 1 with its failure count, and a pool of two
    # prints what one process does, once the elapsed time is masked
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    path = tmp_path / "beyond.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for jobs in ("1", "2"):
        assert main(["simulate", "--config", str(path), "--sweep", "--jobs", jobs]) == 1
        outs.append(re.sub(r" \([0-9.]+s\)", "", capsys.readouterr().out))
        assert line in outs[-1].splitlines()
    assert outs[0] == outs[1]


def test_seed_env_overrides_config(tmp_path, monkeypatch):
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    base = toy_single_config(tmp_path, "base.json")
    seeded_doc = {"params": dict(TOY_PARAMS, seed=123)}
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(seeded_doc), encoding="utf-8")

    t_config = tmp_path / "t_config.json"
    assert main(["simulate", "--config", str(seeded),
                 "--trace", str(t_config)]) == 0
    t_plain = tmp_path / "t_plain.json"
    assert main(["simulate", "--config", base, "--trace", str(t_plain)]) == 0

    monkeypatch.setenv("RSPLFR_SEED", "123")
    t_env = tmp_path / "t_env.json"
    assert main(["simulate", "--config", base, "--trace", str(t_env)]) == 0

    by_config = json.loads(t_config.read_text(encoding="utf-8"))
    by_env = json.loads(t_env.read_text(encoding="utf-8"))
    plain = json.loads(t_plain.read_text(encoding="utf-8"))
    assert by_env["library"] == by_config["library"]
    assert by_env["library"] != plain["library"]


def test_invalid_seed_env_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RSPLFR_SEED", "three")
    config = toy_single_config(tmp_path)
    assert main(["simulate", "--config", config]) == 2
    assert "RSPLFR_SEED" in capsys.readouterr().err


# ---------- curve and bounds ----------


def test_curve_prints_csv(capsys):
    rc = main(["curve", "--config", str(CONFIGS / "tradeoff_n100_k10.json"),
               "--grid", "11"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "M,T_ach,R_ach,T_lb,R_lb,gap_T,gap_R,regime_flag"
    assert len(lines) == 12


def test_curve_writes_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(["curve", "--config", str(CONFIGS / "tradeoff_n10_k100.json"),
               "--grid", "7", "--out", str(out)])
    assert rc == 0
    assert "wrote 7 rows" in capsys.readouterr().out
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 8


def test_bounds_at_unit_memory(capsys):
    rc = main(["bounds", "--config", str(CONFIGS / "tradeoff_n100_k10.json"),
               "--m", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "storage lower bound: T >= 50/7 = 7.142857143" in out
    assert "M=1 R_lb=0.5785714286 T_ach=11 R_ach=1" in out


# the exact gap suprema, the same line whatever the memory points
GAP_LINES = {
    "tradeoff_n100_k10": "sup gap_T = 77/50 = 1.54, "
                         "sup gap_R = 28000/8181 = 3.422564479 at M=19.2",
    "tradeoff_n10_k100": "sup gap_T = 21308/8775 = 2.428262108, "
                         "sup gap_R = 18046/1755 = 10.28262108 at M=2",
}


@pytest.mark.parametrize("points", [["--m", "1"], ["--m", "2"], ["--grid", "11"]],
                         ids=["m=1", "m=2", "grid=11"])
@pytest.mark.parametrize("name", sorted(GAP_LINES))
def test_bounds_prints_the_gap_suprema_after_the_storage_bound(name, points, capsys):
    assert main(["bounds", "--config", str(CONFIGS / f"{name}.json"), *points]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("storage lower bound: ")
    assert lines[1] == GAP_LINES[name]
    assert all(line.startswith("M=") for line in lines[2:])


def test_bounds_says_when_there_is_no_load_gap(tmp_path, capsys):
    # K > N = 2: the gaps are bounded only at M = 2 = N, where R_lb = 0
    path = tmp_path / "n2_k3.json"
    path.write_text(json.dumps({"N": 2, "K": 3, "H": 5, "A": 1, "I": 1, "J": 4}),
                    encoding="utf-8")
    assert main(["bounds", "--config", str(path), "--m", "2"]) == 0
    assert capsys.readouterr().out == (
        "storage lower bound: T >= 2/3 = 0.6666666667\n"
        "sup gap_T = 3 = 3, no load gap: no M < N where the gaps are bounded\n"
        "M=2 R_lb=0 T_ach=2 R_ach=0\n")


def test_bounds_grid_line_count(capsys):
    rc = main(["bounds", "--config", str(CONFIGS / "tradeoff_n10_k100.json"),
               "--grid", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7  # the bound and gap lines plus five memory points
    assert sum(line.startswith("M=") for line in lines) == 5


def test_bounds_on_a_word_sized_modulus(tmp_path, capsys):
    # q = 2^61 - 1, a word-sized prime: its primality check must be quick
    path = tmp_path / "q61.json"
    path.write_text(json.dumps({"N": 4, "K": 3, "H": 6, "A": 1, "I": 1, "J": 5,
                                "q": 2 ** 61 - 1, "B": 6}), encoding="utf-8")
    t0 = time.perf_counter()
    rc = main(["bounds", "--config", str(path), "--m", "2"])
    assert time.perf_counter() - t0 < 5.0
    assert rc == 0
    assert capsys.readouterr().out == (
        "storage lower bound: T >= 1 = 1\n"
        "sup gap_T = 7/2 = 3.5, sup gap_R = 8 = 8 at M=1\n"
        "M=2 R_lb=0.125 T_ach=2.5 R_ach=0.5\n")


@pytest.mark.parametrize("command, module, work", [
    (["curve", "--config", str(CONFIGS / "tradeoff_n100_k10.json")], analysis, "gap_report"),
    (["pda", "man", "--k", "4", "--t", "2"], pda_mod, "man_pda"),
], ids=["curve", "pda_man"])
def test_out_in_a_missing_directory_exits_two_before_the_work(command, module, work,
                                                              tmp_path, capsys,
                                                              monkeypatch):
    calls = []
    monkeypatch.setattr(module, work, lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "missing" / "out.txt"
    assert main(command + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert calls == []


# ---------- audit ----------


def test_audit_micro_instance_passes(capsys, monkeypatch):
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    rc = main(["audit", "--config", str(CONFIGS / "micro_audit.json")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(": OK" in line for line in lines)


def test_audit_mutation_flips_verdict(capsys):
    rc = main(["audit", "--config", str(CONFIGS / "micro_audit.json"),
               "--mutate", "zero-pad", "--skip-robustness"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert any(line.startswith("demand-privacy: VIOLATED") for line in lines)


def test_audit_k2_instance_passes_and_each_mutation_breaks_its_target(capsys):
    config = str(CONFIGS / "k2_audit.json")
    assert main(["audit", "--config", config]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(": OK" in line for line in lines)
    for mutation, target in (("zero-noise", "server-security"),
                             ("key-removal", "signal-security"),
                             ("zero-pad", "demand-privacy")):
        assert main(["audit", "--config", config, "--mutate", mutation,
                     "--skip-robustness"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith(f"{target}: VIOLATED") for line in lines), mutation


def test_audit_writes_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["audit", "--config", str(CONFIGS / "micro_audit.json"),
               "--skip-robustness", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [r["constraint"] for r in payload] == [
        "server-security", "signal-security", "demand-privacy"]
    for r in payload:
        assert set(r) == {"constraint", "satisfied", "mi_bits", "outcomes",
                          "tables", "details", "witness"}
        assert r["satisfied"] is True


def test_audit_needs_a_pda(capsys):
    rc = main(["audit", "--config", str(CONFIGS / "tradeoff_n10_k100.json")])
    assert rc == 2
    assert "pda" in capsys.readouterr().err


# ---------- error handling ----------


def test_missing_config_file(capsys):
    assert main(["simulate", "--config", "/no/such/config.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", ['{"N": 1' + "0" * 5000 + "}",
                                  "[" * 100_000 + "]" * 100_000],
                         ids=["too_many_digits", "too_deep"])
def test_json_beyond_parser_limits(text, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: config")


def test_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    assert main(["bounds", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _with_params(**fields) -> dict:
    return {"params": dict(TOY_PARAMS, **fields)}


TOY_SWEEP = json.loads((CONFIGS / "toy_sweep.json").read_text(encoding="utf-8"))
TEXT_N = dict(TOY_SWEEP, params=dict(TOY_SWEEP["params"], N="4"))
EMPTY_ADVERSARY_SWEEP = {"adversary_subsets": True, "adversary_sizes": []}

# case -> (config, the command line after "rsplfr" without "--config <path>")
MALFORMED = {
    "zero_samples": (dict(_with_params(), demands={"samples": 0}), ["simulate"]),
    "zero_sweep_samples": (dict(_with_params(), sweep={"demand_samples": 0}),
                           ["simulate", "--sweep"]),
    "text_demand": (dict(_with_params(), demands=[["a", 1, 0, 0], [0, 1, 0, 0],
                                                  [0, 0, 1, 0]]), ["simulate"]),
    "scalar_delivery": (dict(_with_params(), delivery=5), ["simulate"]),
    "text_man_k": (_with_params(pda={"man": {"k": "3", "t": 1}}), ["simulate"]),
    "man_t_above_k": (_with_params(pda={"man": {"k": 3, "t": 5}}), ["simulate"]),
    "bad_grid": (_with_params(pda={"grid": "1 x\n"}), ["simulate"]),
    "superscript_grid": (_with_params(pda={"grid": "\u00b2\n"}), ["simulate"]),
    "negative_adversary_size": (dict(_with_params(), sweep={
        "adversary_subsets": True, "adversary_sizes": [-1]}), ["simulate", "--sweep"]),
    "adversary_size_above_h": (dict(_with_params(), sweep={
        "adversary_subsets": True, "adversary_sizes": [9]}), ["simulate", "--sweep"]),
    "b_not_divisible": (_with_params(B=5), ["simulate"]),
    "text_j_subsets": (dict(_with_params(), sweep={"j_subsets": "false"}),
                       ["simulate", "--sweep"]),
    "text_adversary_subsets": (dict(_with_params(), sweep={"adversary_subsets": "no"}),
                               ["simulate", "--sweep"]),
    "integer_strategies": (dict(_with_params(), sweep={"strategies": 1}),
                           ["simulate", "--sweep"]),
    "text_check_recovery": (dict(_with_params(), sweep={"check_recovery": "0"}),
                            ["simulate", "--sweep"]),
    "no_params": ({"demands": {"samples": 1}}, ["simulate"]),
    "params_without_q_and_b": ({"params": {k: v for k, v in TOY_PARAMS.items()
                                           if k not in ("q", "B")}}, ["simulate"]),
    "scalar_demands": (dict(_with_params(), demands=5), ["simulate"]),
    "integer_strategy": (dict(_with_params(), strategy=3), ["simulate"]),
    "no_adversary_sizes": (dict(_with_params(), sweep=EMPTY_ADVERSARY_SWEEP),
                           ["simulate", "--sweep"]),
    # values that int() would coerce into a different configuration
    "float_delivery": (dict(TOY_SWEEP, delivery=[1.9, 2, 3, 4, 5]), ["simulate"]),
    "text_delivery": (dict(TOY_SWEEP, delivery="12345"), ["simulate"]),
    "object_delivery": (dict(TOY_SWEEP, delivery={"1": 0, "2": 0, "3": 0, "4": 0, "5": 0}),
                        ["simulate"]),
    "float_adversary": (dict(TOY_SWEEP, adversaries=[1.5]), ["simulate"]),
    "text_demand_rows": (dict(TOY_SWEEP, demands=["1000", "0100", "0010"]), ["simulate"]),
    "bool_demand": (dict(TOY_SWEEP, demands=[[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
                    ["simulate"]),
    "bool_samples": (dict(TOY_SWEEP, demands={"samples": True}), ["simulate"]),
    "float_samples": (dict(TOY_SWEEP, demands={"samples": 2.9}), ["simulate"]),
    "text_max_configs": (dict(TOY_SWEEP, sweep=dict(TOY_SWEEP["sweep"], max_configs="200")),
                         ["simulate"]),
    "text_constant": (dict(TOY_SWEEP, strategy={"name": "honest_plus_constant",
                                                 "constant": "2"}), ["simulate"]),
    # a pda spec with a field it does not use
    "unknown_man_field": (_with_params(pda={"man": {"k": 3, "t": 1, "u": 0}}),
                          ["simulate"]),
    "man_and_grid": (_with_params(pda={"man": {"k": 3, "t": 1}, "grid": "1\n"}),
                     ["simulate"]),
    # every subcommand reads params through the same strict reader
    "text_n_curve": (TEXT_N, ["curve"]),
    "text_n_bounds": (TEXT_N, ["bounds"]),
    "text_n_audit": (TEXT_N, ["audit"]),
    # a field next to "params" that no scenario has
    "bogus_key_bounds": (dict(TOY_SWEEP, bogus=1), ["bounds", "--m", "1"]),
    "bogus_key_curve": (dict(TOY_SWEEP, bogus=1), ["curve"]),
    # past the bound where the primality test is proven exact
    "q_beyond_primality_bound": (_with_params(q=2 ** 89 - 1), ["bounds", "--m", "2"]),
}
# a scenario's own delivery, adversaries and adversary sizes are checked
# by a single run and by a sweep alike, whatever the sweep replaces
SCENARIO_CHECKS = {
    "repeated_delivery": (dict(TOY_SWEEP, delivery=[1, 1, 2, 3, 4]),
                          "delivery must name 5 distinct servers"),
    "adversary_beyond_h": (dict(TOY_SWEEP, adversaries=[9]),
                           "adversary set (9,) is not a subset of [1..6]"),
    "adversary_size_above_h_unswept": (
        dict(TOY_SWEEP, sweep={"adversary_sizes": [7]}), "adversary size 7 outside [0, 6]"),
    "repeated_adversary_size": (
        dict(TOY_SWEEP, sweep={"adversary_subsets": True, "adversary_sizes": [1, 1, 0]}),
        "adversary sizes must be distinct, got (1, 1, 0)"),
}
for _case, (_doc, _) in SCENARIO_CHECKS.items():
    MALFORMED[_case] = (_doc, ["simulate"])
    MALFORMED[f"{_case}_sweep"] = (_doc, ["simulate", "--sweep"])


def test_a_sweep_of_no_adversary_sizes_is_refused_only_by_a_sweep(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    config = toy_single_config(tmp_path, sweep=EMPTY_ADVERSARY_SWEEP)
    assert main(["simulate", "--config", config, "--sweep"]) == 2
    assert capsys.readouterr().err == "error: the sweep selects no configurations\n"
    assert main(["simulate", "--config", config]) == 0
    assert capsys.readouterr().out.rstrip().endswith("ok")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_two_without_traceback(case, tmp_path):
    doc, command = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ)
    env.pop("RSPLFR_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "rsplfr.cli", command[0], "--config", str(path),
         *command[1:]],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
@pytest.mark.parametrize("case", sorted(SCENARIO_CHECKS))
def test_run_and_sweep_refuse_a_scenario_with_the_same_text(case, sweep, tmp_path, capsys):
    doc, message = SCENARIO_CHECKS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--config", str(path)] + ["--sweep"] * sweep) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


NOT_UTF8 = b"\xe9"  # Latin-1 "e acute", never valid UTF-8 on its own


@pytest.mark.parametrize("command", ["simulate", "audit"])
@pytest.mark.parametrize("bad", ["config", "pda"])
def test_non_utf8_config_or_pda_file_exits_two(bad, command, tmp_path, capsys):
    pda_file = tmp_path / "toy.pda"
    pda_file.write_bytes(b"* 1 2\n1 * 3\n2 3 *\n" + (NOT_UTF8 if bad == "pda" else b""))
    raw = json.dumps(_with_params(pda=pda_file.name)).encode("utf-8")
    if bad == "config":
        raw = raw[:-1] + b', "note": "' + NOT_UTF8 + b'"}'
    config = tmp_path / "config.json"
    config.write_bytes(raw)
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and len(err.splitlines()) == 1


def test_pda_validate_non_utf8_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.pda"
    path.write_bytes(b"* 1 2\n1 * 3\n2 3 " + NOT_UTF8 + b"\n")
    assert main(["pda", "validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read pda file")


@pytest.mark.parametrize("m", ["nan", "inf", "-inf"])
def test_bounds_rejects_non_finite_memory(m, capsys):
    # "--m=" form: argparse takes a bare "-inf" for an option name
    rc = main(["bounds", "--config", str(CONFIGS / "tradeoff_n10_k100.json"), f"--m={m}"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --m must be a finite number")


@pytest.mark.parametrize("arg, message", [
    ("--m=0.5", "M=1/2 outside [1, 10]"),
    ("--m=11", "M=11 outside [1, 10]"),
    ("--grid=1", "grid needs at least 2 points"),
    ("--grid=0", "grid needs at least 2 points"),
], ids=["m=0.5", "m=11", "grid=1", "grid=0"])
def test_bounds_checks_every_memory_point_before_printing(arg, message, capsys):
    rc = main(["bounds", "--config", str(CONFIGS / "tradeoff_n10_k100.json"), arg])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_a_usage_error(jobs, capsys):
    rc = main(["simulate", "--config", str(CONFIGS / "robust_sweep.json"),
               "--sweep", f"--jobs={jobs}"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_mutation_rejected_by_parser():
    with pytest.raises(SystemExit) as err:
        main(["audit", "--config", "x.json", "--mutate", "drop-keys"])
    assert err.value.code == 2
