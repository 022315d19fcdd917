"""The command line's end-to-end pins: one table of rows and one runner.

A row names a command line, the config it reads, the exit code it must
return and its whole stdout, with every elapsed `` (N.NNs)`` masked.  It
may also pin the SHA-256 of a file the command writes.  A row marked
``jobs`` runs twice, with ``--jobs 1`` and with ``--jobs 2``, and each
run must print the row's text, so a pool of two prints what one process
does.

The same rows run two ways:

* ``tests/test_cli_pins.py`` runs each row in-process through
  ``rsplfr.cli.main``, as part of the test suite;
* ``python tests/cli_pins.py`` runs each row through the ``rsplfr``
  console script on ``PATH``, in a temporary directory outside the
  checkout.  It prints one line per row and exits 1 if any row fails.

A new command line pin is one more row.  This module uses the standard
library only and never imports ``rsplfr``, so the script checks the
installed package as it is.  It must run on Python 3.10.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG = "{config}"  # stands in argv for the path of the row's config
ELAPSED = re.compile(r" \([0-9.]+s\)")


@dataclass(frozen=True)
class Row:
    name: str
    argv: tuple
    config: str | None = None  # a file name under configs/
    doc: dict | str | None = None  # an inline config: JSON when a dict, else text
    exit: int = 0
    out: str = ""
    jobs: bool = False
    writes: tuple | None = None  # (file name, SHA-256) of a file the command writes


def check(row: Row, invoke) -> list:
    """The ways ``row`` fails, one text each; empty when it passes.

    ``invoke(argv, cwd)`` runs ``rsplfr`` on ``argv`` in the directory
    ``cwd`` and returns its exit code and stdout.  Each run gets a fresh
    temporary directory, which holds an inline config and what the
    command writes.
    """
    problems = []
    for jobs in (["--jobs", "1"], ["--jobs", "2"]) if row.jobs else ([],):
        label = " ".join(jobs + [""])
        with tempfile.TemporaryDirectory() as tmp:
            path = None
            if row.config is not None:
                path = str(CONFIGS / row.config)
            elif row.doc is not None:
                path = os.path.join(tmp, "input")
                Path(path).write_text(json.dumps(row.doc) if isinstance(row.doc, dict)
                                      else row.doc, encoding="utf-8")
            argv = [path if arg == CONFIG else arg for arg in row.argv] + jobs
            code, out = invoke(argv, tmp)
            out = ELAPSED.sub("", out)
            if code != row.exit:
                problems.append(f"{label}exit {code}, expected {row.exit}")
            if out != row.out:
                diff = difflib.unified_diff(row.out.splitlines(), out.splitlines(),
                                            "expected", "printed", lineterm="")
                problems.append(f"{label}stdout differs:\n" + "\n".join(diff))
            if row.writes is not None:
                name, digest = row.writes
                written = Path(tmp, name)
                actual = (hashlib.sha256(written.read_bytes()).hexdigest()
                          if written.is_file() else "no file")
                if actual != digest:
                    problems.append(f"{label}{name}: SHA-256 {actual}, expected {digest}")
    return problems


TOY_PARAMS = {"N": 4, "K": 3, "H": 6, "A": 1, "I": 1, "J": 5, "q": 7, "B": 6,
              "pda": {"man": {"k": 3, "t": 1}}}
MID_PARAMS = {"N": 5, "K": 6, "H": 12, "A": 2, "I": 2, "J": 10, "q": 13, "B": 60,
              "pda": {"man": {"k": 6, "t": 2}}}


def _toy(q: int, **sweep) -> dict:
    return {"params": dict(TOY_PARAMS, q=q),
            "sweep": dict({"j_subsets": True, "adversary_subsets": True,
                           "strategies": True, "demand_samples": 2,
                           "check_recovery": True}, **sweep)}


def _mid(*sizes: int) -> dict:
    return {"params": MID_PARAMS, "delivery": list(range(1, 11)),
            "sweep": {"adversary_subsets": True, "adversary_sizes": list(sizes),
                      "demand_samples": 1, "check_recovery": True}}


SWEEP = ("simulate", "--config", CONFIG, "--sweep")
TOY_MEASURED = "measured: M=2 T=5/2 R=1/2 subpacketization=6\n"
ROBUST_MEASURED = "measured: M=3/2 T=5/2 R=1/2 subpacketization=2\n"
MID_MEASURED = "measured: M=7/3 T=19/12 R=1/3 subpacketization=60\n"
# the first five witnesses of a sweep beyond the budget, all from the
# first delivery subset and adversary set under the first strategy
TOY_WITNESS = ("  {'j_subset': (1, 2, 3, 4, 5), 'adversaries': (1, 2), "
               "'strategy': 'uniform_random:0', 'stage': ")
MID_WITNESS = ("  {'j_subset': (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 'adversaries': (1, 2, 3), "
               "'strategy': 'uniform_random:0', 'stage': ")
TOY_NO_ROOT = "'error locator of length 1 has 0 of 1 roots among the present positions'}\n"
TOY_BEYOND_1680 = (
    TOY_MEASURED + "1680 failures across 360 configurations\n"
    + TOY_WITNESS + "'recover', 'error': " + TOY_NO_ROOT
    + TOY_WITNESS + "'decode', 'demand_index': 0, 'user': 1, 'error': " + TOY_NO_ROOT
    + TOY_WITNESS + "'decode', 'demand_index': 0, 'user': 2, 'error': " + TOY_NO_ROOT
    + TOY_WITNESS + "'decode', 'demand_index': 0, 'user': 3, 'error': " + TOY_NO_ROOT
    + TOY_WITNESS + "'decode', 'demand_index': 1, 'user': 1, 'error': " + TOY_NO_ROOT)

# the exact gap suprema, the same line whatever the memory points
GAP_LINES = {
    "tradeoff_n100_k10": "sup gap_T = 77/50 = 1.54, "
                         "sup gap_R = 28000/8181 = 3.422564479 at M=19.2",
    "tradeoff_n10_k100": "sup gap_T = 21308/8775 = 2.428262108, "
                         "sup gap_R = 18046/1755 = 10.28262108 at M=2",
}

K4_T2_TEXT = (
    "* * 1 2\n"
    "* 1 * 3\n"
    "* 2 3 *\n"
    "1 * * 4\n"
    "2 * 4 *\n"
    "3 4 * *\n"
)

# the leakage audits' report lines, honest and with each defense removed
LEAKAGE = {
    "micro_audit.json": {
        None: "server-security: OK mi_bits=0 (1458 outcomes)\n"
              "signal-security: OK mi_bits=0 (59049 outcomes)\n"
              "demand-privacy: OK mi_bits=0 (59049 outcomes)\n",
        "key-removal": "server-security: OK mi_bits=0 (162 outcomes)\n"
                       "signal-security: VIOLATED mi_bits=1.40886 (6561 outcomes)\n"
                       "demand-privacy: OK mi_bits=0 (6561 outcomes)\n",
        "zero-pad": "server-security: OK mi_bits=0 (1458 outcomes)\n"
                    "signal-security: VIOLATED mi_bits=3.16993 (6561 outcomes)\n"
                    "demand-privacy: VIOLATED mi_bits=3.16993 (6561 outcomes)\n",
        "zero-noise": "server-security: VIOLATED mi_bits=3.16993 (162 outcomes)\n"
                      "signal-security: OK mi_bits=0 (6561 outcomes)\n"
                      "demand-privacy: OK mi_bits=0 (6561 outcomes)\n",
    },
    "k2_audit.json": {
        None: "server-security: OK mi_bits=0 (118098 outcomes)\n"
              "signal-security: OK mi_bits=0 (387420489 outcomes)\n"
              "demand-privacy: OK mi_bits=0 (1162261467 outcomes)\n",
        "key-removal": "server-security: OK mi_bits=0 (13122 outcomes)\n"
                       "signal-security: VIOLATED mi_bits=1.5654 (43046721 outcomes)\n"
                       "demand-privacy: OK mi_bits=0 (129140163 outcomes)\n",
        "zero-pad": "server-security: OK mi_bits=0 (118098 outcomes)\n"
                    "signal-security: VIOLATED mi_bits=6.33985 (4782969 outcomes)\n"
                    "demand-privacy: VIOLATED mi_bits=6.33985 (14348907 outcomes)\n",
        "zero-noise": "server-security: VIOLATED mi_bits=6.33985 (1458 outcomes)\n"
                      "signal-security: OK mi_bits=0 (4782969 outcomes)\n"
                      "demand-privacy: OK mi_bits=0 (14348907 outcomes)\n",
    },
}
ROBUSTNESS = "robust-recovery: OK (4 outcomes)\nrobust-decoding: OK (4 outcomes)\n"


def _leakage(config: str, mutation: str | None) -> Row:
    """The leakage audits alone on ``config``, with ``mutation`` if any."""
    mutate = ("--mutate", mutation) if mutation else ()
    return Row(config.replace("_audit.json", "_leakage")
               + (f"_{mutation.replace('-', '_')}" if mutation else ""),
               ("audit", "--config", CONFIG, "--skip-robustness") + mutate,
               config=config, exit=1 if mutation else 0, out=LEAKAGE[config][mutation])


ROWS = [
    # the toy instance of criterion 1, at two demand samples
    Row("toy_sweep", SWEEP, config="toy_sweep.json",
        out=TOY_MEASURED + "all 168 configurations passed\n"),
    # at q = 257 a column packs into 5-byte slots by one byte copy unless
    # it holds a 256, and each residue is read back from 2 byte planes; at
    # q = 65537 every column packs into 9-byte slots, and each residue is
    # read back from 3 byte planes
    Row("toy_q257", SWEEP, doc=_toy(257, adversary_sizes=[0, 1]),
        out=TOY_MEASURED + "all 168 configurations passed\n"),
    Row("toy_q65537", SWEEP, doc=_toy(65537, adversary_sizes=[0, 1]),
        out=TOY_MEASURED + "all 168 configurations passed\n"),
    # every server's answers and every user's cache sides packed over 50
    # demand samples in 9-byte slots, with recovery checked
    Row("toy_q65537_d50", SWEEP, doc=_toy(65537, demand_samples=50), jobs=True,
        out=TOY_MEASURED + "all 168 configurations passed\n"),
    # passes every configuration, so the pool's slices merge no witness
    Row("robust_sweep", SWEEP, config="robust_sweep.json", jobs=True,
        out=ROBUST_MEASURED + "all 120 configurations passed\n"),
    # two adversaries against toy's radius of one: deliveries and sets
    # differ from the reference and are judged one by one; at q = 257 the
    # packed comparison's xor spans residues of 2 bytes, and at q = 65537
    # the users of a differing delivery read their residues from 9-byte
    # slots
    Row("toy_beyond_q7", SWEEP, doc=_toy(7, adversary_sizes=[2]), exit=1, jobs=True, out=(
        TOY_MEASURED + "1541 failures across 360 configurations\n"
        + TOY_WITNESS + "'recover', 'error': 'error locator of length 2 exceeds the radius 1'}\n"
        + TOY_WITNESS + "'decode', 'demand_index': 0, 'user': 1, 'error': " + TOY_NO_ROOT
        + TOY_WITNESS + "'decode', 'demand_index': 0, 'user': 2, 'error': 'wrong output'}\n"
        + TOY_WITNESS + "'decode', 'demand_index': 0, 'user': 3, 'error': " + TOY_NO_ROOT
        + TOY_WITNESS + "'decode', 'demand_index': 1, 'user': 1, 'error': 'wrong output'}\n")),
    Row("toy_beyond_q257", SWEEP, doc=_toy(257, adversary_sizes=[2]), exit=1, jobs=True,
        out=TOY_BEYOND_1680),
    Row("toy_beyond_q65537", SWEEP, doc=_toy(65537, adversary_sizes=[2]), exit=1,
        jobs=True, out=TOY_BEYOND_1680),
    # three adversaries against mid's radius of two run locators of length
    # 2 and 3, and group words by recurrences of length 1 and 2
    Row("mid_beyond", SWEEP, doc=_mid(3), exit=1, jobs=True, out=(
        MID_MEASURED + "840 failures across 220 configurations\n"
        + MID_WITNESS + "'recover', 'error': 'error locator of length 2 has 0 of 2 roots "
                        "among the present positions'}\n"
        + MID_WITNESS + "'decode', 'demand_index': 0, 'user': 1, 'error': 'error locator "
                        "of length 2 has 1 of 2 roots among the present positions'}\n"
        + MID_WITNESS + "'decode', 'demand_index': 0, 'user': 2, 'error': 'error locator "
                        "of length 2 has 1 of 2 roots among the present positions'}\n"
        + MID_WITNESS + "'decode', 'demand_index': 0, 'user': 3, 'error': 'error locator "
                        "of length 2 has 0 of 2 roots among the present positions'}\n"
        + MID_WITNESS + "'decode', 'demand_index': 0, 'user': 4, 'error': 'error locator "
                        "of length 2 has 0 of 2 roots among the present positions'}\n")),
    # within the radius every group repeats its honest servers' packed
    # columns and stores once per member, and a pool's slices split the
    # groups, so each slice repeats different numbers of copies
    Row("mid_within", SWEEP, doc=_mid(0, 1, 2), jobs=True,
        out=MID_MEASURED + "all 79 configurations passed\n"),
    # transcripts of single runs at seed 0: any change to sampling,
    # encoding, corruption or decoding order shows up here
    Row("toy_trace", ("simulate", "--config", CONFIG, "--trace", "toy_trace.json"),
        config="toy_sweep.json", out="users decoded: 3/3\n" + TOY_MEASURED + "ok\n",
        writes=("toy_trace.json",
                "914776565591423ba106697915e6f78c5c3015e0e9e026c9573a6c37ce01dbf3")),
    Row("robust_trace", ("simulate", "--config", CONFIG, "--trace", "robust_trace.json"),
        config="robust_sweep.json", out="users decoded: 2/2\n" + ROBUST_MEASURED + "ok\n",
        writes=("robust_trace.json",
                "33c5e628a70b10da73301d5bcef13424cb4d1af879e6ec37246e5a6f10a13731")),
    # the leakage audits, then the robustness audits
    Row("micro_audit", ("audit", "--config", CONFIG), config="micro_audit.json",
        out=LEAKAGE["micro_audit.json"][None] + ROBUSTNESS),
    Row("k2_audit", ("audit", "--config", CONFIG), config="k2_audit.json",
        out=LEAKAGE["k2_audit.json"][None] + ROBUSTNESS),
    # a violated audit exits 1; 2 would be a usage or configuration error
    Row("micro_audit_key_removal", ("audit", "--config", CONFIG, "--mutate", "key-removal"),
        config="micro_audit.json", exit=1,
        out=LEAKAGE["micro_audit.json"]["key-removal"] + ROBUSTNESS),
    *(_leakage(config, mutation) for config in LEAKAGE for mutation in LEAKAGE[config]),
    # toy signal security and demand privacy are refused as infeasible
    Row("toy_audit_infeasible", ("audit", "--config", CONFIG, "--skip-robustness"),
        config="toy_sweep.json", exit=2),
    # the tradeoff curve at its default 200 memory points, as CSV
    Row("curve_n100_k10", ("curve", "--config", CONFIG, "--out", "curve.csv"),
        config="tradeoff_n100_k10.json", out="wrote 200 rows to curve.csv\n",
        writes=("curve.csv", "2069c6ba89372556136a5e397ed439c97e67222e88a38b4abd1e21fbba30c940")),
    Row("bounds_n10_k100_m2", ("bounds", "--config", CONFIG, "--m", "2"),
        config="tradeoff_n10_k100.json", out=(
            "storage lower bound: T >= 5/7 = 0.7142857143\n"
            + GAP_LINES["tradeoff_n10_k100"] + "\n"
            "M=2 R_lb=0.07142857143 T_ach=1.734472934 R_ach=0.7344729345\n")),
    Row("pda_man_k4_t2", ("pda", "man", "--k", "4", "--t", "2", "--out", "g.pda"),
        out="wrote 6x4 array to g.pda\n",
        writes=("g.pda", hashlib.sha256(K4_T2_TEXT.encode()).hexdigest())),
    Row("pda_validate_k4_t2", ("pda", "validate", CONFIG), doc=K4_T2_TEXT,
        out="valid: K=4 F=6 Z=3 S=4\n"),
]


def _console_script(argv, cwd):
    env = dict(os.environ)
    env.pop("RSPLFR_SEED", None)
    proc = subprocess.run(["rsplfr", *argv], cwd=cwd, env=env, stdout=subprocess.PIPE,
                          encoding="utf-8")
    return proc.returncode, proc.stdout


def main() -> int:
    if shutil.which("rsplfr") is None:
        print("no rsplfr console script on PATH", file=sys.stderr)
        return 1
    failed = 0
    for row in ROWS:
        t0 = time.perf_counter()
        problems = check(row, _console_script)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok'} {row.name} "
              f"({time.perf_counter() - t0:.2f}s)", flush=True)
        for problem in problems:
            print("    " + problem.replace("\n", "\n    "), flush=True)
    print(f"{len(ROWS) - failed}/{len(ROWS)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
