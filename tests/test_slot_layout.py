"""The packed slot layout has one owner, ``rscode._Slots``.

``protocol``, ``audit`` and ``sim`` move, cut and read packed words only
through ``_Slots`` methods, so no other module knows how wide a slot is
or in which byte order words lie: they name no attribute ``size``,
``to_bytes`` or ``from_bytes``.
"""

import ast
from pathlib import Path

import pytest

import rsplfr

SRC = Path(rsplfr.__file__).parent
LAYOUT = {"size", "to_bytes", "from_bytes"}


@pytest.mark.parametrize("module", ["protocol.py", "audit.py", "sim.py"])
def test_the_slot_layout_stays_inside_slots(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    sites = [f"{module}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in LAYOUT]
    assert not sites, "slot layout used outside rscode._Slots: " + ", ".join(sites)
