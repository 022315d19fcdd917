"""Property test: no mutation of a shipped config makes the CLI crash.

Each example mutates one field of one ``configs/*.json``, nested fields
included: it deletes the field, adds an unknown key to an object, or
replaces the value by a JSON value of another type; or it makes the
root a non-object.  Replacement
integers come from [-2, 12] and only reach single-run commands, so no
example starts a large sweep or audit enumeration.  ``main`` must
return 0, 1 or 2, or argparse must exit with 2; any other exception
fails the test.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from rsplfr.cli import main  # noqa: E402

CONFIGS = {path.name: json.loads(path.read_text(encoding="utf-8"))
           for path in sorted((Path(__file__).resolve().parent.parent
                               / "configs").glob("*.json"))}

SINGLE_RUN = (("simulate",), ("curve",), ("bounds",))
COMMANDS = SINGLE_RUN + (("simulate", "--sweep"), ("audit",))

SCALARS = st.one_of(st.text(max_size=4), st.floats(), st.booleans(), st.none())
WRONG_TYPES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                        st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


def _fields(value, prefix=()):
    """Key paths of every field below value, nested objects included."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield prefix + (key,)
            yield from _fields(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# (config name, path): the root of each config and each field in it, so
# every field is as likely a target as any other
TARGETS = [(name, path) for name, doc in sorted(CONFIGS.items())
           for path in [()] + list(_fields(doc))]


@st.composite
def cases(draw):
    """(command, config document) with one mutation applied."""
    command = draw(st.sampled_from(COMMANDS))
    name, path = draw(st.sampled_from(TARGETS))
    doc = copy.deepcopy(CONFIGS[name])
    target = _at(doc, path)
    kinds = ["retype"]
    if isinstance(target, dict):
        kinds.append("unknown")
    if path:
        kinds.append("delete")
        if command in SINGLE_RUN and not isinstance(target, dict):
            kinds.append("integer")
    kind = draw(st.sampled_from(kinds))
    if kind == "unknown":
        target["unknown"] = draw(WRONG_TYPES)
    elif not path:  # a root that is not an object
        doc = draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=3)))
    elif kind == "delete":
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "retype":
        _at(doc, path[:-1])[path[-1]] = draw(WRONG_TYPES)
    else:
        _at(doc, path[:-1])[path[-1]] = draw(st.integers(-2, 12))
    return command, doc


@settings(max_examples=1000, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_mutated_configs_never_crash_the_cli(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main([command[0], "--config", str(path), *command[1:]])
            except SystemExit as exc:
                rc = exc.code
                assert rc == 2
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("error:")
