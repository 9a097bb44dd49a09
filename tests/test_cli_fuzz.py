"""CLI fuzz test of the exit-code contract (Hypothesis; MacIver et al., JOSS 2019).

Every command, with any family tag and a few ``--param`` overrides drawn
from edge values, must end in exit code 0, 1, 2 or 3 with no traceback and
no RuntimeWarning, and its ``--json`` report must hold no NaN or Infinity.
The loader's rules hold for every command: when ``load_config`` rejects
the ``--param`` values, the command exits 2 with its message, and when it
accepts them, no command rejects a config key by name (the run objects'
own checks, such as ``Grid``'s, do not name one).  Grids are small, so one
example costs milliseconds.

The search is derandomized, so every run draws the same examples, and
``MAX_EXAMPLES`` = 400 keeps it at about 3.5 s (2-vCPU Xeon, Python 3.11).
The failures it has found are pinned with their messages in
``tests/test_cli.py``'s ``TYPED_FAILURES``.
"""

from __future__ import annotations

import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from fhnx.cli import main
from fhnx.config import SCHEMA, load_config
from fhnx.core import ConfigError
from fhnx.solutions import FAMILY_TAGS

MAX_EXAMPLES = 400

SMALL = ["--param", "grid.nx=11", "--param", "grid.nt=3", "--param", "grid.t_max=0.01"]
COMMANDS = {
    "list": ["list"],
    "verify": ["verify", *SMALL],
    "stability": ["stability", "--param", "stability.n=9"],
    "simulate": ["simulate", *SMALL],
    "figure": ["figure", "--figure", "1", *SMALL],
    "constraints": ["constraints", "--param", "ansatz.n=9", "--param", "ansatz.k_sweep=10"],
}

# every key but family.tag (drawn on its own) and [output] (which would
# write into the working directory)
KEYS = [
    f"{sec}.{key}"
    for sec, keys in SCHEMA.items()
    if sec != "output"
    for key in keys
    if (sec, key) != ("family", "tag")
]
# prefixes of the loader's per-key messages
KEY_ERRORS = tuple(f"config error: {sec}.{key} " for sec, keys in SCHEMA.items() for key in keys)
VALUES = ["0", "-1", "1", "2", "0.5", "1e300", "-1e300", "1e-300", "1e-320",
          "nan", "inf", "-inf", "junk"]


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@settings(max_examples=MAX_EXAMPLES, derandomize=True, deadline=None, database=None)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    tag=st.sampled_from(FAMILY_TAGS),
    overrides=st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)),
                       min_size=1, max_size=3),
)
def test_exit_code_contract(command, tag, overrides):
    params = [arg for key, value in overrides for arg in ("--param", f"{key}={value}")]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        argv = [*COMMANDS[command], "--param", f"family.tag={tag}", *params, "--json", "--out", tmp]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert code != 0 and err.getvalue()
    try:
        load_config(None, [arg for arg, flag in zip(argv[1:], argv) if flag == "--param"])
    except ConfigError as exc:
        assert (code, err.getvalue()) == (2, f"config error: {exc}\n")
    else:
        assert not err.getvalue().startswith(KEY_ERRORS)
