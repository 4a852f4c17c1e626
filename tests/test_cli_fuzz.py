"""Fuzzed documents through the CLI: exit codes stay 0, 1 or 2.

Valid documents are mutated (a value replaced, deleted or duplicated, up
to three times) and fed to the subcommands that read them.  Whatever the
document, the CLI must not crash: an uncaught exception would leave the
process with status 1, which is reserved for "a mathematical check came
out false".  So exit 1 must come with the printed verdict, and exit 2
with an error message.
"""

import copy
import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from symchain import (
    GF,
    QQ,
    ZLoc,
    ZZ,
    direct_sum,
    graded_poly,
    identity_map,
    koszul,
    serialize,
    shift,
    sym2,
    unit_complex,
    weak_sym2,
    zero_map,
)
from symchain.cli import main

POLY = graded_poly("x", "y")
X_VAR, Y_VAR = POLY.generators()


COMPLEX_COMMANDS = [
    ["homology"],
    ["minimize"],
    ["check", "symm07"],
    ["check", "symm07pp"],
    ["check", "s2fpd01"],
    ["check", "s2fpd02"],
    ["check", "symm09"],
]
COMMANDS = COMPLEX_COMMANDS + [["quasi-iso"]]


def _cases():
    """(document, the subcommands made for its kind)."""
    K_zz = koszul([ZZ.scalar(3)])
    K_q = koszul([QQ.scalar(1), QQ.scalar(1)])
    complexes = [
        koszul([X_VAR, Y_VAR]),
        K_zz,
        koszul([ZLoc(3).scalar(3), ZLoc(3).scalar(1)]),
        shift(unit_complex(QQ), 1),
        direct_sum(unit_complex(GF(5)), shift(unit_complex(GF(5)), 2)),
    ]
    maps = [sym2(koszul([X_VAR])).proj, identity_map(K_zz), zero_map(K_zz, K_zz), zero_map(K_q, K_q)]
    return (
        [(json.loads(serialize(X)), COMPLEX_COMMANDS) for X in complexes]
        + [(json.loads(serialize(f)), [["quasi-iso"]]) for f in maps]
        + [(json.loads(serialize(weak_sym2(K_zz))), [["homology"]])]
    )


CASES = _cases()

# the line that carries the verdict when a subcommand exits 1
VERDICT = {
    "quasi-iso": re.compile(r"^quasi-isomorphism: false$", re.M),
    "check": re.compile(r"^(equivalent|holds): false$", re.M),
}

LEAVES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["0", "1", "-1", "2", "3", "1/2", "x", "y", "x*y", "x^2", "", "a", "1/0"]),
    st.sampled_from([None, True, False, 1.5, [], {}, [[]], ["1"]]),
)


def _paths(node, path=()):
    """Every position inside a JSON value, as a tuple of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_runs(draw):
    """(mutated document, subcommand): mostly one made for the document's
    kind, so that mutations reach past the document-kind check."""
    doc, suited = draw(st.sampled_from(CASES))
    command = draw(st.sampled_from(suited if draw(st.integers(0, 3)) else COMMANDS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if op == "delete":
            del parent[key]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = draw(LEAVES)
    return doc, command


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(run=mutated_runs())
def test_mutated_documents_exit_0_1_or_2(run):
    doc, command = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(command + [path])
    assert code in (0, 1, 2)
    if code == 1:
        assert command[0] in VERDICT and VERDICT[command[0]].search(out.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: ")
