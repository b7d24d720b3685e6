"""Property test of the command-line input contract on JSON-shaped documents.

Documents are small algebras (dimension at most 4, field degree at most 4):
random bracket tables, and catalog fixtures over F2 and GF(4) with their
own or a random 2-map, each possibly mutated by replacing or deleting nodes with JSON junk (wrong
types, booleans, floats, out-of-range numbers, nested lists).  Whatever
the input, every command must end with an exit code of the contract and
one line of diagnosis, never a traceback, and `decompose` may succeed only
where `validate --restricted` does.  The run is derandomized, so it checks
the same examples every time.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lie2.cli import main
from lie2.liealg import catalog, to_json
from test_reports_frozen import lifted_doc

COMMANDS = [["validate"], ["validate", "--restricted"], ["decompose"], ["toral-rank"]]
FIXTURES = ["heis3", "sl2", "gl2", "o3", "w11_p2", "abelian(2)", "abelian(4)",
            "strictly_upper(2)"]
FIXTURE_DOCS = [to_json(catalog(n).algebra, catalog(n).two_map) for n in FIXTURES] + \
    [lifted_doc(n, 2, 5) for n in FIXTURES]

# one draw each: wrong types, booleans, floats, huge and negative numbers,
# and nested lists and objects shaped like the document's own parts
JUNK = [None, True, False, -1, 0, 1, 2, 3, 4, 1 << 70, -(1 << 70), 1.5, -0.0, "",
        "2", [], [0], [0, 1], [[0, 1]], [1, [[0, 1]]], [[0, 1, []]], [[0, 1, [[2, 1]]]],
        {}, {"degree": 2}, {"degree": True}, [[]], [[[0, 1]]]]


def sparse(code: int, dim: int, q: int) -> list:
    """The nonzero coordinates of sum_i v[i] q^i = code, as [index, value] pairs."""
    return [[i, code // q ** i % q] for i in range(dim) if code // q ** i % q]


def random_two_map(draw, dim: int, q: int) -> list:
    codes = draw(st.lists(st.integers(0, q ** dim - 1), min_size=dim, max_size=dim))
    return [[i, sparse(c, dim, q)] for i, c in enumerate(codes)]


@st.composite
def random_docs(draw) -> dict:
    """A bracket table and maybe a 2-map, one integer per vector."""
    degree, dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    q = 1 << degree
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    codes = draw(st.lists(st.integers(0, q ** dim - 1), min_size=len(pairs),
                          max_size=len(pairs)))
    doc = {"field": {"degree": degree}, "dim": dim,
           "bracket": [[i, j, sparse(c, dim, q)] for (i, j), c in zip(pairs, codes) if c]}
    if draw(st.booleans()):
        doc["two_map"] = random_two_map(draw, dim, q)
    return doc


@st.composite
def remapped_fixtures(draw) -> dict:
    """A catalog Lie algebra with a random 2-map, which is rarely one."""
    doc = copy.deepcopy(draw(st.sampled_from(FIXTURE_DOCS)))
    doc["two_map"] = random_two_map(draw, doc["dim"], 1 << doc["field"]["degree"])
    return doc


def nodes(doc, out):
    """Every (container, key) of a document, nested ones included."""
    keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
    for key in list(keys):
        out.append((doc, key))
        if isinstance(doc[key], (dict, list)):
            nodes(doc[key], out)
    return out


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.one_of(random_docs(), st.sampled_from(FIXTURE_DOCS),
                                       remapped_fixtures())))
    for _ in range(draw(st.integers(0, 2))):
        found = nodes(doc, [])
        if not found:
            break
        parent, key = found[draw(st.integers(0, len(found) - 1))]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    return doc


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(), command=st.sampled_from(COMMANDS))
def test_every_document_gets_an_exit_code_and_no_traceback(workdir, doc, command):
    path = workdir / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = run_cli(command + [str(path), "--out", str(workdir / "report.json")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1
    # decompose may pass only where validate --restricted does: checked
    # from both sides, so documents that fail validation are decomposed too
    if command == ["decompose"] and code == 0:
        assert run_cli(["validate", "--restricted", str(path)])[0] == 0
    if command == ["validate", "--restricted"] and code != 0:
        assert run_cli(["decompose", str(path)])[0] != 0
