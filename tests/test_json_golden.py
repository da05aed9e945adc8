"""Byte-exact pins of the plan, report and search JSON that the CLI writes.

Each case runs one command in-process and compares the sha256 digest of the
JSON it writes (a file, or stdout) and its exit code with recorded values.
The digests were recorded from the key-by-key serialisers that
``setalg.json_value`` replaced, so any byte the encoder moves fails here;
``gaps-plan-k700`` and ``plan-br-42-135`` were recorded from
``json.dumps(indent=2, sort_keys=True)``, before the CLI wrote its documents
directly, and ``verify-ring-2000`` from graphs that stored each edge at both
endpoints.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipforge import cli
from flipforge.cli import main

# Exit code and sha256 of the JSON bytes, per case.
GOLDEN = {
    "plan-br-4-5": (0, "c4e68f0a21467e64a480603822cd2c83da2020479426a9485f8c3274de8c62b1"),
    "plan-br-10-12": (0, "284be9e6d0678bc41f191131cd0cbf0138cfdf302d3c20468b098c6da604e16b"),
    "plan-br-11-13": (0, "028193d2fb02aae83452bf5b57fd1049d7500927128e02e07bcbe2fb264eb095"),
    "gaps-plan-valid": (0, "51000a7d9093aef4a49e7f75ea5228e079b2b4ad7898701dfcfa4f2440dc258e"),
    "gaps-plan-invalid": (1, "fa536bbc754755ae955418ea1d661f4958ab657abf2b78a1a226f47e51e02def"),
    "gaps-plan-k700": (0, "4cb787cf6b9c67ac332740d774f8c361e3801dcac43aacef290369cb3c2e0ce2"),
    "plan-br-42-135": (0, "84ad57ae8290caccca301c4844330c1163bd52d1b494ed3c333b9962d011b02e"),
    "verify-pass": (0, "4ed9ccc1b010a70380d1be6f8461d29a76d2eba0763cdb6be3f5f6513cab2610"),
    "verify-path-30": (1, "aa784705febb90b63607507b428661566270255dd7bd547f7fc7b8c48200eef6"),
    "verify-ring-2000": (1, "5f531a3f0ad32d6bdf9fe8c63fde0503bc048918e07d45ee9511b10fb0e15292"),
    "search-z8": (0, "7b06fff6a4ca0ac89198ad08bcf57c34b29042479567c0cd6fa651bcf37adaff"),
    "search-z100-greedy": (0, "617fb7e6a66ec7c2275037bf16eb8c758b20bb3842685f64b77467d402a41ec6"),
}

GAPS_FLAGS = {
    "gaps-plan-valid": ["--q", "2", "--k", "9", "--prefix-e", "140,135", "--prefix-deg", "42,135"],
    "gaps-plan-invalid": ["--q", "2", "--k", "5", "--prefix-e", "11,10", "--prefix-deg", "1,3",
                          "--t", "1"],
    # The benchmark's plan: 700 colours, so every per-colour list has 700 entries.
    "gaps-plan-k700": ["--q", "2", "--k", "700", "--prefix-e", "5000,4000",
                       "--prefix-deg", "100,200"],
}


def _path_graph_json() -> str:
    """30 vertices on a path whose edge colours alternate 1, 2, 1, ...: the ends
    differ in degree from the middle, which gives 28 not-regular and 28
    chain-not-strict violations and a non-uniform chain."""
    edges = [[i, i + 1, 1 + i % 2] for i in range(29)]
    return json.dumps({"vertices": 30, "colours": 2, "edges": edges})


def _output(case, tmp_path, capsys) -> tuple[int, bytes]:
    out = tmp_path / "out.json"
    if case.startswith("plan-br-"):
        b, r = case.split("-")[2:]
        rc = main(["construct-br", "--b", b, "--r", r, "--plan-out", str(out)])
    elif case.startswith("gaps-plan-"):
        rc = main(["gaps-plan", *GAPS_FLAGS[case], "--out", str(out)])
    elif case.startswith("verify-"):
        graph = tmp_path / "g.json"
        sequence = []
        if case == "verify-pass":
            assert main(["construct-br", "--b", "4", "--r", "5", "--out", str(graph)]) == 0
        elif case == "verify-ring-2000":
            # Sparse enough that the profile pass takes the dict kernel.
            assert main(["cayley", "--group", "z:2000", "--class", "1=1;1999",
                         "--class", "2=2;1998;3;1997", "--out", str(graph)]) == 0
            sequence = ["--sequence", "2,4"]
        else:
            graph.write_text(_path_graph_json(), encoding="utf-8")
        capsys.readouterr()
        rc = main(["verify", "--in", str(graph), *sequence])
        out.write_text(capsys.readouterr().out, encoding="utf-8")
    else:
        group = "z:8" if case == "search-z8" else "z:100"
        extra = [] if case == "search-z8" else ["--mode", "greedy", "--budget", "500"]
        rc = main(["search-sumfree", "--group", group, *extra])
        out.write_text(capsys.readouterr().out, encoding="utf-8")
    capsys.readouterr()
    return rc, out.read_bytes()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_json_bytes_match_golden_digest(case, tmp_path, capsys):
    rc, data = _output(case, tmp_path, capsys)
    assert (rc, hashlib.sha256(data).hexdigest()) == GOLDEN[case]


def test_golden_cases_cover_what_they_name(tmp_path, capsys):
    """The digests are opaque, so check that each case reaches the state it names."""
    cases = {case: json.loads(_output(case, tmp_path, capsys)[1]) for case in GOLDEN}
    assert [cases[f"plan-br-{br}"]["parity_case"] for br in ("4-5", "10-12", "11-13", "42-135")] \
        == ["one-odd", "both-even", "both-odd", "one-odd"]
    invalid = cases["gaps-plan-invalid"]
    assert invalid["first_chain_violation"] == ["e", 2]
    assert invalid["part_ratio"] == [7, 3]
    assert cases["gaps-plan-valid"]["first_chain_violation"] is None
    k700 = cases["gaps-plan-k700"]
    assert (k700["k"], len(k700["deg_affine"]), k700["first_chain_violation"]) == (700, 700, None)
    assert cases["verify-pass"]["verdict"] == "pass"
    path = cases["verify-path-30"]
    assert path["violation_count"] > 20 and len(path["violations"]) == 20
    assert isinstance(path["e_chain"][0], list)
    ring = cases["verify-ring-2000"]
    assert (ring["colour_degrees"], ring["e_chain"]) == ([2, 4], [6, 9])
    assert ring["violation_count"] == 2000 and ring["violations"][0] == [0, "chain-not-strict"]
    assert cases["search-z8"]["mode"] == "exhaustive"
    assert cases["search-z100-greedy"]["mode"] == "greedy"


# JSON-ready values as the CLI's documents hold them, and the scalars and
# containers json.dumps also takes: big and negative ints, floats, non-ASCII
# text, tuples and empty containers.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
    | st.floats() | st.text(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(json_values)
def test_writer_is_the_indent_2_layout(value):
    assert cli._dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
