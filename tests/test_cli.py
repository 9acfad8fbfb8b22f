"""Exit codes, report round trips, and determinism of the command line."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import discrete_spec, empty_sset, one_object_category

import qckit
from qckit.cli import main
from qckit.monoids import (
    GradeMonoid,
    MonoidSpec,
    cyclic_group,
    default_monoid_spec,
    group_nerve,
    monoid_spec_to_json,
)
from qckit.scat import scat_to_manifest
from qckit.sset import point, standard_simplex


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, _ = run(capsys, *argv)
    return rc, json.loads(out)


def write_json(path, blob):
    path.write_text(json.dumps(blob))
    return str(path)


def trivial_spec():
    return MonoidSpec(GradeMonoid(("0",), "0", {("0", "0"): "0"}), {}, 3)


def group_grade_spec():
    z2 = GradeMonoid(
        ("0", "1"),
        "0",
        {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"},
    )
    return MonoidSpec(z2, {"1": "Z/2"}, 3)


@pytest.fixture(scope="module")
def nerve3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("nerve") / "nerve3.json"
    rc = main(["nerve", "default", "--dim", "3", "--report", str(path)])
    assert rc == 0
    return str(path)


# -- check ------------------------------------------------------------


def test_check_valid_simplex(tmp_path, capsys):
    path = write_json(tmp_path / "d3.json", standard_simplex(3).to_json())
    rc, env = run_json(capsys, "check", path)
    assert rc == 0
    assert env["ok"] is True
    assert env["kind"] == "simplicial set"


def test_check_names_the_violation(tmp_path, capsys):
    blob = standard_simplex(2).to_json()
    blob["faces"]["0-1-2"][0]["cell"] = "0-2"
    path = write_json(tmp_path / "mut.json", blob)
    rc, env = run_json(capsys, "check", path)
    assert rc == 1
    assert env["ok"] is False
    assert any("0-1-2" in p for p in env["problems"])


def test_check_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"truncation": 1, ')
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize(
    "blob, spot",
    [
        ({"cells": [], "truncation": 0}, "'cells'"),
        ({"cells": {"0": "ab"}, "truncation": 0}, "'cells'"),
        ({"cells": {"0": ["a"]}, "truncation": True}, "'truncation'"),
        ({"cells": {"x": ["a"]}, "truncation": 0}, "'cells'"),
        (
            {"cells": {"0": ["a"], "1": ["e"]}, "truncation": 1,
             "faces": {"e": [{"cell": "a", "epi": ["q"]},
                             {"cell": "a", "epi": [0]}]}},
            "cell 'e' face 0",
        ),
        (
            {"cells": {"0": ["a"], "1": ["e"]}, "truncation": 1,
             "faces": {"e": [{"cell": "a", "epi": [0]}, {"cell": "a"}]}},
            "cell 'e' face 1",
        ),
        (
            {"cells": {"0": ["a", "b"], "1": ["e"]}, "truncation": 1,
             "faces": {"e": "ab"}},
            "cell 'e'",
        ),
        (
            {"cells": {"0": ["a"]}, "truncation": 0,
             "faces": {"zz": [{"cell": "a", "epi": [0]}]}},
            "'faces' key 'zz'",
        ),
        (
            {"truncation": 100000000, "cells": {"0": ["a"]}, "faces": {}},
            "'truncation' 100000000 exceeds 8",
        ),
        (
            {"truncation": 9, "cells": {"0": ["a"]}, "faces": {}},
            "'truncation' 9 exceeds 8",
        ),
    ],
    ids=["cells-list", "cells-string", "truncation-bool", "cells-key-not-a-dim",
         "epi-string", "epi-missing", "faces-string", "faces-key-not-a-cell",
         "truncation-above-the-cap", "truncation-one-above-the-cap"],
)
def test_check_cells_not_an_object_is_usage_error(tmp_path, capsys, blob, spot):
    path = write_json(tmp_path / "list.json", blob)
    rc, out, err = run(capsys, "check", path)
    assert rc == 2
    assert spot in err and "Traceback" not in err
    assert out == ""


def test_check_missing_file(capsys):
    rc, _, err = run(capsys, "check", "/nonexistent/x.json")
    assert rc == 2
    assert "no such file" in err


def test_check_unrecognized_payload(tmp_path, capsys):
    path = write_json(tmp_path / "odd.json", {"foo": 1})
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 2
    assert "unrecognized" in err


def test_check_monoid_spec(tmp_path, capsys):
    path = write_json(
        tmp_path / "spec.json", monoid_spec_to_json(default_monoid_spec())
    )
    rc, env = run_json(capsys, "check", path)
    assert rc == 0
    assert env["kind"] == "monoid spec"


def test_check_rejects_group_grades(tmp_path, capsys):
    path = write_json(
        tmp_path / "gspec.json", monoid_spec_to_json(group_grade_spec())
    )
    rc, env = run_json(capsys, "check", path)
    assert rc == 1
    assert any("left translation" in p for p in env["problems"])


@pytest.mark.parametrize("elements, table, problems", [
    (["0", "a"], [["0", "a"], ["0", "a"]], [
        "unit law fails at 'a'",
        "left translation by 'a' is a bijection: {'0': '0', 'a': 'a'}",
    ]),
    (["0", "a", "b"], [["0", "a", "b"], ["a", "a", "a"], ["b", "b", "a"]], [
        "associativity fails at ('b', 'a', 'b')",
        "associativity fails at ('b', 'b', 'b')",
    ]),
], ids=["unit", "associativity"])
def test_check_names_a_grade_law_that_fails(tmp_path, capsys, elements, table, problems):
    blob = {
        "grades": {"elements": elements, "unit": "0", "table": table},
        "components": {g: {"group": "Z/2"} for g in elements[1:]},
        "truncation": 3,
    }
    rc, env = run_json(capsys, "check", write_json(tmp_path / "spec.json", blob))
    assert rc == 1
    assert env["problems"] == ["grade monoid rejected:", *problems]


def test_check_scat_manifest(tmp_path, capsys):
    cat = one_object_category(["1"], lambda later, earlier: "1", truncation=2)
    manifest = scat_to_manifest(cat, str(tmp_path))
    rc, env = run_json(capsys, "check", manifest)
    assert rc == 0
    assert env["kind"] == "enriched category"


@pytest.mark.parametrize(
    "key, value",
    [("homs", []), ("comp", []), ("comp", {"*|*|*": []}), ("identities", "1"),
     ("homs", None), ("homs", {"**": "scat_hom_*_*.json"}),
     ("comp", {"*|*|*": {"0": [[{"cell": "1", "epi": [0]}]]}}),
     ("comp", {"*|*|*": {"x": []}}), ("comp", {"*|*|*": {"0": [["1", "1", "1"]]}}),
     ("objects", 5), ("comp", {"*|*|q": {}}),
     ("comp", {"*|*|*": {"0": [[{"cell": "ghost", "epi": [0]}] * 3]}}),
     ("comp", {"*|*|*": {"0": [[{"cell": "1", "epi": [3]}] * 3]}}),
     ("comp", {"*|*|*": {"0": [[{"cell": "1", "epi": [0]}] * 3],
                         "1": [[{"cell": "1", "epi": [0, 0]}] * 3]}}),
     ("homs", {"*|*": 5}), ("objects", [["*"]]), ("identities", {"*": ["1"]}),
     ("identities", {"*": "1", "zz": "1"}), ("objects", ["*", "*"]),
     ("homs", {"*|*": "scat_hom_*_*.json", "q|q": "scat_hom_*_*.json"})],
    ids=["homs-list", "comp-list", "comp-entry-list", "identities-string",
         "hom-file-is-a-directory", "homs-key-without-bar", "comp-row-not-triple",
         "comp-level-not-a-dimension", "comp-entry-string", "objects-int",
         "comp-key-without-hom", "comp-entry-unknown-cell", "comp-entry-bad-epi",
         "comp-level-missing-a-pair", "hom-file-name-not-a-string",
         "object-is-a-list", "identity-is-a-list", "identity-key-not-an-object",
         "objects-repeated", "homs-key-not-an-object"],
)
def test_malformed_manifest_exits_two(tmp_path, capsys, key, value):
    cat = one_object_category(["1"], lambda later, earlier: "1", truncation=2)
    path = scat_to_manifest(cat, str(tmp_path))
    with open(path) as fh:
        manifest = json.load(fh)
    if value is None:
        (tmp_path / "sub").mkdir()
        manifest["homs"] = {"*|*": "sub"}
        spot = str(tmp_path / "sub")
    else:
        manifest[key] = value
        spot = f"{key!r}"
    write_json(tmp_path / os.path.basename(path), manifest)
    rc, out, err = run(capsys, "check", path)
    assert rc == 2
    assert spot in err and "Traceback" not in err
    assert out == ""


# -- nerve ------------------------------------------------------------


def test_nerve_discrete_monoid_counts(tmp_path, capsys):
    spec = write_json(
        tmp_path / "disc.json", monoid_spec_to_json(discrete_spec())
    )
    rc, env = run_json(capsys, "nerve", spec, "--dim", "3")
    assert rc == 0
    assert env["counts"]["total"] == [1, 2, 4, 8]


def test_nerve_trivial_spec_is_point(tmp_path, capsys):
    spec = write_json(
        tmp_path / "triv.json", monoid_spec_to_json(trivial_spec())
    )
    rc, env = run_json(capsys, "nerve", spec, "--dim", "3")
    assert rc == 0
    assert env["counts"]["nondegenerate"] == [1, 0, 0, 0]


def test_nerve_artifact_revalidates(nerve3_file, capsys):
    rc, env = run_json(capsys, "check", nerve3_file)
    assert rc == 0 and env["ok"] is True


def test_nerve_reference_counts(nerve3_file, capsys):
    rc, env = run_json(capsys, "nerve", "default", "--dim", "2")
    assert rc == 0
    assert env["counts"]["total"] == [1, 3, 17]
    assert env["counts"]["nondegenerate"] == [1, 2, 12]


def test_nerve_rejects_group_grade_spec(tmp_path, capsys):
    spec = write_json(
        tmp_path / "gspec.json", monoid_spec_to_json(group_grade_spec())
    )
    rc, _, err = run(capsys, "nerve", spec)
    assert rc == 1
    assert "left translation" in err


def test_nerve_hard_cap(capsys):
    rc, _, err = run(capsys, "nerve", "default", "--dim", "5")
    assert rc == 2
    assert "hard limit 4" in err


def test_nerve_env_cap(monkeypatch, capsys):
    monkeypatch.setenv("QCKIT_MAX_DIM", "2")
    rc, _, err = run(capsys, "nerve", "default", "--dim", "3")
    assert rc == 2
    assert "exceeds the cap 2" in err
    rc, env = run_json(capsys, "nerve", "default", "--dim", "2")
    assert rc == 0
    assert env["dimension_caps"]["env"] == 2


def test_env_cap_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("QCKIT_MAX_DIM", "tall")
    rc, _, err = run(capsys, "nerve", "default", "--dim", "1")
    assert rc == 2
    assert "QCKIT_MAX_DIM" in err


# -- coslice / core / pi ----------------------------------------------


def test_coslice_of_point_is_point(tmp_path, capsys):
    path = write_json(tmp_path / "pt.json", point("pt", 1).to_json())
    out = tmp_path / "cos.json"
    rc, env = run_json(
        capsys, "coslice", path, "--at", "pt", "--dim", "0",
        "--report", str(out),
    )
    assert rc == 0
    assert env["counts"]["nondegenerate"] == [1]
    rc, env = run_json(capsys, "check", str(out))
    assert rc == 0


def test_coslice_reference_counts_and_revalidation(
    nerve3_file, tmp_path, capsys
):
    out = tmp_path / "cos.json"
    rc, env = run_json(
        capsys, "coslice", nerve3_file, "--at", "n0c0", "--dim", "2",
        "--report", str(out),
    )
    assert rc == 0
    assert env["counts"]["total"] == [3, 17, 193]
    rc, env = run_json(capsys, "check", str(out))
    assert rc == 0 and env["ok"] is True


def test_coslice_unknown_vertex(tmp_path, capsys):
    path = write_json(tmp_path / "pt.json", point("pt", 1).to_json())
    rc, _, err = run(capsys, "coslice", path, "--at", "zz", "--dim", "0")
    assert rc == 1
    assert "zz" in err


def test_coslice_needs_room_above_dim(tmp_path, capsys):
    path = write_json(tmp_path / "pt.json", point("pt", 1).to_json())
    rc, _, err = run(capsys, "coslice", path, "--at", "pt", "--dim", "1")
    assert rc == 1


def _self_citing(n):
    # face 0 of the top cell of the n-simplex names the top cell itself
    blob = standard_simplex(n).to_json()
    top = "-".join(str(v) for v in range(n + 1))
    blob["faces"][top][0]["cell"] = top
    return blob, top


@pytest.mark.parametrize(
    "n, argv",
    [(1, ["coslice", "{path}", "--at", "0", "--dim", "0"]),
     (2, ["core", "{path}"])],
    ids=["coslice", "core"],
)
def test_self_citing_input_exits_two(tmp_path, capsys, n, argv):
    blob, top = _self_citing(n)
    path = write_json(tmp_path / "self.json", blob)
    rc, out, err = run(capsys, *[a.format(path=path) for a in argv])
    assert rc == 2
    assert f"{top!r}" in err and "Traceback" not in err
    assert out == ""


def test_core_of_group_nerve_is_itself(tmp_path, capsys):
    x = group_nerve(cyclic_group(2), 3)
    path = write_json(tmp_path / "bz2.json", x.to_json())
    out = tmp_path / "core.json"
    rc, env = run_json(capsys, "core", path, "--report", str(out))
    assert rc == 0
    assert env["counts"]["nondegenerate"] == [x.cell_count(d) for d in range(4)]
    rc, env = run_json(capsys, "check", str(out))
    assert rc == 0


def test_core_of_coslice_lists_invertible_edges(
    nerve3_file, tmp_path, capsys
):
    cos = tmp_path / "cos.json"
    rc, _ = run_json(
        capsys, "coslice", nerve3_file, "--at", "n0c0", "--dim", "2",
        "--report", str(cos),
    )
    assert rc == 0
    rc, env = run_json(capsys, "core", str(cos))
    assert rc == 0
    # 5 invertible 1-simplices total: 3 degenerate plus these 2 cells
    assert len(env["invertible_edges"]) == 2
    assert env["counts"]["nondegenerate"][0] == 3


def test_core_at_dim_one_has_no_witnesses(tmp_path, capsys):
    # truncated to edges, no triangle can witness an inverse
    path = write_json(tmp_path / "d2.json", standard_simplex(2).to_json())
    rc, env = run_json(capsys, "core", path, "--dim", "1")
    assert rc == 0
    assert env["invertible_edges"] == []
    assert env["counts"]["nondegenerate"] == [3, 0]


def test_core_dim_flag_truncates_first(tmp_path, capsys):
    x = group_nerve(cyclic_group(2), 3)
    path = write_json(tmp_path / "bz2.json", x.to_json())
    rc, env = run_json(capsys, "core", path, "--dim", "2")
    assert rc == 0
    assert env["counts"]["truncation"] == 2
    rc, _, err = run(capsys, "core", path, "--dim", "7")
    assert rc == 1
    assert "truncated at 3" in err


def test_pi_group_nerve_table(tmp_path, capsys):
    path = write_json(
        tmp_path / "bz2.json", group_nerve(cyclic_group(2), 3).to_json()
    )
    rc, env = run_json(capsys, "pi", path, "--at", "v")
    assert rc == 0
    assert env["pi0"] == [["v"]]
    (p,) = env["pi1"]
    assert p["order"] == 2
    assert p["ok"] is True
    i = p["identity"]
    g = 1 - i
    assert p["table"][i][i] == i and p["table"][g][g] == i
    assert p["table"][i][g] == g and p["table"][g][i] == g


def test_pi_unanchored_covers_every_vertex(nerve3_file, tmp_path, capsys):
    cos = tmp_path / "cos.json"
    core_out = tmp_path / "core.json"
    run_json(
        capsys, "coslice", nerve3_file, "--at", "n0c0", "--dim", "2",
        "--report", str(cos),
    )
    run_json(capsys, "core", str(cos), "--report", str(core_out))
    rc, env = run_json(capsys, "pi", str(core_out))
    assert rc == 0
    assert [len(c) for c in env["pi0"]] == [1, 1, 1]
    assert sorted(p["order"] for p in env["pi1"]) == [1, 2, 2]


def test_pi_without_two_cells(tmp_path, capsys):
    path = write_json(tmp_path / "pt.json", point("pt", 1).to_json())
    rc, env = run_json(capsys, "pi", path)
    assert rc == 0
    assert "pi1_skipped" in env
    rc, _, err = run(capsys, "pi", path, "--at", "pt")
    assert rc == 1
    assert "2-simplices" in err


# -- verify-prop ------------------------------------------------------


def test_verify_prop_default_passes(tmp_path, capsys):
    report = tmp_path / "prop.json"
    rc, env = run_json(
        capsys, "verify-prop", "default", "--report", str(report)
    )
    assert rc == 0
    assert env["ok"] is True
    names = [c["name"] for c in env["checks"]]
    assert names == ["a", "b", "c", "d", "e", "f"]
    assert json.loads(report.read_text()) == env


def test_verify_prop_rejects_group_spec(tmp_path, capsys):
    spec = write_json(
        tmp_path / "gspec.json", monoid_spec_to_json(group_grade_spec())
    )
    rc, _, err = run(capsys, "verify-prop", spec)
    assert rc == 1
    assert "left translation" in err


def test_unit_component_named_z1_is_the_trivial_one(tmp_path, capsys):
    envelopes = []
    for group in ("Z/1", "trivial"):
        blob = monoid_spec_to_json(default_monoid_spec())
        blob["components"]["0"] = {"group": group}
        spec = write_json(tmp_path / "spec.json", blob)
        rc, env = run_json(capsys, "check", spec)
        assert (rc, env["ok"], env["problems"]) == (0, True, [])
        rc, env = run_json(capsys, "verify-prop", spec, "--dim", "2")
        assert rc == 0 and env["ok"] is True
        envelopes.append(env)
    assert envelopes[0] == envelopes[1]


@pytest.mark.parametrize("dim", ["0", "1"])
def test_verify_prop_dim_below_two_names_the_option(capsys, dim):
    rc, out, err = run(capsys, "verify-prop", "default", "--dim", dim)
    assert rc == 2
    assert out == ""
    assert "--dim must be >= 2" in err


def test_verify_prop_dim_needs_truncation_room(capsys):
    rc, _, err = run(capsys, "verify-prop", "default", "--dim", "3")
    assert rc == 1
    assert "truncation" in err


def test_verify_prop_hard_cap(capsys):
    # --dim 4 would build the dimension-5 nerve
    rc, out, err = run(capsys, "verify-prop", "default", "--dim", "4")
    assert rc == 2
    assert "hard limit 3" in err
    assert out == ""


# -- grassmann --------------------------------------------------------


def test_assoc_check_clean(capsys):
    rc, env = run_json(
        capsys, "grassmann", "--assoc-check", "--seed", "3",
        "--trials", "40",
    )
    assert rc == 0
    assert env["associativity_failures"] == []
    assert env["identity_failures"] == []
    assert env["seed"] == 3 and env["trials"] == 40


def test_assoc_check_deterministic(capsys):
    _, first, _ = run(
        capsys, "grassmann", "--assoc-check", "--seed", "11", "--trials", "25"
    )
    _, second, _ = run(
        capsys, "grassmann", "--assoc-check", "--seed", "11", "--trials", "25"
    )
    assert first == second


def test_pairing_witness_echelon_forms_differ(capsys):
    rc, env = run_json(capsys, "grassmann", "--pairing-witness")
    assert rc == 0
    w = env["witness"]
    assert w["left_association"] != w["right_association"]


def test_pairing_witness_szudzik(capsys):
    rc, env = run_json(
        capsys, "grassmann", "--pairing-witness", "--pairing", "szudzik"
    )
    assert rc == 0
    assert env["pairing"] == "szudzik"


@pytest.mark.parametrize("mode", [
    ["--assoc-check", "--seed", "5", "--trials", "10"],
    ["--pairing-witness"],
])
def test_grassmann_report_holds_the_printed_json(tmp_path, capsys, mode):
    out_file = tmp_path / "grassmann.json"
    rc, out, _ = run(capsys, "grassmann", *mode, "--report", str(out_file))
    assert rc == 0
    assert out_file.read_text() == out
    assert json.loads(out)["command"] == "grassmann"


def test_grassmann_modes_are_exclusive(capsys):
    rc, _, _ = run(capsys, "grassmann", "--assoc-check", "--pairing-witness")
    assert rc == 2
    rc, _, _ = run(capsys, "grassmann")
    assert rc == 2


# -- export-dot -------------------------------------------------------


def test_export_dot_triangle(tmp_path, capsys):
    path = write_json(tmp_path / "d2.json", standard_simplex(2).to_json())
    rc, out, _ = run(capsys, "export-dot", path)
    assert rc == 0
    assert '"0" -> "1" [label="0-1"];' in out
    assert '"0" -> "2" [label="0-2"];' in out
    assert '"1" -> "2" [label="1-2"];' in out
    assert "2-cell 0-1-2: 0-1 then 1-2 composes to 0-2" in out


def test_export_dot_empty(tmp_path, capsys):
    path = write_json(tmp_path / "e.json", empty_sset().to_json())
    rc, out, _ = run(capsys, "export-dot", path)
    assert rc == 0
    assert out == "digraph sset {\n}\n"


def test_export_dot_file_and_json_format(tmp_path, capsys):
    path = write_json(tmp_path / "d2.json", standard_simplex(2).to_json())
    out_file = tmp_path / "d2.dot"
    rc, out, _ = run(capsys, "export-dot", path, "--report", str(out_file))
    assert rc == 0
    assert out == ""
    assert out_file.read_text().startswith("digraph sset {")
    rc, env = run_json(capsys, "export-dot", path, "--format", "json")
    assert rc == 0
    assert env["dot"] == out_file.read_text()


def test_export_dot_json_report_holds_the_printed_json(tmp_path, capsys):
    path = write_json(tmp_path / "d2.json", standard_simplex(2).to_json())
    out_file = tmp_path / "d2.json.report"
    rc, out, _ = run(
        capsys, "export-dot", path, "--format", "json", "--report", str(out_file)
    )
    assert rc == 0
    assert out_file.read_text() == out
    assert json.loads(out)["dot"].startswith("digraph sset {")


# -- envelope and usage -----------------------------------------------


def test_envelope_metadata(capsys):
    rc, env = run_json(capsys, "nerve", "default", "--dim", "1")
    assert rc == 0
    assert env["tool"] == "qckit"
    assert env["version"]
    assert env["command"] == "nerve"
    assert env["dimension_caps"]["requested"] == 1
    assert env["dimension_caps"]["hard"] == 4


def test_usage_errors_exit_two(tmp_path, capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 2
    path = write_json(tmp_path / "pt.json", point("pt", 1).to_json())
    rc, _, _ = run(capsys, "coslice", path)   # missing --at
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["nerve", "default"],
        ["coslice", "{pt}", "--at", "pt"],
        ["core", "{pt}"],
        ["verify-prop", "default"],
        ["export-dot", "{pt}"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_dim_exits_two(tmp_path, capsys, argv):
    path = write_json(tmp_path / "pt.json", point("pt", 1).to_json())
    argv = [a.format(pt=path) for a in argv]
    rc, out, err = run(capsys, *argv, "--dim", "-1")
    assert rc == 2
    assert "--dim" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--assoc-check", "--trials", "-5"], "--trials"),
        (["--pairing-witness", "--window", "-1"], "--window must be >= 3"),
        (["--pairing-witness", "--window", "0"], "--window must be >= 3"),
        (["--pairing-witness", "--window", "1"], "--window must be >= 3"),
        (["--pairing-witness", "--window", "2"], "--window must be >= 3"),
        (["--pairing-witness", "--window", "65"], "--window must be <= 64"),
        (["--pairing-witness", "--window", "100000000"],
         "--window must be <= 64"),
    ],
    ids=["trials-negative", "window-negative", "window-0", "window-1",
         "window-2", "window-65", "window-huge"],
)
def test_grassmann_count_out_of_range_exits_two(capsys, argv, option):
    rc, out, err = run(capsys, "grassmann", *argv)
    assert rc == 2
    assert option in err and "Traceback" not in err
    assert out == ""


def _colon_grade(blob):
    blob["grades"]["elements"][1] = "a:b"
    blob["grades"]["table"] = [
        ["a:b" if x == "1" else x for x in row] for row in blob["grades"]["table"]
    ]
    blob["components"] = {"a:b": {"group": "Z/2"}, "2+": {"group": "Z/2"}}


def _repeated_grade(blob):
    # a lawful table over the grades 0, 1, 1: the repeat lists the
    # component of '1' twice in the total space
    blob["grades"]["elements"][2] = "1"
    blob["grades"]["table"] = [
        [x.replace("2+", "1") for x in row] for row in blob["grades"]["table"]
    ]


@pytest.mark.parametrize(
    "edit, spot",
    [
        (lambda b: b["components"]["1"].update(group="Z/0"), "'Z/0'"),
        (lambda b: b["grades"]["table"][1].pop(), "row '1'"),
        (_colon_grade, "'a:b'"),
        (lambda b: b.update(truncation="3"), "'truncation'"),
        (lambda b: b.update(truncation=2.5), "'truncation'"),
        (lambda b: b.update(truncation=True), "'truncation'"),
        (lambda b: b.update(truncation=-1), "'truncation'"),
        (lambda b: b.update(truncation=5), "'truncation' 5"),
        (_repeated_grade, "'grades.elements': grade '1' is listed twice"),
        (lambda b: b["grades"].update(elements=[0, "1", "2+"]), "'grades.elements'"),
        (lambda b: b["grades"].update(elements="012"), "'grades.elements'"),
        (lambda b: b["components"].update({"1": "Z/2"}), "'components' entry '1'"),
        (lambda b: b["components"].update(zz={"group": "Z/2"}),
         "'components' key 'zz' is not a grade"),
        (lambda b: b["grades"].update(unit=["0"]), "'grades.unit'"),
        (lambda b: b["grades"].update(unit="zz"), "'grades.unit' 'zz'"),
        (lambda b: b["grades"]["table"][1].__setitem__(1, 7),
         "'grades.table' row '1' column '1'"),
        (lambda b: b["components"].pop("2+"),
         "'components' has no entry for grade '2+'"),
        (lambda b: b["components"]["1"].update(group="Z/20000"),
         "the component of grade '1' is Z/20000"),
        (lambda b: b["components"]["1"].update(group="Z/\u00b2"),
         "unknown group 'Z/\u00b2'"),
        (lambda b: b["components"]["1"].update(group="Z/9"),
         "the component of grade '1' is Z/9, and its order ** 3 = 729 "
         "exceeds 512"),
    ],
    ids=["zero-order-group", "ragged-table", "colon-in-grade",
         "truncation-string", "truncation-float", "truncation-bool",
         "truncation-negative", "truncation-above-the-cap", "repeated-grade",
         "grade-not-a-string", "elements-a-string", "component-not-an-object",
         "components-key-not-a-grade", "unit-a-list", "unit-not-a-grade",
         "table-entry-not-a-grade", "component-missing", "group-huge",
         "group-order-not-ascii", "group-above-the-size-cap"],
)
def test_malformed_spec_exits_two(tmp_path, capsys, edit, spot):
    blob = monoid_spec_to_json(default_monoid_spec())
    edit(blob)
    spec = write_json(tmp_path / "spec.json", blob)
    for argv in (["verify-prop", spec], ["check", spec], ["nerve", spec]):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert spot in err and "Traceback" not in err
        assert out == ""


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "verify-prop" in out


def test_commands_import_only_the_modules_they_run(tmp_path):
    # a cold process compiles every module it imports, so the commands on
    # simplicial-set files must not pull in the nerve or monoid layers
    src = os.path.dirname(os.path.dirname(qckit.__file__))
    d2 = write_json(tmp_path / "d2.json", standard_simplex(2).to_json())
    code = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from qckit.cli import main\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('qckit.'))\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes.append(main(['--version']))\n"
        "    at_version = loaded()\n"
        f"    codes.append(main(['check', {d2!r}]))\n"
        "    at_check = loaded()\n"
        f"    codes.append(main(['coslice', {d2!r}, '--at', '0', '--dim', '1']))\n"
        f"    codes.append(main(['core', {d2!r}]))\n"
        f"    codes.append(main(['pi', {d2!r}]))\n"
        f"    codes.append(main(['export-dot', {d2!r}]))\n"
        "print(json.dumps([codes, at_version, at_check, loaded()]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
    )
    codes, at_version, at_check, at_end = json.loads(done.stdout)
    assert codes == [0] * 6
    assert at_version == ["qckit.cli"]
    assert at_check == ["qckit.cli", "qckit.ordinals", "qckit.sset"]
    assert "qckit.join" in at_end and "qckit.quasicat" in at_end
    assert {"qckit.scat", "qckit.monoids", "qckit.posets"}.isdisjoint(at_end)


@pytest.mark.parametrize("argv", [["nerve", "default", "--dim", "3"], ["export-dot", "d2"]],
                         ids=["nerve", "export-dot"])
def test_closed_stdout_exits_one_without_a_traceback(tmp_path, argv):
    # the read end of the pipe is closed before qckit writes a byte
    d2 = write_json(tmp_path / "d2.json", standard_simplex(2).to_json())
    argv = [str(d2) if a == "d2" else a for a in argv]
    src = os.path.dirname(os.path.dirname(qckit.__file__))
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "qckit.cli", *argv], stdout=w,
            stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(w)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize(
    "argv",
    [["nerve", "default", "--dim", "2"], ["grassmann", "--assoc-check", "--trials", "3"],
     ["grassmann", "--pairing-witness"]],
    ids=["nerve", "assoc-check", "pairing-witness"],
)
def test_unwritable_report_exits_two_naming_the_path(tmp_path, capsys, argv, where):
    # the report is written before anything is printed
    path = str(tmp_path if where == "directory" else tmp_path / "missing" / "x.json")
    rc, out, err = run(capsys, *argv, "--report", path)
    assert rc == 2
    assert f"cannot write {path}" in err and "Traceback" not in err
    assert out == ""


def _loaded_after(code: str) -> list:
    """The modules a fresh process holds after running ``code``; -B
    keeps src free of bytecode, as in the standard-library test below."""
    src = os.path.dirname(os.path.dirname(qckit.__file__))
    done = subprocess.run(
        [sys.executable, "-B", "-c",
         f"import json, sys\nsys.path.insert(0, {src!r})\n{code}\n"
         "print(json.dumps(sorted(sys.modules)))\n"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_monoids_loads_no_rational_arithmetic():
    loaded = _loaded_after("import qckit.monoids")
    assert "qckit.monoids" in loaded
    assert {"fractions", "decimal", "qckit.grassmann"}.isdisjoint(loaded)
    # records are plain classes: dataclasses would bring inspect and ast
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [["--pairing-witness"], ["--assoc-check", "--trials", "1"]],
                         ids=["pairing-witness", "assoc-check"])
def test_grassmann_loads_no_nerve_module(argv):
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from qckit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['grassmann', *{argv!r}]) == 0"
    )
    assert [m for m in loaded if m.split(".")[0] == "qckit"] == [
        "qckit", "qckit.cli", "qckit.grassmann"]
    assert "dataclasses" not in loaded


def test_runtime_loads_only_the_standard_library():
    # isolated (-I) and without site-packages (-S): every qckit module
    # must import, and nothing outside the standard library may load;
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps src free of bytecode
    src = os.path.dirname(os.path.dirname(qckit.__file__))
    code = (
        "import json, pkgutil, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import qckit\n"
        "for info in pkgutil.iter_modules(qckit.__path__):\n"
        "    __import__('qckit.' + info.name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code],
        capture_output=True, text=True, check=True,
    )
    loaded = json.loads(done.stdout)
    assert "qckit.cli" in loaded and "qckit.monoids" in loaded
    stdlib = set(sys.stdlib_module_names) | set(sys.builtin_module_names)
    tops = {name.split(".")[0] for name in loaded}
    assert tops - stdlib - {"qckit", "__main__"} == set()


# -- mutated artifacts at the boundary --------------------------------

FUZZ_ARTIFACTS = {
    "spec": monoid_spec_to_json(default_monoid_spec()),
    "simplex": standard_simplex(2).to_json(),
}
FUZZ_VALUES = [None, "x", -1, 2.5, True, [], {}]


def _json_paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _json_paths(value, prefix + (index,))


def _at(blob, path):
    for key in path:
        blob = blob[key]
    return blob


@st.composite
def mutated_artifacts(draw):
    """(kind, blob): a valid artifact with one or two keys dropped,
    values swapped for a wrongly typed or out-of-range one, or face
    entries pointed at a missing cell or at the cell itself."""
    kind = draw(st.sampled_from(sorted(FUZZ_ARTIFACTS)))
    blob = copy.deepcopy(FUZZ_ARTIFACTS[kind])
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_json_paths(blob))[1:]
        entries = [
            p for p in paths
            if len(p) == 3 and p[0] == "faces" and isinstance(_at(blob, p), dict)
        ]
        how = draw(st.sampled_from(["drop", "swap", "face"] if entries else ["drop", "swap"]))
        if how == "face":
            path = draw(st.sampled_from(entries))
            _at(blob, path)["cell"] = draw(st.sampled_from(["missing", path[1]]))
            continue
        path = draw(st.sampled_from(paths))
        parent = _at(blob, path[:-1])
        if how == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return kind, blob


@given(mutated_artifacts())
@settings(max_examples=1200, deadline=None, derandomize=True)
def test_mutated_artifacts_end_in_an_exit_code(artifact):
    kind, blob = artifact
    commands = [["check"]] if kind == "spec" else [["check"], ["core"], ["pi"]]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact.json")
        with open(path, "w") as fh:
            json.dump(blob, fh)
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = main(argv + [path])
            assert rc in (0, 1, 2), (argv, blob)
            assert "Traceback" not in err.getvalue()
