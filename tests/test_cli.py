import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from klyachko import (MonomialIdeal, compute_diagram, ideal_sum,
                      projective_space, sum_diagram)
from klyachko.checks import PROPERTY_NAMES
from klyachko.cli import main

EX_GENS = [[0, 0, 2], [1, 0, 1], [1, 1, 0]]
H3_GENS = [[0, 1, 0, 0], [3, 0, 0, 1]]
H1_GENS = [[3, 1, 0], [1, 1, 2], [0, 0, 3], [0, 3, 0]]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("KLYACHKO_WINDOW", raising=False)


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def run_json(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return json.loads(captured.out)


def test_diagram_command(capsys, files, p2):
    path = files("ex.json", {"gens": EX_GENS})
    payload = run_json(capsys, ["diagram", "P2", path])
    expected = compute_diagram(p2, MonomialIdeal(EX_GENS))
    assert payload == json.loads(json.dumps(expected.to_json()))


def test_diagram_render_flag(capsys, files):
    path = files("ex.json", {"gens": EX_GENS})
    rc = main(["diagram", "P2", path, "--render"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err.count("cone") >= 3


def test_hilbert_command(capsys, files):
    path = files("ex.json", {"gens": EX_GENS})
    payload = run_json(capsys, ["hilbert", "P2", path, "--degrees", "-1..4"])
    assert [v["value"] for v in payload["values"]] == [0, 1, 3, 3, 3, 3]
    assert payload["values"][0]["degree"] == [-1]
    assert payload["constant_poly"] == 3
    assert payload["note"] is None


def test_hilbert_builds_the_diagram_once(capsys, monkeypatch, files):
    import klyachko.cli as cli
    import klyachko.hilbert as hilbert

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compute_diagram(*args, **kwargs)

    # the library route builds its own diagram, so count that one too
    for module in (cli, hilbert):
        monkeypatch.setattr(module, "compute_diagram", counted)
    path = files("ex.json", {"gens": EX_GENS})
    payload = run_json(capsys, ["hilbert", "P2", path, "--degrees", "0..5"])
    assert [v["value"] for v in payload["values"]] == [1, 3, 3, 3, 3, 3]
    assert len(calls) == 1


def test_h1_command(capsys, files):
    path = files("h1.json", {"gens": H1_GENS})
    payload = run_json(capsys, ["h1", "P2", path, "--degrees", "0..6"])
    dims = [p["dimension"] for p in payload["pieces"]]
    assert dims == [0, 1, 3, 5, 4, 1, 0]
    deg2 = payload["pieces"][2]
    assert set(deg2["monomials"]) == {"x0*x1", "x1^2", "x1*x2"}


def test_saturate_from_ideal(capsys, files):
    path = files("h3.json", {"gens": H3_GENS})
    payload = run_json(capsys, ["saturate", "H3", path])
    assert payload == {"gens": [[0, 0, 0, 1], [0, 1, 0, 0]]}


def test_saturate_from_diagram_json(capsys, files, h3):
    diag = compute_diagram(h3, MonomialIdeal(H3_GENS))
    path = files("diag.json", diag.to_json())
    payload = run_json(capsys, ["saturate", "H3", path])
    assert payload == {"gens": [[0, 0, 0, 1], [0, 1, 0, 0]]}


def test_saturate_diagram_without_members_exit_code(capsys, files, p2):
    diag = compute_diagram(p2, MonomialIdeal([(1, 1, 0)])).to_json()
    # a gap over the whole floor orthant of one maximal cone
    diag["cones"]["1,2"]["gaps"]["cells"] = [{"1": [1, None], "2": [0, None]}]
    rc = main(["saturate", "P2", files("diag.json", diag)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_saturate_box(capsys, files):
    path = files("h3.json", {"gens": H3_GENS})
    payload = run_json(capsys, ["saturate", "H3", path,
                                "--box", "-4..2,-1..2"])
    assert payload == {"gens": [[0, 0, 0, 1], [0, 1, 0, 0]]}


def test_saturate_box_too_small(capsys, files):
    path = files("h3.json", {"gens": H3_GENS})
    rc = main(["saturate", "H3", path, "--box", "-3..1,0..1"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "boundary" in captured.err


@pytest.mark.parametrize("gens, box", [
    # the generator x0^7*x1*x2^3 has class 11, past the box
    ([[7, 1, 3], [0, 5, 0]], "1..9"),
    # a principal ideal, whose class 3 lies below the box
    ([[2, 1, 0]], "50..60"),
])
def test_saturate_box_misses_a_generator(capsys, files, gens, box):
    path = files("ideal.json", {"gens": gens})
    rc = main(["saturate", "P2", path, "--box", box])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "boundary" in captured.err


def test_saturate_huge_box_returns_promptly(files):
    path = files("ideal.json", {"gens": [[0, 0, 2], [1, 0, 1], [1, 1, 0]]})
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-m", "klyachko.cli", "saturate",
                             "P2", path, "--box", "0..100000"],
                            env=env, capture_output=True, text=True, timeout=20)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"gens": [[0, 0, 2], [1, 0, 1], [1, 1, 0]]}


def test_sum_command(capsys, files, p2):
    first = files("a.json", {"gens": [[0, 0, 2], [1, 0, 1]]})
    second = files("b.json", {"gens": [[1, 1, 0]]})
    payload = run_json(capsys, ["sum", "P2", first, second])
    a = compute_diagram(p2, MonomialIdeal([(0, 0, 2), (1, 0, 1)]))
    b = compute_diagram(p2, MonomialIdeal([(1, 1, 0)]))
    expected = sum_diagram(p2, a, b).to_json()
    assert payload == json.loads(json.dumps(expected))


def test_check_single_ideal(capsys, files):
    path = files("ex.json", {"gens": EX_GENS})
    rc = main(["check", "P2", path])
    captured = capsys.readouterr()
    assert rc == 0
    for name in ("membership", "roundtrip", "hilbert", "saturation", "ties"):
        assert f"PASS {name}" in captured.out
    assert "FAIL" not in captured.out


def test_check_random_suite(capsys):
    rc = main(["check", "P2", "--random", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "(3 cases)" in captured.out


def test_check_paths_print_one_property_order(capsys, files):
    path = files("ex.json", {"gens": EX_GENS})
    orders = []
    for argv in (["check", "P2", path], ["check", "P2", "--random", "2"]):
        assert main(argv) == 0
        orders.append([line.split()[1] for line in capsys.readouterr().out.splitlines()])
    assert orders[0] == orders[1] == list(PROPERTY_NAMES)


def test_check_failure_exit_code(capsys, monkeypatch, files):
    import klyachko.cli as cli

    def fake_suite(fan, seed=0, count=100):
        return {"fan": "P2", "cases": count, "seed": seed,
                "properties": [{"name": "membership", "status": "fail",
                                "failures": [{"case": 0, "gens": [[1, 0, 0]],
                                              "witness": "forced"}]}]}

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    rc = main(["check", "P2", "--random", "1"])
    captured = capsys.readouterr()
    assert rc == 4
    assert "FAIL membership" in captured.out


@pytest.mark.parametrize("count", ["-1", "0"])
def test_check_random_count_exit_code(capsys, tmp_path, count):
    report = tmp_path / "report.json"
    rc = main(["check", "P2", "--random", count, "--out", str(report)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert captured.out == "" and not report.exists()


def test_render_ascii(capsys, files):
    path = files("ex.json", {"gens": EX_GENS})
    rc = main(["render", "P2", path])
    captured = capsys.readouterr()
    assert rc == 0
    assert "#" in captured.out
    assert "cone" in captured.out


def test_render_svg_out(capsys, files, tmp_path):
    path = files("ex.json", {"gens": EX_GENS})
    target = tmp_path / "picture.svg"
    rc = main(["render", "P2", path, "--out", str(target)])
    assert rc == 0
    text = target.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_out_flag_writes_file(capsys, files, tmp_path, p2):
    path = files("ex.json", {"gens": EX_GENS})
    target = tmp_path / "diag.json"
    rc = main(["diagram", "P2", path, "--out", str(target)])
    assert rc == 0
    expected = compute_diagram(p2, MonomialIdeal(EX_GENS)).to_json()
    assert json.loads(target.read_text()) == json.loads(json.dumps(expected))


def test_missing_file_exit_code(capsys):
    rc = main(["diagram", "P2", "/nonexistent/ideal.json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


def test_unknown_fan_exit_code(capsys, files):
    path = files("ex.json", {"gens": EX_GENS})
    rc = main(["diagram", "nonsense", path])
    assert rc == 2


def test_bad_degrees_exit_code(capsys, files):
    path = files("ex.json", {"gens": EX_GENS})
    assert main(["hilbert", "P2", path, "--degrees", "abc"]) == 2
    capsys.readouterr()
    assert main(["hilbert", "P2", path, "--degrees", "4..1"]) == 2
    capsys.readouterr()
    assert main(["hilbert", "H3", path, "--degrees", "0..2"]) == 2


def test_zero_ideal_exit_code(capsys, files):
    path = files("zero.json", {"gens": []})
    rc = main(["diagram", "P2", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert "no generators" in captured.err


def test_bad_window_env_exit_code(capsys, files, monkeypatch):
    monkeypatch.setenv("KLYACHKO_WINDOW", "wide")
    path = files("ex.json", {"gens": EX_GENS})
    rc = main(["render", "P2", path])
    assert rc == 2
    assert "KLYACHKO_WINDOW" in capsys.readouterr().err


def test_negative_render_radius_exit_code(capsys, files, monkeypatch):
    path = files("ex.json", {"gens": EX_GENS})
    assert main(["render", "P2", path, "--window", "-3"]) == 2
    assert "--window" in capsys.readouterr().err
    monkeypatch.setenv("KLYACHKO_WINDOW", "-1")
    assert main(["diagram", "P2", path, "--render"]) == 2
    assert "KLYACHKO_WINDOW" in capsys.readouterr().err
    monkeypatch.setenv("KLYACHKO_WINDOW", "0")
    assert main(["render", "P2", path]) == 0
    assert "window [0, 0]^2" in capsys.readouterr().out


def test_check_rejects_window_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "P2", "--window", "3"])
    assert err.value.code == 2
    assert "--window" in capsys.readouterr().err


def test_hostile_json_exit_code(capsys, files, p2):
    blob = compute_diagram(p2, MonomialIdeal(EX_GENS)).to_json()
    far_ray = json.loads(json.dumps(blob))
    far_ray["cones"]["1,2"]["gaps"]["cells"] = [{"7": [0, 0]}]
    wrong_cone = json.loads(json.dumps(blob))
    wrong_cone["cones"]["1,2"]["gaps"] = {"cone": [0, 1], "cells": []}
    float_floor = dict(blob, s=[0, 0.5, 0])
    padded_key = json.loads(json.dumps(blob))
    padded_key["cones"][" +0 ,1"] = padded_key["cones"].pop("0,1")
    twin_key = json.loads(json.dumps(blob))
    twin_key["cones"]["00,1"] = {"support": blob["cones"]["0,1"]["support"],
                                 "gaps": {"cone": [0, 1], "cells": [{"0": [0, 0]}]}}
    moved_support = json.loads(json.dumps(blob))
    moved_support["cones"]["1,2"]["support"]["cells"] = [{"1": [3, None], "2": [0, None]}]
    p2_json = p2.to_json()
    inputs = {
        "string exponent": {"gens": [[0, "x", 2]]},
        "gens not a list": {"gens": 5},
        "float exponent": {"gens": [[0, 1.7, 2]]},
        "bool exponent": {"gens": [[0, True, 2]]},
        "cell ray outside the cone": far_ray,
        "region cone differs from its key": wrong_cone,
        "float exponent floor": float_floor,
        "cone key with sign and spaces": padded_key,
        "cone key with a leading zero": twin_key,
        "support off the floor orthant": moved_support,
    }
    fans = {
        "float and bool ray entries": dict(p2_json, rays=[[-1, -1], [1.9, 0], [0, True]]),
        "string dimension": dict(p2_json, dim="2"),
        "float cone index": dict(p2_json, max_cones=[[0, 1], [0, 2], [1, 2.0]]),
        "rays not a list": dict(p2_json, rays=7),
    }
    ideal = files("ideal.json", {"gens": EX_GENS})
    for label, payload in {**inputs, **fans}.items():
        hostile = files("hostile.json", payload)
        rc = main(["diagram", hostile, ideal] if label in fans
                  else ["saturate", "P2", hostile])
        captured = capsys.readouterr()
        assert rc == 2, label
        assert "error:" in captured.err, label
        if label == "support off the floor orthant":
            assert "cone (1, 2)" in captured.err


def test_cli_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import klyachko.cli, sys; assert 'numpy' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_repeated_runs_are_identical(capsys, files):
    path = files("ex.json", {"gens": EX_GENS})
    outputs = []
    for _ in range(2):
        rc = main(["diagram", "P2", path])
        outputs.append(capsys.readouterr().out)
        assert rc == 0
    assert outputs[0] == outputs[1]
    for _ in range(2):
        rc = main(["h1", "P2", path, "--degrees", "0..3"])
        outputs.append(capsys.readouterr().out)
        assert rc == 0
    assert outputs[2] == outputs[3]
