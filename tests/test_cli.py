import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from klyachko import (MonomialIdeal, compute_diagram, ideal_sum,
                      projective_space, saturate_oracle, sum_diagram)
from klyachko.checks import PROPERTY_NAMES
from klyachko.cli import main

EX_GENS = [[0, 0, 2], [1, 0, 1], [1, 1, 0]]
H3_GENS = [[0, 1, 0, 0], [3, 0, 0, 1]]
H1_GENS = [[3, 1, 0], [1, 1, 2], [0, 0, 3], [0, 3, 0]]


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


def test_hilbert_command_on_p1(capsys, files):
    # the floor x0^2*x1 makes three points, not a growing quotient
    path = files("p1.json", {"gens": [[2, 1]]})
    payload = run_json(capsys, ["hilbert", "P1", path, "--degrees", "0..4"])
    assert [v["value"] for v in payload["values"]] == [1, 2, 3, 3, 3]
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


def test_hilbert_scans_the_saturation_once(capsys, monkeypatch, files):
    import klyachko.diagram as diagram
    scans = []
    scan = diagram.minimal_generator_exponents
    monkeypatch.setattr(diagram, "minimal_generator_exponents",
                        lambda *args: scans.append(1) or scan(*args))
    path = files("ex.json", {"gens": EX_GENS})
    payload = run_json(capsys, ["hilbert", "P2", path, "--degrees", "0..50"])
    assert len(payload["values"]) == 51
    assert len(scans) == 1


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


def test_saturate_from_diagram_json(capsys, files, h3, monkeypatch):
    import klyachko.diagram as diagram
    scans = []
    scan = diagram.minimal_generator_exponents
    monkeypatch.setattr(diagram, "minimal_generator_exponents",
                        lambda *args: scans.append(1) or scan(*args))
    diag = compute_diagram(h3, MonomialIdeal(H3_GENS))
    path = files("diag.json", diag.to_json())
    for box in ([], ["--box", "-4..2,-1..2"]):
        payload = run_json(capsys, ["saturate", "H3", path, *box])
        assert payload == {"gens": [[0, 0, 0, 1], [0, 1, 0, 0]]}
    # the check that the file is the diagram of its saturation reuses the scan
    assert len(scans) == 2


def test_saturate_diagram_without_members_exit_code(capsys, files, p2):
    diag = compute_diagram(p2, MonomialIdeal([(1, 1, 0)])).to_json()
    # a gap over the whole floor orthant of one maximal cone
    diag["gaps"]["1,2"] = [{"1": [1, None], "2": [0, None]}]
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


def test_sum_output_reads_back(capsys, files, tmp_path, p2):
    first = MonomialIdeal([(0, 0, 2), (2, 1, 0)])
    second = MonomialIdeal([(1, 0, 1), (0, 3, 0)])
    paths = [files(name, ideal.to_json())
             for name, ideal in (("a.json", first), ("b.json", second))]
    combined = tmp_path / "sum.json"
    assert main(["sum", "P2", *paths, "--out", str(combined)]) == 0
    payload = run_json(capsys, ["saturate", "P2", str(combined)])
    assert payload == saturate_oracle(ideal_sum(first, second), p2).to_json()
    assert main(["render", "P2", str(combined)]) == 0
    assert "cone" in capsys.readouterr().out


def test_diagram_file_cut_differently_reads_back(capsys, files):
    # regions are compared as sets: one gap cell split in two along a ray
    # still reads back, and to the same saturation and picture
    original = files("ex.json", {"gens": EX_GENS})
    blob = run_json(capsys, ["diagram", "P2", original])
    assert blob["gaps"]["0,2"] == [{"0": [0, 0], "2": [0, 1]}]
    blob["gaps"]["0,2"] = [{"0": [0, 0], "2": [0, 0]}, {"0": [0, 0], "2": [1, 1]}]
    split = files("split.json", blob)
    for command in ("saturate", "render"):
        assert main([command, "P2", split]) == 0
        cut = capsys.readouterr()
        assert main([command, "P2", original]) == 0
        assert cut == capsys.readouterr()


def test_diagram_file_with_redundant_cells_reads_back(capsys, files):
    # regions keep the cells they are given: a duplicated gap cell and a cell
    # nested inside it change no set, so the file still reads back
    original = files("ex.json", {"gens": EX_GENS})
    blob = run_json(capsys, ["diagram", "P2", original])
    cell = {"0": [0, 0], "2": [0, 1]}
    assert blob["gaps"]["0,2"] == [cell]
    blob["gaps"]["0,2"] = [cell, cell, {"0": [0, 0], "2": [1, 1]}]
    redundant = files("redundant.json", blob)
    assert main(["saturate", "P2", redundant]) == 0
    kept = capsys.readouterr()
    assert main(["saturate", "P2", original]) == 0
    assert kept == capsys.readouterr()
    assert main(["render", "P2", redundant]) == 0


def test_diagram_file_grows_with_the_maximal_cones(capsys, files, tmp_path):
    # P14 has 15 maximal cones and 2^15 - 1 cones in all
    ideal = files("line.json", {"gens": [[1] + [0] * 14, [0, 1] + [0] * 13]})
    out = tmp_path / "diag.json"
    assert main(["diagram", "P14", ideal, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["gaps"]) == 15
    assert out.stat().st_size < 20_000
    outputs = []
    for source in (ideal, str(out)):
        assert main(["saturate", "P14", source]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_check_single_ideal(capsys, files):
    path = files("ex.json", {"gens": EX_GENS})
    rc = main(["check", "P2", path])
    captured = capsys.readouterr()
    assert rc == 0
    for name in ("membership", "roundtrip", "hilbert", "saturation"):
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
    # --window is the one way to set the radius; the environment is not read
    path = files("ex.json", {"gens": EX_GENS})
    assert main(["render", "P2", path]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("KLYACHKO_WINDOW", "wide")
    assert main(["render", "P2", path]) == 0
    assert capsys.readouterr().out == plain


def test_negative_render_radius_exit_code(capsys, files):
    path = files("ex.json", {"gens": EX_GENS})
    assert main(["render", "P2", path, "--window", "-3"]) == 2
    assert "--window" in capsys.readouterr().err
    assert main(["diagram", "P2", path, "--render", "--window", "-1"]) == 2
    assert "--window" in capsys.readouterr().err
    assert main(["render", "P2", path, "--window", "0"]) == 0
    assert "window [0, 0]^2" in capsys.readouterr().out


def test_check_rejects_window_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "P2", "--window", "3"])
    assert err.value.code == 2
    assert "--window" in capsys.readouterr().err


def test_hostile_json_exit_code(capsys, files, tmp_path, p2):
    blob = compute_diagram(p2, MonomialIdeal(EX_GENS)).to_json()
    far_ray = json.loads(json.dumps(blob))
    far_ray["gaps"]["1,2"] = [{"7": [0, 0]}]
    float_floor = dict(blob, s=[0, 0.5, 0])
    padded_key = json.loads(json.dumps(blob))
    padded_key["gaps"][" +0 ,1"] = padded_key["gaps"].pop("0,1")
    twin_key = json.loads(json.dumps(blob))
    twin_key["gaps"]["00,1"] = [{"0": [0, 0]}]
    face_key = json.loads(json.dumps(blob))
    face_key["gaps"]["1"] = []
    missing_cone = json.loads(json.dumps(blob))
    del missing_cone["gaps"]["0,2"]
    gaps_not_list = json.loads(json.dumps(blob))
    gaps_not_list["gaps"]["1,2"] = {"1": [0, 0]}
    # the former format, which listed a support and gaps for every face
    old_format = {"s": blob["s"], "cones": {
        "1,2": {"support": {"cone": [1, 2], "cells": [{"1": [0, None], "2": [0, None]}]},
                "gaps": {"cone": [1, 2], "cells": blob["gaps"]["1,2"]}}}}
    # a bounded gap cell that no ideal has: reads back to (x0^2, x1*x2) all the same
    island = compute_diagram(p2, MonomialIdeal([(2, 0, 0), (0, 1, 1)])).to_json()
    island["gaps"]["1,2"].append({"1": [5, 6], "2": [5, 6]})
    p2_json = p2.to_json()
    unreadable = {"nested 200,000 deep": "[" * 200_000 + "]" * 200_000,
                  "not UTF-8": b'{"gens": [[0, 0, 2]], "name": "\xff"}'}
    inputs = {
        "string exponent": {"gens": [[0, "x", 2]]},
        "gens not a list": {"gens": 5},
        "float exponent": {"gens": [[0, 1.7, 2]]},
        "bool exponent": {"gens": [[0, True, 2]]},
        "cell ray outside the cone": far_ray,
        "float exponent floor": float_floor,
        "cone key with sign and spaces": padded_key,
        "cone key with a leading zero": twin_key,
        "face key": face_key,
        "missing maximal cone": missing_cone,
        "gaps not a list": gaps_not_list,
        "old format": old_format,
        "island gap cell": island,
    }
    named = {"face key": "'1'",
             "missing maximal cone": "(0, 2)",
             "gaps not a list": "'1,2'",
             "old format": "'gaps'",
             "island gap cell": "cone (1, 2)"}
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
        if label in named:
            assert named[label] in captured.err, label
    for label, content in unreadable.items():
        hostile = tmp_path / "unreadable.json"
        if isinstance(content, bytes):
            hostile.write_bytes(content)
        else:
            hostile.write_text(content)
        for argv in (["diagram", "P2", str(hostile)], ["saturate", "P2", str(hostile)],
                     ["diagram", str(hostile), ideal]):
            assert main(argv) == 2, (label, argv)
            assert "error:" in capsys.readouterr().err, (label, argv)
    # a repeated cone key: the last "1,2" entry, with no gaps, would make this
    # a valid diagram of (x2^2, x0)
    cones = ", ".join(f"{json.dumps(key)}: {json.dumps(val)}"
                      for key, val in blob["gaps"].items())
    repeated = tmp_path / "repeated.json"
    repeated.write_text(f'{{"s": {json.dumps(blob["s"])}, '
                        f'"gaps": {{{cones}, "1,2": []}}}}')
    for argv in (["saturate", "P2", str(repeated)], ["render", "P2", str(repeated)]):
        assert main(argv) == 2
        assert "repeats the key '1,2'" in capsys.readouterr().err
    # ray keys "1" and "01" alias: read by int(), the last [0, 0] would hide [7, 7]
    aliased = json.loads(json.dumps(blob))
    aliased["gaps"]["1,2"] = [{"1": [7, 7], "2": [0, 0], "01": [0, 0]}]
    aliased_path = files("aliased.json", aliased)
    for command in ("saturate", "render"):
        assert main([command, "P2", aliased_path]) == 2
        assert "ray '01'" in capsys.readouterr().err


@pytest.mark.parametrize("command,target", [
    ("diagram", "x.json"), ("render", "x.svg"), ("render", "x.txt"), ("check", "x.json")])
def test_unwritable_out_exit_code(capsys, files, tmp_path, command, target):
    path = files("ex.json", {"gens": EX_GENS})
    out = tmp_path / "missing" / target
    assert main([command, "P2", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and str(out) in captured.err
    assert not out.exists()


def test_check_prints_nothing_when_out_fails(capsys, files, tmp_path):
    # the report file is written before any PASS/FAIL line is printed
    path = files("ex.json", {"gens": EX_GENS})
    assert main(["check", "P2", path, "--out", str(tmp_path / "missing" / "x.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write" in captured.err


def test_hostile_files_exit_without_traceback(tmp_path):
    # in-process tests cannot see the exit code of an uncaught exception
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"gens": [[0, 0, 2]], "name": "\xff"}')
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"gens": EX_GENS}))
    unwritable = str(tmp_path / "missing" / "x.json")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for args in (["saturate", "P2", str(deep)], ["diagram", str(deep), str(ideal)],
                 ["diagram", "P2", str(latin)], ["diagram", str(latin), str(ideal)],
                 ["diagram", "P2", str(ideal), "--out", unwritable]):
        result = subprocess.run([sys.executable, "-m", "klyachko.cli", *args],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 2, (args, result.stderr)
        assert result.stderr.startswith("error:"), args
        assert "Traceback" not in result.stderr, args


def test_cli_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import klyachko.cli, sys; assert 'numpy' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cli_import_does_not_load_fractions():
    # chi is interpolated by fraction-free integer elimination, so a cold
    # start pays for no rational arithmetic
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import klyachko.cli, sys; assert 'fractions' not in sys.modules"
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
