import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from chiralwalk import cli, onedim
from chiralwalk.cli import main
from chiralwalk.walk import (LineWalkSpec, WalkSpec, line_walk_to_json,
                             walk_to_json)
from helpers import sphere_coeff

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def walk_file(tmp_path):
    w = WalkSpec.make(0.5, np.sqrt(0.75), [
        ("00", sphere_coeff(0.9)), ("01", sphere_coeff(0.9)),
        ("10", sphere_coeff(0.2)), ("11", sphere_coeff(-0.9))])
    path = tmp_path / "walk.json"
    path.write_text(walk_to_json(w))
    return str(path)


@pytest.fixture()
def line_file(tmp_path):
    middle = [(n, sphere_coeff(0.9 + (n + 4) / 8 * (0.3 - 0.9))) for n in range(-4, 5)]
    spec = LineWalkSpec.make(sphere_coeff(0.9), sphere_coeff(0.3), middle)
    path = tmp_path / "line.json"
    path.write_text(line_walk_to_json(spec))
    return str(path)


def _src_env():
    """The environment of a subprocess that imports this checkout's package."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passes(capsys, walk_file):
    code, out, _ = run(capsys, "check", "--walk", walk_file, "--depth", "6")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 7
    assert all(row["status"] == "pass" for row in rows)
    assert all(float(row["residual"]) < 1e-10 for row in rows)


def test_check_breach_exit_code(capsys, walk_file):
    code, out, _ = run(capsys, "check", "--walk", walk_file, "--depth", "6",
                       "--tol", "1e-20")
    assert code == 4
    rows = list(csv.DictReader(io.StringIO(out)))
    assert any(row["status"] == "fail" for row in rows)


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "--walk", "/nonexistent/walk.json")
    assert code == 3
    assert "cannot read" in err


def test_check_invalid_walk(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "p": 0.0, "q": {"re": 1.0, "im": 0.0},
        "cells": [{"prefix": "", "a": 1.0, "b": {"re": 0.0, "im": 0.0}}]}))
    code, _, err = run(capsys, "check", "--walk", str(bad))
    assert code == 3
    assert "close to 1" in err


def test_index_exact_report(capsys, walk_file):
    code, out, _ = run(capsys, "index", "--walk", walk_file, "--mode", "exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == {"num": 1, "exp": 2}
    assert doc["numeric"] == 0.25
    # the exact pairing reads no seed, so it accepts any
    assert run(capsys, "index", "--walk", walk_file, "--mode", "exact",
               "--seed", "-1") == (0, out, "")


def test_index_degenerate_cell(capsys, tmp_path):
    w = WalkSpec.make(0.5, np.sqrt(0.75), [("0", sphere_coeff(0.5)),
                                           ("1", sphere_coeff(0.9))])
    path = tmp_path / "degenerate.json"
    path.write_text(walk_to_json(w))
    code, _, err = run(capsys, "index", "--walk", str(path))
    assert code == 2
    assert "'0'" in err


def test_index_mc_deterministic(capsys, walk_file):
    code1, out1, _ = run(capsys, "index", "--walk", walk_file, "--mode", "mc",
                         "--samples", "400", "--seed", "7")
    code2, out2, _ = run(capsys, "index", "--walk", walk_file, "--mode", "mc",
                         "--samples", "400", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_index_bernoulli_measure(capsys, tmp_path):
    w = WalkSpec.make(0.0, 1.0, [("0", sphere_coeff(0.8)), ("1", sphere_coeff(-0.8))])
    path = tmp_path / "two.json"
    path.write_text(walk_to_json(w))
    code, out, _ = run(capsys, "index", "--walk", str(path),
                       "--measure", "bernoulli:0.3333333333333333")
    assert code == 0
    assert json.loads(out)["numeric"] == pytest.approx(-1 / 3, abs=1e-12)


def test_index_bad_measure(capsys, walk_file):
    code, _, err = run(capsys, "index", "--walk", walk_file, "--measure", "gaussian")
    assert code == 3
    assert "measure" in err


def test_winding_json(capsys):
    code, out, _ = run(capsys, "winding", "--a", "0.6")
    assert code == 0
    doc = json.loads(out)
    assert doc["winding_residues"] == 1
    assert doc["winding_quadrature"] == pytest.approx(1.0, abs=1e-6)
    assert doc["status"] == "ok"


def test_winding_singular_exit(capsys):
    code, out, _ = run(capsys, "winding", "--a", "0.5", "--p", "0.5")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "singular"
    assert doc["w0"]["abs"] == pytest.approx(1.0, abs=1e-10)
    # within the 1e-9 band of the locus
    code, out, _ = run(capsys, "winding", "--a", "0.5", "--p", "0.5000000000001")
    assert code == 2
    assert json.loads(out)["status"] == "singular"


# one cell at margin 1e-8 from the locus: its residue class is right, but 4096
# circle samples miss the turn, so the quadrature reads 0 instead of 1
NEAR_A, NEAR_P, NEAR_Q = 0.50000001, 0.5, complex(0.6623727640744224, 0.5579088827150985)


def test_near_locus_cell_is_singular_where_the_routes_disagree(capsys, tmp_path):
    path = tmp_path / "near.json"
    path.write_text(walk_to_json(WalkSpec.make(NEAR_P, NEAR_Q, [("", sphere_coeff(NEAR_A, 1.0))])))
    # the exact pairing runs no quadrature
    code, out, _ = run(capsys, "index", "--walk", str(path), "--mode", "exact")
    assert code == 0 and json.loads(out)["numeric"] == 1.0
    code, out, err = run(capsys, "index", "--walk", str(path), "--mode", "mc")
    assert (code, out) == (2, "")
    assert "(cell '')" in err
    code, out, _ = run(capsys, "winding", f"--a={NEAR_A!r}", f"--p={NEAR_P!r}",
                       f"--q-re={NEAR_Q.real!r}", f"--q-im={NEAR_Q.imag!r}", "--b-phase=1.0")
    assert code == 2 and json.loads(out)["status"] == "singular"


def test_onedim_command(capsys, line_file):
    code, out, _ = run(capsys, "onedim", "--walk", line_file, "--halfwidth", "100")
    assert code == 0
    assert json.loads(out)["index"] == 1


def test_falk_commands(capsys):
    code, out, _ = run(capsys, "falk", "--f-value", "1", "--trunc", "64")
    assert code == 0
    assert json.loads(out)["pairing"] == pytest.approx(1.0)
    code, out, _ = run(capsys, "falk", "--cylinder", "0", "--trunc", "64")
    assert code == 0
    assert json.loads(out)["pairing"] == pytest.approx(0.5)
    code, _, err = run(capsys, "falk")
    assert code == 3


def test_sweep_structure(capsys):
    code, out, _ = run(capsys, "sweep", "--p-grid", "0,0.5",
                       "--a-grid=-0.9:0.9:0.1", "--samples", "512")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_p = {}
    for row in rows:
        by_p.setdefault(float(row["p"]), []).append(row)
    # p = 0: winding equals the sign of a
    for row in by_p[0.0]:
        if row["status"] == "ok":
            assert int(row["winding_residues"]) == np.sign(float(row["a"]))
    # p = 0.5: the winding steps exactly at a = -0.5 and a = 0.5
    values = [(float(r["a"]), r) for r in by_p[0.5]]
    for a, row in values:
        if row["status"] != "ok":
            assert abs(abs(a) - 0.5) < 1e-6
            continue
        expected = 1 if a > 0.5 else (-1 if a < -0.5 else 0)
        assert int(row["winding_residues"]) == expected, a


def test_sweep_workers_keep_canonical_order(capsys):
    argv = ["sweep", "--p-grid", "0,0.5", "--a-grid=-0.8:0.8:0.2", "--samples", "256"]
    _, serial, _ = run(capsys, *argv, "--workers", "1")
    _, four, _ = run(capsys, *argv, "--workers", "4")
    assert serial == four


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_index_workers_change_no_byte(capsys, walk_file, mode):
    # --workers is accepted and ignored: the index runs one serial path
    argv = ["index", "--walk", walk_file, "--mode", mode, "--samples", "300", "--seed", "2"]
    code, serial, _ = run(capsys, *argv, "--workers", "1")
    assert code == 0
    assert run(capsys, *argv, "--workers", "4") == (0, serial, "")


def test_sweep_empty_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--p-grid", "", "--a-grid", "")
    assert code == 0
    assert out.splitlines() == ["p,a,winding_residues,winding_quadrature,min_abs_loop,status"]


def test_sweep_rejects_bad_a(capsys):
    code, _, err = run(capsys, "sweep", "--p-grid", "0", "--a-grid", "0.5,1.5")
    assert code == 3


def test_output_file(capsys, walk_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "index", "--walk", walk_file, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["numeric"] == 0.25


@pytest.fixture()
def meminfo(tmp_path, monkeypatch):
    """Point the memory preflight at a meminfo file with a given MemAvailable."""
    def make(available_kb):
        path = tmp_path / "meminfo"
        path.write_text(f"MemTotal:        8000000 kB\nMemAvailable: {available_kb:10d} kB\n")
        monkeypatch.setattr(cli, "MEMINFO", str(path))
    return make


@pytest.mark.parametrize("argv", [
    ["index", "--mode", "mc", "--samples", "0"],
    ["index", "--mode", "mc", "--seed", "-1"],
    ["index", "--measure", "bernoulli:1.5"],
    ["falk", "--cylinder", "012"],
    ["falk", "--f-value", "1", "--trunc", "5"],
    ["winding", "--a", "0.5", "--samples", "10"],
    ["sweep", "--samples", "0", "--p-grid", "0", "--a-grid", "0.5"],
    ["sweep", "--p-grid", "0,x"],
    ["sweep", "--p-grid", "0", "--a-grid", "0:1:1e-320"],
    ["winding", "--a", "nan"],
    ["winding", "--a", "0.5", "--p", "nan"],
    ["winding", "--a", "0.5", "--q-re", "nan"],
    ["winding", "--a", "0.5", "--b-phase", "inf"],
    ["sweep", "--p-grid", "nan", "--a-grid", "0.5"],
    ["sweep", "--p-grid", "0.5", "--a-grid", "nan"],
    ["sweep", "--p-grid", "2", "--a-grid", "0.5"],
    ["check", "--depth", "0"],
    ["check", "--depth", "21"],
    ["onedim", "--halfwidth", "1"],
    *([cmd, "--tol", tol] for cmd in ("check", "onedim") for tol in ("nan", "inf", "-1", "0")),
    # arrays of 17 GB (check) and 11 GB (falk), against 6 GB available
    ["check", "--depth", "13"],
    ["falk", "--f-value", "1", "--trunc", "200000000"],
    # a count whose byte size overflows a float
    ["winding", "--a", "0.5", "--samples", "1" + "0" * 400],
], ids=lambda argv: " ".join(argv)[:80])
def test_invalid_arguments_exit_3_before_work(capsys, meminfo, walk_file, line_file, argv):
    meminfo(6_000_000)
    if argv[0] in ("index", "check"):
        argv = argv + ["--walk", walk_file]
    if argv[0] == "onedim":
        argv = argv + ["--walk", line_file]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("field,argv", [
    ("a", ["index", "--mode", "exact"]), ("p", ["index", "--mode", "exact"]),
    ("a", ["index", "--mode", "mc"]), ("p", ["index", "--mode", "mc"]),
    ("a", ["check"]), ("p", ["check"]),
    ("left", ["onedim"]),
    ("b", ["index", "--mode", "exact"]), ("b", ["index", "--mode", "mc"]), ("b", ["check"]),
    ("left-b", ["onedim"]),
    ("prefix", ["index", "--mode", "exact"]), ("prefix", ["index", "--mode", "mc"]),
    ("prefix", ["check"]),
    *((field, argv) for field in ("cells", "cell")
      for argv in (["index", "--mode", "exact"], ["index", "--mode", "mc"], ["check"])),
    ("middle", ["onedim"]), ("n", ["onedim"]), ("n-huge", ["onedim"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_non_finite_walk_file_exits_3_before_work(capsys, tmp_path, walk_file, line_file,
                                                  field, argv):
    # a NaN in a tree walk's first cell a or its p, or in a line walk's left
    # tail; or a finite b.re = 1e200 there, whose norm overflows; or a tree
    # walk cell whose prefix is not a bit string; or tree cells that are not a
    # list of objects, a line middle that is not a list, or a middle site
    # whose n is not an integer or lies far beyond --halfwidth
    line = field.startswith(("left", "middle", "n"))
    doc = json.loads(Path(line_file if line else walk_file).read_text())
    if field == "cells":
        doc["cells"] = 5
    elif field == "cell":
        doc["cells"] = ["x"]
    elif field == "middle":
        doc["middle"] = 5
    elif field == "n":
        doc["middle"] = [dict(doc["middle"][0], n=1.5)]   # once read as site 1
    elif field == "n-huge":
        doc["middle"] = [dict(doc["middle"][0], n=10 ** 400)]
    elif field == "a":
        doc["cells"][0]["a"] = float("nan")
    elif field == "p":
        doc["p"] = float("nan")
    elif field == "left":
        doc["left"]["a"] = float("nan")
    elif field == "prefix":
        doc["cells"][0]["prefix"] = "x"
    else:
        (doc["left"] if field == "left-b" else doc["cells"][0])["b"]["re"] = 1e200
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--walk", str(path))
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_onedim_preflights_the_span_of_the_middle(capsys, meminfo, tmp_path):
    # two middle sites 1M apart: the transfer count would read every site
    # between them, about 210 MB, against 100 MB available
    spec = LineWalkSpec.make(sphere_coeff(0.9), sphere_coeff(0.3),
                             [(-500_000, sphere_coeff(0.8)), (500_000, sphere_coeff(0.4))])
    path = tmp_path / "wide.json"
    path.write_text(line_walk_to_json(spec))
    meminfo(100_000)
    start = time.perf_counter()
    code, out, err = run(capsys, "onedim", "--walk", str(path), "--halfwidth", "2000000")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: a middle spanning 1000001 sites needs about")
    assert len(err.splitlines()) == 1


def test_preflight_reads_mem_available(capsys, meminfo, tmp_path, monkeypatch, walk_file):
    meminfo(60_000)          # 61 MB: less than a depth-6 check needs
    code, out, err = run(capsys, "check", "--walk", walk_file, "--depth", "6")
    assert code == 3 and out == ""
    assert err.startswith("error: --depth 6 needs about")
    meminfo(6_000_000)
    assert run(capsys, "check", "--walk", walk_file, "--depth", "6")[0] == 0
    # without a readable meminfo the preflight is skipped
    monkeypatch.setattr(cli, "MEMINFO", str(tmp_path / "absent"))
    assert run(capsys, "check", "--walk", walk_file, "--depth", "6")[0] == 0


# the CLI under a 3 GB address-space limit
LIMITED_MAIN = """
import resource, sys
from chiralwalk.cli import main
resource.setrlimit(resource.RLIMIT_AS, (3_000_000 * 1024, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


def test_preflight_reads_address_space_limit(walk_file):
    # under a 3 GB address-space limit a depth-12 check (about 4.2 GB) is
    # refused at once, where it used to die in numpy after seconds of work
    env = _src_env()

    def check(depth):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", LIMITED_MAIN, "check", "--walk", walk_file,
                               "--depth", str(depth)],
                              env=env, capture_output=True, text=True, timeout=300)
        return done, time.perf_counter() - start

    done, seconds = check(12)
    assert done.returncode == 3, done.stderr
    assert seconds < 1.0
    assert done.stdout == ""
    assert done.stderr.startswith("error: --depth 12 needs about")
    done, _ = check(6)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    ["winding", "--a", "0.3", "--samples", "20000000000"],
    ["index", "--mode", "mc", "--samples", "20000000000"],
    ["sweep", "--p-grid", "0", "--a-grid", "0.5", "--samples", "20000000000"],
    ["sweep", "--p-grid", "0", "--a-grid", "0:1e-300:1e-310"],
    ["sweep", "--p-grid=0:1:0.0001", "--a-grid=-0.9:0.9:0.0001"],
], ids=" ".join)
def test_oversized_1d_input_exits_3_before_work(walk_file, argv):
    # samples and grid points from 140 GB upwards; the 3 GB address-space
    # limit keeps a missed refusal from taking the machine's memory
    if argv[0] == "index":
        argv = argv + ["--walk", walk_file]
    done = subprocess.run([sys.executable, "-c", LIMITED_MAIN, *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


# reports pinned byte for byte: the block-decoded Monte Carlo stream and the
# closed-form cylinder pairing must reproduce what the scalar loops printed
GOLDEN_INDEX_MC = """{
  "classification_counts": {
    "minus": 779,
    "plus": 757,
    "zero": 464
  },
  "exact": null,
  "mc_stderr": 0.01959927462389594,
  "mode": "mc",
  "numeric": -0.011,
  "per_cell": [
    {
      "measure": 0.1345,
      "prefix": "00",
      "winding": 1
    },
    {
      "measure": 0.244,
      "prefix": "01",
      "winding": 1
    },
    {
      "measure": 0.232,
      "prefix": "10",
      "winding": 0
    },
    {
      "measure": 0.3895,
      "prefix": "11",
      "winding": -1
    }
  ],
  "samples": 2000,
  "seed": 11
}
"""


def test_index_mc_golden(capsys, walk_file):
    code, out, _ = run(capsys, "index", "--walk", walk_file, "--mode", "mc",
                       "--measure", "bernoulli:0.37", "--samples", "2000", "--seed", "11")
    assert code == 0
    assert out == GOLDEN_INDEX_MC


# the identity table and the lattice report of the shipped configs, pinned
# byte for byte (csv rows end in CRLF); the coin is applied through its
# diagonal blocks, and no change of representation may move a digit
GOLDEN_CHECK = (
    "identity,residual,threshold,status\r\n"
    "symmetry_squared,2.220446049250313e-16,1e-10,pass\r\n"
    "coin_squared,0.0,1e-10,pass\r\n"
    "conjugator_unitary,4.440892098500626e-16,1e-10,pass\r\n"
    "coin_diagonalized,4.440892098500626e-16,1e-10,pass\r\n"
    "defect_kills_shift,1.3401577416544657e-16,1e-10,pass\r\n"
    "coin_anticommutes_skew,2.220446049250313e-16,1e-10,pass\r\n"
    "conjugated_skew_diag_blocks,1.1102230246251565e-16,1e-10,pass\r\n"
)

GOLDEN_ONEDIM = """{
  "cokernel_discarded": 0,
  "cokernel_kept": 0,
  "index": 1,
  "kernel_discarded": 0,
  "kernel_kept": 1,
  "sines": [
    null,
    null
  ],
  "tail_margins": [
    0.8055150594283031,
    0.4355220644196308
  ]
}
"""


def test_check_golden(capsys):
    code, out, _ = run(capsys, "check", "--walk", str(CONFIGS / "level2_walk.json"),
                       "--depth", "6")
    assert code == 0
    assert out == GOLDEN_CHECK


def test_check_golden_depth10(capsys):
    # the full-size bundle of the tree-check benchmark prints the same
    # digits as depth 6
    code, out, _ = run(capsys, "check", "--walk", str(CONFIGS / "level2_walk.json"),
                       "--depth", "10")
    assert code == 0
    assert out == GOLDEN_CHECK


def test_onedim_golden(capsys):
    code, out, _ = run(capsys, "onedim", "--walk", str(CONFIGS / "line_wall.json"),
                       "--halfwidth", "40")
    assert code == 0
    assert out == GOLDEN_ONEDIM


def test_onedim_halfwidth_changes_no_byte(capsys):
    # the transfer count reads the same sites at every halfwidth
    wall = str(CONFIGS / "line_wall.json")
    start = time.perf_counter()
    code, out, _ = run(capsys, "onedim", "--walk", wall, "--halfwidth", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == run(capsys, "onedim", "--walk", wall, "--halfwidth", "40")[1] == GOLDEN_ONEDIM


def test_onedim_inconclusive_exits_2(capsys, tmp_path, monkeypatch):
    # two narrow tails: each count compares two lines at a sine near 0.98,
    # inside (0.02, 2)
    spec = LineWalkSpec.make(sphere_coeff(0.3), sphere_coeff(0.0), [])
    path = tmp_path / "narrow.json"
    path.write_text(line_walk_to_json(spec))
    code, out, err = run(capsys, "onedim", "--walk", str(path), "--tol", "0.02")
    assert code == 2 and out == ""
    assert err.startswith("inconclusive: sine")
    assert run(capsys, "onedim", "--walk", str(path))[0] == 0
    # counts that break the tail rule are never printed
    monkeypatch.setattr(onedim, "classify_point", lambda a, p: 1)
    code, out, err = run(capsys, "onedim", "--walk", str(CONFIGS / "line_wall.json"))
    assert code == 2 and out == ""
    assert err.startswith("inconclusive: transfer counts give index 1, the tail windings 0")


@pytest.mark.parametrize("measure,pairing", [("uniform", "0.0625"),
                                             ("bernoulli:0.37", "0.054335610000000006")])
def test_falk_cylinder_golden(capsys, measure, pairing):
    code, out, _ = run(capsys, "falk", "--cylinder", "0110", "--measure", measure)
    assert code == 0
    assert out == ('{\n  "cylinder": "0110",\n  "measure": "%s",\n  "pairing": %s,\n'
                   '  "trunc": 200\n}\n' % (measure, pairing))


def test_no_subcommand_imports_scipy(tmp_path, walk_file, line_file):
    # a scipy import would add tens of MB of RSS and about 0.1 s to every
    # call; the subcommands run serially, so no thread pool is loaded either
    script = f"""
import sys
from chiralwalk.cli import main
calls = [
    ["check", "--walk", {walk_file!r}, "--depth", "4"],
    ["winding", "--a", "0.6"],
    ["index", "--walk", {walk_file!r}],
    ["index", "--walk", {walk_file!r}, "--mode", "mc", "--samples", "50"],
    ["onedim", "--walk", {line_file!r}, "--halfwidth", "40"],
    ["falk", "--cylinder", "01"],
    ["sweep", "--p-grid", "0", "--a-grid", "0.5", "--samples", "64"],
]
for k, argv in enumerate(calls):
    assert main(argv + ["--out", {str(tmp_path)!r} + f"/out{{k}}"]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] in ("scipy", "concurrent")))
"""
    env = _src_env()
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
