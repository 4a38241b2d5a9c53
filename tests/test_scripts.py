"""The scripts under scripts/, each run as a subprocess with small arguments."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import riemannkit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(riemannkit.__file__)))


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script, args, header, rows", [
    ("conjugate_sweep.py", ["--radii", "1.0", "--step", "1e-2"],
     ["R", "t_conjugate", "pi_R", "error"], 1),
    ("bishop_profile.py", ["--samples", "3", "--directions", "64"],
     ["r", "area", "model_area", "ratio", "pointwise"], 3),
])
def test_csv_scripts(script, args, header, rows):
    table = list(csv.reader(io.StringIO(_run(script, *args))))
    assert table[0] == header
    assert len(table) == 1 + rows
    assert all(len(row) == len(header) for row in table)


def test_torus_portrait():
    report = json.loads(_run("torus_portrait.py", "--angles", "3"))
    assert report["torus"] == {"R": 2.0, "r": 1.0}
    assert len(report["geodesics"]) == 3
    assert all({"phi0", "c", "class"} <= set(g) for g in report["geodesics"])


def test_parity_record_is_bitwise_itself_and_a_changed_bit_is_flagged(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _run("parity.py", "record", str(a), "--charts", "sphere2")
    assert "0 over, 0 faults differ, 0 missing" in _run("parity.py", "compare", str(a), str(a))
    doc = json.loads(a.read_text())
    spray = doc["outputs"]["sphere2/spray"]["parts"][0]["hex"]
    spray[0] = float.hex(float.fromhex(spray[0]) * (1.0 + 2.0 ** -52))  # one bit more
    b.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "parity.py"), "compare",
                           str(a), str(b)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "DIFFERS: sphere2/spray" in done.stdout
    # within a tolerance above the change, it passes
    assert "1 within 1e-15" in _run("parity.py", "compare", str(a), str(b), "--tol", "1e-15")
