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
