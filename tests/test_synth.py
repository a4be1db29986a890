"""Synthetic recidivism generator: determinism and calibration direction."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from synth import RECID_COLUMNS, recidivism_rows, write_recidivism_csv


def test_rows_are_deterministic():
    a = recidivism_rows(500, seed=3)
    b = recidivism_rows(500, seed=3)
    assert a == b
    c = recidivism_rows(500, seed=4)
    assert a != c


def test_row_shape_and_value_domains():
    rows = recidivism_rows(800, seed=1)
    assert len(rows) == 800
    for r in rows:
        assert len(r) == len(RECID_COLUMNS)
        age, sex, race, juv, priors, degree, label = r
        assert 18 <= int(age) <= 70
        assert sex in ("M", "F")
        assert degree in ("F", "M")
        assert int(juv) >= 0
        assert 0 <= int(priors) <= 38
        assert label in (0, 1)


def test_group_rates_move_in_expected_directions():
    # the stand-in must reproduce the directional disparities of the
    # recidivism data it replaces: higher base rate and higher priors
    # for the largest minority group than for the reference group
    rows = recidivism_rows(6000, seed=0)
    by_race = {}
    for r in rows:
        by_race.setdefault(r[2], []).append(r)
    aa = by_race["African-American"]
    cauc = by_race["Caucasian"]
    assert len(aa) > len(cauc) > 0
    rate = lambda rs: np.mean([int(r[6]) for r in rs])
    priors = lambda rs: np.mean([int(r[4]) for r in rs])
    assert rate(aa) > rate(cauc) + 0.05
    assert priors(aa) > priors(cauc)


def test_csv_writer_round_trips(tmp_path):
    import csv

    path = tmp_path / "standin.csv"
    write_recidivism_csv(path, n_rows=50, seed=2)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RECID_COLUMNS)
    assert len(rows) == 51
    assert rows[1] == [str(v) for v in recidivism_rows(50, seed=2)[0]]


def test_helper_regenerates_committed_standin(tmp_path):
    # the command in tests/synth.py's docstring, into a scratch path
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "standin.csv"
    subprocess.run([sys.executable, str(root / "tests" / "synth.py"), str(out)],
                   check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=str(root / "src")))
    committed = root / "data" / "recidivism_standin.csv"
    assert out.read_bytes() == committed.read_bytes()
