"""The report check accepts consistent report files and rejects doctored ones.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

import math
import os
import statistics

import pytest

from check import REPORT_COLUMNS, SUMMARY_COLUMNS, check_reports

N_GRID = [5, 100]
N_SEEDS = 3
N_F = 50
DELTA = 0.025


def _report_rows():
    rows = []
    for seed in range(N_SEEDS):
        for n in N_GRID:
            lam = math.sqrt(n)
            kl, psi, post = 0.5 + seed, 1.0 + 0.1 * seed, 0.3 + 0.01 * seed
            r_n = (kl + math.log(1.0 / DELTA) + psi) / lam
            rows.append({
                "N": n, "seed": seed, "lambda": lam, "delta": DELTA, "kl": kl,
                "psi_hat": psi, "r_N": r_n, "post_emp_loss": post,
                "total_bound": post + r_n, "z_hat": 2.0, "n_samples": N_F,
            })
    return rows


def _summary_rows(reports):
    rows = []
    for n in N_GRID:
        totals = [r["total_bound"] for r in reports if r["N"] == n]
        posts = [r["post_emp_loss"] for r in reports if r["N"] == n]
        rows.append({
            "N": n, "total_median": statistics.median(totals),
            "total_min": min(totals), "total_max": max(totals),
            "post_emp_loss_median": statistics.median(posts),
            "post_emp_loss_min": min(posts), "post_emp_loss_max": max(posts),
            "vacuity_level": 1.0,
        })
    return rows


def _write(path, columns, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for r in rows:
            fh.write(",".join(repr(r[c]) for c in columns) + "\n")


def _check(tmp_path, reports, summary=None, columns=REPORT_COLUMNS):
    _write(os.path.join(tmp_path, "bound_reports.csv"), columns, reports)
    _write(os.path.join(tmp_path, "summary.csv"), SUMMARY_COLUMNS,
           summary if summary is not None else _summary_rows(reports))
    return check_reports(str(tmp_path), N_GRID, N_SEEDS, N_F, DELTA)


def test_consistent_reports_pass(tmp_path):
    res = _check(tmp_path, _report_rows())
    assert res.messages() == []
    assert res.failed_cells == 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("total_bound", 0.1),        # total != post_emp_loss + r_N
        ("r_N", 0.2),                # r_N != (kl + ln(1/delta) + psi_hat) / lambda
        ("kl", -0.01),               # negative KL (breaks r_N as well)
        ("post_emp_loss", 4.5),      # above the largest square loss
        ("n_samples", N_F - 1),
        ("psi_hat", math.inf),
    ],
)
def test_doctored_cell_is_rejected(tmp_path, field, value):
    reports = _report_rows()
    reports[1][field] = value
    res = _check(tmp_path, reports)
    assert not res.run_errors
    assert res.failed_cells == 1
    assert res.cell_errors.keys() == {(0, 100)}


def test_doctored_summary_fails_every_cell(tmp_path):
    reports = _report_rows()
    summary = _summary_rows(reports)
    summary[0]["total_median"] += 1e-6
    res = _check(tmp_path, reports, summary)
    assert res.run_errors and res.failed_cells == N_SEEDS * len(N_GRID)


def test_missing_cell_and_wrong_header_fail_every_cell(tmp_path):
    res = _check(tmp_path, _report_rows()[:-1], _summary_rows(_report_rows()))
    assert res.failed_cells == N_SEEDS * len(N_GRID)
    swapped = REPORT_COLUMNS[:4] + [REPORT_COLUMNS[5], REPORT_COLUMNS[4]] + REPORT_COLUMNS[6:]
    res = _check(tmp_path, _report_rows(), columns=swapped)
    assert res.run_errors and res.failed_cells == N_SEEDS * len(N_GRID)
