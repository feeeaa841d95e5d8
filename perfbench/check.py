"""Correctness check of one experiment's report files.

The check reads the two CSV files that ``write_outputs`` leaves behind and
knows their documented columns itself, so a change to the program that moves
a column or breaks a bound identity is caught rather than followed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import statistics

REPORT_COLUMNS = [
    "N", "seed", "lambda", "delta", "kl", "psi_hat", "r_N",
    "post_emp_loss", "total_bound", "z_hat", "n_samples",
]
SUMMARY_COLUMNS = [
    "N", "total_median", "total_min", "total_max",
    "post_emp_loss_median", "post_emp_loss_min", "post_emp_loss_max",
    "vacuity_level",
]
REPORT_FILES = ("bound_reports.csv", "summary.csv")

# Relative tolerance of the bound identities; the program rounds each term
# once, so agreement is to a few ulps.
_REL_TOL = 1e-12
# Squared error of a tanh output against a tanh-bounded label.
_MAX_LOSS = 4.0
VACUITY_LEVEL = 1.0


class CheckResult:
    """Errors found, split into ones tied to a cell and ones that void the run."""

    def __init__(self, cells: list[tuple[int, int]]):
        self.cells = cells
        self.cell_errors: dict[tuple[int, int], list[str]] = {}
        self.run_errors: list[str] = []

    def cell(self, key: tuple[int, int], msg: str) -> None:
        self.cell_errors.setdefault(key, []).append(msg)

    def run(self, msg: str) -> None:
        self.run_errors.append(msg)

    @property
    def failed_cells(self) -> int:
        if self.run_errors:
            return len(self.cells)
        return len(self.cell_errors)

    def messages(self) -> list[str]:
        out = list(self.run_errors)
        for (seed, n), msgs in sorted(self.cell_errors.items()):
            out += [f"seed={seed} N={n}: {m}" for m in msgs]
        return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL)


def _read_csv(path: str, columns: list[str], res: CheckResult) -> list[dict] | None:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        res.run(f"cannot read {os.path.basename(path)}: {exc}")
        return None
    if not rows or rows[0] != columns:
        res.run(f"{os.path.basename(path)} header is {rows[:1]}, expected {columns}")
        return None
    out = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(columns):
            res.run(f"{os.path.basename(path)} line {line} has {len(row)} fields")
            return None
        try:
            out.append({c: float(v) for c, v in zip(columns, row)})
        except ValueError:
            res.run(f"{os.path.basename(path)} line {line} has a non-number: {row}")
            return None
    return out


def check_reports(out_dir: str, n_grid: list[int], n_seeds: int, n_f: int,
                  delta: float) -> CheckResult:
    """Check the report files of one run of the sqrt_n-lambda configuration."""
    cells = [(s, n) for s in range(n_seeds) for n in n_grid]
    res = CheckResult(cells)
    reports = _read_csv(os.path.join(out_dir, "bound_reports.csv"), REPORT_COLUMNS, res)
    summary = _read_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS, res)
    if reports is None or summary is None:
        return res

    by_cell = {}
    for r in reports:
        key = (int(r["seed"]), int(r["N"]))
        if key in by_cell:
            res.run(f"cell seed={key[0]} N={key[1]} reported twice")
        by_cell[key] = r
    if sorted(by_cell) != sorted(cells):
        res.run(f"reported cells {sorted(by_cell)} differ from expected {cells}")
        return res

    for key, r in by_cell.items():
        bad = [c for c, v in r.items() if not math.isfinite(v)]
        if bad:
            res.cell(key, f"non-finite fields {bad}")
            continue
        if r["n_samples"] != n_f:
            res.cell(key, f"n_samples={r['n_samples']} != n_f={n_f}")
        if not _close(r["lambda"], math.sqrt(key[1])):
            res.cell(key, f"lambda={r['lambda']} != sqrt(N)")
        if r["delta"] != delta:
            res.cell(key, f"delta={r['delta']} != {delta}")
        if not _close(r["total_bound"], r["post_emp_loss"] + r["r_N"]):
            res.cell(key, "total_bound != post_emp_loss + r_N")
        r_n = (r["kl"] + math.log(1.0 / r["delta"]) + r["psi_hat"]) / r["lambda"]
        if not _close(r["r_N"], r_n):
            res.cell(key, "r_N != (kl + ln(1/delta) + psi_hat) / lambda")
        if r["kl"] < 0.0:
            res.cell(key, f"kl={r['kl']} < 0")
        if not 0.0 <= r["post_emp_loss"] <= _MAX_LOSS:
            res.cell(key, f"post_emp_loss={r['post_emp_loss']} outside [0, {_MAX_LOSS}]")

    if [int(s["N"]) for s in summary] != sorted(n_grid):
        res.run(f"summary rows {[s['N'] for s in summary]} differ from n_grid {n_grid}")
        return res
    for s in summary:
        n = int(s["N"])
        totals = [by_cell[(seed, n)]["total_bound"] for seed in range(n_seeds)]
        posts = [by_cell[(seed, n)]["post_emp_loss"] for seed in range(n_seeds)]
        expect = {
            "total_median": statistics.median(totals),
            "total_min": min(totals),
            "total_max": max(totals),
            "post_emp_loss_median": statistics.median(posts),
            "post_emp_loss_min": min(posts),
            "post_emp_loss_max": max(posts),
            "vacuity_level": VACUITY_LEVEL,
        }
        for col, want in expect.items():
            if not _close(s[col], want):
                res.run(f"summary N={n} {col}={s[col]} does not match the reports ({want})")
    return res


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of each report file."""
    out = {}
    for name in REPORT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def bound_quality(out_dir: str) -> dict:
    """Per-N median total bound and the median crossover n* from summary.csv.

    n* is the first N whose median total bound, and every later one, lies
    below the vacuity level; None when there is none.
    """
    with open(os.path.join(out_dir, "summary.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    medians = {int(r["N"]): float(r["total_median"]) for r in rows}
    grid = sorted(medians)
    n_star = next(
        (n for i, n in enumerate(grid) if all(medians[m] < VACUITY_LEVEL for m in grid[i:])),
        None,
    )
    return {"total_median_by_n": {str(n): medians[n] for n in grid}, "n_star": n_star}
