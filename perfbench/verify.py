"""Output checks that share no code with ``src/scimetrics``.

The corpus is re-read from its files with plain ``json``/``csv``; measures
come from the brute-force oracles in ``tests/oracles.py``; tau_b from those
oracles or ``scipy.stats.kendalltau``; AUC from a per-negative sum written
here.  Each check returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from scipy.stats import kendalltau

import oracles

REL_TOL = 1e-5  # the CLI prints 6 significant digits


def files_under(paths: list[Path]) -> list[Path]:
    """The files at or under `paths`, sorted; a missing path gives none."""
    return sorted(
        f for p in paths for f in ([p] if p.is_file() else p.rglob("*")) if f.is_file()
    )


def tree_digest(paths: list[Path], base: Path) -> str:
    """SHA-256 over the names (relative to `base`) and SHA-256s of the files
    at or under `paths`."""
    outer = hashlib.sha256()
    for f in files_under(paths):
        inner = hashlib.sha256(f.read_bytes()).hexdigest()
        outer.update(f"{f.relative_to(base)} {inner}\n".encode())
    return outer.hexdigest()


def read_corpus(corpus_dir: Path) -> tuple[dict, dict]:
    """author_id -> [(effective_year, authors, {year: cites})] in file order,
    and author_id -> [award years]."""
    pubs: dict[str, list] = {}
    with open(corpus_dir / "authors.jsonl") as fh:
        for line in fh:
            obj = json.loads(line)
            if "author_id" not in obj:
                continue
            rows = []
            for p in obj["publications"]:
                cites = {int(y): c for y, c in p["cites"].items()}
                year = min([p["year"], *cites])
                rows.append((year, p["authors"], cites))
            pubs[obj["author_id"]] = rows
    awards: dict[str, list] = {a: [] for a in pubs}
    with open(corpus_dir / "awards.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            awards[row["author_id"]].append(int(row["year"]))
    return pubs, awards


def pairs_at(rows: list, year: int) -> list[tuple[int, int]]:
    return [
        (sum(c for y, c in cites.items() if y <= year), authors)
        for eff, authors, cites in rows
        if eff <= year
    ]


_BASE = {
    "h": oracles.h_oracle, "c": oracles.c_oracle, "mu": oracles.mu_oracle,
    "g": oracles.g_oracle, "o": oracles.o_oracle, "m": oracles.m_oracle,
}
_COAUTHOR = {
    "h-i": oracles.h_i_oracle, "h-m": oracles.h_m_oracle,
    "h-p": oracles.h_p_oracle, "h-ap": oracles.h_ap_oracle,
}
MEASURES = [*_BASE, *(f"{m}-frac" for m in _BASE), *_COAUTHOR]


def measure(name: str, pairs: list[tuple[int, int]]) -> float:
    if name in _COAUTHOR:
        return float(_COAUTHOR[name](pairs))
    if name.endswith("-frac"):
        return float(_BASE[name[:-5]](oracles.frac_entries(pairs)))
    return float(_BASE[name]([c for c, _ in pairs]))


def auc(values: list[float], awards: list[float]) -> float | None:
    """Area under the award-capture curve: each zero-award author adds the
    share of awards ranked above it.  Ties keep input (author-id) order."""
    total = sum(awards)
    negatives = sum(1 for w in awards if w == 0)
    if total <= 0 or negatives == 0:
        return None
    seen = area = 0.0
    for i in sorted(range(len(values)), key=lambda i: -values[i]):
        if awards[i] == 0:
            area += seen
        seen += awards[i]
    return area / (total * negatives)


def tau_b(x: list[float], y: list[float], exact: bool) -> float | None:
    """Kendall tau_b, None when undefined (a fully tied sequence)."""
    if exact:
        try:
            return oracles.tau_b_oracle(x, y)
        except ZeroDivisionError:
            return None
    value = kendalltau(x, y).statistic
    return None if math.isnan(value) else float(value)


def _cell(text: str, expected: float | None, where: str) -> list[str]:
    if expected is None:
        return [] if text == "" else [f"{where}: {text!r}, expected a gap"]
    if text == "" or not math.isclose(float(text), expected, rel_tol=REL_TOL, abs_tol=1e-9):
        return [f"{where}: {text!r}, expected {expected:.9g}"]
    return []


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _scores(awards: dict, ids: list[str], year: int) -> list[float]:
    return [float(sum(1 for y in awards[a] if y <= year)) for a in ids]


def check_evaluate(
    corpus_dir: Path, out_dir: Path, measures, criteria, years, horizon
) -> list[str]:
    """Every cell of every {measure}_{criterion}.csv (equal-weight awards,
    no filter)."""
    pubs, awards = read_corpus(corpus_dir)
    ids = sorted(pubs)
    problems = []
    for m in measures:
        for criterion in criteria:
            path = out_dir / f"{m}_{criterion}.csv"
            rows = _read_rows(path)
            if rows[0] != ["year", "value", "n_authors"] or len(rows) != len(years) + 1:
                problems.append(f"{path.name}: unexpected shape")
                continue
            for (year_text, value, n_text), year in zip(rows[1:], years):
                values = [measure(m, pairs_at(pubs[a], year)) for a in ids]
                scores = _scores(awards, ids, year + horizon)
                expected = (
                    tau_b(values, scores, exact=True) if criterion == "tau_b"
                    else auc(values, scores)
                )
                where = f"{path.name} {year}"
                if year_text != str(year) or n_text != str(len(ids)):
                    problems.append(f"{where}: bad year or n_authors")
                problems += _cell(value, expected, where)
    return problems


def check_corr_matrix(corpus_dir: Path, out_dir: Path, measures, year) -> list[str]:
    """Every cell of corr_{year}.csv against scipy's tau_b."""
    pubs, _ = read_corpus(corpus_dir)
    ids = sorted(pubs)
    columns = {m: [measure(m, pairs_at(pubs[a], year)) for a in ids] for m in measures}
    rows = _read_rows(out_dir / f"corr_{year}.csv")
    if rows[0] != ["measure", *measures] or [r[0] for r in rows[1:]] != list(measures):
        return [f"corr_{year}.csv: unexpected header"]
    problems = []
    for i, mi in enumerate(measures):
        for j, mj in enumerate(measures):
            expected = tau_b(columns[mi], columns[mj], exact=False)
            problems += _cell(rows[i + 1][j + 1], expected, f"corr_{year}.csv {mi},{mj}")
    return problems


def check_roc(corpus_dir: Path, out_dir: Path, year) -> list[str]:
    """auc_summary.csv for all 16 measures, and the shape of each curve."""
    pubs, awards = read_corpus(corpus_dir)
    ids = sorted(pubs)
    scores = _scores(awards, ids, year)
    rows = _read_rows(out_dir / "auc_summary.csv")
    if rows[0] != ["measure", "auc", "status"] or [r[0] for r in rows[1:]] != MEASURES:
        return ["auc_summary.csv: unexpected shape"]
    problems = []
    for name, value, status in rows[1:]:
        expected = auc([measure(name, pairs_at(pubs[a], year)) for a in ids], scores)
        if status != ("degenerate" if expected is None else "ok"):
            problems.append(f"auc_summary.csv {name}: status {status}")
        problems += _cell(value, expected, f"auc_summary.csv {name}")
        if expected is not None:
            curve = _read_rows(out_dir / f"roc_{name}.csv")
            if len(curve) != len(ids) + 2 or curve[1] != ["0", "0"] or curve[-1] != ["1", "1"]:
                problems.append(f"roc_{name}.csv: unexpected shape")
    return problems
