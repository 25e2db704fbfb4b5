"""Write the golden CLI outputs that tests/test_golden.py compares against.

Run from the repository root after a change that is meant to move the numbers:

    PYTHONPATH=src python tests/golden/regenerate.py

For each crystal in `CRYSTALS` (STO, KTO and one custom crystal) it runs the
commands in `RUNS` and writes ``tests/golden/<crystal>/<file>``.  Every
file keeps the CLI's header, with its ``path =`` echo line set to
``path = out``, and a fixed subset of the body:

* ``design.kv`` and ``design.txt``: every line;
* ``geometry.csv`` (the 13-row log plate-separation sweep): every row;
* ``material.csv`` and ``sweep.csv`` (the default bias-field and bias-voltage
  tables, 201 rows each): every tenth row and the last one, which takes in
  the centre sample and, for STO and the custom crystal, rows whose
  ``peak_gain_db`` is NaN;
* ``gain.csv``: within each pump ratio's block of rows,
  every hundredth row and the block's last, so the centre sample of each
  ratio and the first and last rows of the file.
"""

from __future__ import annotations

import contextlib
import io
from itertools import groupby
from pathlib import Path

from qpamp.cli import main

GOLDEN = Path(__file__).resolve().parent

CRYSTALS = {
    "sto": ["--material", "sto"],
    "kto": ["--material", "kto"],
    "custom": [
        f"--override=material.{item}"
        for item in (
            "name=custom", "eps00_rel=3000", "curie_temp_k=40", "debye_temp_k=160",
            "renorm_field_v_per_um=2.0", "inhomogeneity=0.025", "loss_a1=0.0002",
            "loss_a2=0.001",
        )
    ],
}

GEOMETRY = [
    f"--override=sweep.{item}"
    for item in ("variable=plate_separation", "min=100", "max=100000", "count=13", "spacing=log")
]

# golden file -> (argv, the CLI output it keeps)
RUNS = {
    "material.csv": (["material"], "material.csv"),
    "design.kv": (["design"], "design.kv"),
    "design.txt": (["design"], "design.txt"),
    "gain.csv": (["gain"], "gain.csv"),
    "sweep.csv": (["sweep"], "sweep.csv"),
    "geometry.csv": (["sweep", *GEOMETRY], "sweep.csv"),
}


def split(text: str) -> tuple[list[str], list[str]]:
    """(header lines with ``path =`` normalised, body lines) of one output file."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    header = ["# path = out" if line.startswith("# path = ") else line for line in header]
    return header, lines[len(header):]


def _every(n: int, step: int) -> list[int]:
    return sorted({*range(0, n, step), n - 1})


def kept_rows(run: str, rows: list[str]) -> list[str]:
    """The documented subset of a table's rows (see the module docstring)."""
    if run in ("material.csv", "sweep.csv"):
        return [rows[i] for i in _every(len(rows), 10)]
    if run == "gain.csv":  # one block of rows per pump ratio, the first cell
        blocks = [list(block) for _, block in groupby(rows, key=lambda row: row.split(",")[0])]
        return [block[i] for block in blocks for i in _every(len(block), 100)]
    return rows


def produce(crystal: str, run: str, workdir: Path) -> str:
    """Run one command for one crystal in ``workdir``; return its golden text."""
    argv, output = RUNS[run]
    out = workdir / crystal / run
    with contextlib.redirect_stdout(io.StringIO()):
        status = main([*argv, *CRYSTALS[crystal], "--out", str(out)])
    if status != 0:
        raise RuntimeError(f"qpamp {' '.join(argv)} for {crystal} exited {status}")
    header, body = split((out / output).read_text(encoding="utf-8"))
    if output.endswith(".csv"):
        body = body[:1] + kept_rows(run, body[1:])
    return "\n".join(header + body) + "\n"


def regenerate(workdir: Path) -> None:
    for crystal in CRYSTALS:
        (GOLDEN / crystal).mkdir(exist_ok=True)
        for run in RUNS:
            path = GOLDEN / crystal / run
            path.write_text(produce(crystal, run, workdir), encoding="utf-8", newline="\n")
            print(f"wrote {path}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
