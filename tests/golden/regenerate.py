"""Write the golden CLI outputs that tests/test_golden.py compares against.

Run from the repository root after a change that is meant to move the numbers:

    PYTHONPATH=src python tests/golden/regenerate.py

For each crystal in `CRYSTALS` (STO, KTO and one custom crystal) it runs the
commands in `COMMANDS` and writes ``tests/golden/<crystal>/<file>``: the
output files in `RUNS`, and one ``<command>.streams`` file per command with
its exit code, stdout and stderr.  The output directory reads ``out`` in
every file: each output keeps the CLI's header, with its ``path =`` echo line
set to ``path = out``, and the streams name files under ``out/``.  Of each
output's body, a fixed subset is kept:

* ``design.kv`` and ``design.txt``: every line;
* ``geometry.csv`` (the 13-row log plate-separation sweep) and
  ``geometry_renorm.csv`` (the same sweep with a renormalisation field of
  100 V/um, whose optimum sits on the edge of the search window, so that
  its stderr carries the warning): every row;
* ``material.csv`` and ``sweep.csv`` (the default bias-field and bias-voltage
  tables, 201 rows each): every tenth row and the last one, which takes in
  the centre sample and, for STO and the custom crystal, rows whose
  ``peak_gain_db`` is NaN;
* ``gain.csv`` and ``gain_pump_ratio.csv`` (the ratios of a ``pump_ratio``
  sweep): within each pump ratio's block of rows, every hundredth row and the
  block's last, so the centre sample of each ratio and the first and last
  rows of the file.

The edge runs keep every row: a field table from -5 to 5 V/um
(``material_negative_field.csv``), a bias table from -300 to 900 mV
(``sweep_wide_bias.csv``), a one-point bias table at 5 mV
(``sweep_one_point.csv``) and the ``design`` of a 1e13-2e13 mV window, whose
optimum sits on its edge (``design_far_window.kv``).  Two edge runs exit 3
and keep only their streams: ``gain`` at a pump ratio of 1.2, past threshold,
and ``design`` with no pump.
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

PUMP_RATIO = [
    f"--override=sweep.{item}" for item in ("variable=pump_ratio", "min=0.5", "max=0.9", "count=3")
]


def _sweep(lo: str, hi: str, count: int, variable: str = "bias_voltage") -> list[str]:
    return [
        f"--override=sweep.{item}"
        for item in (f"variable={variable}", f"min={lo}", f"max={hi}", f"count={count}")
    ]


# command -> argv; a crystal's own options go after the subcommand, before the rest.
COMMANDS = {
    "material": ["material"],
    "design": ["design"],
    "gain": ["gain"],
    "sweep": ["sweep"],
    "geometry": ["sweep", *GEOMETRY],
    "gain_pump_ratio": ["gain", *PUMP_RATIO],
    "geometry_renorm": ["sweep", *GEOMETRY, "--override=material.renorm_field_v_per_um=100"],
    "material_negative_field": ["material", *_sweep("-5", "5", 11, "bias_field")],
    "sweep_wide_bias": ["sweep", *_sweep("-300", "900", 13)],
    "sweep_one_point": ["sweep", *_sweep("5", "5", 1)],
    "design_far_window": ["design", *_sweep("1e13", "2e13", 2)],
    "gain_above_threshold": ["gain", "--override=gain.xi_ratio=1.2"],
    "design_undriven": ["design", "--override=drive.v_ac_mv=0"],
}

# golden file -> (command, the CLI output it keeps)
RUNS = {
    "material.csv": ("material", "material.csv"),
    "design.kv": ("design", "design.kv"),
    "design.txt": ("design", "design.txt"),
    "gain.csv": ("gain", "gain.csv"),
    "sweep.csv": ("sweep", "sweep.csv"),
    "geometry.csv": ("geometry", "sweep.csv"),
    "gain_pump_ratio.csv": ("gain_pump_ratio", "gain.csv"),
    "geometry_renorm.csv": ("geometry_renorm", "sweep.csv"),
    "material_negative_field.csv": ("material_negative_field", "material.csv"),
    "sweep_wide_bias.csv": ("sweep_wide_bias", "sweep.csv"),
    "sweep_one_point.csv": ("sweep_one_point", "sweep.csv"),
    "design_far_window.kv": ("design_far_window", "design.kv"),
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
    if run in ("gain.csv", "gain_pump_ratio.csv"):
        # One block of rows per pump ratio, the first cell.
        blocks = [list(block) for _, block in groupby(rows, key=lambda row: row.split(",")[0])]
        return [block[i] for block in blocks for i in _every(len(block), 100)]
    return rows


def execute(crystal: str, command: str, workdir: Path) -> tuple[Path, str]:
    """Run one command for one crystal in ``workdir``: (output directory, streams text).

    The streams text is the exit code, stdout and stderr, with the output
    directory written as ``out``.
    """
    subcommand, *options = COMMANDS[command]
    out = workdir / crystal / command
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main([subcommand, *CRYSTALS[crystal], *options, "--out", str(out)])
    text = f"exit {status}\n[stdout]\n{stdout.getvalue()}[stderr]\n{stderr.getvalue()}"
    return out, text.replace(str(out), "out")


def produce(crystal: str, run: str, workdir: Path) -> str:
    """Run one command for one crystal in ``workdir``; return its golden text."""
    command, output = RUNS[run]
    out, streams = execute(crystal, command, workdir)
    if not streams.startswith("exit 0\n"):
        raise RuntimeError(f"qpamp {command} for {crystal} failed:\n{streams}")
    header, body = split((out / output).read_text(encoding="utf-8"))
    if output.endswith(".csv"):
        body = body[:1] + kept_rows(run, body[1:])
    return "\n".join(header + body) + "\n"


def regenerate(workdir: Path) -> None:
    for crystal in CRYSTALS:
        (GOLDEN / crystal).mkdir(exist_ok=True)
        texts = {run: produce(crystal, run, workdir) for run in RUNS}
        for command in COMMANDS:
            texts[f"{command}.streams"] = execute(crystal, command, workdir)[1]
        for name, text in texts.items():
            path = GOLDEN / crystal / name
            path.write_text(text, encoding="utf-8", newline="\n")
            print(f"wrote {path}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
