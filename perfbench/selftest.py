"""Self-test of the benchmark on tiny runs of each workload (about four minutes).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that every metric is printed with its unit, that a perturbed
pinned value shows up as failures and exit code 1 rather than a crash, that
per-layer counts repeat exactly for a fixed seed, and that the benchmark
refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

# Counts of the present algorithms (grid + golden-section search over the
# default 0-250 mV window; adaptive quad; brentq over quad).  A change to
# one of those algorithms updates its number here.
EXPECTED_COUNTS = {
    "objective_evals_per_optimum": 260,
    "integrand_evals_per_charge": 147,
    "charge_calls_per_inversion": 12,
}
COUNT_SUFFIXES = (".calls", "_per_optimum", "_per_profile", "_per_charge", "_per_inversion")
COUNT_NAMES = ("sweep.workers", "cli.bytes_written")

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, seconds: float, trace: int, seed: int = 7, root=ROOT):
    """Run the benchmark of the checkout at `root` from that root."""
    proc = subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc, lines, result


def copy_checkout(with_src: bool) -> Path:
    """A copy of BENCHMARK.json and the benchmark, and optionally of src/, under WORK."""
    run.WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(dir=run.WORK))
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / HERE.name, ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    return root


def printed_units(lines: list) -> dict:
    units = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            units[parts[0]] = parts[2]
    return units


def test_metrics_printed() -> None:
    for workload in wl.WORKLOADS:
        for trace, expected in ((0, run.E2E_UNITS), (1, run.LAYER_UNITS)):
            proc, lines, result = bench(workload, 1, trace)
            ok = proc.returncode == 0 and result is not None and result["correct"]
            check(ok, f"{workload} trace {trace}: exit 0 and correct ({proc.stderr.strip()[-300:]})")
            if not ok:
                continue
            units = printed_units(lines)
            want = dict(expected, failed_fraction="ratio")
            check(all(units.get(k) == u for k, u in want.items()),
                  f"{workload} trace {trace}: every metric printed with its unit")
            check({k: v["unit"] for k, v in result["metrics"].items()} == expected,
                  f"{workload} trace {trace}: result JSON holds exactly the declared metrics")
            if trace:
                m = result["metrics"]
                check(m["trace.overhead_ratio"]["value"] > 0, f"{workload}: trace.overhead_ratio reported")


def test_counts_repeat() -> None:
    for workload in wl.WORKLOADS:
        runs = [bench(workload, 1, 1, seed=3)[2] for _ in range(2)]
        if None in runs:
            check(False, f"{workload}: traced runs produced results")
            continue
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES) or k in COUNT_NAMES}
            for r in runs
        ]
        check(counts[0] == counts[1], f"{workload}: per-layer counts identical across two traced runs")


def traced_edges(call) -> dict:
    trace = tracer.Tracer()
    trace.install()
    try:
        call()
        return tracer.summarize(trace.take())["edges"]
    finally:
        trace.uninstall()


def test_reference_counts() -> None:
    program = wl.Program()
    case = wl.design_cases(program, 0)[0]  # the reference STO design
    varactor, design = program.varactor, case.design
    q = varactor.charge(0.1, design)
    calls = {
        "objective_evals_per_optimum": lambda: program.sweep.maximize_3wm(design, case.circuit, case.drive),
        "integrand_evals_per_charge": lambda: varactor.charge(0.1, design),
        "charge_calls_per_inversion": lambda: varactor.voltage_from_charge(q, design),
    }
    for key, call in calls.items():
        num, den = traced_edges(call)[key]
        expected = EXPECTED_COUNTS[key]
        check((num, den) == (expected, 1), f"reference STO: {key} = {num}/{den} (expected {expected})")


def test_perturbed_pin() -> None:
    """A copy of the checkout whose pinned.json has two values moved."""
    pinned = json.loads(run.PINNED.read_text(encoding="utf-8"))
    pinned["headline"]["sto"]["v0_max_mv"]["value"] += 1.0
    pinned["headline"]["kto"]["f0_ghz"]["value"] *= 1.01
    copy = copy_checkout(with_src=True)
    try:
        (copy / HERE.name / run.PINNED.name).write_text(json.dumps(pinned), encoding="utf-8")
        # Seeds whose first operation runs a reference design, whose
        # headline values are the ones checked against the pins.
        design_seed = 1
        cli_seed = next(seed for seed in range(100) if wl.cli_ops(seed)[0].command == "design")
        for workload, seed in (("design_sweep", design_seed), ("cli_cold", cli_seed)):
            proc, _, result = bench(workload, 1, 0, seed=seed, root=copy)
            check(
                proc.returncode == 1 and result is not None and not result["correct"]
                and result["failed"] >= 1 and "check failed" in proc.stderr,
                f"{workload}: perturbed pinned values give failures and exit 1 "
                f"(exit {proc.returncode}, failed {result and result['failed']})",
            )
    finally:
        shutil.rmtree(copy)


def test_refuses_without_sources() -> None:
    bare = copy_checkout(with_src=False)
    try:
        proc, lines, result = bench("design_sweep", 1, 0, root=bare)
        check(proc.returncode not in (0, 1) and result is None,
              f"refuses to run without src/ (exit {proc.returncode})")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    test_reference_counts()
    test_refuses_without_sources()
    test_perturbed_pin()
    test_metrics_printed()
    test_counts_repeat()
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
