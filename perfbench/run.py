"""Benchmark of the qpamp model chain: three workloads, end-to-end and per layer.

Run from the root of a checkout (qpamp is imported from its ``src``)::

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs whole passes over the seeded inputs, untraced and traced in turn, and
reports per-layer metrics from spans recorded around every public qpamp
function.  Every operation's output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check passed, 1 when some
failed, and 2 when the benchmark could not run.  See NOTES.md for the
metric definitions.
"""

import time

T_BEGIN = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = HERE / "pinned.json"

SETUP_SAMPLES = 5
# CPUs this process may run on at start, before an in-process workload pins
# itself to one of them.
NPROC = len(os.sched_getaffinity(0))
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 60.0
# Largest share of the traced operation time that may fall inside an
# operation's root span but outside every layer span.  In process that share
# is the benchmark's own glue (about 0.1 %).  Leaving `maximize_3wm` or
# `voltage_from_charge` unwrapped raises it to 0.8 % or 1.1 %.
MAX_UNATTRIBUTED_SHARE = 0.005

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "cli.interp_start_s": "s",
    "cli.import_s": "s",
    "cli.command_s": "s/op",
    "cli.bytes_written": "bytes/op",
    **{f"{layer}.calls": "calls/op" for layer in tracer.LAYERS},
    **{f"{layer}.self_s": "s/op" for layer in tracer.LAYERS},
    "sweep.workers": "threads",
    "sweep.objective_evals_per_optimum": "calls",
    "amplifier.root_evals_per_profile": "calls",
    "varactor.integrand_evals_per_charge": "calls",
    "varactor.charge_calls_per_inversion": "calls",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s/op",
    "trace.concurrent_s": "s/op",
}
EDGE_LAYER = {
    "objective_evals_per_optimum": "sweep",
    "root_evals_per_profile": "amplifier",
    "integrand_evals_per_charge": "varactor",
    "charge_calls_per_inversion": "varactor",
}


class BenchError(Exception):
    """The benchmark itself cannot run (not a failure of the program)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QPAMP_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def last_json_line(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("child printed nothing")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Workload runners


class InProcess:
    """design_sweep or charge_inversion, run inside this process."""

    # Speed probe: an operation's speed is set by the probe times of the
    # `probe_window` operations on each side of it.
    probe_window = 4

    def __init__(self, name: str, seed: int, pinned: dict):
        self._probe, self.probe_ref_s = IN_PROCESS_PROBES[name]
        # Run on one CPU.  On two, design_sweep's two sweep threads hand the
        # GIL back and forth across CPUs, and how long that took depended on
        # what other tenants ran on the second CPU: latency_p90_s spread by
        # up to 0.28 between runs of the same code.  os.cpu_count(), and with
        # it the default sweep worker count, does not change.
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        sys.path.insert(0, str(SRC))
        self.program = wl.Program()
        import qpamp

        if not Path(qpamp.__file__).resolve().is_relative_to(SRC):
            raise BenchError(f"qpamp imported from {qpamp.__file__}, not from {SRC}")
        self.version = qpamp.__version__
        self.pinned = pinned
        if name == "design_sweep":
            self.cases = wl.design_cases(self.program, seed)
            self._run, self._check = wl.run_design, wl.check_design
        else:
            self.cases = wl.charge_cases(self.program, seed)
            self._run, self._check = wl.run_charge, wl.check_charge
        for case in self.cases[:2]:  # warm-up, starting with the reference designs
            self._run(self.program, case)

    def workers(self) -> int:
        return self.program.sweep.default_workers()

    def speed_probe(self) -> float:
        """Wall time of the workload's probe, on the CPU the workload runs on."""
        return self._probe()

    def op(self, i: int, trace=None):
        """Run and check operation i; returns (latency, failures, summary)."""
        case = self.cases[i % len(self.cases)]
        summary = None
        out = None
        failures = []
        if trace is not None:
            trace.take()
        t0 = time.perf_counter()
        root = trace.open_root() if trace is not None else None
        try:
            out = self._run(self.program, case)
        except Exception as exc:  # any raise is a failed operation
            failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            if root is not None:
                trace.close_root(root)
        latency = time.perf_counter() - t0
        if trace is not None:
            summary = tracer.summarize(trace.take())
            # Consistency of the span tree: a span whose parent is broken is
            # counted twice or not at all.  Time the tracer failed to wrap is
            # caught by the coverage bound in `per_layer`.
            attributed = sum(s for _, s in summary["layers"].values()) + summary["root_self_s"]
            if abs(attributed - summary["concurrent_s"] - latency) > 1e-3 * latency + 50e-6:
                raise BenchError(
                    f"trace accounting: layer self {attributed:.6g} s - concurrent "
                    f"{summary['concurrent_s']:.6g} s != op time {latency:.6g} s"
                )
            summary["unattributed_s"] = summary["root_self_s"]
        if out is not None:
            failures += self._check(self.program, case, out, self.pinned)
        return latency, failures, summary

    def pool_size(self) -> int:
        return len(self.cases)


class Cli:
    """cli_cold: one fresh ``python -m qpamp.cli`` process per operation."""

    # Speed probe: as for InProcess.  A probe is a whole process
    # here, so a window of 8 operations on each side (about 20 s) averages
    # out its own noise.
    probe_window = 8
    probe_ref_s = 0.09

    def __init__(self, seed: int, pinned: dict, run_dir: Path):
        self.pinned = pinned
        self.run_dir = run_dir
        self.env = child_env()
        self.ops = wl.cli_ops(seed)
        self.argv = []
        for k, op in enumerate(self.ops):
            args = list(op.args)
            if op.ini is not None:
                path = run_dir / f"op{k}.ini"
                path.write_text(op.ini, encoding="utf-8")
                args = ["--config", str(path)] + args
            self.argv.append([op.command] + args)
        self.info = {}
        self.peak_rss_kb = 0

    def warm_up(self) -> None:
        """One child that imports the CLI (compiles bytecode, fills the page
        cache) and reports the runtime it found.

        It runs after set-up is timed: every operation pays its own import,
        so `setup_s` of cli_cold is the harness's own set-up only.
        """
        self.info = import_probe(self.run_dir)
        if self.info.get("exit_code") != 0:
            raise BenchError("warm-up import of qpamp.cli failed")

    def workers(self) -> int:
        return self.info["workers"]

    def speed_probe(self) -> float:
        """Wall time of a bare interpreter (``python -c pass``) in the
        operations' environment: process start, as in every operation, and
        none of qpamp."""
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "pass"], cwd=self.run_dir, env=self.env,
            stdin=subprocess.DEVNULL, check=True, timeout=CHILD_TIMEOUT_S,
        )
        return time.perf_counter() - start

    def pool_size(self) -> int:
        return len(self.ops)

    def _spawn(self, argv: list, out_dir: Path, stderr_path: Path):
        with open(stderr_path, "wb") as err:
            spawn = time.perf_counter()
            proc = subprocess.Popen(
                [part.replace("{spawn}", repr(spawn)) for part in argv],
                cwd=out_dir, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            reaped = time.perf_counter()
        # Reaped by wait4 (which also gives the child's own rusage), so tell
        # Popen not to wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        return spawn, reaped, proc.returncode, usage

    def op(self, i: int, trace=None):
        k = i % len(self.ops)
        op = self.ops[k]
        out_dir = Path(tempfile.mkdtemp(prefix=f"op{k}-", dir=self.run_dir))
        summary_path = out_dir / "trace.json"
        if trace is None:
            argv = [sys.executable, "-m", "qpamp.cli"]
        else:
            argv = [sys.executable, str(HERE / "cli_shim.py"), str(summary_path), "{spawn}"]
        argv += self.argv[k] + ["--out", str(out_dir / "out")]
        spawn, reaped, code, usage = self._spawn(argv, out_dir, out_dir / "stderr.txt")
        latency = reaped - spawn
        failures = []
        summary = None
        if code != 0:
            tail = (out_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            failures.append(f"{op.command}: exit {code} {' '.join(tail)}")
        else:
            if trace is None:
                self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            else:
                summary = self._trace_summary(summary_path, spawn, reaped, latency)
                summary["bytes_written"] = sum(
                    p.stat().st_size for p in (out_dir / "out").iterdir()
                )
            failures += wl.check_cli(op, out_dir / "out", self.pinned)
        shutil.rmtree(out_dir)
        return latency, failures, summary

    @staticmethod
    def _trace_summary(path: Path, spawn: float, reaped: float, latency: float) -> dict:
        s = json.loads(path.read_text(encoding="utf-8"))
        # Time outside every span: the shim's own start-up, wrapper
        # installation, the root span's self time, and exit after the command.
        s["unattributed_s"] = (
            s["shim_s"] + (s["t_root0"] - s["t_import1"]) + s["root_self_s"] + (reaped - s["t_root1"])
        )
        attributed = (
            s["interp_start_s"] + s["import_s"] + sum(x for _, x in s["layers"].values())
            + s["unattributed_s"] - s["concurrent_s"]
        )
        # The same consistency check of the span tree as in process.
        if abs(attributed - latency) > 1e-3 * latency + 50e-6:
            raise BenchError(f"trace accounting: {attributed:.6g} s attributed, op took {latency:.6g} s")
        return s


def import_probe(run_dir: Path) -> dict:
    """Fresh interpreter that only imports qpamp.cli; returns its timings."""
    fd, name = tempfile.mkstemp(suffix=".json", dir=run_dir)
    os.close(fd)
    spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_shim.py"), name, repr(spawn), "--import-only"],
        cwd=run_dir, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.decode(errors='replace').strip()}")
    info = json.loads(Path(name).read_text(encoding="utf-8"))
    os.unlink(name)
    return info


def make_runner(workload: str, seed: int, pinned: dict, run_dir: Path):
    if workload == "cli_cold":
        return Cli(seed, pinned, run_dir)
    return InProcess(workload, seed, pinned)


def setup_probe(args) -> float:
    """Set-up time of a fresh harness process for the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload",
         args.workload, "--seed", str(args.seed)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.decode(errors='replace').strip()}")
    return last_json_line(proc.stdout.decode())["setup_s"]


# ---------------------------------------------------------------------------
# Measurement


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, failures: list) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[:3])


def _cubic(y: float, lam: float) -> float:
    return y * y * y + 0.9 * y - 2.0 * lam


def _cubic_slope(y: float) -> float:
    return 3.0 * y * y + 0.9


def calibration_kernel() -> float:
    """Fixed pure-Python work (Newton steps on a cubic); returns its wall time.

    It shares no code with qpamp, so a change to the program cannot move it,
    but like qpamp it is made of many small Python calls and float
    operations, so it slows down with the machine.
    """
    start = time.perf_counter()
    total = 0.0
    for k in range(300):
        lam = 0.01 * k
        y = lam
        for _ in range(6):
            y -= _cubic(y, lam) / _cubic_slope(y)
        total += 1.0 / (y * y + 0.3)
    return time.perf_counter() - start


def pool_kernel() -> float:
    """Wall time of `calibration_kernel` mapped 4 times over a fresh 2-worker
    thread pool, the way qpamp's sweeps map their points.

    Besides the machine's speed, it pays for starting threads and handing
    the GIL between them, which slow down more than plain Python when the
    machine is busy.
    """
    start = time.perf_counter()
    with ThreadPoolExecutor(2) as pool:
        list(pool.map(lambda _: calibration_kernel(), range(4)))
    return time.perf_counter() - start


# Speed probe of each in-process workload and its reference time: about the
# probe's median on a shared 2-vCPU x86_64 VM with Python 3.11.7, pinned to
# one CPU.  End-to-end times are reported at it.  design_sweep's sweeps run
# on a thread pool, and its latencies followed the pool probe; charge_inversion
# runs on one thread.  NOTES.md ("Noise") has the figures.
IN_PROCESS_PROBES = {"design_sweep": (pool_kernel, 4.4e-3), "charge_inversion": (calibration_kernel, 1.0e-3)}


def measure(runner, seconds: float, tally: Tally, probes: list) -> list:
    """Closed loop with one client for `seconds`; returns the latencies.

    The runner's speed probe runs once after each operation, outside its
    timing, and its times are appended to `probes`.
    """
    latencies = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        latency, failures, _ = runner.op(i)
        latencies.append(latency)
        tally.add(failures)
        probes.append(runner.speed_probe())
        i += 1
        if time.perf_counter() >= deadline:
            return latencies


def end_to_end(runner, workload: str, setups: list, latencies: list, probes: list) -> tuple:
    """(metrics at the reference machine speed, the same metrics as measured).

    ``probes[i]`` is the runner's speed probe right after operation i.  Each
    latency is multiplied by the runner's `probe_ref_s` over the median
    probe time of the `probe_window` operations on each side of it (and of
    itself), and the set-up times by `probe_ref_s` over the run's median
    probe time.  That takes out the drift of a shared machine's speed, which
    is slower than one operation and faster than one run.
    """
    if workload == "cli_cold":
        rss_kb = runner.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(latencies)
    local = [
        statistics.median(probes[max(0, i - runner.probe_window) : i + runner.probe_window + 1])
        for i in range(n)
    ]
    scaled = [lat * runner.probe_ref_s / p for lat, p in zip(latencies, local)]
    setup_scale = runner.probe_ref_s / statistics.median(probes)

    def metrics(lats: list, setup_s: float) -> dict:
        return {
            "setup_s": setup_s,
            "ops_per_s": len(lats) / sum(lats),
            "latency_p50_s": statistics.median(lats),
            "latency_p90_s": statistics.quantiles(lats, n=10)[8] if len(lats) > 1 else lats[0],
            "peak_rss_mb": rss_kb / 1024.0,
        }

    setup_s = statistics.median(setups)
    return metrics(scaled, setup_s * setup_scale), metrics(latencies, setup_s)


def per_layer(runner, workload: str, seconds: float, tally: Tally, run_dir: Path) -> dict:
    """Untraced and traced passes over the input pool, in turn, for `seconds`."""
    n = runner.pool_size()
    untraced = traced = 0.0
    total = None
    extra = {"unattributed_s": 0.0, "bytes_written": 0.0, "command_s": 0.0}
    interp, imports = [], []
    passes = 0
    start = time.perf_counter()
    trace = tracer.Tracer()
    while True:
        pair_start = time.perf_counter()
        for i in range(n):
            latency, failures, _ = runner.op(i)
            untraced += latency
            tally.add(failures)
        if workload != "cli_cold":
            trace.install()
        try:
            for i in range(n):
                latency, failures, summary = runner.op(i, trace)
                traced += latency
                tally.add(failures)
                if summary is None:
                    continue
                total = tracer.merge(total, summary)
                for key in extra:
                    extra[key] += summary.get(key, 0.0)
                if workload == "cli_cold":
                    interp.append(summary["interp_start_s"])
                    imports.append(summary["import_s"])
        finally:
            trace.uninstall()
        passes += 1
        now = time.perf_counter()
        if now + (now - pair_start) > start + seconds:
            break
    if total is None:
        raise BenchError("no traced operation completed")
    if not 0.0 <= total["root_self_s"] <= MAX_UNATTRIBUTED_SHARE * total["root_s"]:
        raise BenchError(
            f"trace coverage: {total['root_self_s']:.6g} s of {total['root_s']:.6g} s "
            "inside the operations fell outside every layer span"
        )
    if workload != "cli_cold":
        for _ in range(IMPORT_PROBES):
            info = import_probe(run_dir)
            interp.append(info["interp_start_s"])
            imports.append(info["import_s"])
    ops = n * passes
    metrics = {
        "cli.interp_start_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.command_s": extra["command_s"] / ops,
        "cli.bytes_written": extra["bytes_written"] / ops,
    }
    for layer, (calls, self_s) in total["layers"].items():
        metrics[f"{layer}.calls"] = calls / ops
        metrics[f"{layer}.self_s"] = self_s / ops
    metrics["sweep.workers"] = runner.workers()
    for key, (num, den) in total["edges"].items():
        metrics[f"{EDGE_LAYER[key]}.{key}"] = num / den if den else 0.0
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["trace.unattributed_s"] = extra["unattributed_s"] / ops
    metrics["trace.concurrent_s"] = total["concurrent_s"] / ops
    return metrics


def fingerprint(runner, workload: str) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    if workload == "cli_cold":
        versions = {k: runner.info[k] for k in ("qpamp", "numpy", "scipy")}
    else:
        import numpy
        import scipy

        versions = {"qpamp": runner.version, "numpy": numpy.__version__, "scipy": scipy.__version__}
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        **versions,
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "sweep_workers": runner.workers(),
        "pinned_cpu": getattr(runner, "cpu", None),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("QPAMP_WORKERS", None)

    if not (SRC / "qpamp" / "__init__.py").is_file():
        print(f"perfbench: no qpamp sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        pinned = json.loads(PINNED.read_text(encoding="utf-8"))
        runner = make_runner(args.workload, args.seed, pinned, run_dir)
        setup_own = time.perf_counter() - T_BEGIN
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_own}))
            return 0
        if isinstance(runner, Cli):
            runner.warm_up()
        tally = Tally()
        if args.trace:
            metrics = per_layer(runner, args.workload, args.seconds, tally, run_dir)
            units = LAYER_UNITS
        else:
            probes = []
            latencies = measure(runner, args.seconds, tally, probes)
            setups = [setup_own]
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(setup_probe(args))
                probes.append(runner.speed_probe())
            metrics, raw = end_to_end(runner, args.workload, setups, latencies, probes)
            units = E2E_UNITS
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print(f"why: {wl.WORKLOADS[args.workload]}")
        print("fingerprint " + json.dumps(fingerprint(runner, args.workload), sort_keys=True))
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        if args.trace == 0:
            for name, value in raw.items():
                print(f"measured.{name} {value:.6g} {units[name]}")
            print(f"speed_probe_s {statistics.median(probes):.6g} s")
            print(f"latency_samples {len(latencies)} count")
            print(f"setup_samples {len(setups)} count")
        print(f"failed_fraction {tally.failed / tally.attempted:.6g} ratio")
        for message in tally.messages[:10]:
            print(f"perfbench: check failed: {message}", file=sys.stderr)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
