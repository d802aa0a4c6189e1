"""Benchmark of the icl command-line front end, run in-process.

    python3 perfbench/run.py --workload scan-closed|scan-herald|verify \\
        --seed N --seconds S --trace 0|1 [--results-dir DIR]

Run from the root of a source checkout: the package is imported from
``src/icl`` of the current directory and nowhere else; without it the run
exits with code 2 and prints no result.

One client sends one command at a time (closed loop, one process, no extra
threads) through ``icl.cli.main``.  Commands come from the seeded stream in
``workloads.py``; the program only sees the generated config files.  Every
command starts with the package's lru caches cleared, as a fresh CLI
process would, and every output is checked against ``reference.py``.

``--trace 0`` runs whole command cycles for ``--seconds`` (at least two) and
reports the end-to-end metrics; throughput and latency are taken over the
run's fastest cycles (see ``fastest_cycles``).
``--trace 1`` runs a fixed number of command cycles (so every count repeats
exactly at a given seed), each command once with the layer wrappers from
``layers.py`` installed and once without, to report the per-layer metrics
and the tracing overhead.  Either way the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; a fuller
record (provenance, every command's wall time, exit code and output digest)
goes to ``--results-dir`` (default ``.perfbench_out/results``).  Compare two
result directories with ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import OutputMismatch, check_command  # noqa: E402
from workloads import TRACE_CYCLES, WARMUP, WORKLOADS, Command, cycles  # noqa: E402

SETUP_SAMPLES = 7
MIN_CYCLES = 2
FAST_SHARE = 0.1
SCAN_EXIT = {0}
VERIFY_EXIT = {0, 3}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MODULES = ("config", "cli", "svgplot", "interferometer", "metrics", "heralding",
           "gaussian", "fock", "verify")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package source, bad import)."""


@dataclass
class Record:
    index: int
    subcommand: str
    wall_s: float
    exit_code: int | None
    status: str            # ok | exit | mismatch | exception
    detail: str = ""
    items: int = 0         # CSV rows, or oracle checks for verify
    checks_passed: int = 0
    output_sha256: str = ""
    csv_bytes: int = 0
    svg_bytes: int = 0
    peak_rss_mb: float = 0.0   # process peak after this command


# ---------------------------------------------------------------------------
# Set-up: package import, fresh-interpreter import timings, provenance
# ---------------------------------------------------------------------------


def import_package(root: Path):
    src = root / "src"
    if not (src / "icl" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / 'icl'}")
    sys.path.insert(0, str(src))
    import icl
    import icl.cli

    if Path(icl.__file__).resolve().parent != (src / "icl").resolve():
        raise SetupError(f"icl imported from {icl.__file__}, not from {src}")
    return icl.cli


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def fresh_import_seconds(root: Path, statement: str, samples: int) -> list[float]:
    """Wall time of ``statement`` in ``samples`` fresh interpreters."""
    code = (
        "import time\nt = time.perf_counter()\n"
        f"{statement}\n"
        "print(repr(time.perf_counter() - t))\n"
    )
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=_child_env(root),
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"fresh interpreter failed on {statement!r}: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git`` in the checkout itself, if there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(root: Path, workload: str, seed: int) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        # Left as the user's environment has them (unset: None), never set here.
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Running and checking one command
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        # Collected before any tracing wrapper replaces a cached function.
        self.caches = [
            value
            for name, module in sorted(sys.modules.items())
            if (name == "icl" or name.startswith("icl.")) and module is not None
            for value in vars(module).values()
            if callable(getattr(value, "cache_clear", None))
        ]

    def run(self, cmd: Command) -> Record:
        cfg_path = self.work / f"c{cmd.index}.cfg"
        out_dir = self.work / f"c{cmd.index}"
        cfg_path.write_text(cmd.config_text(), encoding="utf-8")
        argv = [cmd.subcommand, "--config", str(cfg_path), "--out", str(out_dir)]
        for cached in self.caches:
            cached.cache_clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        exit_code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                exit_code = self.cli.main(argv)
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback a CLI user would see: record it, go on
            error = traceback.format_exc()
        wall = time.perf_counter() - start

        record = Record(cmd.index, cmd.subcommand, wall, exit_code, "ok")
        expected = VERIFY_EXIT if cmd.subcommand == "verify" else SCAN_EXIT
        if error is not None:
            record.status, record.detail = "exception", error
        elif exit_code not in expected:
            record.status = "exit"
            record.detail = (stderr.getvalue().strip().splitlines() or [""])[0]
        else:
            try:
                checked = check_command(cmd.subcommand, cmd.keys, out_dir, stdout.getvalue(), exit_code)
            except (OutputMismatch, OSError, ValueError) as exc:
                record.status, record.detail = "mismatch", str(exc)
            else:
                record.items = checked.items
                record.checks_passed = checked.checks_passed
                record.csv_bytes = checked.csv_bytes
                record.svg_bytes = checked.svg_bytes
                record.output_sha256 = checked.output_sha256
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg_path.unlink()
        record.peak_rss_mb = peak_rss_mb()
        return record


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_for(runner: Runner, stream, seconds: float) -> list[list[Record]]:
    """Whole cycles until ``seconds`` have passed, and at least
    ``MIN_CYCLES``, so every run holds the same command mix."""
    done = []
    deadline = time.perf_counter() + seconds
    while len(done) < MIN_CYCLES or time.perf_counter() < deadline:
        done.append([runner.run(cmd) for cmd in next(stream)])
    return done


def run_traced(runner: Runner, tracer, commands: list[Command]) -> tuple[list[Record], list[Record]]:
    """Each command twice, traced and untraced, alternating which goes
    first, so the tracing overhead is measured on the same inputs under the
    same machine conditions."""
    traced, untraced = [], []
    for k, cmd in enumerate(commands):
        if k % 2:
            untraced.append(runner.run(cmd))
        tracer.command = cmd.index
        tracer.enable()
        try:
            traced.append(runner.run(cmd))
        finally:
            tracer.disable()
        if not k % 2:
            untraced.append(runner.run(cmd))
    return traced, untraced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def fastest_cycles(done: list[list[Record]]) -> list[list[Record]]:
    """The run's fastest tenth of cycles (at least one), by outputs per
    second of command wall time.

    On a shared machine the speed of the same work moves as other load comes
    and goes: on a 2-core container, cycle rates within one 30 s run spread
    over a factor of two.  Every cycle holds the same command mix, so the
    fastest cycles measure the program when least disturbed, by the same
    rule on every commit compared.
    """
    def rate(cycle: list[Record]) -> float:
        return sum(r.items for r in cycle) / sum(r.wall_s for r in cycle)

    return sorted(done, key=rate, reverse=True)[:max(1, int(len(done) * FAST_SHARE))]


def end_to_end(workload: str, done: list[list[Record]], setup: list[float]) -> dict:
    """End-to-end metrics of an untraced run.  Throughput and latency come
    from the fastest cycles; failures and pass fractions from every command.
    A failed command counts as slower than any command that succeeded."""
    records = [r for cycle in done for r in cycle]
    fast = [r for cycle in fastest_cycles(done) for r in cycle]
    miss = sum(r.wall_s for r in records)
    walls = [r.wall_s if r.status == "ok" else miss for r in fast]
    n, n_fast = len(records), len(fast)
    out = {"setup_s": metric(statistics.median(setup), "s", len(setup))}
    per_s = sum(r.items for r in fast) / sum(r.wall_s for r in fast)
    # outputs_per_s is the one name BENCHMARK.json can give all workloads.
    out["outputs_per_s"] = metric(per_s, "1/s", n_fast)
    out["checks_per_s" if workload == "verify" else "rows_per_s"] = out["outputs_per_s"]
    out["cmd_p50_s"] = metric(statistics.median(walls), "s", n_fast)
    if n_fast >= 100:  # at least ten commands beyond the 90th percentile
        out["cmd_p90_s"] = metric(percentile(walls, 0.9), "s", n_fast)
    out["peak_rss_mb"] = metric(peak_rss_mb(), "MiB", 1)
    out["error_rate"] = metric(sum(r.status != "ok" for r in records) / n, "ratio", n)
    if workload == "verify":
        checks = sum(r.items for r in records)
        passed = sum(r.checks_passed for r in records)
        out["verify_pass_frac"] = metric(passed / checks if checks else 0.0, "ratio", checks)
    return out


def per_layer(tracer, records: list[Record], untraced: list[Record], scipy_s: list[float]) -> dict:
    g, c, f = tracer.groups, tracer.counters, tracer.functions
    n = len(records)
    wall = sum(r.wall_s for r in records)
    rows = sum(r.items for r in records if r.subcommand != "verify")

    def mean_s(name: str) -> float:
        calls, total = f[name] if name in f else (0, 0.0)
        return total / calls if calls else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = metric(value, unit, n)

    def group(name, *fields):
        stats = g[name]
        for field in fields:
            if field == "calls":
                put(f"{name}.calls", stats.calls, "count")
            elif field == "s":
                put(f"{name}.s", stats.total_s, "s")
            else:
                put(f"{name}.self_s", stats.self_s, "s")

    group("config.load", "s")
    group("cli.cmd", "calls", "self_s")
    group("cli.write_csv", "s")
    put("cli.csv_bytes", sum(r.csv_bytes for r in records), "bytes")
    group("svgplot.line_plot", "calls", "s")
    put("svgplot.svg_bytes", sum(r.svg_bytes for r in records), "bytes")
    group("interferometer.closed_form", "calls", "s")
    group("interferometer.output_state", "calls", "self_s")
    group("metrics", "calls", "self_s")
    group("heralding.mode_matched_moments", "calls", "self_s")
    group("heralding.heralded_fringe_mode_matched", "calls", "self_s")
    group("heralding.closed_form", "calls", "s")
    group("gaussian.run_elements", "calls", "self_s")
    group("gaussian.step", "calls", "self_s")
    group("gaussian.validate", "calls", "s")
    group("gaussian.conjugate_sigma", "calls", "s")
    put("gaussian.run_elements.per_row", g["gaussian.run_elements"].calls / rows if rows else 0.0, "ratio")
    gate_calls = g["fock.two_mode_gate"].calls
    builds = c["fock.two_mode_gate.builds"]
    put("fock.two_mode_gate.calls", gate_calls, "count")
    put("fock.two_mode_gate.builds", builds, "count")
    put("fock.two_mode_gate.build_s", c["fock.two_mode_gate.build_s"], "s")
    put("fock.gate_cache.hit_ratio", (gate_calls - builds) / gate_calls if gate_calls else 0.0, "ratio")
    group("fock.apply_element", "calls", "s")
    put("fock.apply_element.bytes_computed", c["fock.apply_element.bytes_computed"], "bytes")
    put("fock.thermal_samples", c["fock.thermal_samples"], "count")
    put("fock.sample_prep.s", g["fock.sample_prep"].total_s, "s")
    group("fock.oracle", "calls", "self_s")
    put("fock.prepare.builds", c["fock.prepare.builds"], "count")
    put("verify.networks", c["verify.networks"], "count")
    put("verify.networks_thermal", c["verify.networks_thermal"], "count")
    put("verify.checks", c["verify.checks"], "count")
    group("verify", "self_s")
    put("import.scipy_s", statistics.median(scipy_s), "s")

    for module in MODULES:
        self_s = sum(s.self_s for name, s in g.items() if name.split(".")[0] == module)
        put(f"{module}.self_share", self_s / wall if wall else 0.0, "ratio")

    untraced_wall = sum(r.wall_s for r in untraced)
    put("trace.commands", n, "count")
    put("trace.spans", len(tracer.spans), "count")
    put("trace.wall_s", wall, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.overhead_s", wall - untraced_wall, "s")

    # The ROADMAP baseline table, per call, from the traced run (wrapper
    # cost of nested traced calls included).  An engine fringe is two
    # propagations (phases 0 and pi/2).
    put("baseline.closed_form_fringe_s", mean_s("interferometer.fringe"), "s")
    put("baseline.engine_fringe_s", 2.0 * mean_s("interferometer.output_state"), "s")
    put("baseline.herald_fringe_s", mean_s("heralding.heralded_fringe_mode_matched"), "s")
    ref = c["fock.prepare.ref_builds"]
    put("baseline.thermal_prep_s", c["fock.prepare.ref_s"] / ref if ref else 0.0, "s")
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=".perfbench_out/results")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_report(workload: str, seed: int, trace: int, records: list[Record], metrics: dict,
                 digest: str, missing: list[str]) -> None:
    failed = [r for r in records if r.status != "ok"]
    print(f"perfbench workload={workload} seed={seed} trace={trace} "
          f"commands={len(records)} failed={len(failed)} output_sha256={digest}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:<14.6g} {m['unit']:6s} n={m['samples']}")
    for status in ("exit", "mismatch", "exception"):
        hits = [r for r in failed if r.status == status]
        if hits:
            detail = hits[0].detail.strip().splitlines()[-1] if hits[0].detail.strip() else ""
            print(f"  {len(hits)} command(s) failed ({status}); first: #{hits[0].index} "
                  f"{hits[0].subcommand}: {detail}")
    if missing:
        print(f"  trace targets not found: {', '.join(missing)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        cli = import_package(root)
        setup = fresh_import_seconds(root, "import icl, icl.cli", SETUP_SAMPLES)
        scipy_s = (
            fresh_import_seconds(root, "import scipy.linalg", SETUP_SAMPLES) if args.trace else []
        )
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    out_root = root / ".perfbench_out"
    work = out_root / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(cli, work)
    try:
        for cmd in WARMUP[args.workload]:
            runner.run(cmd)
        tracer, untraced = None, []
        if args.trace:
            from layers import Tracer

            stream = cycles(args.workload, args.seed)
            commands = [cmd for _ in range(TRACE_CYCLES[args.workload]) for cmd in next(stream)]
            tracer = Tracer()
            records, untraced = run_traced(runner, tracer, commands)
            metrics = per_layer(tracer, records, untraced, scipy_s)
        else:
            done = run_for(runner, cycles(args.workload, args.seed), args.seconds)
            records = [r for cycle in done for r in cycle]
            metrics = end_to_end(args.workload, done, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = hashlib.sha256("".join(r.output_sha256 for r in records).encode()).hexdigest()
    correct = not any(r.status in ("mismatch", "exception") for r in records)
    failed = sum(r.status != "ok" for r in records)

    results_dir = root / args.results_dir
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    result = {
        "provenance": provenance(root, args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_samples_s": setup,
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "output_sha256": digest,
        "metrics": metrics,
        "commands": [asdict(r) for r in records],
    }
    if tracer is not None:
        result["trace_missing_targets"] = tracer.missing
        result["untraced_commands"] = [asdict(r) for r in untraced]
        tracer.write_spans(results_dir / f"{stem}.spans.csv.gz")
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print_report(args.workload, args.seed, args.trace, records, metrics, digest,
                 tracer.missing if tracer else [])
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    summary = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in wanted},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
