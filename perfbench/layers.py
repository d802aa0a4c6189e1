"""Run-time tracing of the icl layers, installed from the benchmark only.

``Tracer.enable`` replaces module attributes of the package's public
functions with timing wrappers (every module that imported a function by
name gets the wrapper too) and ``Tracer.disable`` puts the originals back.
Nothing in the package changes on disk.

Every wrapped call pushes a frame, so self time (duration minus the time of
wrapped callees) is exact at every boundary.  Calls marked as spans are also
kept in memory as (id, parent, command, name, start, end) records; leaf and
per-sample calls are only aggregated into counters, so a traced run stays
small.  Time spent in unwrapped code is attributed to the nearest wrapped
caller.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SPAN, LEAF, PROBE = "span", "leaf", "probe"


@dataclass(frozen=True)
class Target:
    module: str       # module inside the package, e.g. "gaussian"
    function: str     # attribute name in that module
    group: str        # aggregation group, e.g. "gaussian.step"
    kind: str = SPAN  # SPAN, LEAF, or PROBE (timed aside, outside the frame tree)


# The layers are the package's modules.  The group names are the per-layer
# metric prefixes reported by the benchmark.
TARGETS = (
    Target("cli", "main", "cli.main"),
    Target("cli", "resolve_config_path", "config.load"),
    Target("config", "load_run_config", "config.load"),
    *(Target("cli", f, "cli.cmd") for f in ("cmd_fringe", "cmd_scan_visibility", "cmd_scan_snr", "cmd_verify")),
    Target("cli", "write_csv", "cli.write_csv"),
    Target("svgplot", "line_plot", "svgplot.line_plot"),
    *(Target("interferometer", f, "interferometer.closed_form", LEAF) for f in (
        "two_spdc", "two_spdc_attenuated", "three_spdc", "singles_fringe_analytic",
        "g1_coherence", "fringe")),
    Target("interferometer", "output_state", "interferometer.output_state"),
    *(Target("metrics", f, "metrics", LEAF) for f in (
        "visibility", "optimal_attenuated_visibility", "snr_unconditional", "snr_heralded")),
    Target("heralding", "mode_matched_moments", "heralding.mode_matched_moments"),
    Target("heralding", "heralded_fringe_mode_matched", "heralding.heralded_fringe_mode_matched"),
    Target("heralding", "heralded_visibility_pair_limit", "heralding.closed_form", LEAF),
    Target("heralding", "_closed_form_moments", "heralding.closed_form", LEAF),
    Target("gaussian", "run_elements", "gaussian.run_elements"),
    *(Target("gaussian", f, "gaussian.step", LEAF) for f in (
        "apply_two_mode_squeezer", "apply_beam_splitter", "apply_phase", "set_thermal")),
    Target("gaussian", "physicality_defect_matrices", "gaussian.validate", LEAF),
    Target("gaussian", "conjugate_sigma", "gaussian.conjugate_sigma", LEAF),
    Target("fock", "two_mode_gate", "fock.two_mode_gate", LEAF),
    Target("fock", "apply_element", "fock.apply_element", LEAF),
    Target("fock", "sample_thermal_amplitude", "fock.sample_prep", LEAF),
    Target("fock", "coherent_coefficients", "fock.sample_prep", LEAF),
    *(Target("fock", f, "fock.oracle") for f in ("oracle_moment", "oracle_conditional", "wick_residual")),
    Target("fock", "_prepare", "fock.prepare", PROBE),
    *(Target("verify", f, "verify") for f in (
        "run_default_suite", "two_spdc_checks", "wick_residual_checks", "format_report")),
    Target("verify", "random_low_gain_network", "verify", LEAF),
)


class GroupStats:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0   # wall time at outermost entries of the group
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.frames: list[list] = []           # [child_time, span_id]
        self.spans: list[tuple] = []
        self.groups: dict[str, GroupStats] = defaultdict(GroupStats)
        self.functions: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, total s
        self.counters: dict[str, float] = defaultdict(float)
        self.command = -1
        self.missing: list[str] = []
        self._patch_list: list[tuple] | None = None
        self._next_id = 0
        self.hooks = _hooks()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, target: Target, hook: _Hook | None) -> Callable:
        group = self.groups[target.group]
        fstats = self.functions[name]
        frames = self.frames
        record = target.kind == SPAN
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = frames[-1] if frames else None
            if record:
                self._next_id += 1
                span_id = self._next_id
            else:
                span_id = parent[1] if parent else 0
            frame = [0.0, span_id]
            frames.append(frame)
            depth = group.depth
            group.depth = depth + 1
            token = hook.before(args, kwargs) if hook else None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                dur = end - start
                frames.pop()
                group.depth = depth
                group.calls += 1
                group.self_s += dur - frame[0]
                if depth == 0:
                    group.total_s += dur
                fstats[0] += 1
                fstats[1] += dur
                if parent is not None:
                    parent[0] += dur
                if record:
                    self.spans.append(
                        (span_id, parent[1] if parent else 0, self.command, name, start, end)
                    )
                if hook:
                    hook.after(self.counters, token, args, kwargs, result, dur)

        return wrapper

    def _wrap_probe(self, fn: Callable, hook: _Hook) -> Callable:
        """Time a call without entering the frame tree (its callees keep
        reporting to the enclosing frame)."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = hook.before(args, kwargs)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                hook.after(self.counters, token, args, kwargs, result, clock() - start)

        return wrapper

    # -- enable / disable -------------------------------------------------

    def _patches(self, package: str = "icl") -> list[tuple]:
        """(table, key, original, wrapper) for every reference to a target:
        module attributes, including names imported from another module,
        and values in module-level dispatch tables such as the CLI's
        subcommand map."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == package or n.startswith(package + ".")) and m is not None]
        patches = []
        for target in TARGETS:
            name = f"{target.module}.{target.function}"
            home = sys.modules.get(f"{package}.{target.module}")
            original = getattr(home, target.function, None) if home else None
            if original is None:
                self.missing.append(name)
                continue
            hook = self.hooks.get(name)
            if target.kind == PROBE:
                wrapper = self._wrap_probe(original, hook)
            else:
                wrapper = self._wrap(original, name, target, hook)
            for module in modules:
                namespace = vars(module)
                tables = [namespace] + [v for v in namespace.values() if isinstance(v, dict)]
                for table in tables:
                    for key, value in list(table.items()):
                        if value is original:
                            patches.append((table, key, original, wrapper))
        return patches

    def enable(self) -> None:
        if self._patch_list is None:
            self._patch_list = self._patches()
        for table, key, _, wrapper in self._patch_list:
            table[key] = wrapper

    def disable(self) -> None:
        for table, key, original, _ in reversed(self._patch_list or []):
            table[key] = original

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,command,name,start_s,end_s\n")
            for span_id, parent, command, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{command},{name},{start:.9f},{end:.9f}\n")


# ---------------------------------------------------------------------------
# Counter hooks at the layer boundaries.
# ---------------------------------------------------------------------------


class _Hook:
    """Counts taken at one boundary: ``before`` runs ahead of the call and
    its token is handed to ``after``, which sees the result (None when the
    call raised) and the call's duration."""

    def before(self, args, kwargs):
        return None

    def after(self, counters, token, args, kwargs, result, dur):
        raise NotImplementedError


class _CacheHook(_Hook):
    """A call on an lru-cached function built its value when the cache's
    miss count moved."""

    def __init__(self, cached: Callable | None):
        self.info = getattr(cached, "cache_info", None)

    def before(self, args, kwargs):
        return self.info().misses if self.info else None

    def built(self, token) -> bool:
        return self.info is None or self.info().misses != token


class _GateHook(_CacheHook):
    def after(self, counters, token, args, kwargs, result, dur):
        if self.built(token):
            counters["fock.two_mode_gate.builds"] += 1
            counters["fock.two_mode_gate.build_s"] += dur


class _PrepareHook(_CacheHook):
    """Oracle network preparations, kept apart for the thermal, cutoff-12,
    10k-sample reference point of the ROADMAP baseline table."""

    def after(self, counters, token, args, kwargs, result, dur):
        if not self.built(token):
            return
        cfg, elements = args[:2]
        counters["fock.prepare.builds"] += 1
        thermal = any(getattr(el, "n_bar", 0.0) > 0.0 for el in elements)
        if thermal and cfg.cutoff == 12 and cfg.mc_samples == 10_000:
            counters["fock.prepare.ref_builds"] += 1
            counters["fock.prepare.ref_s"] += dur


class _ApplyHook(_Hook):
    """Computed bytes of one gate apply: the state array read and written,
    plus the (dim^2 x dim^2) complex gate for two-mode elements."""

    def after(self, counters, token, args, kwargs, result, dur):
        psi, element, cutoff = args[:3]
        nbytes = 2 * psi.nbytes
        if hasattr(element, "mode_signal") or hasattr(element, "mode_a"):
            nbytes += 16 * (cutoff + 1) ** 4
        counters["fock.apply_element.bytes_computed"] += nbytes


class _SampleHook(_Hook):
    def after(self, counters, token, args, kwargs, result, dur):
        counters["fock.thermal_samples"] += 1


class _NetworkHook(_Hook):
    """Networks the verify suite checks: one per grid point, one per random
    network; thermal when a port has n_bar > 0."""

    def __init__(self, grid: bool):
        self.grid = grid

    def after(self, counters, token, args, kwargs, result, dur):
        if self.grid:
            thermal = kwargs.get("n_b", args[3] if len(args) > 3 else 0.0) > 0.0
        elif result is not None:
            thermal = any(getattr(el, "n_bar", 0.0) > 0.0 for el in result[1])
        else:
            return
        counters["verify.networks"] += 1
        counters["verify.networks_thermal"] += thermal


class _SuiteHook(_Hook):
    def after(self, counters, token, args, kwargs, result, dur):
        if result is not None:
            counters["verify.checks"] += len(result)


def _hooks() -> dict:
    fock = sys.modules.get("icl.fock")
    return {
        "fock.two_mode_gate": _GateHook(getattr(fock, "two_mode_gate", None)),
        "fock.apply_element": _ApplyHook(),
        "fock.sample_thermal_amplitude": _SampleHook(),
        "fock._prepare": _PrepareHook(getattr(fock, "_prepare", None)),
        "verify.two_spdc_checks": _NetworkHook(grid=True),
        "verify.random_low_gain_network": _NetworkHook(grid=False),
        "verify.run_default_suite": _SuiteHook(),
    }
