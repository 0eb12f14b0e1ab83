"""fiberxtalk benchmark: drives the ``xtalk`` CLI in-process on seeded workloads.

    python3 perfbench/run.py --workload otdr-sim --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root (the program is imported from ``src/``). Each
workload's inputs are generated from ``--seed`` in a child process; then one
client calls ``fiberxtalk.cli.main`` for each operation of a pass, each
starting when the previous one ends, for ``--seconds``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from traced passes interleaved with untraced ones. Outputs are checked after
every pass, outside its timing; the last stdout line is the JSON result.
``--smoke`` runs every workload once at a tiny size and checks that the
emitted metric names equal those in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
MIN_PASSES = 3
# (name, unit, better) of the metrics a --trace 0 run reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("coupling_abs_err_db", "dB", "lower"),
]
UNITS = {name: unit for name, unit, _ in END_TO_END + spans.PER_LAYER}


class Run:
    """State of one benchmark run: operations, failures and per-pass timings."""

    def __init__(self, workload: str, truth: dict, inp: Path, out: Path, trace: bool):
        from fiberxtalk import cli

        self.workload, self.truth, self.trace = workload, truth, trace
        self.main = cli.main
        self.ops = workloads.build_ops(workload, truth, inp, out)
        self.tracer = spans.Tracer() if trace else None
        self.attempted = 0
        self.failures: list[tuple[int, str, list[str]]] = []  # (pass, op label, errors)
        self.digests: dict[str, str] | None = None
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.traced_passes: list[int] = []
        self.passes: list[int] = []

    def _call(self, op: workloads.Op, pass_index: int, traced: bool) -> tuple[int, str]:
        main = self.main
        if traced:
            self.tracer.begin_op(pass_index, op.label)
            main = self.tracer.span("cli.main", "cli", main)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a failed benchmark
            code, err = 1, io.StringIO(traceback.format_exc())
        return code, err.getvalue().strip()

    def one_pass(self, pass_index: int, traced: bool) -> float:
        """Run every operation once; return the pass wall time, then check outputs."""
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            results = [self._call(op, pass_index, traced) for op in self.ops]
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        try:
            errors = workloads.check_pass(self.workload, self.truth, self.ops)
        except Exception:  # an unreadable output fails the pass's operations, not the benchmark
            errors = {op.label: [traceback.format_exc(limit=2)] for op in self.ops}
        for op, (code, stderr) in zip(self.ops, results):
            if code != 0:
                errors[op.label].insert(0, f"exit {code}: {stderr[-300:]}")
        digests = workloads.output_digests(self.ops)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = {p for p in digests if digests[p] != self.digests.get(p)}
            for op in self.ops:
                if any(str(p) in changed for p in op.outputs):
                    errors[op.label].append("output differs from the first pass")
        self.attempted += len(self.ops)
        self.failures += [(pass_index, label, errs) for label, errs in errors.items() if errs]
        self.passes.append(pass_index)
        return elapsed

    def measure(self, seconds: float, min_passes: int, between_passes) -> None:
        """Closed loop for ``seconds`` after one warm-up pass; traced passes alternate."""
        self.one_pass(-1, traced=False)
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            traced = self.trace and index % 2 == 1
            elapsed = self.one_pass(index, traced)
            if traced:
                self.traced.append(elapsed)
                self.traced_passes.append(index)
            else:
                self.untraced.append(elapsed)
            between_passes()
            index += 1
            enough = len(self.untraced) >= min_passes and (not self.trace or len(self.traced) >= min_passes)
            if enough and time.perf_counter() >= deadline:
                return


def cold_start_s(workload: str, inp: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and loading the inputs."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "coldstart.py"), workload, str(inp)],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def import_program() -> None:
    if not (SRC / "fiberxtalk" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}/fiberxtalk; run from a checkout")
    sys.path.insert(0, str(SRC))
    import fiberxtalk

    if not Path(fiberxtalk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported fiberxtalk from {fiberxtalk.__file__}, not {SRC}")


def benchmark(workload: str, seed: int, seconds: float, trace: bool, *, scale: str = "full",
              min_passes: int = MIN_PASSES, setup_repeats: int = SETUP_REPEATS,
              oracle: bool = True) -> dict:
    """One run: generate inputs, measure, check; return the run record with its result."""
    BUILD.mkdir(parents=True, exist_ok=True)
    work = BUILD / f"work-{workload}-{seed}-{os.getpid()}"
    inp, out = work / "inputs", work / "outputs"
    out.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(inp), "--scale", scale], check=True)
        truth = json.loads((inp / "truth.json").read_text())

        # Cold starts run between passes, so they sample the host over the whole run.
        setups: list[float] = []
        run = Run(workload, truth, inp, out, trace)
        run.measure(seconds, min_passes, lambda: setups.append(cold_start_s(workload, inp)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setups) < setup_repeats:
            setups.append(cold_start_s(workload, inp))
        setup_s = statistics.median(setups)
        if oracle and workload == "scan-plan":
            # Passes are byte-identical (checked), so a wrong plan is wrong in every pass.
            for label, errs in workloads.oracle_errors(run.ops, SRC, BUILD / "oracle").items():
                run.failures += [(p, label, errs) for p in run.passes]
        failed = len({(p, label) for p, label, _ in run.failures})
        # Mean pass time, the inverse of the closed loop's throughput: the host's CPU speed
        # alternates between two levels, and a median over passes jumps between them.
        run_s = statistics.fmean(run.untraced)
        if trace:
            overhead = statistics.fmean(run.traced) - run_s
            metrics = spans.per_layer_metrics(run.tracer, run.traced_passes, overhead)
        else:
            metrics = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
                       "coupling_abs_err_db": workloads.accuracy_db(workload, truth, run.ops)}
        record = {
            "correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics,
            "workload": workload, "seed": seed, "trace": int(trace),
            "figures": workloads.figures(workload, truth, run.ops, run_s),
            "failed_ratio": failed / run.attempted,
            "passes_s": {"untraced": run.untraced, "traced": run.traced},
            "xtt1_sha256": {Path(p).name: d for p, d in (run.digests or {}).items() if p.endswith(".xtt1")},
            "errors": [{"pass": p, "op": label, "errors": errs} for p, label, errs in run.failures],
        }
        if trace:
            record["spans"] = [s.to_dict() for s in run.tracer.spans]
            record["ops"] = run.tracer.ops
        (BUILD / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record) + "\n")
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_human(record: dict) -> None:
    passes = record["passes_s"]["untraced"]
    q = statistics.quantiles(passes, n=4) if len(passes) > 1 else [passes[0]] * 3
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(passes)} untraced passes, pass time p25/p50/p75 {q[0]:.4f}/{q[1]:.4f}/{q[2]:.4f} s")
    for name, value in record["metrics"].items():
        print(f"  {name:34s} {value:.6g} {UNITS[name]}")
    for name, value in record["figures"].items():
        print(f"  {name:34s} {value:.6g}")
    print(f"  {'failed_ratio':34s} {record['failed']}/{record['attempted']} = {record['failed_ratio']:.4g}")
    for name, digest in record["xtt1_sha256"].items():
        print(f"  sha256 {name} {digest}")
    for failure in record["errors"][:10]:
        print(f"  FAILED pass {failure['pass']} {failure['op']}: {'; '.join(failure['errors'])[:500]}")


def smoke() -> int:
    """Every workload once at tiny size, both modes; metric names must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, declared in (("end_to_end", END_TO_END), ("per_layer", spans.PER_LAYER)):
        if [(m["name"], m["unit"], m["better"]) for m in spec[key]] != list(declared):
            problems.append(f"BENCHMARK.json {key} differs from the metrics the benchmark defines")
    want = {0: [m[0] for m in END_TO_END], 1: [m[0] for m in spans.PER_LAYER]}
    declared = sorted(w["name"] for w in spec["workloads"])
    if declared != sorted(inputs.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {declared}")
    for workload in inputs.WORKLOADS:
        for trace in (0, 1):
            result = benchmark(workload, 1, 0.0, bool(trace), scale="smoke", min_passes=1,
                               setup_repeats=1, oracle=False)
            if sorted(result["metrics"]) != sorted(want[trace]):
                problems.append(f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['errors']}")
            print(f"smoke {workload} trace {trace}: {result['attempted']} ops, {result['failed']} failed")
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fast self-test of every workload")
    args = parser.parse_args()
    import_program()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_human(record)
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in record["metrics"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
