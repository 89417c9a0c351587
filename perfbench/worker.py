"""Run one benchmark workload in this process.

A pass runs every operation of the workload once, in an order drawn from the
seed, through ``thermaljcm.cli.main`` with ``--out`` to a temporary file, and
checks the output bytes against the golden SHA-256.  The worker first runs
every operation once untimed, then timed passes for about ``--seconds``
seconds, with the set-up probes (fresh interpreters, ``setup_probe.py``)
spread evenly between them and a host reference kernel after each pass,
then (with ``--trace 1``) two traced passes.
It prints one JSON object as the last line of its standard output.

``perfbench/run.py`` starts it in a fresh interpreter with ``PYTHONPATH=src``
and the BLAS thread count set; run that, not this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: set-up probes per untraced run (after one that fills the bytecode cache);
#: setup_s is their median
SETUP_PROBES = 15
#: a probe that takes longer than this has hung
PROBE_TIMEOUT_S = 30.0


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]


def library_versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def probe_specs(ops: list[dict]) -> list[str]:
    """``setup_probe.py`` arguments: the configuration each operation parses."""
    specs = []
    for op in ops:
        argv = op["argv"]
        for flag, kind in (("--preset", "preset"), ("--config", "config")):
            if flag in argv:
                specs.append(f"{kind}:{argv[argv.index(flag) + 1]}")
    return specs


def setup_probe(specs: list[str]) -> float:
    """Seconds a fresh interpreter takes to import the CLI and parse the configs."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *specs],
                          capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    return float(proc.stdout.split()[-1])


def reference_kernel() -> float:
    """Seconds for a fixed piece of numpy and Python work that does not touch
    the program: how fast the host runs at that moment.  Shared hosts can
    swing by more than half for minutes, which moves every time metric."""
    import numpy as np

    start = time.perf_counter()
    table = np.cos(np.outer(np.linspace(0.0, 10.0, 600), np.sqrt(np.arange(250.0))))
    ",".join(f"{x:.12g}" for x in (table * table).sum(axis=1))
    return time.perf_counter() - start


class Runner:
    """Runs passes over a workload's operations and keeps the tallies."""

    def __init__(self, cli, ops: list[dict], tmpdir: Path, seed: int) -> None:
        self.cli = cli
        self.ops = ops
        self.tmpdir = tmpdir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.orders: list[list[str]] = []

    def run_op(self, op: dict) -> tuple[float, int]:
        """Seconds inside ``cli.main`` for one operation and the bytes it wrote;
        the output is checked."""
        out = self.tmpdir / f"{op['name']}.out"
        argv = [*op["argv"], "--out", str(out)]
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            # looked up at call time, so an installed tracer sees the call
            rc = self.cli.main(argv)
        except Exception:
            rc = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        digest = hashlib.sha256(data).hexdigest()
        if error is not None:
            self.failures.append(f"{op['name']}: exception\n{error}")
        elif rc != op["exit_code"]:
            self.failures.append(f"{op['name']}: exit code {rc}, expected {op['exit_code']}")
        elif digest != op["sha256"]:
            self.failures.append(f"{op['name']}: output sha256 {digest} differs from golden")
        return elapsed, len(data)

    def run_pass(self) -> tuple[dict[str, float], int]:
        """Seconds inside ``cli.main`` per operation over one pass, and the
        bytes the pass wrote."""
        order = self.rng.sample(self.ops, len(self.ops))
        self.orders.append([op["name"] for op in order])
        op_s, total_bytes = {}, 0
        for op in order:
            op_s[op["name"]], n_bytes = self.run_op(op)
            total_bytes += n_bytes
        return op_s, total_bytes


def traced_pass(runner: Runner) -> tuple:
    """Run one pass under the tracer: its seconds, bytes written and the tracer."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        op_s, bytes_out = runner.run_pass()
    finally:
        tracer.uninstall()
    return sum(op_s.values()), bytes_out, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    import thermaljcm.cli as cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: thermaljcm imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    spec = load_workloads()[args.workload]
    specs = probe_specs(spec["ops"])
    n_probes = 0 if args.trace else SETUP_PROBES
    out_dir = Path(args.out_dir)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        runner = Runner(cli, spec["ops"], Path(tmp), args.seed)
        for op in spec["ops"]:
            runner.run_op(op)  # warm-up: lazy imports and first-call set-up
        if n_probes:
            setup_probe(specs)  # fills the bytecode cache

        op_s: dict[str, list[float]] = {op["name"]: [] for op in spec["ops"]}
        pass_s: list[float] = []
        setup_s: list[float] = []
        ref_s: list[float] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(setup_s) < n_probes * min(1.0, elapsed / args.seconds):
                setup_s.append(setup_probe(specs))
            elif not pass_s or elapsed + statistics.median(pass_s) <= args.seconds:
                times = runner.run_pass()[0]
                for name, seconds in times.items():
                    op_s[name].append(seconds)
                pass_s.append(sum(times.values()))
                ref_s.append(reference_kernel())
            elif len(setup_s) < n_probes:
                setup_s.append(setup_probe(specs))
            else:
                break
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wall_s = statistics.median(pass_s)

        trace = None
        if args.trace:
            # two traced passes: their work counts must agree
            traced_s, bytes_out, tracer = traced_pass(runner)
            _, bytes_again, again = traced_pass(runner)
            counts, counts_again = tracer.counts(bytes_out), again.counts(bytes_again)
            if counts != counts_again:
                runner.failures.append(
                    f"nondeterministic: work counts {counts} then {counts_again}")
            spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(tracer.span_records()), encoding="utf-8")
            trace = tracer.summary()
            trace.update(counts=counts, wall_s=traced_s, overhead_s=traced_s - wall_s,
                         spans_file=str(spans_file))

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "orders": runner.orders,
        "op_s": op_s,
        "pass_s": pass_s,
        "wall_s": wall_s,
        "setup_probe_s": setup_s,
        "host_ref_s": ref_s,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "versions": library_versions(),
        "trace": trace,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
