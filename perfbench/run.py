"""thermaljcm benchmark: figure-data and validation workloads through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload coherence_map --seed 1 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` a run reports the end-to-end metrics of BENCHMARK.json
(``wall_s``, ``peak_rss_mb``, ``setup_s``); with ``--trace 1`` it reports the
per-layer metrics from a traced pass plus the import-time split.  Every
operation's output is checked against its golden SHA-256 in either mode.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--workload all``
runs every workload and prefixes each metric name with the workload.

The program is imported from ``src/`` of the current directory, never from
an installed copy; without it the run fails.  Full records (environment,
per-pass times, failures) and the traced spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")

#: fresh ``-X importtime`` interpreters per traced run
IMPORTTIME_PROBES = 3
#: the whole run must end within 180 s
RUN_DEADLINE_S = 170.0

LAYER_METRIC = re.compile(rf"({'|'.join(LAYERS)})(\.\w+)?\.(self_s|calls)")
IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def load_benchmark() -> dict:
    path = Path("BENCHMARK.json")
    if not path.is_file():
        raise BenchError("BENCHMARK.json not found; run from the repository root")
    return json.loads(path.read_text(encoding="utf-8"))


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    # fixed explicitly so an inherited setting cannot change what is measured
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    # command-line users run from compiled bytecode
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline reached")
    # its own process group, so a timeout also stops the worker's set-up probes
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise BenchError(f"{' '.join(cmd[1:4])} did not finish before the run deadline") from exc
    if child.returncode != 0:
        sys.stderr.write(stderr)
        raise BenchError(f"{' '.join(cmd[:3])} exited with code {child.returncode}")
    return subprocess.CompletedProcess(cmd, child.returncode, stdout, stderr)


def import_module_name(metric: str) -> str:
    rest = metric[len("import."):-len("_s")]
    if rest.split(".")[0] in ("thermaljcm", "numpy", "scipy"):
        return rest
    return f"thermaljcm.{rest}"


def measure_import_split(env: dict, deadline: float) -> dict[str, float]:
    """Median cumulative import seconds per module, from ``-X importtime``."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_PROBES):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import thermaljcm.cli"],
                         env, deadline)
        for line in proc.stderr.splitlines():
            m = IMPORT_LINE.match(line)
            if m:
                samples.setdefault(m.group(2).strip(), []).append(int(m.group(1)) * 1e-6)
    return {name: statistics.median(v) for name, v in samples.items()}


def layer_values(record: dict, imports: dict[str, float], per_layer: list[dict]) -> dict:
    trace = record["trace"]
    values: dict[str, float] = {}
    for key, v in trace["self_s"].items():
        values[f"{key}.self_s"] = v
    for key, v in trace["calls"].items():
        values[f"{key}.calls"] = v
    values.update(trace["counts"])
    values["host.ref_kernel_s"] = statistics.median(record["host_ref_s"])
    values["trace.wall_s"] = trace["wall_s"]
    values["trace.overhead_s"] = trace["overhead_s"]
    out = {}
    for metric in per_layer:
        name = metric["name"]
        if name.startswith("import."):
            value = imports.get(import_module_name(name), 0.0)
        elif name in values:
            value = values[name]
        elif LAYER_METRIC.fullmatch(name):
            value = 0  # a layer or function this workload never calls
        else:
            raise BenchError(f"per-layer metric {name!r} is not measured by this harness")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def source_digest() -> str:
    """SHA-256 over the program's sources and the benchmark's inputs."""
    h = hashlib.sha256()
    for path in sorted([*Path("src").rglob("*.py"), *Path(HERE.name).rglob("*.json")]):
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_counts(workload: str, counts: dict) -> list[str]:
    """Compare the work counts with those of the first traced run of the same
    sources and inputs in this checkout; a difference marks the run
    nondeterministic."""
    ref_file = OUT_DIR / f"counts-{workload}-{source_digest()[:16]}.json"
    if not ref_file.exists():
        ref_file.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
        return []
    ref = json.loads(ref_file.read_text(encoding="utf-8"))
    return [f"nondeterministic: {k} = {counts.get(k)}, first run had {v}"
            for k, v in ref.items() if counts.get(k) != v]


def run_workload(name: str, spec: dict, bench: dict, args, deadline: float) -> dict:
    nproc = len(os.sched_getaffinity(0))
    blas_threads = nproc
    env = child_env(blas_threads)
    record: dict = {
        "workload": name,
        "seed": args.seed,
        "trace_mode": args.trace,
        "environment": {
            "nproc": nproc,
            "blas_threads": blas_threads,
            "loadavg_start": os.getloadavg(),
        },
    }
    if args.trace:
        imports = measure_import_split(env, deadline)

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    proc = run_child(cmd, env, deadline)
    sys.stderr.write(proc.stderr)
    worker = json.loads(proc.stdout.strip().splitlines()[-1])
    record["environment"].update(worker.pop("versions"))
    record.update(worker)

    if args.trace:
        metrics = layer_values(record, imports, bench["per_layer"])
        record["failures"] += check_counts(name, record["trace"]["counts"])
        record["import_s"] = imports
    else:
        values = {"wall_s": record["wall_s"], "peak_rss_mb": record["peak_rss_mb"],
                  "setup_s": statistics.median(record["setup_probe_s"])}
        metrics = {}
        for metric in bench["end_to_end"]:
            if metric["name"] not in values:
                raise BenchError(f"end-to-end metric {metric['name']!r} is not measured")
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    record["metrics"] = metrics
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']}  seed {record['seed']}  trace {record['trace_mode']}  "
          + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# pass orders: {record['orders']}")
    ref = record["host_ref_s"]
    print(f"# host reference kernel: median {statistics.median(ref):.5f} s of {len(ref)}, "
          f"fastest {min(ref):.5f} s")
    if not record["trace_mode"]:
        print(f"# wall_s is the median of {len(record['pass_s'])} warm passes: "
              + " ".join(f"{v:.4f}" for v in record["pass_s"]))
        print(f"# setup_s is the median of {len(record['setup_probe_s'])} fresh interpreters")
    else:
        t = record["trace"]
        self_sum = sum(v for k, v in t["self_s"].items() if k in LAYERS)
        print(f"# traced pass {t['wall_s']:.4f} s, sum of layer self times {self_sum:.4f} s, "
              f"overhead vs untraced wall_s {t['overhead_s']:+.4f} s")
    for name, m in record["metrics"].items():
        print(f"{record['workload']:>14} {name:<52} {m['value']:>16.6g} {m['unit']}")
    status = "ok" if not record["failures"] else f"{len(record['failures'])} FAILED"
    print(f"# output check: {record['attempted']} operations, {status}")
    for failure in record["failures"]:
        print(f"#   {failure.splitlines()[0]}")
        sys.stderr.write(failure + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0, help="permutes the operation order")
    ap.add_argument("--seconds", type=float,
                    help="timed phase per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    try:
        if not Path("src/thermaljcm/__init__.py").is_file():
            raise BenchError("src/thermaljcm not found; run from the repository root")
        bench = load_benchmark()
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        workloads = load_workloads()
        if args.workload == "all":
            names = list(workloads)
            deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
        elif args.workload in workloads:
            names = [args.workload]
        else:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {list(workloads)}")
        OUT_DIR.mkdir(exist_ok=True)
        records = [run_workload(n, workloads[n], bench, args, deadline) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for rec in records:
        (OUT_DIR / f"result-{rec['workload']}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(rec, indent=1), encoding="utf-8")
        report(rec)
    prefix = len(records) > 1
    print(json.dumps({
        "correct": not any(rec["failures"] for rec in records),
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(min(len(rec["failures"]), rec["attempted"]) for rec in records),
        "metrics": {(f"{rec['workload']}.{k}" if prefix else k): v
                    for rec in records for k, v in rec["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
