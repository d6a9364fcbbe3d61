"""Service benchmark: durable flow ingest, NDJSON ingest, reads beside writes.

One run::

    python3 servicebench/run.py --workload flows-binary-wal --seed 1 --seconds 40 --trace 0

prints the workload's end-to-end metrics (``--trace 0``) or its
per-layer metrics from a traced run (``--trace 1``); the last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when the workload does not run
to its end or a correctness check fails.

Other modes::

    python3 servicebench/run.py --workload all --seed 1 --seconds 40
    python3 servicebench/run.py --workload query-mix --repeat 10 --seconds 40
    python3 servicebench/run.py --self-test

``--workload all`` runs the three workloads in turn; ``--repeat N`` runs
a workload N times with seeds ``seed, seed+1, ...`` (each in a fresh
process) and prints per metric the median, the quartiles and the spread
against the metric's bound; ``--self-test`` shows every correctness check
failing on a perturbed answer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".servicebench_work"
WORKLOADS = ("flows-binary-wal", "strings-ndjson", "query-mix")
#: A run that has not finished by then is abandoned (its servers killed).
RUN_DEADLINE_S = 170


def load_spec() -> dict:
    """BENCHMARK.json: the metric catalogue (names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _require_source() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servicebench: no program source at {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from harness import BenchError
    from workloads import RECOVERIES, Run

    def overrun(*_: object) -> None:
        raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")

    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(workload, seed, seconds, trace, workdir)
    def terminated(*_: object) -> None:
        raise BenchError("terminated")

    signal.signal(signal.SIGALRM, overrun)
    signal.signal(signal.SIGTERM, terminated)
    signal.alarm(RUN_DEADLINE_S)
    try:
        result = run.execute()
    except (BenchError, OSError, RuntimeError, ValueError, KeyError) as error:
        traceback.print_exc(file=sys.stderr)
        print(f"servicebench: {workload} did not finish: {error}", file=sys.stderr)
        return {"finished": False, "attempted": run.result.attempted,
                "failed": run.result.failed}
    finally:
        signal.alarm(0)
    out = {
        "finished": True,
        "correct": not result.failures,
        "failures": result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "e2e": result.metrics,
        "notes": result.notes,
    }
    if trace:
        import ledger

        spans = ledger.Spans.load(run.server_spans,
                                  [dict(zip(("id", "name", "start", "end", "request", "parent",
                                             "thread", "attrs"), s))
                                   for s in run.recorder.spans], os.getpid())
        layer = ledger.compute(spans, os.getpid(), RECOVERIES)
        late = run.late or [0.0]
        layer["gen.late_ms_p50"] = 1e3 * statistics.median(late)
        layer["gen.late_ms_max"] = 1e3 * max(late)
        layer["gen.ops_attempted"] = float(result.attempted)
        layer["gen.ops_failed"] = float(result.failed)
        layer.update(result.layer)
        out["layer"] = layer
    shutil.rmtree(workdir, ignore_errors=True)
    return out


def report(workload: str, out: dict, trace: bool) -> int:
    """Print the human-readable table, then the one-line JSON result."""
    if not out["finished"]:
        return 1
    for failure in out["failures"]:
        print(f"CHECK FAILED [{workload}]: {failure}", file=sys.stderr)
    print(f"# {workload}: attempted={out['attempted']} failed={out['failed']} "
          f"correct={out['correct']}")
    for note in out["notes"]:
        print(f"# {workload}: {note}")
    spec = load_spec()
    if trace:
        catalogue = spec["per_layer"]
        values = dict(out["layer"])
        values.update({f"traced.{name}": value for name, value in out["e2e"].items()})
    else:
        catalogue = spec["end_to_end"]
        values = out["e2e"]
    metrics = {}
    for entry in catalogue:
        name, unit = entry["name"], entry["unit"]
        # A layer a workload does not exercise reads 0; an end-to-end
        # metric is always measured.
        metrics[name] = {"value": values.get(name, 0.0) if trace else values[name],
                         "unit": unit}
        print(f"  {name:36s} {metrics[name]['value']:14.4f} {unit}")
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if out["correct"] else 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(workload: str, seed: int, seconds: float, trace: bool, times: int) -> int:
    """Run a workload ``times`` times (fresh process each) and summarise."""
    rows = []
    for i in range(times):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed + i), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"servicebench: run {i} (seed {seed + i}) failed", file=sys.stderr)
            return 1
        rows.append(json.loads(lines[-1]))
        print(f"# run {i} seed {seed + i}: "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in rows[-1]["metrics"].items()),
              flush=True)
    print(f"# {workload}: {times} runs; spread = (q3 - q1) / median")
    bounds = {entry["name"]: entry["bound"] for entry in load_spec()["end_to_end"]}
    summary = {}
    for name in rows[0]["metrics"]:
        values = [row["metrics"][name]["value"] for row in rows]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else
                                         "  WITHIN BOUND" if spread < bound else "  OVER BOUND")
        bound_text = "" if bound is None else f" bound={bound:.2f}"
        print(f"  {name:36s} median={med:12.4f} q1={q1:12.4f} q3={q3:12.4f} "
              f"spread={spread:.4f}{bound_text}{flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    failed = sum(row["failed"] for row in rows)
    attempted = sum(row["attempted"] for row in rows)
    print(json.dumps({"workload": workload, "runs": times, "attempted": attempted,
                      "failed": failed, "summary": summary}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times with seeds seed..seed+N-1 and summarise")
    parser.add_argument("--self-test", action="store_true",
                        help="show each correctness check failing on a perturbed answer")
    args = parser.parse_args(argv)
    _require_source()
    if args.self_test:
        import selftest

        return selftest.main()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.repeat:
        return max(repeat(w, args.seed, args.seconds, bool(args.trace), args.repeat)
                   for w in workloads)
    status = 0
    for workload in workloads:
        out = run_one(workload, args.seed, args.seconds, bool(args.trace))
        status = max(status, report(workload, out, bool(args.trace)))
    return status


if __name__ == "__main__":
    sys.exit(main())
