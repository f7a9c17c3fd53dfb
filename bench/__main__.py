"""``python -m bench``: every workload, each in its own fresh process.

    PYTHONPATH=src python -m bench                 # end-to-end metrics
    PYTHONPATH=src python -m bench --trace         # per-layer metrics
    PYTHONPATH=src python -m bench --smoke         # tiny, not comparable
    PYTHONPATH=src python -m bench --repeat 5 --out bench/out/base
    python -m bench compare bench/out/base bench/out/head

Workloads run one after another, never side by side, so each sees the
whole host.  Results go to ``<out>/[r<k>/]<workload>.json`` plus one
``results.json`` per pass; ``compare`` reads any directory of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import OUT, ROOT, load_spec
from bench.stats import tail_percentile

#: A full pass is about 20 s per workload; this only stops a hang.
RUN_TIMEOUT_S = 600


def _run_workload(name: str, args, out: Path) -> dict:
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if args.trace else "0",
        "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr)
        return {"workload": name, "correct": False, "exit": done.returncode}
    detail = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
    detail["exit"] = done.returncode
    return detail


def _print(detail: dict, trace: bool) -> None:
    name = detail["workload"]
    if "metrics" not in detail:
        print(f"{name}: FAILED (exit {detail['exit']}, no result)")
        return
    print(f"{name}: correct={detail['correct']} attempted="
          f"{detail['attempted']} failed={detail['failed']} "
          f"failed_frac={detail['failed'] / detail['attempted']:.4f}")
    if trace:
        for metric, row in detail["metrics"].items():
            if row["value"]:
                print(f"  {metric:38s} {row['value']:14.6g} {row['unit']}")
        return
    for metric, row in detail["end_to_end"].items():
        print(f"  {metric:12s} {row['value']:14.4f} {row['unit']:5s} "
              f"n={row['n']}")
    times = [time * 1e3 for op in detail["ops"] if not op["fans_out"]
             for time in op["times_s"]]
    q, value, n = tail_percentile(times)
    if q is not None:
        print(f"  op_tail_ms   {value:14.4f} ms    p{q:g} of all repetitions "
              f"(n={n}; the highest percentile with >= 10 beyond it)")
    for op in detail["ops"]:
        if op["fans_out"]:
            print(f"  {op['label'] + '_pass_ms':12s} "
                  f"{statistics.median(op['times_s']) * 1e3:14.4f} ms    "
                  f"raw, fans out; not an end-to-end metric")


def run(args) -> int:
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = 0 if args.smoke else spec["run_seconds"]
    root = Path(args.out) if args.out else OUT / time.strftime(
        "%Y%m%d-%H%M%S")
    ok = True
    for repeat in range(args.repeat):
        out = root / f"r{repeat + 1}" if args.repeat > 1 else root
        results = {}
        for name in names:
            detail = _run_workload(name, args, out)
            results[name] = detail
            _print(detail, args.trace)
            ok = ok and detail["correct"] and detail["exit"] == 0
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.json").write_text(
            json.dumps({"workloads": results}, indent=1) + "\n",
            encoding="utf-8")
        print(f"results: {out / 'results.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", action="store_true",
                        help="the traced run: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; the results are not comparable")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=None)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
