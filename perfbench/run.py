#!/usr/bin/env python3
"""kNNTA serving benchmark: builds tar_perfbench from source and runs one
workload.

  python3 perfbench/run.py --workload serve-read|cold-tia|ingest-mixed \\
      --seed N --seconds S --trace 0|1 [--scale F]
  python3 perfbench/run.py --self-test         # determinism + schema checks
  python3 perfbench/run.py --check-workloads   # the three workload claims

Run it from anywhere inside a source checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench under the
checkout root); durable stores and span dumps go to its work/ directory.
The last line of stdout is the run's result object; see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# A run's wall time grows with --seconds: about 20-35 s at --seconds 10,
# mostly set-up, streaming and answer checks.
RUN_TIMEOUT_BASE_S = 90
RUN_TIMEOUT_PER_SECOND = 5
BUILD_TIMEOUT_S = 700
WORKLOADS = ["serve-read", "cold-tia", "ingest-mixed"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds tar_perfbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no engine sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if proc.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                print(tail, file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}")
    binary = out / "tar_perfbench"
    if not binary.is_file():
        fail("build produced no tar_perfbench")
    return binary


def run_workload(binary, workload, seed, seconds, trace, scale=None,
                 echo=True):
    """Runs one workload; returns (result dict, '# ' note lines)."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    timeout = RUN_TIMEOUT_BASE_S + RUN_TIMEOUT_PER_SECOND * seconds
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} exited with code {proc.returncode}")
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return json.loads(lines[-1]), [l for l in lines[:-1] if l.startswith("# ")]


def declared_metrics(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def check(ok, what, problems):
    print(f"# {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def note_value(notes, prefix):
    for line in notes:
        if line.startswith("# " + prefix):
            return line
    return ""


def self_test(args):
    """Determinism, seed sensitivity, metric schema and replay equality at
    a tiny scale (about a minute)."""
    binary = build()
    problems = []
    scale = args.scale or 0.01
    counts = ["tar_tree.node_reads", "tia.aggregate_calls",
              "buffer_pool.misses", "page_file.reads"]
    layers = declared_metrics("per_layer")
    e2e = declared_metrics("end_to_end")
    for workload in ["serve-read", "cold-tia"]:
        a, notes_a = run_workload(binary, workload, 1, 1, 1, scale, echo=False)
        b, notes_b = run_workload(binary, workload, 1, 1, 1, scale, echo=False)
        c, notes_c = run_workload(binary, workload, 2, 1, 1, scale, echo=False)
        for name in counts:
            va = a["metrics"][name]["value"]
            vb = b["metrics"][name]["value"]
            check(va == vb, f"{workload}: same seed, same {name} ({va} vs {vb})",
                  problems)
        qa = note_value(notes_a, "queries")
        check(qa == note_value(notes_b, "queries"),
              f"{workload}: same seed, same queries", problems)
        check(qa != note_value(notes_c, "queries"),
              f"{workload}: another seed, other queries", problems)
        check(a["metrics"]["tar_tree.node_reads"]["value"] > 0,
              f"{workload}: traced reads visit nodes", problems)
    for workload in WORKLOADS:
        for trace, declared in ((0, e2e), (1, layers)):
            res, _ = run_workload(binary, workload, 3, 2, trace, scale,
                                  echo=False)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared,
                  f"{workload} --trace {trace}: every declared metric with "
                  f"its unit", problems)
            check(res["correct"] and res["failed"] == 0,
                  f"{workload} --trace {trace}: correct, no failures "
                  f"(replay equality included when traced)", problems)
    print(json.dumps({"self_test": "passed" if not problems else "failed",
                      "problems": problems}))
    return 0 if not problems else 1


def check_workloads(args):
    """Each workload still measures what it was chosen for (traced runs at
    the benchmark's scale)."""
    binary = build()
    problems = []
    scale = args.scale
    res = {}
    notes = {}
    for workload in WORKLOADS:
        res[workload], notes[workload] = run_workload(
            binary, workload, args.seed, args.seconds, 1, scale, echo=False)
    m = {w: {k: v["value"] for k, v in r["metrics"].items()}
         for w, r in res.items()}
    hit = m["serve-read"]["buffer_pool.hit_rate"]
    check(hit >= 0.99, f"serve-read buffer_pool.hit_rate {hit:.5f} >= 0.99",
          problems)
    cold = m["cold-tia"]["buffer_pool.misses"]
    warm = m["serve-read"]["buffer_pool.misses"]
    cold_hit = m["cold-tia"]["buffer_pool.hit_rate"]
    check(cold > 1000 * warm and cold > 1000,
          f"cold-tia buffer_pool.misses/query {cold:.1f} > 1000 x "
          f"serve-read's {warm:.3f} and > 1000", problems)
    check(cold_hit < 0.5,
          f"cold-tia buffer_pool.hit_rate {cold_hit:.5f} < 0.5", problems)
    line = note_value(notes["ingest-mixed"], "self-check")
    check(line.endswith(": ok"),
          f"ingest-mixed readers completed reads while epochs applied "
          f"({line[2:]})", problems)
    for w, r in res.items():
        check(r["correct"], f"{w}: answers correct", problems)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float,
                        help="GW preset scale (default 0.08: 6,088 "
                             "effective POIs; --self-test: 0.01)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--check-workloads", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test(args)
    if args.check_workloads:
        return check_workloads(args)
    if args.workload is None:
        parser.error("--workload is required")
    binary = build()
    run_workload(binary, args.workload, args.seed, args.seconds, args.trace,
                 args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
