#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark.

    python3 e2ebench/selfcheck.py          # run every check
    python3 e2ebench/selfcheck.py --pin    # rewrite digests.txt from the
                                           # current answers, then check

Run from the root of a source tree. Checks, in order:

  1. tiny pass: every workload at --size tiny, untraced and traced, exits 0
     with correct=true and prints every metric BENCHMARK.json names for that
     mode, each with its unit;
  2. corruption: a run whose first response is deliberately corrupted
     (--corrupt 1) is caught: exit 1, correct=false, failed > 0;
  3. second seed: every workload runs clean at full size on SECOND_SEED,
     whose answer digests are pinned next to the default seed's;
  4. no sources: in a directory holding only BENCHMARK.json and the
     benchmark's paths, the command exits non-zero without a result line.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
DIGESTS = os.path.join(HERE, "digests.txt")
DEFAULT_SEED = 1
SECOND_SEED = 2
WORKLOADS = ["mine_deep", "mine_wide", "serve_read", "serve_write"]

failures = []


def run(workload, seed, trace=0, size="tiny", corrupt=0, seconds=1, cwd=ROOT,
        script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", size,
         "--corrupt", str(corrupt)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = report = None
    if lines and lines[-1].startswith('{"correct":'):
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"] if len(lines) > 1 else None
    return proc.returncode, result, report


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def pin():
    """Rewrites digests.txt: tiny and full answers of the default seed and
    full answers of the second seed."""
    rows = []
    for size, seed in (("tiny", DEFAULT_SEED), ("full", DEFAULT_SEED),
                       ("full", SECOND_SEED)):
        for workload in WORKLOADS:
            _, _, report = run(workload, seed, size=size)
            rows.append("%s %s %d %s" % (workload, size, seed,
                                         report["digest"]))
    with open(DIGESTS, "w") as f:
        f.write("# Answer digests (FNV-1a 64 over every response of the\n"
                "# first episode), checked whenever a run's workload, size\n"
                "# and seed match a row. Rewrite them with:\n"
                "#   python3 e2ebench/selfcheck.py --pin\n"
                "# workload size seed digest\n")
        f.write("\n".join(rows) + "\n")
    print("pinned %d digests" % len(rows))


def main():
    if "--pin" in sys.argv[1:]:
        pin()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    # 1. Tiny pass: every metric, by name and unit, in both modes.
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, report = run(workload, DEFAULT_SEED, trace=trace)
            printed = result["metrics"] if result else {}
            missing = [m["name"] for m in spec[key]
                       if printed.get(m["name"], {}).get("unit") != m["unit"]]
            check(code == 0 and result is not None and result["correct"]
                  and not missing and report["digest_pinned"] != "",
                  "tiny %s trace=%d prints every %s metric%s" %
                  (workload, trace, key,
                   " (missing: %s)" % ", ".join(missing) if missing else ""))

    # 2. A corrupted response is caught.
    for workload in WORKLOADS:
        code, result, _ = run(workload, DEFAULT_SEED, corrupt=1)
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] > 0,
              "tiny %s with a corrupted response fails" % workload)

    # 3. The second documented seed runs clean at full size.
    for workload in WORKLOADS:
        code, result, report = run(workload, SECOND_SEED, size="full")
        check(code == 0 and result is not None and result["correct"]
              and report["digest"] == report["digest_pinned"],
              "full %s seed %d runs clean against its pinned digest" %
              (workload, SECOND_SEED))

    # 4. Without the sources next to it the benchmark refuses to run.
    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    code, result, _ = run("mine_deep", DEFAULT_SEED, cwd=bare,
                          script=os.path.join(bare, "e2ebench", "run.py"))
    check(code != 0 and result is None,
          "a tree without src/ exits %d without a result" % code)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
