#!/usr/bin/env python3
"""Run one workload of the olar serving benchmark.

    python3 perfbench/run.py --workload analyst --seed 1 --seconds 10 --trace 0

Run from the root of an olar source tree. Builds the olar CLI and the
benchmark program (perfbench/olarbench.ml) with dune, then runs it.
It prints human-readable lines and, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is the program's: nonzero on a digest mismatch, a failed
determinism check or any error. Inputs, logs and spans go to
perfbench/_work/.
"""

import argparse
import glob
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("analyst", "scan", "ingest")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout}s", 3)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for f in ("dune-project", "bin/olar_cli.ml", "lib/net/server.ml", "perfbench/olarbench.ml"):
        if not os.path.isfile(f):
            fail(f"{f} not found: run from the root of an olar source tree")
    dune = find_dune()
    if dune is None:
        fail("dune not found")

    exe = "_build/default/perfbench/olarbench.exe"
    olar = "_build/default/bin/olar_cli.exe"
    code = run_bounded(
        [dune, "build", "--root", ".", "./bin/olar_cli.exe", "./perfbench/olarbench.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed", 3)

    work = os.path.join("perfbench", "_work")
    os.makedirs(work, exist_ok=True)
    code = run_bounded(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--olar", olar, "--work", work],
        RUN_TIMEOUT_S,
    )
    sys.exit(code)


if __name__ == "__main__":
    main()
