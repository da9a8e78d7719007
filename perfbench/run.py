#!/usr/bin/env python3
"""Builds and runs the HEP end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first form builds the `perfbench`
package (release profile, offline) and runs one workload; the last line of
standard output is the benchmark's JSON result. Cargo's target directory is
`CARGO_TARGET_DIR` when set, else `perfbench/target`. Every file a run
writes (the HEPB input, the h2h spill) lives under `perfbench/.work` and is
removed when the run ends.

`--self-test` runs every workload at smoke size and checks that each metric
named in BENCHMARK.json is printed with its unit, that the correctness gate
passes, and that a tampered fingerprint is counted as a failed op.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def commit():
    """The checkout's commit, when it is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(binary, args, capture=False, quiet=False):
    """Runs the benchmark binary with its files kept under WORK."""
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, TMPDIR=WORK)
    proc = subprocess.Popen([binary, *args, "--commit", commit()], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE if capture else None,
                            stderr=subprocess.DEVNULL if quiet else None, text=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(WORK, ignore_errors=True)
    return proc.returncode, out


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kinds = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in kinds.items():
            args = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace,
                    "--smoke"]
            code, out = run(binary, args, capture=True)
            assert code == 0, f"{workload} trace {trace}: exit {code}"
            res = result_of(out)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True and res["failed"] == 0, res
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in wanted}, (workload, trace, got)
            for line in ("metric failed_frac 0 1", "env workload=", " seed=7 ", " nproc=",
                         " HEP_THREADS=", " kernel=", " io_backend=", " commit="):
                assert line in out, f"{workload} trace {trace}: no {line!r} in output"
            if trace == "0":
                for line in ("op_s n=", "edges_per_s quartiles", "op_s tail"):
                    assert line in out, f"{workload}: no {line!r} in output"
        args = ["--workload", workload, "--seconds", "0", "--trace", "0", "--smoke", "--tamper"]
        code, out = run(binary, args, capture=True, quiet=True)
        res = result_of(out)
        assert code == 0 and res["correct"] is False, res
        assert res["failed"] == res["attempted"] - 1 > 0, res
        print(f"self-test {workload}: ok")
    return 0


def main():
    binary = build()
    if binary is None:
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return self_test(binary)
    code, _ = run(binary, sys.argv[1:])
    return code


if __name__ == "__main__":
    sys.exit(main())
