#!/usr/bin/env python3
"""Host-cost benchmark for tibsim (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The first call builds socbench and the layer-probe binary into .bench_build/.
With --trace 0 the run measures the end-to-end metrics of BENCHMARK.json by
running `socbench run` as a user would; with --trace 1 it makes one untraced
and one traced run and reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Every run is appended, with its host block, to a JSON-lines file
(.bench_build/results.jsonl, or --record FILE) that perfbench/compare.py
reads.
"""

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SOCBENCH = BUILD / "tibsim" / "bench" / "socbench"
PROBE = BUILD / "perfbench_probe"

# The thousand-node experiment of the bigcluster_* workloads: HPL and HYDRO
# on Tibidabo-style trees of 128-1,024 Tegra 2 nodes (2,048 ranks at the
# top) and a 1,500-node, 3,000-rank reliability job.
# The paper_suite workload runs every registered experiment but the
# 8,192-rank ablation_armv8_bigcluster (`perfbench_probe suite`), this one
# included.
BIGCLUSTER = ["scale_bigcluster"]

# World sets timed by setup_s: the cluster worlds each workload's
# experiments build, with no-op rank bodies. The 8-node worlds are the
# slices the experiments probe to size fiber stacks.
PAPER_WORLDS = ("tibidabo:4,tibidabo:8,tibidabo:16,tibidabo:24,tibidabo:32,"
                "tibidabo:48,tibidabo:64,tibidabo:96,tegra2:8,tegra2:64,"
                "tegra2:128,tegra2:256,tegra2:512,tegra2:1024,tegra2:1500")
BIGCLUSTER_WORLDS = ("tegra2:8,tegra2:128,tegra2:256,tegra2:512,"
                     "tegra2:1024,tegra2:1500")
# Set-ups of the world set before each repetition and after the last.
SETUP_REPS = 2


@dataclass(frozen=True)
class Workload:
    experiments: list  # None: the paper suite
    jobs: int
    shards: int
    worlds: str

    def names(self):
        return self.experiments or paper_suite()


WORKLOADS = {
    "paper_suite": Workload(None, 4, 1, PAPER_WORLDS),
    "bigcluster_s1": Workload(BIGCLUSTER, 1, 1, BIGCLUSTER_WORLDS),
    "bigcluster_s2": Workload(BIGCLUSTER, 1, 2, BIGCLUSTER_WORLDS),
}

# The library reads TIBSIM_* variables (backend, trace mode, shard threads,
# ...). Children run without them, so every run measures the defaults.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if not k.startswith("TIBSIM_")}

# Paper anchors, same tolerances as the tier-1 Integration tests.
HPL_ANCHORS = {
    "GFLOPS at 96 nodes": (97.0, 12.0),
    "efficiency at 96 nodes": (51.0, 5.0),
    "Green500 metric at 96 nodes": (120.0, 15.0),
}
MIN_BIGCLUSTER_RANKS = 2048


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build():
    for needed in ("CMakeLists.txt", "src", "include", "bench"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{needed} not found under {ROOT}: not a tibsim "
                             "checkout")
    cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)]
    if not (BUILD / "CMakeCache.txt").exists():
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
               "socbench", "perfbench_probe"], "build")


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"{what} failed with exit code {proc.returncode}")


def probe(*args):
    """Standard output of one perfbench_probe call."""
    proc = subprocess.run([str(PROBE), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=CHILD_ENV)
    if proc.returncode != 0:
        raise BenchError(f"perfbench_probe {args[0]} failed: "
                         f"{proc.stderr.strip()}")
    return proc.stdout


@functools.cache
def paper_suite():
    return probe("suite").split()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_rev():
    """git HEAD when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "bench", "perfbench"):
        base = ROOT / top
        paths = [base] if base.is_file() else sorted(base.rglob("*"))
        for p in paths:
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def host_block(workload, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = json.loads((BUILD / "build_info.json").read_text())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "git_rev": source_rev(), "workload": workload, "seed": seed}


# Fields that must match for two result sets to be compared.
HOST_IDENTITY = ("nproc", "cpu_model", "compiler", "build_type")


# ----------------------------------------------------------------- checks --

def compare_dirs(out_dir, ref_dir, what):
    """Problems when out_dir's JSON artefacts are not byte-identical to
    ref_dir's."""
    out = {p.name: p for p in Path(out_dir).glob("*.json")}
    ref = {p.name: p for p in Path(ref_dir).glob("*.json")}
    problems = [f"{name} missing (present in {what})"
                for name in sorted(ref.keys() - out.keys())]
    problems += [f"{name} unexpected (absent from {what})"
                 for name in sorted(out.keys() - ref.keys())]
    problems += [f"{name} differs from {what}"
                 for name in sorted(out.keys() & ref.keys())
                 if out[name].read_bytes() != ref[name].read_bytes()]
    return problems


def metric_values(doc):
    return {m["name"]: m["value"] for m in doc["results"]["metrics"]}


def check_anchors(out_dir, experiments):
    """Problems with the paper anchors and the 2,048-rank cell."""
    problems = []
    for name in experiments:
        path = Path(out_dir) / f"{name}.json"
        if not path.exists():
            problems.append(f"{name}.json not written")
            continue
        try:
            values = metric_values(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError) as e:
            problems.append(f"{name}.json unreadable: {e}")
            continue
        if name == "hpl_green500":
            for metric, (want, tol) in HPL_ANCHORS.items():
                got = values.get(metric)
                if got is None or abs(got - want) > tol:
                    problems.append(f"hpl_green500 '{metric}' = {got}, "
                                    f"want {want} +- {tol}")
        if name == "scale_bigcluster":
            ranks = values.get("ranks simulated at 1024 nodes")
            if ranks is None or ranks < MIN_BIGCLUSTER_RANKS:
                problems.append(f"scale_bigcluster simulated {ranks} ranks, "
                                f"want >= {MIN_BIGCLUSTER_RANKS}")
    return problems


def check_repetition(returncode, out_dir, experiments, first_dir=None,
                     s1_dir=None):
    """Every problem with one repetition; an empty list means it passed.

    first_dir holds the workload's first repetition for this seed and
    s1_dir (bigcluster_s2 only) the bigcluster_s1 artefacts for this seed."""
    if returncode != 0:
        return [f"socbench exited with code {returncode}"]
    problems = check_anchors(out_dir, experiments)
    if first_dir is not None:
        problems += compare_dirs(out_dir, first_dir, "the first repetition")
    if s1_dir is not None:
        problems += compare_dirs(out_dir, s1_dir, "bigcluster_s1")
    return problems


# ------------------------------------------------------------------- runs --

def socbench_cmd(workload, seed, out_dir):
    return [str(SOCBENCH), "run", *workload.names(),
            "--jobs", str(workload.jobs), "--sim-shards", str(workload.shards),
            "--seed", str(seed), "--json", str(out_dir), "--no-summary"]


def run_child(cmd, stderr_path):
    """(exit code, wall s, user+sys CPU s, peak RSS MiB) of one child run,
    its rusage taken from wait4 on that child alone."""
    stderr_path.parent.mkdir(parents=True, exist_ok=True)
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=CHILD_ENV)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(stderr_path.read_text(errors="replace")[-2000:])
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def reference_dir(workload_name, seed):
    """Where the first repetition of (workload, seed) is kept, keyed by the
    socbench binary so a rebuild never compares against stale bytes."""
    return BUILD / "refs" / file_digest(SOCBENCH)[:16] / workload_name / str(seed)


def ensure_reference(workload_name, seed):
    """The reference artefacts of (workload, seed), made now if no earlier
    run in this checkout made them. Returns None if socbench failed."""
    ref = reference_dir(workload_name, seed)
    if ref.exists():
        return ref
    tmp = ref.with_name(ref.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    rc, *_ = run_child(socbench_cmd(WORKLOADS[workload_name], seed, tmp),
                       tmp.with_suffix(".stderr"))
    if rc != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        return None
    tmp.rename(ref)
    return ref


def references(name, seed, out_dir):
    """(first_dir, s1_dir) for a repetition written to out_dir."""
    ref = reference_dir(name, seed)
    if not ref.exists():
        ref.parent.mkdir(parents=True, exist_ok=True)
        shutil.copytree(out_dir, ref)
    s1 = None
    if WORKLOADS[name].shards != 1:
        # A failed bigcluster_s1 run leaves no artefacts, so every file
        # differs.
        s1 = (ensure_reference("bigcluster_s1", seed)
              or BUILD / "bigcluster_s1-failed")
    return ref, s1


def setup_seconds(workload):
    return json.loads(probe("setup", "--worlds", workload.worlds, "--shards",
                            str(workload.shards), "--reps",
                            str(SETUP_REPS)))["reps"]


def measure(name, seed, seconds):
    """The untraced run: end-to-end metrics over repetitions."""
    workload = WORKLOADS[name]
    work = BUILD / "runs" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    if workload.shards != 1:
        ensure_reference("bigcluster_s1", seed)  # before timing starts
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mib": [], "setup_s": []}
    failed = 0
    rep = 0
    # Set-ups are sampled around every repetition, so a change in host load
    # during the run reaches both.
    while rep == 0 or sum(samples["wall_s"]) < seconds:
        samples["setup_s"] += setup_seconds(workload)
        out = work / f"rep{rep}"
        rc, wall, cpu, rss = run_child(socbench_cmd(workload, seed, out),
                                       work / f"rep{rep}.stderr")
        first, s1 = references(name, seed, out) if rc == 0 else (None, None)
        problems = check_repetition(rc, out, workload.names(), first, s1)
        if problems:
            failed += 1
            log(f"rep {rep} FAILED: " + "; ".join(problems[:5]))
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mib"].append(rss)
        shutil.rmtree(out, ignore_errors=True)
        rep += 1
    samples["setup_s"] += setup_seconds(workload)
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
    metrics = {k: (statistics.median(samples[k]), u) for k, u in units.items()}
    return rep, failed, metrics, samples


def traced(name, seed, per_layer_units):
    """The traced run: one untraced socbench run, then the probe binary's
    traced in-process run of the same workload and the layer probes."""
    workload = WORKLOADS[name]
    work = BUILD / "runs" / f"{name}-{seed}-trace"
    shutil.rmtree(work, ignore_errors=True)
    out = work / "untraced"
    rc, wall, _, _ = run_child(socbench_cmd(workload, seed, out),
                               work / "untraced.stderr")
    failures = []
    first, s1 = references(name, seed, out) if rc == 0 else (None, None)
    failures.append(check_repetition(rc, out, workload.names(), first, s1))
    stdout = probe("trace", "--experiments", ",".join(workload.names()),
                   "--jobs", str(workload.jobs), "--shards",
                   str(workload.shards), "--seed", str(seed), "--out",
                   str(work / "probe"))
    report = json.loads(stdout.strip().splitlines()[-1])
    problems = list(report["problems"])
    if first is not None:
        problems += check_repetition(0, work / "probe" / "traced",
                                     workload.names(), first, s1)
    else:
        problems.append("no untraced reference to compare the traced run to")
    failures.append(problems)
    values = report["metrics"]
    values["trace.overhead_pct"] = 100.0 * (values.pop("traced_wall_s") / wall
                                            - 1.0)
    missing = per_layer_units.keys() - values.keys()
    if missing:
        raise BenchError(f"probe did not report {sorted(missing)}")
    metrics = {k: (values[k], per_layer_units[k]) for k in per_layer_units}
    for i, problem in enumerate(failures):
        if problem:
            log(f"{'traced' if i else 'untraced'} run FAILED: "
                + "; ".join(problem[:5]))
    return len(failures), sum(1 for p in failures if p), metrics, report


# ------------------------------------------------------------------- main --

def benchmark_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from e


def run_workload(name, seed, seconds, trace, spec):
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        attempted, failed, metrics, extra = traced(name, seed, units)
        detail = {"spread_pct": extra["spread_pct"], "rounds": extra["rounds"]}
    else:
        attempted, failed, metrics, samples = measure(name, seed, seconds)
        detail = {"samples": samples}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, detail


def print_metrics(name, result, detail):
    share = result["failed"] / result["attempted"]
    print(f"{name}: {result['attempted']} operations, {result['failed']} "
          f"failed ({share:.0%})")
    spread = detail.get("spread_pct", {})
    for key, m in result["metrics"].items():
        extra = f"  (spread {spread[key]:.1f}%)" if key in spread else ""
        print(f"  {key:32s} {m['value']:14.6g} {m['unit']}{extra}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=str(BUILD / "results.jsonl"),
                        help="append the run to this JSON-lines file (read by "
                        "perfbench/compare.py)")
    args = parser.parse_args(argv)
    try:
        spec = benchmark_spec()
        build()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds,
                                          args.trace, spec)
            results[name] = result
            host = host_block(name, args.seed)
            print("host: " + json.dumps(host))
            print_metrics(name, result, detail)
            record = {"host": host, "trace": args.trace,
                      "seconds": args.seconds, "result": result, **detail}
            with open(args.record, "a") as f:
                f.write(json.dumps(record) + "\n")
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
