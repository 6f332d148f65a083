"""Benchmark of the shuffle-spectra command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout; the package is imported from ./src.  Each
sample is one real CLI command in a fresh interpreter, because users pay the
package's import and cache warm-up on every invocation.  Samples run one at a
time from this single process (a closed loop with one client), and every
sample's exit code and stdout digest are checked against reference.json.

--trace 0 reports the end-to-end metrics: wall_s and peak_rss_mb of the
samples that passed the check, and setup_s, the time a fresh interpreter takes
to import shuffle_spectra.cli and exit.  Times are scaled to a reference CPU
speed that speed.py measures during every sample (see scaled()).  --trace 1
alternates traced runs (traced.py) with untraced ones and reports the
per-layer self times and counts of the traced runs, plus the tracing overhead.  --workload all runs every
workload round-robin, in an order the seed shuffles each round, and prints one
table.  The last line of stdout is always one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Why each workload is here is recorded in README.md next to this file.
WORKLOADS = {
    "verify-n5": [["verify", "--n", "5"]],
    "eigenbasis-2211": [["eigenbasis", "--evaluation", "2,2,1,1"]],
    "kernel-421": [["kernel", "--partition", "4,2,1"], ["kernel", "--partition", "3,2,1,1"]],
    "laplacian-5-4": [["laplacian", "--n", "5", "--r", "4", "--spectrum"]],
}
# Lines a correct run must print, beyond matching its reference digest.
REQUIRED_LINES = {"verify --n 5": "verify n=5: OK"}
MIN_SAMPLES = 2
SETUP_SAMPLES = 5
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Reported times are scaled to this probe time; see scaled().  It is the
# median of 8665 probe times in thirty calibration runs of the four workloads
# on a 2-core Xeon machine, so scaled times are the seconds a sample takes
# while the probe reads that median (README.md, Reference speed).
PROBE_REF_S = 0.0109
# Probes that end this close to a sample's start or end count for it.
PROBE_MARGIN_S = 0.25


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return env


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def scaled(seconds: float, start: float, end: float, probes: list) -> float:
    """A time measured in [start, end], scaled to the reference CPU speed.

    The machines this runs on share their hosts, and a vCPU's speed drifts
    by up to 1.7x in phases that last from seconds to minutes, longer than
    a run.  So speed.py runs next to the samples for a whole run, and a time
    is multiplied by PROBE_REF_S over the mean of the probe times taken
    while it ran.  The probe counts CPU time and takes about a tenth of one
    CPU, so a child that uses more than one CPU still shows its gain.
    """
    near = [cpu_s for t, cpu_s in probes if start - PROBE_MARGIN_S <= t <= end + PROBE_MARGIN_S]
    return seconds * PROBE_REF_S / statistics.mean(near)


def run_sample(argv: list[str], traced: bool, references: dict) -> dict:
    """One CLI process, spawn to exit; its output is checked against the reference.

    Times are as measured; measure() scales them once the run has ended.
    """
    entry = [str(HERE / "traced.py")] if traced else ["-m", "shuffle_spectra.cli"]
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *entry, *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if traced else subprocess.DEVNULL,
    )
    out, err = proc.communicate() if traced else (proc.stdout.read(), b"")
    if traced:
        code, peak_kb = proc.returncode, 0
    else:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        peak_kb = usage.ru_maxrss
    end = time.perf_counter()

    key = " ".join(argv)
    ref = references[key]
    ok = code == ref["exit"] and hashlib.sha256(out).hexdigest() == ref["sha256"]
    if key in REQUIRED_LINES:
        ok = ok and REQUIRED_LINES[key] in out.decode(errors="replace").splitlines()
    sample = {
        "input": key,
        "traced": traced,
        "ok": ok,
        "start": start,
        "end": end,
        "raw_wall_s": end - start,
        "peak_rss_mb": peak_kb / 1024,
    }
    if traced:
        try:
            trace = json.loads(err.splitlines()[-1])
            sample["layers"] = trace["metrics"]
            sample["spans"] = trace["spans"]
        except (IndexError, KeyError, ValueError):
            sample["ok"] = False
    return sample


def setup_time() -> tuple[float, float]:
    """Start and end of a fresh interpreter importing the CLI module and exiting."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import shuffle_spectra.cli"],
        cwd=ROOT,
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return start, time.perf_counter()


def plan(name: str, rng: random.Random, trace: bool) -> list[tuple[list[str], bool]]:
    """The samples one round of a workload runs.

    Untraced rounds run every input of the workload in an order the seed
    picks.  Traced rounds run the seed's first input twice, traced and then
    untraced, which gives the tracing overhead on the same input.
    """
    inputs = list(WORKLOADS[name])
    rng.shuffle(inputs)
    if trace:
        return [(inputs[0], True), (inputs[0], False)]
    return [(argv, False) for argv in inputs]


def measure(names: list[str], seed: int, seconds: float, trace: bool, references: dict):
    """Runs the rounds with speed.py beside them.

    Returns the samples of each workload, the set-up times and the probe's
    times; sample, set-up and traced self times are scaled to reference speed.
    """
    probe = subprocess.Popen(
        [sys.executable, str(HERE / "speed.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE
    )
    try:
        samples, setup = run_rounds(names, seed, seconds, trace, references)
    finally:
        probe_out, _ = probe.communicate()
    probes = json.loads(probe_out)
    for sample in (s for runs in samples.values() for s in runs):
        sample["wall_s"] = scaled(sample["raw_wall_s"], sample["start"], sample["end"], probes)
        if "layers" in sample:
            sample["layers"] = {
                k: scaled(v, sample["start"], sample["end"], probes) if k.endswith("_s") else v
                for k, v in sample["layers"].items()
            }
    return samples, [scaled(end - start, start, end, probes) for start, end in setup], probes


def run_rounds(names: list[str], seed: int, seconds: float, trace: bool, references: dict):
    """Round-robin over the workloads until the next round would overrun.

    One untimed import first compiles the bytecode cache, which users do not
    pay on every run.  Besides the first SETUP_SAMPLES imports one more
    follows every round, which spreads the set-up samples over the whole run.
    """
    setup_time()
    setup = [setup_time() for _ in range(SETUP_SAMPLES)]
    rng = random.Random(seed)
    plans = {name: plan(name, rng, trace) for name in names}
    min_rounds = 1 if trace else max(math.ceil(MIN_SAMPLES / len(p)) for p in plans.values())
    samples: dict[str, list[dict]] = {name: [] for name in names}
    start = time.perf_counter()
    rounds = 0
    while True:
        order = list(names)
        rng.shuffle(order)
        for name in order:
            for argv, traced in plans[name]:
                samples[name].append(run_sample(argv, traced, references))
        setup.append(setup_time())
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return samples, setup


def end_to_end(samples: list[dict], setup: list[float]) -> dict[str, float]:
    good = [s for s in samples if s["ok"]]
    return {
        "wall_s": statistics.median(s["wall_s"] for s in good),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
        "setup_s": statistics.median(setup),
    }


def per_layer(samples: list[dict]) -> dict[str, float]:
    traced = [s for s in samples if s["ok"] and s["traced"]]
    plain = [s["wall_s"] for s in samples if s["ok"] and not s["traced"]]
    metrics = {name: statistics.median(s["layers"][name] for s in traced) for name in traced[0]["layers"]}
    metrics["trace.overhead_ratio"] = statistics.median(s["wall_s"] for s in traced) / statistics.median(plain)
    return metrics


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def report(name: str, samples: list[dict], metrics: dict[str, float], setup_count: int) -> None:
    """Human-readable lines; every end-to-end metric appears by name with its unit."""
    failed = sum(not s["ok"] for s in samples)
    inputs = " | ".join(dict.fromkeys(s["input"] for s in samples))
    print(f"workload {name}: {inputs}")
    raw = statistics.median(s["raw_wall_s"] for s in samples if s["ok"])
    counts = {
        "wall_s": f"median of {len(samples) - failed} runs; {raw:.6g} s as measured",
        "peak_rss_mb": f"median of {len(samples) - failed} runs",
        "setup_s": f"median of {setup_count} imports",
    }
    for metric, value in metrics.items():
        note = f"  ({counts[metric]})" if metric in counts else ""
        print(f"  {metric:<40} {value:>14.6g} {unit(metric)}{note}")
    print(f"  {'failed_ratio':<40} {failed / len(samples):>14.6g} 1  ({failed}/{len(samples)} runs)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write machine record, result and samples here")
    args = parser.parse_args()

    if not (SRC / "shuffle_spectra" / "cli.py").is_file():
        print(f"perfbench: no shuffle_spectra package under {SRC}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json") as f:
        references = json.load(f)

    machine = machine_record()
    print("machine", json.dumps(machine))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    samples, setup, probes = measure(names, args.seed, args.seconds, bool(args.trace), references)

    results = {}
    for name in names:
        never_passed = {s["traced"] for s in samples[name]} - {s["traced"] for s in samples[name] if s["ok"]}
        if never_passed:
            kind = "traced" if True in never_passed else "untraced"
            print(f"perfbench: no {kind} run of {name} passed its check", file=sys.stderr)
            return 1
        metrics = per_layer(samples[name]) if args.trace else end_to_end(samples[name], setup)
        report(name, samples[name], metrics, len(setup))
        results[name] = {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()}
    every = [s for name in names for s in samples[name]]
    failed = sum(not s["ok"] for s in every)
    result = {"correct": failed == 0, "attempted": len(every), "failed": failed}
    if args.workload == "all":
        result["workloads"] = results
    else:
        result["metrics"] = results[args.workload]
    if args.out:
        record = {"machine": machine, "args": vars(args) | {"out": str(args.out)}, "result": result}
        record["setup_s"] = setup
        record["probe"] = probes
        record["samples"] = samples
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
