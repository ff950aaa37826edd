#!/usr/bin/env python3
"""Zidian benchmark: builds the program from source, runs one workload in a
fresh JVM and prints the result as one JSON line (the last line of stdout).

    python3 perfbench/run.py --workload bounded_point --seed 1 --seconds 15 --trace 0

Run it from the root of the repository. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
CLASSES = HERE / "target" / "scala-2.13" / "classes"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
HEAP = "3g"
MAX_CORES = 4
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return None


def source_stamp():
    h = hashlib.sha256()
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (PROGRAM_SOURCES, HERE / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compile the program and the driver, unless the sources are unchanged."""
    stamp_file = WORK / "build.stamp"
    stamp = source_stamp()
    if CLASSES.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return
    if shutil.which("sbt") is None:
        fail(3, "sbt not found on PATH")
    log = WORK / "build.log"
    with open(log, "w") as out:
        rc = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile"],
                       BUILD_TIMEOUT_S, cwd=HERE, stdout=out, stderr=subprocess.STDOUT,
                       stdin=subprocess.DEVNULL)
    if rc != 0:
        sys.stderr.write("".join(open(log).readlines()[-30:]))
        fail(3, f"build failed (exit {rc}); log in {log.relative_to(ROOT)}")
    stamp_file.write_text(stamp)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            fail(3, "Spark not found: set SPARK_HOME")
        home = Path(submit).resolve().parent.parent
    jars = Path(home) / "jars"
    if not jars.is_dir():
        fail(3, f"no Spark jars under {home}")
    return jars


def java_bin():
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def load_spec():
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail(2, "BENCHMARK.json not found at the repository root")
    return json.loads(spec_file.read_text())


def check_metrics(spec, metrics, trace):
    """The run must report exactly the metrics BENCHMARK.json lists."""
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in metrics.items()}
    if listed != got:
        fail(5, f"metrics differ from BENCHMARK.json: missing {sorted(set(listed) - set(got))}, "
                f"extra {sorted(set(got) - set(listed))}, "
                f"units {[k for k in listed if k in got and listed[k] != got[k]]}")
    bad = [k for k, v in metrics.items() if not isinstance(v["value"], (int, float))]
    if bad:
        fail(5, f"metrics without a finite value: {bad}")


def check_exact(args, exact):
    """Every run of a seed must repeat the exact counts of the first one."""
    key = f"{args.workload}-seed{args.seed}-s{args.seconds}-trace{args.trace}.json"
    path = WORK / "exact" / key
    if path.is_file():
        before = json.loads(path.read_text())
        diff = {k: (before[k], exact.get(k)) for k in before if before[k] != exact.get(k)}
        return diff
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(exact, indent=1, sort_keys=True))
    return {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["bounded_point", "analytic_scan"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not PROGRAM_SOURCES.is_dir():
        fail(2, "program sources (src/main/scala) not found: run from the repository root")
    spec = load_spec()
    WORK.mkdir(exist_ok=True)
    build()

    tmp = WORK / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "spark").mkdir(parents=True)
    out = tmp / "result.json"
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    cmd = [java_bin(), *[f"--add-opens={p}=ALL-UNNAMED" for p in JAVA_OPENS],
           f"-Xms{HEAP}", f"-Xmx{HEAP}",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           "-cp", f"{CLASSES}{os.pathsep}{spark_jars() / '*'}",
           "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--spans", str(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"),
           "--cores", str(cores), "--local-dir", str(tmp / "spark")]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp / "spark"))
    sys.stdout.flush()
    rc = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
    if rc is None:
        fail(4, f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    if rc != 0 or not out.is_file():
        fail(4, f"run failed (exit {rc})")
    res = json.loads(out.read_text())
    shutil.rmtree(tmp, ignore_errors=True)

    check_metrics(spec, res["metrics"], args.trace)
    drift = check_exact(args, res["exact"])
    for k, (was, now) in drift.items():
        print(f"EXACT COUNT CHANGED {k}: {was} -> {now}")
    correct = res["failed"] == 0 and not drift
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
