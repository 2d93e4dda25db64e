#!/usr/bin/env python3
"""TER-iDS benchmark launcher.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark from source with sbt (once per source
state, into .bench_build/ and perfbench/target/), then runs the benchmark JVM
with a pinned heap, GC, Spark master and shuffle-partition count. The last
line of standard output is the result object.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
SOURCES = [ROOT / "src" / "main", BENCH / "src" / "main", BENCH / "build.sbt",
           BENCH / "project" / "build.properties"]

# Pinned run environment (recorded in every output).
HEAP = "2g"
SPARK_MASTER = "local[2]"
SHUFFLE_PARTITIONS = "4"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SPARK_OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
               "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
               "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
               "sun.util.calendar"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        files = sorted(p for p in top.rglob("*") if p.is_file()) if top.is_dir() else [top]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout}s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(digest):
    """Compile with sbt, isolated from the user's sbt state, and return the
    runtime classpath. Reuses the previous build when sources are unchanged."""
    stamp, cp_file = BUILD / "stamp", BUILD / "classpath"
    if stamp.exists() and cp_file.exists() and stamp.read_text() == digest:
        return cp_file.read_text().strip()
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    opts = [f"-Dsbt.global.base={BUILD / 'sbt-global'}", f"-Dsbt.ivy.home={BUILD / 'ivy'}",
            f"-Djava.io.tmpdir={tmp}", f"-Djna.tmpdir={tmp}", "-Dsbt.offline=true",
            "-Dsbt.server.forcestart=false", "-Xmx2g"]
    repos = Path.home() / ".sbt" / "repositories"
    if repos.exists():
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env = dict(os.environ, SBT_OPTS=" ".join(opts), COURSIER_MODE="offline")
    code, out = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                            BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if code != 0 or not lines or "perfbench" not in lines[-1]:
        fail(f"sbt build failed (exit {code})")
    cp_file.write_text(lines[-1])
    stamp.write_text(digest)
    return lines[-1]


def main():
    # A terminated launcher takes its sbt or java process group with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--data-seed", type=int, help="generator seed of the data (default: the profile's own)")
    a = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"program sources not found under {ROOT / 'src' / 'main' / 'scala'}")
    digest = source_digest()
    classpath = build(digest)

    tmp, local, out = BUILD / "tmp", BUILD / "spark-local", BUILD / "out"
    for d in (tmp, local, out):
        d.mkdir(parents=True, exist_ok=True)
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}", "-Dfile.encoding=UTF-8",
           "-Djdk.reflect.useDirectMethodHandle=false",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           f"-Dperfbench.git_sha={git_sha()}", f"-Dperfbench.source_sha256={digest}",
           f"-Dperfbench.spark_driver_mem={HEAP}", f"-Dperfbench.spark_master={SPARK_MASTER}",
           f"-Dperfbench.shuffle_partitions={SHUFFLE_PARTITIONS}", f"-Dperfbench.local_dir={local}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in SPARK_OPENS]
    cmd += ["-cp", classpath, "repro.perfbench.Bench", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace, "--out", str(out)]
    if a.data_seed is not None:
        cmd += ["--data-seed", str(a.data_seed)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(local), SPARK_DRIVER_MEM=HEAP)
    code, stdout = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               stderr=sys.stderr, text=True)
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(stdout)
        fail(f"benchmark exited {code} without a result line")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
