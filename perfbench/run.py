#!/usr/bin/env python3
"""ARDA pass benchmark: build, run one workload, print every metric.

Run from the root of a source tree:

    python3 perfbench/run.py --workload school_rifs --seed 404 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --compare A.json B.json

The first call builds the program (the repository's main sources plus the
driver in perfbench/src) with sbt into .bench_build/, and later calls reuse
that build while the sources are unchanged. The run itself is one JVM
(perfbench.PassBench). The metrics BENCHMARK.json names (end-to-end with
--trace 0, per-layer with --trace 1) are printed as `name value unit`, then
the result line (the last line of stdout) as JSON. The full record, with
every metric and the provenance, is saved under .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
SOURCES = [ROOT / "src" / "main", BENCH / "src", BENCH / "build.sbt", BENCH / "project" / "build.properties"]

# Fixed driver heap (-Xms = -Xmx); PassBench fixes the Spark settings. Every
# result records both.
DRIVER_HEAP = "3g"
JAVA_TIMEOUT_S = 170

# Settings that must agree before two results are compared.
COMPARABLE = ["workload", "world_seed", "cfg_seed", "coreset_size", "tr_tau", "rifs", "nproc",
              "spark_master", "shuffle_partitions", "broadcast_threshold", "driver_heap_mb",
              "spark_version", "seconds", "setup_reps", "candidates"]

# Spark 4 on Java 17 needs these module openings (as spark-submit adds them).
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.io", "java.net", "java.nio", "java.util",
    "java.util.concurrent", "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Hash of every file the build reads, standing in for a commit id."""
    h = hashlib.sha256()
    for s in SOURCES:
        files = sorted(p for p in s.rglob("*") if p.is_file()) if s.is_dir() else [s]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(sid):
    """Compile with sbt unless the stamped build matches the sources."""
    cp_file, stamp = BUILD / "classpath.txt", BUILD / "stamp"
    if cp_file.exists() and stamp.exists() and stamp.read_text() == sid:
        return cp_file.read_text().strip()
    BUILD.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g")
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "compile", "export Runtime/fullClasspath"]
    out = subprocess.run(cmd, cwd=BENCH, env=env, capture_output=True, text=True, timeout=840)
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("build failed")
    cp = out.stdout.strip().splitlines()[-1].strip()
    cp_file.write_text(cp)
    stamp.write_text(sid)
    return cp


def run_java(cp, args, sid):
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xms{DRIVER_HEAP}", f"-Xmx{DRIVER_HEAP}", f"-Djava.io.tmpdir={tmp}", *JAVA_OPENS,
           "-cp", cp, "perfbench.PassBench", "--local-dir", str(tmp), "--source-id", sid, *args]
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=JAVA_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark JVM did not finish within {JAVA_TIMEOUT_S} s")
    lines = [l for l in out.stdout.splitlines() if l.startswith("RESULT ")]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-6000:])
        fail(f"benchmark JVM exited with code {out.returncode} and no result")
    return json.loads(lines[-1][len("RESULT "):])


def save(record):
    d = BUILD / "results"
    d.mkdir(parents=True, exist_ok=True)
    p = record["provenance"]
    name = f"{p['workload']}-seed{p['world_seed']}-trace{int(p['trace'])}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (d / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    return d / name


def compare(a_path, b_path):
    """Print B against A, metric by metric; refuse unless the settings agree.

    A traced and an untraced result of the same settings give the tracing
    overhead: the traced pass.wall_s against the untraced arda_s.
    """
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    diff = [k for k in COMPARABLE if a["provenance"].get(k) != b["provenance"].get(k)]
    if diff:
        for k in diff:
            print(f"{k}: {a['provenance'].get(k)!r} vs {b['provenance'].get(k)!r}", file=sys.stderr)
        fail("refusing to compare results whose settings differ")
    ma, mb = a["metrics"], b["metrics"]
    if a["provenance"]["trace"] != b["provenance"]["trace"]:
        plain, traced = (ma, mb) if b["provenance"]["trace"] else (mb, ma)
        va, vb = plain["arda_s"]["value"], traced["pass.wall_s"]["value"]
        print(f"tracing overhead: {vb - va:+.3f} s ({(vb - va) / va * 100:+.2f}% of arda_s {va:.3f} s)")
    for k in sorted(set(ma) & set(mb)):
        va, vb, unit = ma[k]["value"], mb[k]["value"], ma[k]["unit"]
        rel = f"{(vb - va) / abs(va) * 100:+.2f}%" if va else "n/a"
        print(f"{k:28s} {va:14.6g} -> {vb:14.6g} {unit:6s} {rel}")


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["school_rifs", "taxi_soft_all", "poverty_tr"])
    ap.add_argument("--seed", type=int, help="world seed (default: the generator's own)")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="two traced passes (default workload poverty_tr); check the trace's "
                         "structure and that scores, tables, jobs and shuffle bytes repeat")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two saved results")
    a = ap.parse_args()
    if a.compare:
        return compare(*a.compare)
    if not a.self_check and not a.workload:
        ap.error("--workload is required")
    if not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources under {ROOT / 'src' / 'main' / 'scala'}")
    names = declared_metrics(a.trace or a.self_check)

    sid = source_id()
    cp = build(sid)
    args = ["--workload", a.workload or "poverty_tr", "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.seed is not None:
        args += ["--seed", str(a.seed)]
    if a.self_check:
        args += ["--self-check"]
    r = run_java(cp, args, sid)
    missing = [n for n in names if n not in r["metrics"]]
    if missing:
        fail(f"result lacks declared metrics: {', '.join(missing)}")
    r["provenance"]["git_sha"] = git_sha()
    path = save(r)

    passes = r["passes"]
    print(f"# provenance {json.dumps(r['provenance'], sort_keys=True)}")
    print(f"# passes {len(passes)}, first {passes[0]:.3f} s, record {path}")
    for e in r["errors"]:
        print(f"# FAILED {e}")
    for k in names:
        print(f"{k} {r['metrics'][k]['value']} {r['metrics'][k]['unit']}")
    line = {k: r[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = {k: r["metrics"][k] for k in names}
    print(json.dumps(line))
    if a.self_check:
        print("self-check " + ("passed" if r["correct"] else "FAILED"), file=sys.stderr)
        return 0 if r["correct"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
