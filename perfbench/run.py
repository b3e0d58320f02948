"""Benchmark of the spincas exact verifier through its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round is one ``spincas`` CLI call in a fresh interpreter (child.py), so
the ``lru_cache`` operator builds start cold, as on every call a user makes.
Rounds run one at a time, back to back (a closed loop with one client), and
a further round starts until S seconds have passed, not counting the output
checks; the last round is always completed.  Before each round's call,
SETUP_SAMPLES further interpreters only import the CLI, for set-up time.  The
seed chooses only the sample points of the output checks.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (medians over the rounds).  Times are at nominal host
speed (pace.py); the record also keeps them as measured.  With ``--trace 1`` each round
is one plain call and one call with spans installed (spans.py), and the
metrics are the per-layer ones.  A full record with the environment stamp is
written under perfbench/out/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from spans import COUNTS, metric_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    "invariants-r2-4": ["report", "--r", "2", "--r-max", "4", "--suites", "gamma,invariants,colour"],
    "spectra-r5": ["spectra", "--r", "5"],
    "ybe-r3": ["report", "--r", "3", "--suites", "ybe"],
    "oracle-r5": ["oracle", "--r", "5"],
}

PLAIN_KEYS = ("setups", "verify_s", "verify_wall_s", "speed_factor", "speed_samples", "cpu_s", "peak_rss_mb", "exit_code")
SETUP_SAMPLES = 2  # per round, besides the round's own set-up
CHILD_TIMEOUT_S = 170


def _env() -> dict:
    """The caller's environment without the switches that pick a backend or
    redirect output, so the program chooses its own defaults."""
    env = dict(os.environ)
    for key in ("SPINCAS_KERNEL", "SPINCAS_RATIONAL", "SPINCAS_OUT", "PYTHONPATH"):
        env.pop(key, None)
    return env


class Runner:
    def __init__(self, workload: str, run_dir: str):
        self.workload = workload
        self.run_dir = run_dir
        self.env = _env()
        self.calls = 0

    def launch(self, mode: str, seed: str = "-") -> dict:
        """Start one child, wait for it, and return its result with the
        set-up time and, for a CLI call, the artifact bytes."""
        self.calls += 1
        stem = os.path.join(self.run_dir, f"{self.calls:03d}-{mode}")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), stem + ".json", mode, self.workload, seed, "--"]
        if mode != "setup":
            cmd += WORKLOADS[self.workload] + ["--out", stem + ".artifact"]
        with open(stem + ".log", "wb") as log:
            launched = time.monotonic()
            proc = subprocess.run(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S
            )
        if proc.returncode != 0 or not os.path.exists(stem + ".json"):
            with open(stem + ".log", encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
            raise SystemExit(f"child {mode} exited with {proc.returncode}")
        with open(stem + ".json", encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_wall_s"] = result["ready"] - launched
        result["setup_s"] = result["setup_wall_s"] * result["setup_factor"]
        if mode != "setup":
            with open(stem + ".artifact", "rb") as fh:
                result["artifact"] = fh.read()
        if os.path.exists(stem + ".json.spans.jsonl"):
            result["spans_path"] = stem + ".json.spans.jsonl"
        return result


def artifact_problems(text: bytes, exit_code: int) -> tuple[int, int, list[str]]:
    """(checks, failed checks, problems) of one CLI artifact.

    Reports carry ``summary`` and ``ok``; ``spincas oracle`` writes records
    only.  Every check counts as attempted; the exit code must be 0 exactly
    when no check failed, and ``ok`` must agree.
    """
    problems = []
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return 0, 0, [f"artifact is not JSON: {exc}"]
    statuses = [c["status"] for rec in payload.get("records", []) for c in rec.get("checks", [])]
    failed = statuses.count("fail")
    unknown = set(statuses) - {"pass", "fail", "skip", "documented-discrepancy"}
    if not statuses:
        problems.append("artifact holds no checks")
    if unknown:
        problems.append(f"unknown statuses {sorted(unknown)}")
    if exit_code != (1 if failed else 0):
        problems.append(f"exit code {exit_code} with {failed} failed checks")
    if "ok" in payload and payload["ok"] != (failed == 0):
        problems.append("report ok flag disagrees with its checks")
    if "summary" in payload:
        summary = payload["summary"]
        if sum(summary.values()) != len(statuses) or summary.get("fail", 0) != failed:
            problems.append("report summary disagrees with its checks")
    for rec in payload.get("records", []):
        rec_failed = any(c["status"] == "fail" for c in rec.get("checks", []))
        if rec.get("ok") == rec_failed:
            problems.append(f"record {rec.get('name')!r} ok flag disagrees with its checks")
    return len(statuses), failed, problems


def environment_stamp(child_env: dict) -> dict:
    return {
        "spincas_backend": child_env["backend"],
        "rational": child_env["rational"],
        "spincas_version": child_env["version"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, or None when it is not a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package's source files, names and bytes."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "spincas")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cross_run_identity(workload: str, artifact: bytes, src_digest: str) -> list[str]:
    """Compare the artifact with the one an earlier run of the same source
    wrote in this checkout (the README promises byte-identical artifacts);
    the first run of a source records it."""
    path = os.path.join(OUT, "digests", f"{workload}-{src_digest[:16]}.sha256")
    digest = hashlib.sha256(artifact).hexdigest()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            if fh.read().strip() != digest:
                return ["artifact bytes differ from an earlier run of the same source"]
        return []
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(digest + "\n")
    return []


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    runner = Runner(workload, run_dir)
    plain, traced = [], []
    started = time.monotonic()
    while True:
        setups = [runner.launch("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        call = runner.launch("plain", str(seed) if not plain else "-")
        call["setups"] = setups + [call["setup_s"]]
        plain.append(call)
        if trace:
            traced.append(runner.launch("trace"))
        if time.monotonic() - started - plain[0]["probe_s"] >= seconds:
            break

    problems = []
    attempted = failed = 0
    calls = plain + traced
    for call in calls:
        n, f, issues = artifact_problems(call["artifact"], call["exit_code"])
        attempted, failed = attempted + n, failed + f
        problems += issues
    if len({call["artifact"] for call in calls}) != 1:
        problems.append("artifacts differ between calls of one run")
    checks = plain[0]["checks"]
    problems += [f"check {name} failed: {detail}" for name, ok, detail in checks if not ok]
    stamp = environment_stamp(plain[0]["env"])
    problems += cross_run_identity(workload, plain[0]["artifact"], stamp["src_sha256"])

    verify = statistics.median(c["verify_s"] for c in plain)
    checks_per_call = attempted // len(calls)
    if trace:
        for call in traced[1:]:
            for key, value in call["layers"].items():
                if key.endswith(COUNTS) and value != traced[0]["layers"][key]:
                    problems.append(f"count {key} differs between traced calls")
        metrics = {
            key: value if key.endswith(COUNTS) else statistics.median(c["layers"][key] for c in traced)
            for key, value in traced[0]["layers"].items()
        }
        metrics["trace.overhead_s"] = metrics["trace.verify_s"] - verify
        units = {key: metric_unit(key) for key in metrics}
        spans = traced[-1].get("spans_path")
        if spans:
            shutil.copy(spans, os.path.join(OUT, "results", f"{workload}-seed{seed}-trace1.spans.jsonl"))
    else:
        metrics = {
            "setup_s": statistics.median(t for c in plain for t in c["setups"]),
            "verify_s": verify,
            "checks_per_s": checks_per_call / verify,
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
        }
        units = {"setup_s": "s", "verify_s": "s", "checks_per_s": "checks/s", "peak_rss_mb": "MB"}
    return {
        "workload": workload,
        "cli": ["spincas", *WORKLOADS[workload]],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": stamp,
        "rounds": len(plain),
        "plain": [{k: c[k] for k in PLAIN_KEYS} for c in plain],
        "traced_verify_s": [c["verify_s"] for c in traced],
        "checks_per_call": checks_per_call,
        "output_checks": checks,
        "output_checks_s": plain[0]["probe_s"],
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spincas", "cli.py")):
        print(f"no spincas source under {ROOT}/src; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    run_dir = os.path.join(OUT, "runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for problem in record["problems"]:
        print(f"problem: {problem}")
    for key, metric in record["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"{record['attempted']} checks attempted, {record['failed']} failed, {record['rounds']} rounds")
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
