#!/usr/bin/env python3
"""Interleaved A/B of the working tree against a parent commit.

Both sides are built once into a scratch directory: the parent from
`git archive`, the change from a copy of the working tree (tracked and
untracked, ignored files left out), so the repository itself is never
written. Then N pairs of one named command run, alternating which side
goes first, and each child's wall time, user + sys CPU time and max RSS
come from `os.wait4`.

Commands:

  perfbench WORKLOAD   one perfbench run (`--trace 0`); its own end-to-end
                       metrics are reported beside the child's
  sweep replay         the full `all_figures` sweep over a warm trace
                       store (run cache, manifest and runlog deleted
                       before every run; traces captured afresh once
                       per side by an untimed cold sweep)
  sweep cold           the same with the trace store deleted too
  bench LINES          one `bench_snapshot --quick` run; the `ns_per_op` of
                       each named line (comma-separated, or `all`) is
                       reported beside the child's

For every metric it prints the median and quartiles of each side, the
change's median shift, how many pairs the change won (k/n) and a
two-sided sign-test p-value. A shift no larger than the distance between
the parent's quartiles, or one the change did not win (or lose) in at
least 9 of 10 untied pairs, is marked "unresolved". Sweep pairs also
check that both sides wrote byte-identical figure texts and run-cache
entries, and report the streams each sweep decoded.

Examples:

  python3 scripts/ab.py perfbench disc_cmp4_live --pairs 10 --seed 1
  python3 scripts/ab.py sweep replay --jobs 2 --lengths 200000/400000
  python3 scripts/ab.py bench system/cohort_replay_cmp4_x3,cache/hit_path_1m

Standard library only.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def sh(cmd, cwd, **kw):
    return subprocess.run(cmd, cwd=cwd, check=True, **kw)


def export_parent(rev, dest):
    """Extracts `rev` into `dest` once; a marker names the commit."""
    commit = sh(["git", "rev-parse", rev], REPO, capture_output=True, text=True).stdout.strip()
    marker = dest / ".ab_commit"
    if marker.is_file() and marker.read_text() == commit:
        return commit
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=REPO, stdout=subprocess.PIPE)
    sh(["tar", "-x", "-C", str(dest)], REPO, stdin=archive.stdout)
    if archive.wait() != 0:
        sys.exit(f"git archive {commit} failed")
    marker.write_text(commit)
    return commit


def export_change(dest):
    """Mirrors the working tree into `dest`, copying only files whose size
    or mtime differ, so cargo's incremental state stays valid."""
    listed = sh(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        REPO,
        capture_output=True,
    ).stdout.split(b"\0")
    keep = set()
    for raw in filter(None, listed):
        rel = raw.decode()
        src = REPO / rel
        if not src.is_file():
            continue  # deleted in the working tree
        keep.add(rel)
        dst = dest / rel
        st = src.stat()
        if dst.is_file():
            dt = dst.stat()
            if dt.st_size == st.st_size and int(dt.st_mtime) == int(st.st_mtime):
                continue
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dst)
    # Drop sources the working tree no longer has (build output stays).
    for sub in ("crates", "src", "perfbench/src", "tests", "examples"):
        for path in (dest / sub).rglob("*.rs") if (dest / sub).is_dir() else []:
            if str(path.relative_to(dest)) not in keep:
                path.unlink()


def build(root, command):
    if command == "perfbench":
        sh(["cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", "perfbench/Cargo.toml"], root)
        return root / "perfbench/target/release/perfbench"
    if command == "bench":
        sh(["cargo", "build", "--release", "--offline", "--quiet",
            "-p", "ipsim-bench", "--bin", "bench_snapshot"], root)
        return root / "target/release/bench_snapshot"
    sh(["cargo", "build", "--release", "--offline", "--quiet",
        "-p", "ipsim-experiments", "--bin", "all_figures"], root)
    return root / "target/release/all_figures"


def timed(argv, cwd, env=None):
    """Runs `argv` to completion; returns (status, wall s, cpu s, max RSS MB)."""
    out = open(cwd / ".ab_stdout", "wb")
    err = open(cwd / ".ab_stderr", "wb")
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    out.close()
    err.close()
    cpu = usage.ru_utime + usage.ru_stime
    return child.returncode, wall, cpu, usage.ru_maxrss / 1024.0


class Side:
    def __init__(self, name, root, binary):
        self.name, self.root, self.binary = name, root, binary
        self.work = root / ".ab_work"
        self.work.mkdir(exist_ok=True)
        self.samples = {}

    def record(self, metric, value):
        self.samples.setdefault(metric, []).append(value)


def run_perfbench(side, args):
    argv = [str(side.binary), "--workload", args.target, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    code, wall, cpu, rss = timed(argv, side.root)
    if code != 0:
        sys.exit(f"{side.name}: perfbench exited {code}; see {side.root / '.ab_stderr'}")
    lines = (side.root / ".ab_stdout").read_text().strip().splitlines()
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        sys.exit(f"{side.name}: perfbench reported incorrect or failed ops: {lines[-1]}")
    for name, metric in result["metrics"].items():
        side.record(name, metric["value"])
    side.record("child_wall_s", wall)
    side.record("child_cpu_s", cpu)
    side.record("child_maxrss_mb", rss)


def run_bench(side, args):
    snap = side.work / "snapshot.json"
    argv = [str(side.binary), "--quick", "--out", str(snap)]
    code, wall, cpu, rss = timed(argv, side.root)
    if code != 0:
        sys.exit(f"{side.name}: bench_snapshot exited {code}; see {side.root / '.ab_stderr'}")
    benches = {b["name"]: b["ns_per_op"] for b in json.loads(snap.read_text())["benches"]}
    lines = list(benches) if args.target == "all" else args.target.split(",")
    for line in lines:
        if line not in benches:
            sys.exit(f"{side.name}: bench_snapshot has no line `{line}`")
        side.record(f"{line} ns/op", benches[line])
    side.record("child_wall_s", wall)
    side.record("child_cpu_s", cpu)
    side.record("child_maxrss_mb", rss)


def sweep_env(side, args):
    env = dict(os.environ)
    env.update({
        "IPSIM_RUN_LENGTHS": args.lengths,
        "IPSIM_CACHE_DIR": str(side.work / "cache"),
        "IPSIM_RUNLOG": str(side.work / "runlog.tsv"),
        "IPSIM_TRACE_DIR": str(side.work / "traces"),
    })
    return env


def sweep_argv(side, args):
    argv = [str(side.binary), "--jobs", str(args.jobs)]
    if args.figures:
        argv += ["--figures", args.figures]
    return argv


def reset_sweep(side, keep_traces):
    for name in ("cache", "results", "runlog.tsv") + (() if keep_traces else ("traces",)):
        path = side.work / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def capture_traces(side, args):
    """Fills a fresh trace store for replay-only runs with one untimed
    cold sweep."""
    reset_sweep(side, keep_traces=False)
    code = timed(sweep_argv(side, args), side.work, sweep_env(side, args))[0]
    if code != 0:
        sys.exit(f"{side.name}: capturing all_figures exited {code}")


def run_sweep(side, args):
    replay = args.target == "replay"
    reset_sweep(side, keep_traces=replay)
    code, wall, cpu, rss = timed(sweep_argv(side, args), side.work, sweep_env(side, args))
    if code != 0:
        sys.exit(f"{side.name}: all_figures exited {code}; see {side.work / '.ab_stderr'}")
    side.record("wall_s", wall)
    side.record("cpu_s", cpu)
    side.record("maxrss_mb", rss)
    # all_figures' summary: "traces: … · N streams decoded, window peak …".
    decoded = re.search(r"(\d+) streams? decoded", (side.work / ".ab_stdout").read_text())
    if decoded:
        side.record("streams_decoded", int(decoded.group(1)))


def snapshot(side):
    """Figure texts and run-cache entries a sweep wrote, by relative path."""
    files = {}
    for sub, pattern in (("results", "*.txt"), ("cache", "*.tsv")):
        for path in sorted((side.work / sub).glob(pattern)):
            files[f"{sub}/{path.name}"] = path.read_bytes()
    return files


def sign_p(k, n):
    """Two-sided sign-test p-value for k wins out of n untied pairs."""
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(k, n - k) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def higher_is_better(metric):
    return "mips" in metric


def report(parent, change, pairs):
    print(f"| metric | parent median (q1–q3) | change median (q1–q3) | shift | "
          f"change better | sign p | verdict |")
    print("|---|---|---|---|---|---|---|")
    for metric, a in parent.samples.items():
        b = change.samples.get(metric)
        if not b or len(a) != len(b):
            continue
        up = higher_is_better(metric)
        wins = sum((y > x) if up else (y < x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        shift = (mb - ma) / ma * 100 if ma else float("nan")
        # A shift counts only past the parent's own quartile spread, and
        # when the change won (or lost) at least 9 of every 10 pairs.
        decided = pairs - ties
        if abs(mb - ma) <= a3 - a1:
            verdict = "unresolved"
        elif wins >= 0.9 * decided:
            verdict = "better"
        elif decided - wins >= 0.9 * decided:
            verdict = "worse"
        else:
            verdict = "unresolved"
        print(f"| {metric} | {ma:.4g} ({a1:.4g}–{a3:.4g}) | {mb:.4g} ({b1:.4g}–{b3:.4g}) | "
              f"{shift:+.1f} % | {wins}/{pairs - ties} | {sign_p(wins, pairs - ties):.3g} | "
              f"{verdict} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("command", choices=["perfbench", "sweep", "bench"])
    ap.add_argument("target", help="perfbench workload, `replay` / `cold` for sweep, or "
                    "comma-separated bench_snapshot lines (or `all`) for bench")
    ap.add_argument("--parent", default="HEAD",
                    help="commit the working tree is measured against (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--scratch", type=Path,
                    default=Path(tempfile.gettempdir()) / "ipsim-ab",
                    help="where both sides are built (default $TMPDIR/ipsim-ab)")
    ap.add_argument("--seed", type=int, default=1, help="perfbench --seed")
    ap.add_argument("--seconds", type=float, default=30, help="perfbench --seconds")
    ap.add_argument("--lengths", default="200000/400000", help="sweep IPSIM_RUN_LENGTHS")
    ap.add_argument("--jobs", type=int, default=2, help="sweep --jobs")
    ap.add_argument("--figures", default="", help="sweep --figures (default: all)")
    ap.add_argument("--raw", action="store_true", help="print every pair's values too")
    args = ap.parse_args()
    if args.command == "sweep" and args.target not in ("replay", "cold"):
        ap.error("sweep takes `replay` or `cold`")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    args.scratch.mkdir(parents=True, exist_ok=True)
    commit = export_parent(args.parent, args.scratch / "parent")
    export_change(args.scratch / "change")
    sides = []
    for name in ("parent", "change"):
        root = args.scratch / name
        print(f"building {name} in {root}", file=sys.stderr)
        sides.append(Side(name, root, build(root, args.command)))
    parent, change = sides

    if args.command == "sweep" and args.target == "replay":
        for side in sides:
            capture_traces(side, args)
    run = {"perfbench": run_perfbench, "sweep": run_sweep, "bench": run_bench}[args.command]
    mismatched = 0
    for i in range(args.pairs):
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            run(side, args)
        if args.command == "sweep" and snapshot(parent) != snapshot(change):
            mismatched += 1
        print(f"pair {i + 1}/{args.pairs} done ({order[0].name} first)", file=sys.stderr)

    what = f"{args.command} {args.target}"
    if args.command == "bench":
        what += " --quick"
    elif args.command == "perfbench":
        what += f" --seed {args.seed} --seconds {args.seconds}"
    else:
        what += f" IPSIM_RUN_LENGTHS={args.lengths} --jobs {args.jobs}"
        if args.figures:
            what += f" --figures {args.figures}"
    print(f"{what}: {args.pairs} pairs, parent {commit[:7]} against the working tree\n")
    report(parent, change, args.pairs)
    if args.command == "sweep":
        print(f"\nfigure texts and run-cache entries: "
              f"{'identical in every pair' if not mismatched else f'DIFFER in {mismatched} pairs'}")
    if args.raw:
        for metric, a in parent.samples.items():
            b = change.samples.get(metric, [])
            print(f"\n{metric}: parent {a}\n{metric}: change {b}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
