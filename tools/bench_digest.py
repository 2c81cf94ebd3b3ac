#!/usr/bin/env python3
"""Fingerprint every experiment bench's stdout, to prove a change byte-identical.

Runs each `bench_*` binary of a build directory with the arguments
EXPERIMENTS.md documents for it and prints one line per run:

    <sha256 of stdout>  <exit code>  <run name>

Save that listing from one build and compare another against it:

    python3 tools/bench_digest.py build-parent/bench > parent.digest
    python3 tools/bench_digest.py build/bench --against parent.digest

With `--against`, every run is reported as `same`, `DIFF`, `NEW` or
`MISSING` and the exit status is 1 unless all runs are `same`.
`bench_micro_perf` is skipped (its stdout is timing). When the build also
holds `examples/example_poi360_cli` next to the bench directory, its
`--csv frames` and `--csv rates` dumps for seeds 1 and 7 are fingerprinted
too. Each run happens in a fresh temporary directory, so files a bench
writes (trace_demo/) never land in the caller's tree. Every file a run
leaves there is fingerprinted as one more entry, named
`<run name> :: <relative path>` and carrying the run's exit code.
`--jobs N` sets POI360_JOBS, the worker count of benches that run in
parallel; no bench's stdout depends on it.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SKIP = {"bench_micro_perf"}

# Arguments EXPERIMENTS.md documents; benches not listed run with none.
# `{corpus}` is replaced by the --corpus directory.
RUNS = {
    "bench_soak": [("bench_soak", ["--duration-s", "7200", "--stuck", "5"])],
    "bench_fleet": [("bench_fleet", ["--cells", "2", "--sessions", "16",
                                     "--duration-s", "30"])],
    "bench_chaos_search": [
        ("bench_chaos_search", ["--budget", "64", "--duration-s", "20"]),
        ("bench_chaos_search --replay", ["--replay", "{corpus}"]),
    ],
}

# Per-frame and per-sample CSV dumps of the CLI, relative to bench_dir.
CLI = os.path.join(os.pardir, "examples", "example_poi360_cli")
CLI_RUNS = [["--seed", seed, "--csv", table]
            for seed in ("1", "7") for table in ("frames", "rates")]


def bench_runs(bench_dir, corpus):
    """(run name, argv) for every bench binary in bench_dir, sorted."""
    bench_dir = os.path.abspath(bench_dir)  # runs start in a temporary cwd
    runs = []
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if (not name.startswith("bench_") or name in SKIP
                or not os.path.isfile(path) or not os.access(path, os.X_OK)):
            continue
        for run_name, args in RUNS.get(name, [(name, [])]):
            argv = [path] + [a.replace("{corpus}", corpus) for a in args]
            runs.append((run_name, argv))
    cli = os.path.normpath(os.path.join(bench_dir, CLI))
    if os.path.isfile(cli) and os.access(cli, os.X_OK):
        for args in CLI_RUNS:
            runs.append((" ".join(["example_poi360_cli"] + args), [cli] + args))
    return runs


def digest_run(argv, jobs):
    """(sha256 of stdout, exit code, {relative path: sha256} of the files
    the run left in its working directory)."""
    env = dict(os.environ)
    if jobs:
        env["POI360_JOBS"] = str(jobs)
    with tempfile.TemporaryDirectory(prefix="bench_digest_") as cwd:
        proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        files = {}
        for root, _, names in os.walk(cwd):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    sha = hashlib.sha256(f.read()).hexdigest()
                files[os.path.relpath(path, cwd)] = sha
    return hashlib.sha256(proc.stdout).hexdigest(), proc.returncode, files


def parse_listing(text):
    """{run name: (sha256, exit code)} from a saved listing."""
    out = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        sha, rc, name = line.split(None, 2)
        out[name] = (sha, int(rc))
    return out


def compare(reference, current):
    """Report lines and whether every run matches."""
    lines = []
    ok = True
    for name in sorted(set(reference) | set(current)):
        if name not in current:
            lines.append(f"MISSING {name}")
            ok = False
        elif name not in reference:
            lines.append(f"NEW     {name}")
            ok = False
        elif reference[name] != current[name]:
            lines.append(f"DIFF    {name}")
            ok = False
        else:
            lines.append(f"same    {name}")
    return lines, ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench_dir", help="directory holding the bench_* binaries")
    ap.add_argument("--against", metavar="FILE",
                    help="listing from an earlier run to compare with")
    ap.add_argument("--jobs", type=int, default=0,
                    help="worker threads per bench (POI360_JOBS); 0 = inherit")
    ap.add_argument("--corpus", default=os.path.join(REPO, "corpus"),
                    help="cliff corpus for the --replay run")
    args = ap.parse_args(argv)

    runs = bench_runs(args.bench_dir, args.corpus)
    if not runs:
        print(f"no bench_* binaries in {args.bench_dir}", file=sys.stderr)
        return 2

    current = {}
    for name, cmd in runs:
        sha, rc, files = digest_run(cmd, args.jobs)
        entries = [(name, sha)] + [(f"{name} :: {path}", files[path])
                                   for path in sorted(files)]
        for entry, entry_sha in entries:
            current[entry] = (entry_sha, rc)
            if not args.against:
                print(f"{entry_sha}  {rc}  {entry}", flush=True)
    if not args.against:
        return 0

    with open(args.against) as f:
        reference = parse_listing(f.read())
    lines, ok = compare(reference, current)
    print("\n".join(lines))
    print(f"{sum(l.startswith('same') for l in lines)}/{len(lines)} runs "
          "byte-identical")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
