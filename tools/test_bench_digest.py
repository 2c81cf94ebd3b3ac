#!/usr/bin/env python3
"""Selftest for bench_digest.py: fingerprints fake bench binaries and the
files they write, and diffs two listings (same / DIFF / NEW / MISSING)."""

import contextlib
import io
import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_digest  # noqa: E402


def write_script(directory, name, body, executable=True):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        f.write("#!/bin/sh\n" + body + "\n")
    if executable:
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return path


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = bench_digest.main(argv)
    return rc, out.getvalue()


class BenchDigestTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.bench = os.path.join(self.tmp.name, "bench")
        os.mkdir(self.bench)
        write_script(self.bench, "bench_alpha", 'echo alpha "$@"')
        write_script(self.bench, "bench_soak", 'echo soak "$@"')
        write_script(self.bench, "bench_chaos_search", 'echo chaos "$@"')
        write_script(self.bench, "bench_jobs", 'echo "jobs=$POI360_JOBS"')
        # Writes into its working directory, as bench_trace_demo does.
        write_script(self.bench, "bench_writer",
                     "mkdir -p trace_demo && echo x > trace_demo/t.json; "
                     "echo wrote")
        write_script(self.bench, "bench_fails", "echo partial; exit 3")
        write_script(self.bench, "bench_micro_perf", "date +%N")
        write_script(self.bench, "bench_not_executable", "echo no",
                     executable=False)
        write_script(self.bench, "helper_tool", "echo not a bench")

    def tearDown(self):
        self.tmp.cleanup()

    def listing(self, *extra):
        rc, out = run([self.bench, "--corpus", "/c", *extra])
        self.assertEqual(rc, 0)
        return out

    def test_listing_covers_every_bench_with_documented_arguments(self):
        parsed = bench_digest.parse_listing(self.listing())
        self.assertEqual(sorted(parsed), [
            "bench_alpha", "bench_chaos_search", "bench_chaos_search --replay",
            "bench_fails", "bench_jobs", "bench_soak", "bench_writer",
            "bench_writer :: trace_demo/t.json"])
        self.assertEqual(parsed["bench_fails"][1], 3)
        runs = dict(bench_digest.bench_runs(self.bench, "/c"))
        self.assertEqual(runs["bench_soak"][1:],
                         ["--duration-s", "7200", "--stuck", "5"])
        self.assertEqual(runs["bench_chaos_search --replay"][1:],
                         ["--replay", "/c"])
        self.assertEqual(runs["bench_alpha"][1:], [])
        # A relative bench directory resolves before each run's cwd changes.
        rc, out = run([os.path.relpath(self.bench), "--corpus", "/c"])
        self.assertEqual((rc, bench_digest.parse_listing(out)), (0, parsed))

    def test_jobs_reaches_the_bench_and_files_stay_out_of_the_cwd(self):
        before = set(os.listdir(os.getcwd()))
        a = bench_digest.parse_listing(self.listing("--jobs", "2"))
        b = bench_digest.parse_listing(self.listing("--jobs", "3"))
        self.assertNotEqual(a["bench_jobs"], b["bench_jobs"])
        self.assertEqual(a["bench_writer"], b["bench_writer"])
        self.assertEqual(set(os.listdir(os.getcwd())), before)

    def test_against_reports_same_diff_new_and_missing(self):
        reference = os.path.join(self.tmp.name, "ref.digest")
        with open(reference, "w") as f:
            f.write(self.listing())
        rc, out = run([self.bench, "--corpus", "/c", "--against", reference])
        self.assertEqual(rc, 0, out)
        self.assertIn("8/8 runs byte-identical", out)

        write_script(self.bench, "bench_alpha", 'echo ALPHA "$@"')
        os.remove(os.path.join(self.bench, "bench_writer"))
        write_script(self.bench, "bench_new", "echo new")
        rc, out = run([self.bench, "--corpus", "/c", "--against", reference])
        self.assertEqual(rc, 1)
        self.assertIn("DIFF    bench_alpha", out)
        self.assertIn("MISSING bench_writer", out)
        self.assertIn("MISSING bench_writer :: trace_demo/t.json", out)
        self.assertIn("NEW     bench_new", out)
        self.assertIn("same    bench_soak", out)

    def test_cli_csv_dumps_join_when_the_example_is_built(self):
        names = [n for n, _ in bench_digest.bench_runs(self.bench, "/c")]
        self.assertFalse(any(n.startswith("example_") for n in names))

        examples = os.path.join(self.tmp.name, "examples")
        os.mkdir(examples)
        write_script(examples, "example_poi360_cli", 'echo cli "$@"')
        runs = dict(bench_digest.bench_runs(self.bench, "/c"))
        cli_runs = {n: argv for n, argv in runs.items()
                    if n.startswith("example_poi360_cli")}
        self.assertEqual(sorted(cli_runs), [
            "example_poi360_cli --seed 1 --csv frames",
            "example_poi360_cli --seed 1 --csv rates",
            "example_poi360_cli --seed 7 --csv frames",
            "example_poi360_cli --seed 7 --csv rates"])
        self.assertEqual(cli_runs["example_poi360_cli --seed 7 --csv rates"][1:],
                         ["--seed", "7", "--csv", "rates"])
        listing = bench_digest.parse_listing(self.listing())
        self.assertEqual(len(listing), 12)
        self.assertNotEqual(listing["example_poi360_cli --seed 1 --csv frames"],
                            listing["example_poi360_cli --seed 7 --csv frames"])

    def test_files_a_run_writes_are_fingerprinted(self):
        write_script(self.bench, "bench_writer",
                     "mkdir -p trace_demo/sub && echo x > trace_demo/t.json; "
                     "echo y > trace_demo/sub/u.csv; echo z > top.txt; "
                     "echo wrote")
        parsed = bench_digest.parse_listing(self.listing())
        files = sorted(n for n in parsed if n.startswith("bench_writer ::"))
        self.assertEqual(files, ["bench_writer :: top.txt",
                                 "bench_writer :: trace_demo/sub/u.csv",
                                 "bench_writer :: trace_demo/t.json"])
        self.assertNotEqual(parsed["bench_writer :: top.txt"],
                            parsed["bench_writer :: trace_demo/t.json"])
        self.assertEqual(parsed["bench_writer :: top.txt"][1], 0)
        self.assertFalse(any(" :: " in n for n in parsed
                             if not n.startswith("bench_writer")))

        # Same stdout, one changed file: only that file's entry differs.
        reference = os.path.join(self.tmp.name, "ref.digest")
        with open(reference, "w") as f:
            f.write(self.listing())
        write_script(self.bench, "bench_writer",
                     "mkdir -p trace_demo/sub && echo x > trace_demo/t.json; "
                     "echo Y > trace_demo/sub/u.csv; echo wrote")
        rc, out = run([self.bench, "--corpus", "/c", "--against", reference])
        self.assertEqual(rc, 1)
        self.assertIn("same    bench_writer\n", out)
        self.assertIn("same    bench_writer :: trace_demo/t.json", out)
        self.assertIn("DIFF    bench_writer :: trace_demo/sub/u.csv", out)
        self.assertIn("MISSING bench_writer :: top.txt", out)

    def test_empty_directory_is_an_error(self):
        empty = os.path.join(self.tmp.name, "empty")
        os.mkdir(empty)
        with contextlib.redirect_stderr(io.StringIO()):
            rc, _ = run([empty])
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
