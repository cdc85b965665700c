#!/usr/bin/env python3
"""Checks that tools/ada_lint.py catches what its rules promise.

Usage:
    python3 tools/ada_lint_test.py

Copies the linted trees (src/, tests/, bench/, tools/, examples/ and
servicebench/src/) into a temporary directory and runs the copy's
ada_lint.py there:
  * the unmodified copy must exit 0;
  * each seeded violation below, added to an otherwise clean copy, must
    make it exit 1 with every finding naming the seeded rule.
Exit status is 0 when every case holds and 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src", "tests", "bench", "tools", "examples",
         os.path.join("servicebench", "src"))

# rule -> (file created in the copy, its contents). Each file breaks
# exactly one rule and nothing else.
MUTANTS = {
    "include-guard": (
        os.path.join("src", "common", "lint_probe.h"),
        "#ifndef LINT_PROBE_H_\n"
        "#define LINT_PROBE_H_\n"
        "#endif  // LINT_PROBE_H_\n"),
    "naked-new": (
        os.path.join("src", "kdb", "lint_probe.cc"),
        "void Probe() { auto* value = new int(1); }\n"),
    "stdout-in-lib": (
        os.path.join("src", "kdb", "lint_probe.cc"),
        "void Probe() { std::printf(\"probe\\n\"); }\n"),
    "check-in-dataset": (
        os.path.join("src", "dataset", "lint_probe.cc"),
        "void Probe(int rows) { ADA_CHECK(rows > 0); }\n"),
    "direct-random": (
        os.path.join("src", "kdb", "lint_probe.cc"),
        "#include <random>\n"),
    "catch-swallow": (
        os.path.join("src", "kdb", "lint_probe.cc"),
        "void Probe() {\n"
        "  try {\n"
        "    Run();\n"
        "  } catch (...) {\n"
        "  }\n"
        "}\n"),
    "raw-socket": (
        os.path.join("src", "kdb", "lint_probe.cc"),
        "void Probe(int fd) { ::close(fd); }\n"),
    "simd-intrinsics": (
        os.path.join("src", "kdb", "lint_probe.cc"),
        "#include <immintrin.h>\n"),
    "service-file-io": (
        os.path.join("src", "service", "lint_probe.cc"),
        "void Probe() { unlink(\"probe\"); }\n"),
    "service-reply": (
        os.path.join("src", "service", "lint_probe.cc"),
        "void Probe(Connection& conn) { conn.EnqueueResponse(\"\\n\"); }\n"),
    "unreached-symbol": (
        os.path.join("src", "common", "lint_probe.h"),
        "#ifndef ADAHEALTH_COMMON_LINT_PROBE_H_\n"
        "#define ADAHEALTH_COMMON_LINT_PROBE_H_\n"
        "namespace adahealth {\n"
        "int LintProbeNobodyCalls(int value);\n"
        "}  // namespace adahealth\n"
        "#endif  // ADAHEALTH_COMMON_LINT_PROBE_H_\n"),
    "service-metrics": (
        os.path.join("src", "service", "lint_probe.cc"),
        "#include \"common/metrics.h\"\n"),
    "service-outbound": (
        os.path.join("src", "core", "lint_probe.cc"),
        "void Probe() { auto fd = ConnectLoopback(80); }\n"),
    "service-threads": (
        os.path.join("src", "service", "lint_probe.cc"),
        "void Probe() { std::thread worker; }\n"),
    "raw-mutex": (
        os.path.join("src", "kdb", "lint_probe.cc"),
        "void Probe() { std::mutex mu; }\n"),
}


def copy_tree(destination):
    ignore = shutil.ignore_patterns("build", "build-*", "__pycache__")
    for tree in TREES:
        source = os.path.join(REPO_ROOT, tree)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(destination, tree),
                            ignore=ignore)


def run_lint(root):
    return subprocess.run(
        [sys.executable, os.path.join(root, "tools", "ada_lint.py")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def main():
    failures = []
    with tempfile.TemporaryDirectory(prefix="ada_lint_test_") as root:
        copy_tree(root)
        clean = run_lint(root)
        if clean.returncode != 0:
            failures.append("unmodified tree: exit %d\n%s" %
                            (clean.returncode, clean.stdout))
        for rule, (relative, contents) in sorted(MUTANTS.items()):
            path = os.path.join(root, relative)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
            try:
                result = run_lint(root)
            finally:
                os.remove(path)
            findings = result.stdout.splitlines()
            if result.returncode != 1:
                failures.append("%s: exit %d, want 1\n%s" %
                                (rule, result.returncode, result.stdout))
            elif not findings or any("[%s]" % rule not in line
                                     for line in findings):
                failures.append("%s: findings do not all name the rule\n%s"
                                % (rule, result.stdout))
            else:
                print("ok  %-17s %s" % (rule, findings[0]))
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
