#!/usr/bin/env python3
"""Repo-specific lint rules for ADA-HEALTH that clang-tidy cannot express.

Usage:
    tools/ada_lint.py [--list-rules] [paths...]

With no paths, lints src/, tests/, bench/, tools/, and examples/
relative to the repo root
(the parent of this script's directory). Paths may be files or
directories; only .h/.cc/.cpp files are considered. Exit status is 0
when the tree is clean and 1 when any finding is reported.

Rules
-----
  include-guard     Headers use #ifndef/#define guards named
                    ADAHEALTH_<PATH>_H_, where <PATH> is the file path
                    uppercased with separators and dots as underscores.
                    Library headers drop the leading src/ (the include
                    root): src/kdb/query.h -> ADAHEALTH_KDB_QUERY_H_,
                    tests/test_util.h -> ADAHEALTH_TESTS_TEST_UTIL_H_.
  naked-new         No naked `new` / `malloc` family outside src/common/.
                    Library code owns memory through containers and
                    std::make_unique; the two sanctioned leaky singletons
                    live in common/.
  stdout-in-lib     No std::cout / std::cerr / printf in library code
                    (src/ outside src/common/): libraries must log
                    through common/logging (ADA_LOG) so severity and
                    filtering stay uniform. Tests, benches, examples and
                    tools may print.
  check-in-dataset  ADA_CHECK* in src/dataset/ must carry an "invariant"
                    justification (a comment containing the word
                    `invariant` on the same line or within the five
                    lines above). dataset/ is the input-parsing layer:
                    conditions derived from user input must return
                    Status, and every remaining CHECK must document why
                    it is a programmer invariant instead.
  direct-random     No #include <random> or std:: random engines outside
                    src/common/rng: all randomness flows through
                    common/rng so runs stay seed-reproducible.
  catch-swallow     A bare `catch (...)` must log (ADA_LOG) or rethrow
                    inside its body. Silently swallowing unknown
                    exceptions hides real failures from the resilience
                    layer, which relies on failures being observable to
                    degrade gracefully.
  raw-socket        Raw fd syscalls — socket()/accept()/close()/
                    connect()/bind()/listen()/send()/recv()/
                    setsockopt()/shutdown() — are allowed only in the
                    src/service/net_* wrappers. Everything else must
                    hold descriptors through service::FileDescriptor /
                    ServerSocket / LineReader and move bytes through
                    the wrappers (outbound: through AnalysisClient, see
                    service-outbound), so no error path can leak or
                    double-close an fd.
  service-outbound  In src/, ConnectLoopback and SetRecvTimeout appear
                    only in src/service/net_socket.* and
                    src/service/client.*. Every outbound connection
                    is opened there: the blocking AnalysisClient (the
                    replication shipper, ada_client) with its receive
                    deadline, and the router's loop-driven UpstreamPool
                    (forwards, probes, failover calls) with a loop
                    timer as its deadline, so every outbound call
                    shares one send/read path and one way to bound a
                    wait.
  service-threads   In src/service/, std::thread appears only in
                    connection.* (the connection host's loop thread) and
                    replication.* (the log shipper's thread). Every
                    service process serves its clients from one event
                    loop thread, so a thread per client or per wait
                    cannot come back unnoticed.
  service-reply     In src/service/, EnqueueResponse, PauseRequests and
                    ResumeRequests appear only in connection.* (where a
                    Reply answers its line) and client.* (UpstreamPool's
                    outbound links). Server and router code answers a
                    client only through the line's Reply, so every line
                    gets exactly one answer, in order.
  simd-intrinsics   x86 vector intrinsics — the <immintrin.h> include
                    family, _mm*/_mm256*/_mm512* calls and __m128/__m256/
                    __m512 vector types — are allowed only in
                    src/transform/simd_kernels.h/.cc. Everything else
                    calls the runtime-dispatched simd:: wrappers, so the
                    scalar fallback always exists, ADA_SIMD=OFF builds
                    stay complete, and one grep audits the entire
                    unsafe-ISA surface.
  service-file-io   Direct file I/O — the fopen/fwrite/fread/fflush/
                    fsync/ftruncate/truncate/rename/unlink/mkdir/rmdir
                    call family and the <fstream>/<filesystem> includes
                    — is allowed
                    in src/service/ only inside store_log.cc, the
                    crash-safe append-only log that both the cohort
                    store and the result cache persist through. Every
                    other service-layer component persists through a
                    StoreLog. store_log.cc itself appends directly but
                    folds through kdb::AtomicWriteFile, so the
                    atomic-rename discipline and its failpoints live in
                    one audited place.
  service-metrics   src/service/ neither includes common/metrics.h nor
                    names MetricsRegistry. MetricsRegistry::Default() is
                    the pipeline layers' registry; a service component
                    counts its events once, in its own per-instance stats
                    (SchedulerStats, RouterStats, ReplicationStats,
                    CohortStoreStats, the server's atomics, the result
                    cache's counters), which the `stats`/`health` verbs
                    export. A second, process-global copy of a service
                    counter would be shared by every in-process server
                    and read by nothing.
  raw-mutex         std::mutex / std::lock_guard / std::unique_lock /
                    std::condition_variable (and their scoped/shared/
                    timed variants, plus the <mutex>,
                    <condition_variable> and <shared_mutex> includes)
                    are allowed only inside src/common/sync.h/.cc.
                    Everything else locks through common::Mutex /
                    MutexLock / CondVar so Clang's thread-safety
                    analysis (the ADA_THREAD_SAFETY build gate) sees
                    every critical section; one raw lock is a silent
                    hole in the compile-time race check.
  unreached-symbol  Every function declared in a src/**/*.h header has
                    a use by name in src/ (other than a declaration or
                    definition of that name), bench/, examples/, tools/
                    or servicebench/src/ (read for callers only, never
                    linted). Tests do not count: library code that only
                    tests reach is deleted, or moved into its test.
                    Macros, types, constructors, destructors, operators
                    and overrides are skipped, and a use of any function
                    of the same name counts. A function that stays for
                    tests (an oracle or a test hook) carries
                    `// ada-lint: allow(unreached-symbol)` on its
                    declaration or in the comment right above it, with
                    a reason naming the test.

An individual finding can be waived with a trailing comment
`// ada-lint: allow(<rule>)` on the offending line; use sparingly and
say why next to it. tools/ada_lint_test.py seeds violations into a
copy of the tree and checks that the rules catch them.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")

ALLOW_RE = re.compile(r"ada-lint:\s*allow\(([a-z-]+)\)")

NAKED_NEW_RE = re.compile(r"\bnew\b\s*(\(|[A-Za-z_:<])")
MALLOC_RE = re.compile(r"\b(malloc|calloc|realloc|free)\s*\(")
STDOUT_RE = re.compile(r"std::cout|std::cerr|\bstd::printf\s*\(|(?<![\w:])printf\s*\(")
CHECK_RE = re.compile(r"\bADA_CHECK(_MSG|_EQ|_NE|_LT|_LE|_GT|_GE|_OK)?\s*\(")
RANDOM_INCLUDE_RE = re.compile(r"#\s*include\s*<random>")
RANDOM_ENGINE_RE = re.compile(
    r"std::(mt19937(_64)?|minstd_rand0?|random_device|"
    r"(uniform_(int|real)|normal|bernoulli|poisson)_distribution)\b")
INVARIANT_RE = re.compile(r"invariant", re.IGNORECASE)
CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
CATCH_HANDLED_RE = re.compile(r"\bthrow\b|ADA_LOG")
# A call to socket/accept/close that is not a member access
# (`fd.close(`), a longer identifier (`fclose(`), or a pointer call
# (`->close(`). `::close(` deliberately matches: the global-namespace
# qualifier is exactly the raw-syscall spelling this rule polices.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w.>])(socket|accept|close|connect|bind|listen"
    r"|send|recv|setsockopt|shutdown)\s*\(")
FILE_IO_CALL_RE = re.compile(
    r"(?<![\w.>])(fopen|fwrite|fread|fflush|fsync|ftruncate|truncate"
    r"|rename|unlink|mkdir|rmdir)\s*\(")
FILE_IO_INCLUDE_RE = re.compile(r"#\s*include\s*<(fstream|filesystem)>")
OUTBOUND_RE = re.compile(r"\b(ConnectLoopback|SetRecvTimeout)\b")
THREAD_RE = re.compile(r"\bstd::thread\b")
REPLY_RE = re.compile(r"\b(EnqueueResponse|PauseRequests|ResumeRequests)\b")
METRICS_INCLUDE_RE = re.compile(r'#\s*include\s*"common/metrics\.h"')
METRICS_REGISTRY_RE = re.compile(r"\bMetricsRegistry\b")
RAW_MUTEX_RE = re.compile(
    r"std::(recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|mutex|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock|condition_variable_any|condition_variable)\b")
MUTEX_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>")
SIMD_INCLUDE_RE = re.compile(
    r"#\s*include\s*<((imm|x86|xmm|emm|pmm|tmm|smm|nmm|wmm|avx[\w]*)intrin"
    r"\.h)>")
SIMD_TOKEN_RE = re.compile(r"\b(_mm(256|512)?_\w+|__m(128|256|512)[di]?)\b")

BLOCK_COMMENT_OPEN_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def strip_strings_and_comments(line, in_block_comment):
    """Returns (code-only text, still_in_block_comment).

    Good enough for lint purposes: removes string/char literals, //
    comments and /* */ comments from one line, tracking multi-line block
    comments via `in_block_comment`.
    """
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(quote + quote)  # Keep an empty literal as a token.
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


def expected_guard(rel_path):
    parts = rel_path.split(os.sep)
    if parts[0] == "src":
        parts = parts[1:]  # src/ is the include root.
    token = "_".join(parts)
    token = re.sub(r"[^A-Za-z0-9]", "_", token)
    return "ADAHEALTH_" + token.upper() + "_"


def catch_body_handles(code_lines, catch_index):
    """True when the `catch (...)` starting at code_lines[catch_index]
    has a body containing a throw or an ADA_LOG call.

    The body is delimited by brace counting from the first `{` at or
    after the catch; an unclosed block (EOF) is treated as handled to
    avoid false positives on pathological input.
    """
    depth = 0
    opened = False
    for line in code_lines[catch_index:]:
        for c in line:
            if c == "{":
                depth += 1
                opened = True
            elif c == "}" and opened:
                depth -= 1
        if opened and CATCH_HANDLED_RE.search(line):
            return True
        if opened and depth <= 0:
            return False
    return True


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def lint_file(path, rel_path):
    findings = []
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as error:
        findings.append(Finding(rel_path, 0, "io", f"cannot read: {error}"))
        return findings

    in_src = rel_path.startswith("src" + os.sep)
    in_common = rel_path.startswith(os.path.join("src", "common") + os.sep)
    in_dataset = rel_path.startswith(os.path.join("src", "dataset") + os.sep)
    is_rng = rel_path in (os.path.join("src", "common", "rng.h"),
                          os.path.join("src", "common", "rng.cc"))
    is_net_wrapper = rel_path.startswith(
        os.path.join("src", "service", "net_"))
    is_sync = rel_path in (os.path.join("src", "common", "sync.h"),
                           os.path.join("src", "common", "sync.cc"))
    in_service = rel_path.startswith(
        os.path.join("src", "service") + os.sep)
    is_store_log = rel_path == os.path.join(
        "src", "service", "store_log.cc")
    is_outbound_owner = any(
        rel_path.startswith(os.path.join("src", "service", stem + "."))
        for stem in ("net_socket", "client"))
    is_reply_owner = any(
        rel_path.startswith(os.path.join("src", "service", stem + "."))
        for stem in ("connection", "client"))
    is_thread_owner = any(
        rel_path.startswith(os.path.join("src", "service", stem + "."))
        for stem in ("connection", "replication"))
    is_simd_kernel = rel_path in (
        os.path.join("src", "transform", "simd_kernels.h"),
        os.path.join("src", "transform", "simd_kernels.cc"))

    code_lines = []
    in_block = False
    for raw in raw_lines:
        code, in_block = strip_strings_and_comments(raw, in_block)
        code_lines.append(code)

    def allowed(lineno, rule):
        m = ALLOW_RE.search(raw_lines[lineno - 1])
        return m is not None and m.group(1) == rule

    # --- include-guard ---------------------------------------------------
    if rel_path.endswith(".h"):
        guard = expected_guard(rel_path)
        ifndef = f"#ifndef {guard}"
        define = f"#define {guard}"
        stripped = [ln.strip() for ln in raw_lines]
        if ifndef not in stripped:
            findings.append(Finding(rel_path, 1, "include-guard",
                                    f"missing or misnamed guard; expected "
                                    f"`{ifndef}`"))
        elif define not in stripped:
            findings.append(Finding(rel_path, 1, "include-guard",
                                    f"`{ifndef}` without matching "
                                    f"`{define}`"))

    for lineno, code in enumerate(code_lines, start=1):
        if not code.strip():
            continue

        # --- naked-new ---------------------------------------------------
        if in_src and not in_common:
            if NAKED_NEW_RE.search(code) and not allowed(lineno, "naked-new"):
                findings.append(Finding(
                    rel_path, lineno, "naked-new",
                    "naked `new` outside src/common/; use containers or "
                    "std::make_unique"))
            m = MALLOC_RE.search(code)
            if m and not allowed(lineno, "naked-new"):
                findings.append(Finding(
                    rel_path, lineno, "naked-new",
                    f"`{m.group(1)}` outside src/common/; use C++ "
                    "ownership types"))

        # --- stdout-in-lib ----------------------------------------------
        if in_src and not in_common:
            if STDOUT_RE.search(code) and not allowed(lineno, "stdout-in-lib"):
                findings.append(Finding(
                    rel_path, lineno, "stdout-in-lib",
                    "stdout/stderr printing in library code; use ADA_LOG "
                    "from common/logging.h"))

        # --- check-in-dataset -------------------------------------------
        if in_dataset and CHECK_RE.search(code):
            window = raw_lines[max(0, lineno - 6):lineno]
            if (not any(INVARIANT_RE.search(w) for w in window)
                    and not allowed(lineno, "check-in-dataset")):
                findings.append(Finding(
                    rel_path, lineno, "check-in-dataset",
                    "ADA_CHECK in dataset/ without an `invariant` "
                    "justification comment; user-input-derived conditions "
                    "must return Status instead of aborting"))

        # --- catch-swallow ----------------------------------------------
        if CATCH_ALL_RE.search(code) and not allowed(lineno, "catch-swallow"):
            if not catch_body_handles(code_lines, lineno - 1):
                findings.append(Finding(
                    rel_path, lineno, "catch-swallow",
                    "`catch (...)` without ADA_LOG or rethrow in its "
                    "body; swallowed exceptions are invisible to the "
                    "resilience layer"))

        # --- raw-socket -------------------------------------------------
        if not is_net_wrapper:
            m = RAW_SOCKET_RE.search(code)
            if m and not allowed(lineno, "raw-socket"):
                findings.append(Finding(
                    rel_path, lineno, "raw-socket",
                    f"raw `{m.group(1)}()` outside src/service/net_*; "
                    "hold fds through service::FileDescriptor and the "
                    "socket wrappers"))

        # --- service-outbound -------------------------------------------
        if in_src and not is_outbound_owner:
            m = OUTBOUND_RE.search(code)
            if m and not allowed(lineno, "service-outbound"):
                findings.append(Finding(
                    rel_path, lineno, "service-outbound",
                    f"`{m.group(1)}` outside service/net_socket and "
                    "service/client; open outbound connections through "
                    "AnalysisClient or UpstreamPool"))

        # --- service-file-io --------------------------------------------
        if in_service and not is_store_log:
            m = FILE_IO_CALL_RE.search(code)
            if m and not allowed(lineno, "service-file-io"):
                findings.append(Finding(
                    rel_path, lineno, "service-file-io",
                    f"direct `{m.group(1)}()` in src/service/ outside "
                    "store_log.cc; service-layer persistence goes "
                    "through a StoreLog"))
            m = FILE_IO_INCLUDE_RE.search(code)
            if m and not allowed(lineno, "service-file-io"):
                findings.append(Finding(
                    rel_path, lineno, "service-file-io",
                    f"#include <{m.group(1)}> in src/service/ outside "
                    "store_log.cc; service-layer persistence goes "
                    "through a StoreLog"))

        # --- service-threads --------------------------------------------
        if in_service and not is_thread_owner:
            if THREAD_RE.search(code) and not allowed(lineno,
                                                      "service-threads"):
                findings.append(Finding(
                    rel_path, lineno, "service-threads",
                    "std::thread in src/service/ outside connection.* and "
                    "replication.*; serve clients and waits from the "
                    "connection host's event loop"))

        # --- service-reply ----------------------------------------------
        if in_service and not is_reply_owner:
            m = REPLY_RE.search(code)
            if m and not allowed(lineno, "service-reply"):
                findings.append(Finding(
                    rel_path, lineno, "service-reply",
                    f"`{m.group(1)}` in src/service/ outside connection.* "
                    "and client.*; answer a client line through its Reply"))

        # --- service-metrics --------------------------------------------
        if in_service and not allowed(lineno, "service-metrics"):
            # Include paths are string literals, which `code` has
            # stripped; match the include on the raw line instead.
            if (code.lstrip().startswith("#")
                    and METRICS_INCLUDE_RE.search(raw_lines[lineno - 1])):
                findings.append(Finding(
                    rel_path, lineno, "service-metrics",
                    "#include \"common/metrics.h\" in src/service/; count "
                    "service events in the owner's per-instance stats"))
            if METRICS_REGISTRY_RE.search(code):
                findings.append(Finding(
                    rel_path, lineno, "service-metrics",
                    "MetricsRegistry in src/service/; count service "
                    "events in the owner's per-instance stats, which "
                    "`stats`/`health` export"))

        # --- raw-mutex ---------------------------------------------------
        if not is_sync:
            m = RAW_MUTEX_RE.search(code)
            if m and not allowed(lineno, "raw-mutex"):
                findings.append(Finding(
                    rel_path, lineno, "raw-mutex",
                    f"raw `std::{m.group(1)}` outside common/sync; use "
                    "common::Mutex / MutexLock / CondVar so the "
                    "thread-safety analysis sees the lock"))
            m = MUTEX_INCLUDE_RE.search(code)
            if m and not allowed(lineno, "raw-mutex"):
                findings.append(Finding(
                    rel_path, lineno, "raw-mutex",
                    f"#include <{m.group(1)}> outside common/sync; "
                    "include common/sync.h instead"))

        # --- simd-intrinsics --------------------------------------------
        if not is_simd_kernel:
            m = SIMD_INCLUDE_RE.search(code)
            if m and not allowed(lineno, "simd-intrinsics"):
                findings.append(Finding(
                    rel_path, lineno, "simd-intrinsics",
                    f"#include <{m.group(1)}> outside "
                    "transform/simd_kernels; call the dispatched simd:: "
                    "wrappers instead"))
            m = SIMD_TOKEN_RE.search(code)
            if m and not allowed(lineno, "simd-intrinsics"):
                findings.append(Finding(
                    rel_path, lineno, "simd-intrinsics",
                    f"intrinsic `{m.group(1)}` outside "
                    "transform/simd_kernels; keep raw ISA code behind the "
                    "runtime-dispatched simd:: wrappers"))

        # --- direct-random ----------------------------------------------
        if not is_rng:
            if (RANDOM_INCLUDE_RE.search(code)
                    and not allowed(lineno, "direct-random")):
                findings.append(Finding(
                    rel_path, lineno, "direct-random",
                    "#include <random> outside common/rng; use "
                    "common::Rng for seed-reproducible randomness"))
            m = RANDOM_ENGINE_RE.search(code)
            if m and not allowed(lineno, "direct-random"):
                findings.append(Finding(
                    rel_path, lineno, "direct-random",
                    f"direct use of `std::{m.group(1)}`; use common::Rng"))

    return findings


# --- unreached-symbol (cross-file; see the module docstring) ---------------

CALLER_ROOTS = ("src", "bench", "examples", "tools",
                os.path.join("servicebench", "src"))
UNREACHED_RULE = "unreached-symbol"

IDENT_RE = re.compile(r"[A-Za-z_]\w*")
MACRO_NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
ACCESS_RE = re.compile(r"\b(public|private|protected)\s*:(?!:)")
TEMPLATE_RE = re.compile(r"\btemplate\s*<")
TYPE_SCOPE_RE = re.compile(
    r"^\s*(class|struct|union)\s+(?:[A-Z][A-Z0-9_]*(?:\s*\([^()]*\))?\s+)*"
    r"([A-Za-z_]\w*)")
NOT_DECLARING_RE = re.compile(r"\b(operator|override|using|typedef|friend)\b")
NOT_A_FUNCTION = frozenset((
    "alignas", "alignof", "decltype", "noexcept", "sizeof", "static_assert",
    "typeid", "void", "explicit", "requires", "return"))


def strip_template_heads(stmt):
    """`stmt` with every `template <...>` head blanked (same length)."""
    out = list(stmt)
    for m in TEMPLATE_RE.finditer(stmt):
        depth = 0
        for i in range(m.end() - 1, len(stmt)):
            if stmt[i] == "<":
                depth += 1
            elif stmt[i] == ">":
                depth -= 1
                if depth == 0:
                    out[m.start():i + 1] = " " * (i + 1 - m.start())
                    break
    return "".join(out)


def first_call_paren(stmt):
    """Offset of the statement's first `(` outside template arguments,
    or -1 when there is none or an `=` comes first (an initializer)."""
    depth = 0
    for i, c in enumerate(stmt):
        if c == "<":
            depth += 1
        elif c == ">" and depth > 0:
            depth -= 1
        elif c == "=" and depth == 0:
            return -1
        elif c == "(" and depth == 0:
            return i
    return -1


def declared_name(stmt, class_name):
    """(name, offset in stmt) of the function that a namespace- or
    class-scope statement declares or defines, or None. Constructors,
    destructors, operators, overrides, macros and variables are skipped."""
    stmt = ACCESS_RE.sub(lambda m: " " * len(m.group(0)), stmt)
    stmt = strip_template_heads(stmt)
    if NOT_DECLARING_RE.search(stmt):
        return None
    paren = first_call_paren(stmt)
    if paren < 0:
        return None
    head = stmt[:paren].rstrip()
    m = re.search(r"(~?)\s*([A-Za-z_]\w*)$", head)
    if m is None or m.group(1):
        return None
    name = m.group(2)
    if (name in NOT_A_FUNCTION or name == class_name
            or MACRO_NAME_RE.match(name)):
        return None
    if class_name is None and not head[:m.start(2)].strip():
        return None  # No return type at namespace scope: a macro call.
    return name, m.start(2)


def scan_declarations(code_lines):
    """[(name, name_line, first_line)] of the functions declared or
    defined at namespace or class scope (1-based lines). Bodies, enum
    bodies and brace initializers are skipped: a name inside them is a
    use, not a declaration."""
    text = "\n".join(code_lines)
    line_starts = [0]
    for line in code_lines:
        line_starts.append(line_starts[-1] + len(line) + 1)

    def line_of(offset):
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    found = []
    # ("ns" | "class", class name) scopes declare; a "body" is skipped and
    # ends its statement, an "init" (enum body, brace initializer) is
    # skipped and leaves its statement open until the `;`.
    scopes = [("ns", None)]
    start = 0

    def flush(end):
        stmt = text[start:end]
        kind, name = scopes[-1]
        hit = declared_name(stmt, name if kind == "class" else None)
        if hit is not None:
            lead = len(stmt) - len(stmt.lstrip())
            found.append((hit[0], line_of(start + hit[1]),
                          line_of(start + lead)))

    for i, c in enumerate(text):
        declaring = scopes[-1][0] in ("ns", "class")
        if c == "{":
            if not declaring:
                scopes.append(("body", None))
                continue
            stmt = strip_template_heads(
                ACCESS_RE.sub(lambda m: " " * len(m.group(0)),
                              text[start:i]))
            type_scope = TYPE_SCOPE_RE.search(stmt)
            if re.search(r"\b(namespace|extern)\b", stmt):
                scopes.append(("ns", None))
            elif re.search(r"\benum\b", stmt):
                scopes.append(("init", None))
                continue
            elif type_scope is not None and "=" not in stmt:
                scopes.append(("class", type_scope.group(2)))
            elif first_call_paren(stmt) < 0:
                scopes.append(("init", None))
                continue
            else:
                flush(i)
                scopes.append(("body", None))
            start = i + 1
        elif c == "}":
            popped = scopes.pop() if len(scopes) > 1 else ("ns", None)
            if popped[0] != "init" and scopes[-1][0] in ("ns", "class"):
                start = i + 1
        elif c == ";" and declaring:
            flush(i)
            start = i + 1
    return found


def strip_for_scan(raw_lines, keep_directives):
    """Code-only lines: comments and literals removed and, unless
    keep_directives, preprocessor lines (with their continuations)
    blanked, so a macro body never reads as a declaration."""
    lines = []
    in_block = False
    in_directive = False
    for raw in raw_lines:
        code, in_block = strip_strings_and_comments(raw, in_block)
        directive = in_directive or code.lstrip().startswith("#")
        in_directive = directive and raw.rstrip().endswith("\\")
        lines.append("" if directive and not keep_directives else code)
    return lines


def read_lines(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def used_names(root):
    """Identifiers used in the caller roots under `root`, not counting
    the lines where a function of that name is declared or defined."""
    used = set()
    dirs = [os.path.join(root, d) for d in CALLER_ROOTS]
    for path in collect_files([d for d in dirs if os.path.isdir(d)]):
        raw = read_lines(path)
        sites = {(name, line) for name, line, _ in
                 scan_declarations(strip_for_scan(raw, False))}
        for lineno, code in enumerate(strip_for_scan(raw, True), 1):
            used.update(m.group(0) for m in IDENT_RE.finditer(code)
                        if (m.group(0), lineno) not in sites)
    return used


def unreached_waived(raw_lines, first, line):
    """True when the declaration (lines first..line) or the comment block
    right above it carries `ada-lint: allow(unreached-symbol)`."""
    lo = first - 1
    while lo > 0 and raw_lines[lo - 1].lstrip().startswith("//"):
        lo -= 1
    for text in raw_lines[lo:line]:
        m = ALLOW_RE.search(text)
        if m is not None and m.group(1) == UNREACHED_RULE:
            return True
    return False


def lint_unreached(raw_lines, rel_path, used):
    findings = []
    for name, line, first in scan_declarations(
            strip_for_scan(raw_lines, False)):
        if name in used or unreached_waived(raw_lines, first, line):
            continue
        findings.append(Finding(
            rel_path, line, UNREACHED_RULE,
            f"`{name}` has no caller in src/, bench/, examples/, tools/ "
            "or servicebench/src/; delete it, or waive it with a comment "
            "that names the test it serves"))
    return findings


def collect_files(paths):
    files = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(SOURCE_EXTENSIONS):
                files.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [d for d in dirnames
                               if d not in ("build", ".git")
                               and not d.startswith("build-")]
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        else:
            print(f"ada_lint: no such path: {path}", file=sys.stderr)
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        description="ADA-HEALTH repo lint (see module docstring)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tests "
                             "bench under the repo root)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule documentation and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(__doc__)
        return 0

    paths = args.paths or [os.path.join(REPO_ROOT, d)
                           for d in ("src", "tests", "bench", "tools",
                                     "examples")]
    findings = []
    used = None  # Built on the first src/ header.
    for path in collect_files(paths):
        rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
        findings.extend(lint_file(path, rel))
        if rel.startswith("src" + os.sep) and rel.endswith(".h"):
            if used is None:
                used = used_names(REPO_ROOT)
            findings.extend(lint_unreached(read_lines(path), rel, used))

    for finding in findings:
        print(finding)
    if findings:
        print(f"ada_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
