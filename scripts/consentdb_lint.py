#!/usr/bin/env python3
"""consentdb-lint: project-specific C++ hygiene checks.

Walks src/, tests/ and bench/ and rejects patterns the compilers cannot (or
do not) catch but that this codebase bans:

  naked-new               `new`/`delete` outside a smart-pointer factory
                          (a `new` is fine when the same statement wraps it
                          in unique_ptr/shared_ptr/make_*/an XxxPtr alias)
  mutex-guard             a std::mutex / consentdb::Mutex member in a class
                          with no field annotated GUARDED_BY — either the
                          mutex is dead or the guarded data is unannotated
  include-cc              #include of a .cc file
  using-namespace-header  `using namespace` at any scope in a header
  raw-cout                std::cout/std::cerr in src/consentdb (library code
                          reports through Status/obs; only the shell/bench/
                          example layers own a terminal)
  sleep-outside-clock     sleep_for/sleep_until anywhere but the Clock
                          implementation (util/clock.cc) — all waiting goes
                          through the injected Clock so tests and benches run
                          on virtual time; a real sleep in a resilience path
                          would block the suite for wall-clock backoff
  obs-name-literal        a metric/span name literal at an obs call site
                          (GetCounter/Increment/Span/RecordEvent/...) that
                          does not match [a-z0-9_.]+ — names feed exports,
                          dashboards and the lint-exempt registry in
                          obs/names.h, so they stay lowercase dotted words;
                          obs/names.h itself is the one place to mint them
  raw-socket              socket()/connect()/bind()/send()/recv() and
                          friends, and the readiness calls poll()/ppoll()/
                          epoll_*(), outside src/consentdb/net/ — every byte
                          that crosses a process boundary goes through the
                          Transport seam (util/transport.h) so the chaos
                          harness can interpose, and idle callers wait
                          through Transport::WaitReady; only the net/ module
                          owns real sockets
  nested-vector-strategy  a std::vector<std::vector<...>> in
                          src/consentdb/strategy/ — the probing hot path is
                          columnar (flat arrays + CSR offsets) precisely to
                          avoid per-row allocations and pointer-chasing;
                          store a flat array with an offsets table instead

A finding on a line carrying `// lint:allow <rule>` (or whose previous line
is only that comment) is suppressed; the allowlist is per-rule, so an
allowed `naked-new` does not silence a `raw-cout` on the same line. The
schema and suppression machinery live in consentdb_findings.py, shared with
consentdb_analyze.py so CI renders both tools' findings through one path.

Exit status: 0 clean, 1 findings, 2 usage/IO error.

Usage: consentdb_lint.py [REPO_ROOT] [--list-rules] [--format=text|json]
Run from anywhere; REPO_ROOT defaults to the script's parent repo.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from consentdb_findings import (  # noqa: E402
    ALLOW_RE, Finding, allowed_rules, emit)

LINT_DIRS = ("src", "tests", "bench")
CXX_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}
HEADER_SUFFIXES = {".h", ".hpp"}

# `new` is legal only when the same statement hands it straight to a smart
# pointer, in either construction style:
#   return PlanPtr(new Plan(...));                 temporary wrap
#   std::unique_ptr<Plan> p(new Plan(...));        declaration wrap
#   ptr.reset(new T(...));                         explicit handoff
# The window spans two lines so a wrap opened on the previous line counts.
SMART_WRAP_RE = re.compile(
    r"(?:\w*Ptr|unique_ptr\s*(?:<[^;]*>)?|shared_ptr\s*(?:<[^;]*>)?|"
    r"\breset)\s*(?:\w+\s*)?\(\s*new\b"
)
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (place)` placement is flagged too
DELETE_RE = re.compile(r"\bdelete\b(?!\s*;)")
DELETED_FN_RE = re.compile(r"=\s*delete\b")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:std::mutex|Mutex)\s+(\w+)\s*(?:=[^;]*)?;"
)
GUARDED_BY_RE = re.compile(r"\bGUARDED_BY\s*\(\s*(\w+)\s*\)")
INCLUDE_CC_RE = re.compile(r'#\s*include\s*[<"][^">]+\.cc[">]')
USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")
RAW_COUT_RE = re.compile(r"\bstd::(cout|cerr)\b")
SLEEP_RE = re.compile(r"\bsleep_(?:for|until)\s*\(")
# The one legitimate real-sleep site: the SystemClock behind RealClock().
SLEEP_EXEMPT_FILES = {Path("src/consentdb/util/clock.cc")}
RAW_FILE_IO_RE = re.compile(
    r"\bstd::(?:o|i|w[oi]?)?fstream\b|\bf(?:re)?open\s*\("
)
# The one legitimate raw-file-io site: the POSIX Env behind Env::Default().
RAW_FILE_IO_EXEMPT_FILES = {Path("src/consentdb/util/io.cc")}

# obs call sites whose string-literal arguments are metric/span/event names.
# `Span foo(` (a declaration) and `Span(` (a temporary) both count; SpanRecord
# etc. do not (the next char after `Span` must open the argument list or a
# variable name).
OBS_NAME_CALL_RE = re.compile(
    r"\b(?:GetCounter|GetGauge|GetHistogram|Increment|SetGauge|Observe|"
    r"MaybeHistogram|RecordEvent|RecordSpan|SetArg|ScopedTimer(?:\s+\w+)?|"
    r"Span(?:\s+\w+)?)\s*\(([^;{]*)"
)
OBS_NAME_LITERAL_RE = re.compile(r'"([^"]*)"')
VALID_OBS_NAME_RE = re.compile(r"^[a-z0-9_.]+$")
# The registry of canonical names declares its own convention.
OBS_NAME_EXEMPT_FILES = {Path("src/consentdb/obs/names.h")}

# Raw BSD socket API calls. Free-function call sites only: a leading `.`,
# `->` or identifier character means a method or a longer name (Reconnect,
# transport.Connect), which is fine — it is the global/POSIX functions that
# bypass the Transport seam. `::connect(...)` (explicitly global-qualified)
# is still caught.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w.>])(?:socket|connect|bind|listen|accept|accept4|send|recv|"
    r"sendto|recvfrom|sendmsg|recvmsg|setsockopt|getsockopt|getsockname|"
    r"getpeername|getaddrinfo|inet_pton|inet_ntop|"
    r"poll|ppoll|epoll_create1|epoll_ctl|epoll_wait)\s*\("
)
# The one module allowed to touch sockets: the transport implementations.
RAW_SOCKET_EXEMPT_DIR = ("src", "consentdb", "net")

# Vector-of-vectors in the strategy layer: the evaluation hot path went
# columnar (flat term/clause tables + CSR adjacency) and must not regress to
# per-row heap allocations. Whitespace is tolerated between the tokens.
NESTED_VECTOR_RE = re.compile(r"\bstd::vector\s*<\s*std::vector\s*<")
NESTED_VECTOR_DIR = ("src", "consentdb", "strategy")

RULES = (
    "naked-new",
    "mutex-guard",
    "include-cc",
    "using-namespace-header",
    "raw-cout",
    "sleep-outside-clock",
    "raw-file-io",
    "raw-socket",
    "obs-name-literal",
    "nested-vector-strategy",
)


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and the contents of string/char literals so the
    pattern rules never fire inside prose or quoted SQL."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def strip_comments(line: str) -> str:
    """Removes // comments but keeps string-literal contents — for rules
    that inspect the literals themselves (obs-name-literal)."""
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            return line[:i]
        if c in "\"'":
            quote = c
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
        i += 1
    return line


def lint_file(path: Path, rel: Path, findings: list[Finding]) -> None:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        findings.append(Finding(rel, 0, "io", f"unreadable: {e}"))
        return

    lines = text.splitlines()
    is_header = path.suffix in HEADER_SUFFIXES
    in_library = rel.parts[:2] == ("src", "consentdb")

    # mutex-guard bookkeeping: mutex members and GUARDED_BY targets seen in
    # this file. Field-to-class attribution uses a simple heuristic (one
    # class per mutex name is the codebase convention: `mu_`).
    mutex_members: list[tuple[int, str, set[str]]] = []  # line, name, allowed
    guarded_targets: set[str] = set()

    for idx, raw in enumerate(lines):
        lineno = idx + 1
        allowed = allowed_rules(lines, idx)
        code = strip_comments_and_strings(raw)
        if not code.strip():
            continue

        # Checked against the raw line: the include path lives inside the
        # quotes the string-stripper removes.
        if INCLUDE_CC_RE.search(raw) and "include-cc" not in allowed:
            findings.append(
                Finding(rel, lineno, "include-cc",
                        "#include of a .cc file; include the header and "
                        "link the object instead"))

        if (is_header and USING_NAMESPACE_RE.search(code)
                and "using-namespace-header" not in allowed):
            findings.append(
                Finding(rel, lineno, "using-namespace-header",
                        "`using namespace` in a header leaks into every "
                        "includer; qualify or alias instead"))

        if in_library and RAW_COUT_RE.search(code) and "raw-cout" not in allowed:
            findings.append(
                Finding(rel, lineno, "raw-cout",
                        "library code must not write to std::cout/cerr; "
                        "return a Status or report through obs/"))

        if (SLEEP_RE.search(code) and rel not in SLEEP_EXEMPT_FILES
                and "sleep-outside-clock" not in allowed):
            findings.append(
                Finding(rel, lineno, "sleep-outside-clock",
                        "real sleep outside the Clock implementation; take "
                        "a consentdb::Clock and call SleepFor so tests and "
                        "benches run on virtual time (util/clock.h)"))

        if (rel.parts[:3] == NESTED_VECTOR_DIR
                and NESTED_VECTOR_RE.search(code)
                and "nested-vector-strategy" not in allowed):
            findings.append(
                Finding(rel, lineno, "nested-vector-strategy",
                        "vector-of-vectors in the strategy layer; the "
                        "evaluation hot path is columnar — store a flat "
                        "array with a CSR offsets table instead"))

        if (RAW_FILE_IO_RE.search(code) and rel not in RAW_FILE_IO_EXEMPT_FILES
                and "raw-file-io" not in allowed):
            findings.append(
                Finding(rel, lineno, "raw-file-io",
                        "raw file I/O outside util/io; go through Env "
                        "(util/io.h) so durability tests can inject a "
                        "CrashingEnv and crash-recovery stays testable"))

        if (rel.parts[:3] != RAW_SOCKET_EXEMPT_DIR
                and RAW_SOCKET_RE.search(code)
                and "raw-socket" not in allowed):
            findings.append(
                Finding(rel, lineno, "raw-socket",
                        "raw socket call outside src/consentdb/net/; open "
                        "connections through the Transport seam "
                        "(util/transport.h) so the chaos harness can "
                        "interpose on every byte"))

        if (rel not in OBS_NAME_EXEMPT_FILES
                and "obs-name-literal" not in allowed):
            with_literals = strip_comments(raw)
            for call in OBS_NAME_CALL_RE.finditer(with_literals):
                for name in OBS_NAME_LITERAL_RE.findall(call.group(1)):
                    if not VALID_OBS_NAME_RE.match(name):
                        findings.append(
                            Finding(rel, lineno, "obs-name-literal",
                                    f'metric/span name "{name}" does not '
                                    "match [a-z0-9_.]+; mint a constant in "
                                    "obs/names.h instead"))

        for m in GUARDED_BY_RE.finditer(code):
            guarded_targets.add(m.group(1))

        mm = MUTEX_MEMBER_RE.match(code)
        if mm:
            mutex_members.append((lineno, mm.group(1), allowed))

        if "naked-new" not in allowed:
            stripped_deleted = DELETED_FN_RE.sub("", code)
            has_new = NEW_RE.search(stripped_deleted)
            has_delete = DELETE_RE.search(stripped_deleted)
            if has_new:
                prev = strip_comments_and_strings(lines[idx - 1]) if idx else ""
                window = prev.rstrip() + " " + code
                if not SMART_WRAP_RE.search(window):
                    findings.append(
                        Finding(rel, lineno, "naked-new",
                                "`new` outside a smart-pointer factory; wrap "
                                "it in unique_ptr/shared_ptr/XxxPtr in the "
                                "same statement"))
            if has_delete:
                findings.append(
                    Finding(rel, lineno, "naked-new",
                            "manual `delete`; ownership belongs to a smart "
                            "pointer"))

    for lineno, name, allowed in mutex_members:
        if "mutex-guard" in allowed:
            continue
        if name not in guarded_targets:
            findings.append(
                Finding(rel, lineno, "mutex-guard",
                        f"mutex member `{name}` has no GUARDED_BY({name}) "
                        "field in this file; annotate the data it protects "
                        "(see util/thread_annotations.h)"))


def run(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    for d in LINT_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                lint_file(path, path.relative_to(root), findings)
    return findings


def main(argv: list[str]) -> int:
    fmt = "text"
    args = []
    for a in argv[1:]:
        if a == "--list-rules":
            print("\n".join(RULES))
            return 0
        if a.startswith("--format="):
            fmt = a.split("=", 1)[1]
            if fmt not in ("text", "json"):
                print(f"consentdb-lint: unknown format: {fmt}", file=sys.stderr)
                return 2
        else:
            args.append(a)
    if len(args) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(args[0]).resolve() if args else Path(__file__).resolve().parent.parent
    if not root.is_dir():
        print(f"consentdb-lint: no such directory: {root}", file=sys.stderr)
        return 2
    findings = run(root)
    emit(findings, fmt)
    if findings:
        print(f"consentdb-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
