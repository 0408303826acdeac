#!/usr/bin/env python3
"""Unit tests for every consentdb_lint.py rule, including the allowlist.

Each test materializes a miniature repo in a temp directory and asserts on
the (rule, line) pairs the linter reports. Run directly or via ctest:

    python3 scripts/consentdb_lint_test.py
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import consentdb_lint as lint  # noqa: E402


class LintHarness(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel: str, content: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)

    def findings(self):
        return [(f.rule, str(f.path), f.line) for f in lint.run(self.root)]

    def rules(self):
        return [r for r, _, _ in self.findings()]


class NakedNewTest(LintHarness):
    def test_flags_raw_new(self):
        self.write("src/consentdb/a.cc", "void f() {\n  int* p = new int(3);\n}\n")
        self.assertEqual(self.rules(), ["naked-new"])
        self.assertEqual(self.findings()[0][2], 2)

    def test_flags_manual_delete(self):
        self.write("src/consentdb/a.cc", "void f(int* p) {\n  delete p;\n}\n")
        self.assertEqual(self.rules(), ["naked-new"])

    def test_deleted_function_is_not_delete(self):
        self.write("src/consentdb/a.h",
                   "class A {\n  A(const A&) = delete;\n};\n")
        self.assertEqual(self.rules(), [])

    def test_same_line_smart_wrap_ok(self):
        self.write("src/consentdb/a.cc",
                   "PlanPtr f() {\n  return PlanPtr(new Plan(kScan));\n}\n")
        self.assertEqual(self.rules(), [])

    def test_declaration_wrap_ok(self):
        self.write("src/consentdb/a.cc",
                   "void f() {\n  std::unique_ptr<Plan> p(new Plan(kScan));\n}\n")
        self.assertEqual(self.rules(), [])

    def test_previous_line_wrap_ok(self):
        self.write("src/consentdb/a.cc",
                   "void f() {\n  static const BoolExprPtr instance(\n"
                   "      new BoolExpr(kFalse));\n}\n")
        self.assertEqual(self.rules(), [])

    def test_new_in_comment_or_string_ignored(self):
        self.write("src/consentdb/a.cc",
                   '// a new idea\nconst char* s = "new Plan";\n')
        self.assertEqual(self.rules(), [])

    def test_allowlist_suppresses(self):
        self.write("src/consentdb/a.cc",
                   "void f() {\n  int* p = new int(3);  // lint:allow naked-new\n}\n")
        self.assertEqual(self.rules(), [])


class MutexGuardTest(LintHarness):
    def test_flags_unguarded_mutex(self):
        self.write("src/consentdb/a.h",
                   "class A {\n  mutable std::mutex mu_;\n  int x_ = 0;\n};\n")
        self.assertEqual(self.rules(), ["mutex-guard"])

    def test_guarded_field_satisfies(self):
        self.write("src/consentdb/a.h",
                   "class A {\n  mutable Mutex mu_;\n"
                   "  int x_ GUARDED_BY(mu_) = 0;\n};\n")
        self.assertEqual(self.rules(), [])

    def test_wrapper_mutex_class_allowlisted(self):
        self.write("src/consentdb/a.h",
                   "class M {\n  std::mutex mu_;  // lint:allow mutex-guard\n};\n")
        self.assertEqual(self.rules(), [])

    def test_preceding_comment_allowlist(self):
        self.write("src/consentdb/a.h",
                   "class M {\n  // lint:allow mutex-guard\n"
                   "  std::mutex mu_;\n};\n")
        self.assertEqual(self.rules(), [])


class IncludeCcTest(LintHarness):
    def test_flags_cc_include(self):
        self.write("tests/a.cc", '#include "consentdb/query/plan.cc"\n')
        self.assertEqual(self.rules(), ["include-cc"])

    def test_header_include_ok(self):
        self.write("tests/a.cc", '#include "consentdb/query/plan.h"\n')
        self.assertEqual(self.rules(), [])


class UsingNamespaceHeaderTest(LintHarness):
    def test_flags_in_header(self):
        self.write("src/consentdb/a.h", "using namespace std;\n")
        self.assertEqual(self.rules(), ["using-namespace-header"])

    def test_ok_in_cc(self):
        self.write("src/consentdb/a.cc", "using namespace std::chrono;\n")
        self.assertEqual(self.rules(), [])

    def test_using_declaration_ok(self):
        self.write("src/consentdb/a.h", "using std::vector;\n")
        self.assertEqual(self.rules(), [])


class RawCoutTest(LintHarness):
    def test_flags_cout_in_library(self):
        self.write("src/consentdb/a.cc",
                   'void f() {\n  std::cout << "hi";\n}\n')
        self.assertEqual(self.rules(), ["raw-cout"])

    def test_cerr_also_flagged(self):
        self.write("src/consentdb/a.cc",
                   'void f() {\n  std::cerr << "hi";\n}\n')
        self.assertEqual(self.rules(), ["raw-cout"])

    def test_ok_outside_library(self):
        # bench/tests/examples own their terminal; only src/consentdb is
        # held to the no-stdout rule.
        self.write("bench/a.cc", 'void f() {\n  std::cout << "hi";\n}\n')
        self.assertEqual(self.rules(), [])

    def test_cout_in_string_ignored(self):
        self.write("src/consentdb/a.cc", 'const char* s = "std::cout";\n')
        self.assertEqual(self.rules(), [])


class SleepOutsideClockTest(LintHarness):
    def test_flags_sleep_for(self):
        self.write("src/consentdb/strategy/a.cc",
                   "void f() {\n"
                   "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                   "}\n")
        self.assertEqual(self.rules(), ["sleep-outside-clock"])

    def test_flags_sleep_until(self):
        self.write("tests/a.cc",
                   "void f() {\n  std::this_thread::sleep_until(t);\n}\n")
        self.assertEqual(self.rules(), ["sleep-outside-clock"])

    def test_clock_implementation_is_exempt(self):
        # util/clock.cc owns the single real sleep behind RealClock().
        self.write("src/consentdb/util/clock.cc",
                   "void SystemClock::SleepFor(int64_t n) {\n"
                   "  std::this_thread::sleep_for(std::chrono::nanoseconds(n));\n"
                   "}\n")
        self.assertEqual(self.rules(), [])

    def test_injected_clock_sleepfor_ok(self):
        # Clock::SleepFor is the virtual-time API, not a real sleep.
        self.write("src/consentdb/core/a.cc",
                   "void f(Clock* c) {\n  c->SleepFor(1000);\n}\n")
        self.assertEqual(self.rules(), [])

    def test_sleep_in_comment_or_string_ignored(self):
        self.write("src/consentdb/a.cc",
                   "// calls sleep_for(1s) eventually\n"
                   'const char* s = "sleep_for(1)";\n')
        self.assertEqual(self.rules(), [])

    def test_allowlist_suppresses(self):
        self.write("tests/a.cc",
                   "void f() {\n"
                   "  // lint:allow sleep-outside-clock\n"
                   "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                   "}\n")
        self.assertEqual(self.rules(), [])


class RawFileIoTest(LintHarness):
    def test_flags_ofstream(self):
        self.write("src/consentdb/consent/a.cc",
                   "void f() {\n  std::ofstream out(path);\n}\n")
        self.assertEqual(self.rules(), ["raw-file-io"])

    def test_flags_ifstream_and_plain_fstream(self):
        self.write("tests/a.cc",
                   "void f() {\n"
                   "  std::ifstream in(path);\n"
                   "  std::fstream both(path);\n"
                   "}\n")
        self.assertEqual(self.rules(), ["raw-file-io", "raw-file-io"])

    def test_flags_fopen(self):
        self.write("bench/a.cc",
                   'void f() {\n  FILE* fp = std::fopen("x", "w");\n}\n')
        self.assertEqual(self.rules(), ["raw-file-io"])

    def test_env_implementation_is_exempt(self):
        # util/io.cc owns the single real file-I/O site behind Env::Default().
        self.write("src/consentdb/util/io.cc",
                   'void f() {\n  FILE* fp = std::fopen("x", "w");\n}\n')
        self.assertEqual(self.rules(), [])

    def test_fopen_in_comment_or_string_ignored(self):
        self.write("src/consentdb/a.cc",
                   "// fopen(path) would be wrong here\n"
                   'const char* s = "std::ofstream";\n')
        self.assertEqual(self.rules(), [])

    def test_env_usage_ok(self):
        self.write("src/consentdb/consent/a.cc",
                   "void f(Env* env) {\n"
                   "  auto file = env->NewWritableFile(path, false);\n"
                   "}\n")
        self.assertEqual(self.rules(), [])

    def test_allowlist_suppresses(self):
        self.write("tests/a.cc",
                   "void f() {\n"
                   "  // lint:allow raw-file-io\n"
                   "  std::ofstream out(path);\n"
                   "}\n")
        self.assertEqual(self.rules(), [])


class RawSocketTest(LintHarness):
    def test_flags_socket_and_connect(self):
        self.write("src/consentdb/core/a.cc",
                   "void f() {\n"
                   "  int fd = socket(AF_INET, SOCK_STREAM, 0);\n"
                   "  connect(fd, addr, len);\n"
                   "}\n")
        self.assertEqual(self.rules(), ["raw-socket", "raw-socket"])

    def test_flags_send_recv_in_tests(self):
        self.write("tests/a.cc",
                   "void f(int fd) {\n"
                   "  send(fd, buf, n, 0);\n"
                   "  recv(fd, buf, n, 0);\n"
                   "}\n")
        self.assertEqual(self.rules(), ["raw-socket", "raw-socket"])

    def test_net_module_is_exempt(self):
        # net/ owns the PosixTransport, the one real-socket site.
        self.write("src/consentdb/net/posix_transport.cc",
                   "void f() {\n"
                   "  int fd = socket(AF_INET, SOCK_STREAM, 0);\n"
                   "  bind(fd, addr, len);\n"
                   "  listen(fd, 128);\n"
                   "}\n")
        self.assertEqual(self.rules(), [])

    def test_flags_readiness_calls(self):
        self.write("src/consentdb/core/a.cc",
                   "void f(pollfd* fds, int ep, epoll_event* ev) {\n"
                   "  ::poll(fds, 1, 1);\n"
                   "  ppoll(fds, 1, ts, nullptr);\n"
                   "  int e = epoll_create1(0);\n"
                   "  epoll_ctl(ep, EPOLL_CTL_ADD, fd, ev);\n"
                   "  epoll_wait(ep, ev, 1, 1);\n"
                   "}\n")
        self.assertEqual(self.rules(), ["raw-socket"] * 5)

    def test_readiness_calls_in_net_module_ok(self):
        self.write("src/consentdb/net/posix_transport.cc",
                   "bool f(pollfd* fds) {\n"
                   "  return ::poll(fds, 2, 1) >= 0;\n"
                   "}\n")
        self.assertEqual(self.rules(), [])

    def test_poll_methods_and_longer_names_ok(self):
        # The server's Poll()/PollLocked() and the seam's WaitReady are the
        # sanctioned spellings; only the bare lowercase syscalls fire.
        self.write("src/consentdb/core/a.cc",
                   "void f(ProbeServer& s, Transport& t) {\n"
                   "  s.Poll();\n"
                   "  server->poll(1);\n"
                   "  t.WaitReady(nullptr, {}, 1);\n"
                   "  repoll(1);\n"
                   "  my_epoll_wait(1);\n"
                   "}\n")
        self.assertEqual(self.rules(), [])

    def test_transport_seam_methods_ok(self):
        # Transport::Connect / Listener::Accept / Reconnect are the sanctioned
        # spellings; method calls and longer identifiers must not fire.
        self.write("src/consentdb/core/a.cc",
                   "void f(Transport& t, ProbeClient& c) {\n"
                   "  auto conn = t.Connect(addr);\n"
                   "  auto l = t->Listen(addr);\n"
                   "  c.Reconnect(open, &attempt);\n"
                   "  Disconnect(conn);\n"
                   "}\n")
        self.assertEqual(self.rules(), [])

    def test_socket_in_comment_or_string_ignored(self):
        self.write("src/consentdb/core/a.cc",
                   "// connect(fd, ...) would bypass the Transport seam\n"
                   'const char* s = "socket(AF_INET)";\n')
        self.assertEqual(self.rules(), [])

    def test_allowlist_suppresses(self):
        self.write("tests/a.cc",
                   "void f(int fd) {\n"
                   "  // lint:allow raw-socket\n"
                   "  send(fd, buf, n, 0);\n"
                   "}\n")
        self.assertEqual(self.rules(), [])


class ObsNameLiteralTest(LintHarness):
    def test_flags_uppercase_counter_name(self):
        self.write("src/consentdb/core/a.cc",
                   'void f(obs::MetricsRegistry* m) {\n'
                   '  m->GetCounter("Cache.PlanHit")->Increment();\n'
                   '}\n')
        self.assertEqual(self.rules(), ["obs-name-literal"])

    def test_flags_space_in_span_name(self):
        self.write("src/consentdb/core/a.cc",
                   'void f(obs::SpanCollector* c) {\n'
                   '  obs::Span span(c, "session run");\n'
                   '}\n')
        self.assertEqual(self.rules(), ["obs-name-literal"])

    def test_flags_record_event_literal(self):
        self.write("src/consentdb/core/a.cc",
                   'void f(obs::FlightRecorder* fr) {\n'
                   '  fr->RecordEvent("CrashInjected!");\n'
                   '}\n')
        self.assertEqual(self.rules(), ["obs-name-literal"])

    def test_valid_dotted_names_ok(self):
        self.write("src/consentdb/core/a.cc",
                   'void f(obs::MetricsRegistry* m, obs::SpanCollector* c) {\n'
                   '  m->GetCounter("cache.plan.hit")->Increment();\n'
                   '  obs::Increment(m, "engine.sessions");\n'
                   '  obs::Span span(c, "wal.append_2");\n'
                   '}\n')
        self.assertEqual(self.rules(), [])

    def test_names_registry_is_exempt(self):
        self.write("src/consentdb/obs/names.h",
                   'inline constexpr char kOdd[] = "Not A Name";\n')
        self.assertEqual(self.rules(), [])

    def test_non_obs_calls_ignored(self):
        # String args to unrelated calls are none of this rule's business.
        self.write("src/consentdb/core/a.cc",
                   'void f(std::string s) {\n'
                   '  auto i = s.find("Upper Case Stuff");\n'
                   '  SpanRecord rec("Whatever");\n'
                   '}\n')
        self.assertEqual(self.rules(), [])

    def test_name_in_comment_ignored(self):
        self.write("src/consentdb/core/a.cc",
                   '// e.g. GetCounter("Bad Name") would be rejected\n'
                   'int f();\n')
        self.assertEqual(self.rules(), [])

    def test_allowlist_suppresses(self):
        self.write("tests/a.cc",
                   'void f(obs::MetricsRegistry* m) {\n'
                   '  // lint:allow obs-name-literal\n'
                   '  m->GetCounter("query.class.SP")->value();\n'
                   '}\n')
        self.assertEqual(self.rules(), [])


class NestedVectorStrategyTest(LintHarness):
    def test_flags_member_in_strategy_layer(self):
        self.write("src/consentdb/strategy/a.h",
                   "class A {\n"
                   "  std::vector<std::vector<size_t>> var_to_terms_;\n"
                   "};\n")
        self.assertEqual(self.rules(), ["nested-vector-strategy"])
        self.assertEqual(self.findings()[0][2], 2)

    def test_tolerates_whitespace_between_tokens(self):
        self.write("src/consentdb/strategy/a.h",
                   "class A {\n"
                   "  std::vector< std::vector<double> > rows_;\n"
                   "};\n")
        self.assertEqual(self.rules(), ["nested-vector-strategy"])

    def test_flat_vector_ok(self):
        self.write("src/consentdb/strategy/a.h",
                   "class A {\n"
                   "  std::vector<uint32_t> vt_off_;\n"
                   "  std::vector<uint32_t> vt_tid_;\n"
                   "};\n")
        self.assertEqual(self.rules(), [])

    def test_other_layers_unaffected(self):
        # Only the strategy hot path is columnar by decree; e.g. the
        # relational layer may still nest.
        self.write("src/consentdb/relational/a.h",
                   "struct Rows {\n"
                   "  std::vector<std::vector<Value>> cells;\n"
                   "};\n")
        self.write("tests/legacy_a.h",
                   "class L {\n"
                   "  std::vector<std::vector<size_t>> var_to_terms_;\n"
                   "};\n")
        self.assertEqual(self.rules(), [])

    def test_mention_in_comment_ignored(self):
        self.write("src/consentdb/strategy/a.h",
                   "// replaced std::vector<std::vector<size_t>> with CSR\n"
                   "class A {};\n")
        self.assertEqual(self.rules(), [])

    def test_allowlist_suppresses(self):
        self.write("src/consentdb/strategy/a.h",
                   "class A {\n"
                   "  // lint:allow nested-vector-strategy\n"
                   "  std::vector<std::vector<size_t>> scratch_;\n"
                   "};\n")
        self.assertEqual(self.rules(), [])


class AllowlistScopingTest(LintHarness):
    def test_allow_is_per_rule(self):
        # An allow for one rule must not silence a different rule on the
        # same line.
        self.write("src/consentdb/a.cc",
                   'void f() {\n'
                   '  std::cout << (new int(1));  // lint:allow raw-cout\n'
                   '}\n')
        self.assertEqual(self.rules(), ["naked-new"])

    def test_comma_separated_allows(self):
        self.write("src/consentdb/a.cc",
                   'void f() {\n'
                   '  std::cout << (new int(1));  // lint:allow raw-cout,naked-new\n'
                   '}\n')
        self.assertEqual(self.rules(), [])


class CliTest(LintHarness):
    def test_exit_codes(self):
        self.write("src/consentdb/clean.cc", "int f() { return 1; }\n")
        self.assertEqual(lint.main(["lint", str(self.root)]), 0)
        self.write("src/consentdb/bad.cc", "int* f() { return new int; }\n")
        self.assertEqual(lint.main(["lint", str(self.root)]), 1)
        self.assertEqual(lint.main(["lint", str(self.root / "missing")]), 2)

    def test_list_rules(self):
        self.assertEqual(lint.main(["lint", "--list-rules"]), 0)

    def test_json_format(self):
        import contextlib
        import io
        import json
        self.write("src/consentdb/bad.cc", "int* f() { return new int; }\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = lint.main(["lint", str(self.root), "--format=json"])
        self.assertEqual(rc, 1)
        [finding] = json.loads(out.getvalue())
        self.assertEqual(sorted(finding), ["line", "message", "path", "rule"])
        self.assertEqual(finding["rule"], "naked-new")
        self.assertEqual(finding["line"], 1)

    def test_unknown_format_is_usage_error(self):
        self.assertEqual(lint.main(["lint", "--format=xml"]), 2)


if __name__ == "__main__":
    unittest.main()
