#!/usr/bin/env python3
"""Self-test for check_invariants.py.

Builds throwaway repo trees (a src/ with seeded violations or with the
allowed idioms) and asserts the linter's exit status and reported rules.
This is the fixture the CI lint job relies on: a lint that silently stopped
matching would pass every repo, so the test seeds one violation per rule
and demands a nonzero exit.
"""

import os
import subprocess
import sys
import tempfile
import unittest

LINT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_invariants.py")


def run_lint(root):
    return subprocess.run(
        [sys.executable, LINT, "--root", root],
        capture_output=True, text=True)


class LintFixture(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        os.makedirs(os.path.join(self.root, "src"))

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)

    def assert_clean(self, result):
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def assert_flags(self, result, rule):
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn(f"[{rule}]", result.stdout)


class EmptyTree(LintFixture):
    def test_clean_tree_exits_zero(self):
        self.assert_clean(run_lint(self.root))

    def test_missing_src_is_usage_error(self):
        with tempfile.TemporaryDirectory() as empty:
            self.assertEqual(run_lint(empty).returncode, 2)


class UnorderedIteration(LintFixture):
    def test_range_for_over_unordered_is_flagged(self):
        self.write("src/a.cc", """
#include <unordered_set>
void Report(std::vector<int>* out) {
  std::unordered_set<int> seen;
  for (int v : seen) out->push_back(v);
}
""")
        self.assert_flags(run_lint(self.root), "unordered-iteration")

    def test_begin_call_is_flagged(self):
        self.write("src/a.cc", """
std::unordered_map<int, int> counts;
void Dump(std::vector<int>* out) {
  out->assign(counts.begin(), counts.end());
}
""")
        self.assert_flags(run_lint(self.root), "unordered-iteration")

    def test_sort_at_the_boundary_is_allowed(self):
        self.write("src/a.cc", """
#include <unordered_set>
void Report(std::vector<int>* out) {
  std::unordered_set<int> seen;
  out->assign(seen.begin(), seen.end());
  std::sort(out->begin(), out->end());
}
""")
        self.assert_clean(run_lint(self.root))

    def test_ordered_annotation_is_allowed(self):
        self.write("src/a.cc", """
#include <unordered_map>
double Sum() {
  std::unordered_map<int, int> counts;
  double total = 0;
  // lint:ordered integer accumulation is order-insensitive
  for (const auto& [k, v] : counts) total += v;
  return total;
}
""")
        self.assert_clean(run_lint(self.root))

    def test_membership_lookup_is_not_flagged(self):
        self.write("src/a.cc", """
#include <unordered_set>
bool Has(const std::unordered_set<int>& seen, int v) {
  return seen.count(v) > 0;
}
""")
        self.assert_clean(run_lint(self.root))


class OracleTree(LintFixture):
    """The boxed reference engine under tests/oracle/ is linted like src/;
    the rest of tests/ is not."""

    ITERATION = """
#include <unordered_set>
void Report(std::vector<int>* out) {
  std::unordered_set<int> seen;
  for (int v : seen) out->push_back(v);
}
"""

    def test_oracle_violation_is_flagged(self):
        self.write("tests/oracle/boxed_executor.cc", self.ITERATION)
        result = run_lint(self.root)
        self.assert_flags(result, "unordered-iteration")
        self.assertIn("tests/oracle/boxed_executor.cc", result.stdout)

    def test_other_test_sources_are_not_linted(self):
        self.write("tests/some_test.cc", self.ITERATION)
        self.assert_clean(run_lint(self.root))


class UnseededRng(LintFixture):
    def test_random_device_is_flagged(self):
        self.write("src/a.cc", "std::random_device rd;\n")
        self.assert_flags(run_lint(self.root), "unseeded-rng")

    def test_default_mt19937_is_flagged(self):
        self.write("src/a.cc", "std::mt19937 gen;\n")
        self.assert_flags(run_lint(self.root), "unseeded-rng")

    def test_bare_rand_is_flagged(self):
        self.write("src/a.cc", "int r = rand();\n")
        self.assert_flags(run_lint(self.root), "unseeded-rng")

    def test_seeded_mt19937_is_allowed(self):
        self.write("src/a.cc", "std::mt19937 gen(42);\n")
        self.assert_clean(run_lint(self.root))

    def test_rng_annotation_is_allowed(self):
        self.write("src/a.cc",
                   "std::random_device rd;  // lint:rng entropy for salt\n")
        self.assert_clean(run_lint(self.root))


class WallClock(LintFixture):
    def test_system_clock_now_is_flagged(self):
        self.write("src/a.cc",
                   "auto t = std::chrono::system_clock::now();\n")
        self.assert_flags(run_lint(self.root), "wall-clock")

    def test_time_null_is_flagged(self):
        self.write("src/a.cc", "time_t t = time(NULL);\n")
        self.assert_flags(run_lint(self.root), "wall-clock")

    def test_steady_clock_is_allowed(self):
        self.write("src/a.cc",
                   "auto t = std::chrono::steady_clock::now();\n")
        self.assert_clean(run_lint(self.root))

    def test_wall_clock_annotation_is_allowed(self):
        self.write("src/a.cc",
                   "// lint:wall-clock log line only\n"
                   "auto t = std::chrono::system_clock::now();\n")
        self.assert_clean(run_lint(self.root))


class RawIo(LintFixture):
    def test_ofstream_in_storage_is_flagged(self):
        self.write("src/storage/snapshot.cc", """
#include <fstream>
void Dump(const std::string& path) {
  std::ofstream out(path);
}
""")
        self.assert_flags(run_lint(self.root), "raw-io")

    def test_fopen_in_storage_is_flagged(self):
        self.write("src/storage/snapshot.cc",
                   'std::FILE* f = std::fopen(path.c_str(), "wb");\n')
        self.assert_flags(run_lint(self.root), "raw-io")

    def test_streams_outside_storage_are_allowed(self):
        self.write("src/report/writer.cc", """
#include <fstream>
void Dump(const std::string& path) {
  std::ofstream out(path);
}
""")
        self.assert_clean(run_lint(self.root))

    def test_line_annotation_is_allowed(self):
        self.write("src/storage/snapshot.cc",
                   "// lint:raw-io debug-only dump, not in the commit path\n"
                   "std::ofstream out(path);\n")
        self.assert_clean(run_lint(self.root))

    def test_file_level_annotation_exempts_whole_file(self):
        self.write("src/storage/io_impl.cc", """\
// lint:raw-io (this file IS the seam: every raw write lives here)
#include <cstdio>
std::FILE* Open(const char* path) {
  return std::fopen(path, "ab");
}
std::ofstream MakeStream(const std::string& p) { return std::ofstream(p); }
""")
        self.assert_clean(run_lint(self.root))

    def test_env_seam_usage_is_not_flagged(self):
        self.write("src/storage/wal2.cc", """
#include "storage/io.h"
void Append(Env* env, const std::string& path) {
  auto file = env->NewWritableFile(path, /*truncate=*/false);
}
""")
        self.assert_clean(run_lint(self.root))


class RawNet(LintFixture):
    def test_raw_socket_call_is_flagged(self):
        self.write("src/core/sidechannel.cc", """
void Leak(int port) {
  int fd = ::socket(2, 1, 0);
  ::connect(fd, nullptr, 0);
}
""")
        self.assert_flags(run_lint(self.root), "raw-net")

    def test_socket_header_is_flagged(self):
        self.write("src/net/server2.cc", "#include <sys/socket.h>\n")
        self.assert_flags(run_lint(self.root), "raw-net")

    def test_recv_send_are_flagged(self):
        self.write("src/net/fastpath.cc", """
void Pump(int fd, char* buf) {
  ::recv(fd, buf, 1, 0);
  ::send(fd, buf, 1, 0);
}
""")
        self.assert_flags(run_lint(self.root), "raw-net")

    def test_wrappers_and_std_bind_are_not_flagged(self):
        # Member calls, the capitalized seam API and std::bind must stay
        # out of scope: only global-namespace POSIX calls are the seam's.
        self.write("src/net/user.cc", """
#include <functional>
#include "net/socket.h"
void Use(NetEnv* net, Connection* conn) {
  auto c = net->Connect("h", 1);
  conn->ShutdownBoth();
  auto f = std::bind(&Use, net, conn);
}
""")
        self.assert_clean(run_lint(self.root))

    def test_line_annotation_is_allowed(self):
        self.write("src/net/probe.cc",
                   "// lint:raw-net startup self-check, not a data path\n"
                   "int fd = ::socket(2, 1, 0);\n")
        self.assert_clean(run_lint(self.root))

    def test_file_level_annotation_exempts_whole_file(self):
        self.write("src/net/socket_impl.cc", """\
// lint:raw-net (this file IS the transport seam)
#include <sys/socket.h>
int Open() { return ::socket(2, 1, 0); }
""")
        self.assert_clean(run_lint(self.root))


class ColumnPayload(LintFixture):
    def test_chunked_vector_outside_storage_is_flagged(self):
        self.write("src/query/gather.cc", """
#include "storage/chunk.h"
void Gather(const ChunkedVector<int64_t>& payload) {}
""")
        self.assert_flags(run_lint(self.root), "column-payload")

    def test_payload_member_outside_storage_is_flagged(self):
        self.write("src/query/hack.cc",
                   "const auto& raw = column->ints_;\n")
        self.assert_flags(run_lint(self.root), "column-payload")

    def test_column_data_call_outside_storage_is_flagged(self):
        self.write("src/query/scan.cc",
                   "const int64_t* base = column_ints.data();\n")
        self.assert_flags(run_lint(self.root), "column-payload")

    def test_chunked_vector_inside_storage_is_allowed(self):
        self.write("src/storage/column2.h",
                   "ChunkedVector<int64_t> ints_;\n")
        self.assert_clean(run_lint(self.root))

    def test_plain_vector_data_is_not_flagged(self):
        # .data() on a non-column vector (output buffers, string payloads)
        # stays legal outside storage/.
        self.write("src/query/buffer.cc",
                   "std::vector<Value> out;\n"
                   "Fill(out.data(), out.size());\n")
        self.assert_clean(run_lint(self.root))

    def test_chunk_constants_are_allowed_anywhere(self):
        self.write("src/core/shard.cc", """
#include "storage/chunk.h"
size_t Align(size_t n) { return n & ~kColumnChunkMask; }
""")
        self.assert_clean(run_lint(self.root))

    def test_span_accessor_is_allowed(self):
        self.write("src/query/probe.cc", """
void Probe(const Column& col, size_t n) {
  col.ForEachInt64Span(0, n, [](size_t row, const int64_t* data, size_t c) {
  });
}
""")
        self.assert_clean(run_lint(self.root))

    def test_column_data_annotation_is_allowed(self):
        self.write("src/query/scan.cc",
                   "// lint:column-data span pointer from ForEachInt64Span\n"
                   "Consume(column_span.data());\n")
        self.assert_clean(run_lint(self.root))


class TestTimeout(LintFixture):
    def test_add_test_without_timeout_is_flagged(self):
        self.write("tests/CMakeLists.txt",
                   "add_test(NAME foo_test COMMAND foo_test)\n")
        self.assert_flags(run_lint(self.root), "test-timeout")

    def test_add_test_with_timeout_is_allowed(self):
        self.write("tests/CMakeLists.txt", """
add_test(NAME foo_test COMMAND foo_test)
set_tests_properties(foo_test PROPERTIES TIMEOUT 120)
""")
        self.assert_clean(run_lint(self.root))

    def test_foreach_variable_token_matches(self):
        self.write("tests/CMakeLists.txt", """
foreach(suite IN LISTS SUITES)
  add_test(NAME ${suite} COMMAND ${suite})
  set_tests_properties(${suite} PROPERTIES TIMEOUT 120)
endforeach()
""")
        self.assert_clean(run_lint(self.root))

    def test_properties_without_timeout_is_flagged(self):
        self.write("tests/CMakeLists.txt", """
add_test(NAME foo_test COMMAND foo_test)
set_tests_properties(foo_test PROPERTIES LABELS slow)
""")
        self.assert_flags(run_lint(self.root), "test-timeout")


if __name__ == "__main__":
    unittest.main()
