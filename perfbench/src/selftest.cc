// Self-test of the benchmark's own arithmetic: the percentile rule, the
// median and the mean of medians, span nesting, self time per request and
// per set-up, root coverage, and the host-speed scaling.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "hostspeed.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  // 1000 samples: p99 is the highest with 10 samples beyond (p99.9 has 1).
  Tail t = HighestSupported(OneTo(1000));
  Expect(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10,
         "1000 samples -> p99 = 990 with 10 beyond");
  // 999 samples: p99 would leave 9 beyond, so p95.
  t = HighestSupported(OneTo(999));
  Expect(t.percentile == 95.0 && t.beyond == 49, "999 samples -> p95");
  // 10000 samples support p99.9.
  t = HighestSupported(OneTo(10000));
  Expect(t.percentile == 99.9 && t.value == 9990.0 && t.beyond == 10,
         "10000 samples -> p99.9");
  // 20 samples: only the median has 10 beyond.
  t = HighestSupported(OneTo(20));
  Expect(t.percentile == 50.0 && t.value == 10.0 && t.beyond == 10,
         "20 samples -> p50");
  // Fewer than 20: no percentile is supported; the maximum is reported.
  t = HighestSupported(OneTo(5));
  Expect(t.percentile == 100.0 && t.value == 5.0 && t.beyond == 0,
         "5 samples -> maximum");
  t = HighestSupported({});
  Expect(t.samples == 0 && t.value == 0.0, "no samples -> 0");
}

void TestMedian() {
  Expect(Median({3, 1, 2}) == 2.0, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median");
  Expect(Median({}) == 0.0, "empty median");
}

Span Make(const char* name, Layer layer, int64_t start, int64_t end,
          int32_t parent) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  // root [0,100] with children [10,40] and [30,60] (overlapping), the first
  // of which has a child [15,20]; a second child [90,120] runs past the
  // root's end and is clipped to it.
  const std::vector<Span> spans = {
      Make("root", Layer::kBench, 0, 100, -1),
      Make("a", Layer::kCore, 10, 40, 0),
      Make("b", Layer::kStorage, 30, 60, 0),
      Make("a1", Layer::kQuery, 15, 20, 1),
      Make("c", Layer::kNet, 90, 120, 0),
  };
  const std::vector<double> self = SelfSeconds(spans);
  // Root: 100 - |[10,60] u [90,100]| = 100 - 60 = 40.
  Expect(Near(self[0], 40e-9), "root self time excludes the children's union");
  Expect(Near(self[1], 25e-9), "child self time excludes its own child");
  Expect(Near(self[2], 30e-9), "leaf self time is its duration");
  Expect(Near(self[3], 5e-9), "grandchild self time");
  Expect(Near(self[4], 30e-9), "a child is not clipped in its own self time");

  // Layer totals and root coverage. A "setup" root counts towards set-up
  // self time only, a "probe" root towards nothing, and a second request
  // halves the per-request figures.
  std::vector<Span> mixed = spans;
  mixed.push_back(Make("setup", Layer::kBench, 200, 300, -1));    // 5
  mixed.push_back(Make("gen", Layer::kCareweb, 200, 250, 5));
  mixed.push_back(Make("probe", Layer::kBench, 300, 400, -1));    // 7
  mixed.push_back(Make("q", Layer::kQuery, 300, 390, 7));
  mixed.push_back(Make("root2", Layer::kBench, 400, 500, -1));    // 9
  mixed.push_back(Make("a", Layer::kCore, 400, 475, 9));
  Attribution a;
  AddAttribution(mixed, &a);
  const int bench = static_cast<int>(Layer::kBench);
  const int core = static_cast<int>(Layer::kCore);
  Expect(a.requests == 2 && a.setups == 1, "two requests and one set-up");
  Expect(Near(a.root_seconds, 200e-9) && Near(a.covered_seconds, 135e-9) &&
             Near(a.Coverage(), 0.675),
         "coverage: 60 + 75 of the 200 ns of request roots covered");
  Expect(Near(a.request_self_seconds[bench], 65e-9) &&
             Near(a.PerRequest(bench), 32.5e-9),
         "bench self time per request: (40 + 25) / 2");
  Expect(Near(a.PerRequest(core), 50e-9),
         "core self time per request: (25 + 75) / 2");
  Expect(Near(a.PerSetup(bench), 50e-9) &&
             Near(a.PerSetup(static_cast<int>(Layer::kCareweb)), 50e-9) &&
             Near(a.request_self_seconds[static_cast<int>(Layer::kCareweb)],
                  0.0),
         "set-up self time stays out of the per-request figures");
  Expect(Near(a.request_self_seconds[static_cast<int>(Layer::kQuery)], 5e-9) &&
             Near(a.setup_self_seconds[static_cast<int>(Layer::kQuery)], 0.0),
         "a probe counts nowhere: query self time is a1's 5 ns only");
  Attribution none;
  Expect(none.PerRequest(core) == 0.0 && none.PerSetup(core) == 0.0 &&
             none.Coverage() == 0.0,
         "no spans -> 0");
}

void TestMeanOfMedians() {
  // Medians 2, 10 and 30 (the empty group is skipped): mean 14, whatever
  // the group sizes.
  Expect(Near(MeanOfMedians({{1, 2, 3}, {10}, {}, {40, 20, 30, 31, 29}}), 14.0),
         "mean of the groups' medians");
  Expect(MeanOfMedians({}) == 0.0 && MeanOfMedians({{}, {}}) == 0.0,
         "no samples -> 0");
}

void TestBufferAndAttribution() {
  SpanBuffer off(false, Clock::now(), 0);
  Expect(off.Begin("x", Layer::kCore) == -1 && off.spans().empty(),
         "a disabled buffer records nothing");

  SpanBuffer buffer(true, Clock::now(), 0);
  {
    ScopedSpan root(&buffer, "page", Layer::kBench);
    ScopedSpan child(&buffer, "net.explain", Layer::kNet);
  }
  {
    ScopedSpan root(&buffer, "setup", Layer::kBench);
  }
  const std::vector<Span>& spans = buffer.spans();
  Expect(spans.size() == 3, "three spans recorded");
  Expect(spans[0].parent == -1 && spans[1].parent == 0 &&
             spans[2].parent == -1,
         "parents follow nesting");
  Expect(spans[0].request == spans[1].request &&
             spans[2].request != spans[0].request,
         "children share their root's request id; roots get new ones");
  Expect(spans[1].start_ns >= spans[0].start_ns &&
             spans[1].end_ns <= spans[0].end_ns,
         "a child lies inside its parent");

  const Attribution a = Attribute({&buffer});
  Expect(a.covered_seconds <= a.root_seconds &&
             Near(a.request_self_seconds[static_cast<int>(Layer::kNet)],
                  a.covered_seconds),
         "a recorded page is covered exactly by its net span");
}

void TestHostSpeed() {
  HostSpeed host;
  Expect(host.Factor() == 1.0, "no samples -> factor 1");
  host.Between();
  const std::vector<double> first = host.samples_ms();
  Expect(first.size() >= 64, "the first Between() fills the window");
  double kernel_ms = 0.0;
  for (double ms : first) kernel_ms += ms;
  Expect(kernel_ms > 0.0, "samples take time");
  const double factor = host.Factor();
  Expect(Near(factor, HostSpeed::kReferenceKernelMs /
                          Median(std::vector<double>(first.end() - 64,
                                                     first.end()))),
         "factor = reference over the median of the last 64 samples");
  // An operation 19 times as long as the samples so far: the next call
  // samples until the kernel has taken a tenth of the run again.
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 19.0 * kernel_ms / 1e3) {
  }
  const double scaled = host.Scaled(7.0);
  double total_ms = 0.0;
  for (double ms : host.samples_ms()) total_ms += ms;
  Expect(host.samples_ms().size() > first.size() && total_ms >= 1.9 * kernel_ms,
         "Between() keeps the samples at a tenth of the run");
  Expect(Near(scaled, 7.0 * host.Factor()), "Scaled(ms) = ms * Factor()");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestMedian();
  perfbench::TestSelfTime();
  perfbench::TestMeanOfMedians();
  perfbench::TestBufferAndAttribution();
  perfbench::TestHostSpeed();
  if (perfbench::failures > 0) {
    std::printf("%d self-test failure(s)\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
