// Host speed: timings at one reference speed of the host.
//
// The benchmark runs on a few cores of a shared host, and the other
// tenants' load changes how fast the same instructions run. On a 4-vCPU KVM
// guest (Xeon, 105 MiB last-level cache shared with the host), random reads
// of a 16 MiB table took twice as long for two minutes and then returned to
// normal, while a sort that fits in the core's own cache slowed by a fifth;
// wall-clock medians of one workload's runs followed such swings by 25-50%
// from one run of the same code to the next.
//
// HostSpeed times a fixed kernel that calls nothing in the library (random
// reads of a 16 MiB table, then a sort of 8K keys: about 1 ms) between a
// workload's operations, and scales each operation's measured time by
//   kReferenceKernelMs / (median time of the latest kernel samples),
// which is the time the operation would have taken with the kernel running
// at its reference speed. The kernel does not change when the library does,
// so a change to the library moves the scaled time as much as the measured
// one, while a slower host moves both the operation and the kernel.

#ifndef PERFBENCH_HOSTSPEED_H_
#define PERFBENCH_HOSTSPEED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace.h"

namespace perfbench {

class HostSpeed {
 public:
  /// About the median time of one kernel sample on the 4-vCPU guest above
  /// (Release build), milliseconds. It only sets the unit: scaled times
  /// read close to wall-clock ones there.
  static constexpr double kReferenceKernelMs = 1.2;

  HostSpeed();

  /// When the samples have taken less than a tenth of the time since the
  /// first call, runs a warm-up pass and at least kBlock more samples,
  /// until they have and until kWindow have been recorded. Call only
  /// between operations, never inside a timed one.
  void Between();

  /// Reference milliseconds per measured millisecond: kReferenceKernelMs
  /// over the median of the last kWindow samples.
  double Factor() const;

  /// Between(), then `ms` times Factor(): an operation that just ended
  /// after `ms` measured milliseconds, at reference speed, judged by the
  /// samples taken before and after it.
  double Scaled(double ms);

  /// Every recorded sample's time, in the order taken.
  const std::vector<double>& samples_ms() const { return samples_ms_; }

 private:
  static constexpr size_t kWindow = 64;
  /// Samples run together, after one unrecorded warm-up pass. The kernel
  /// sweeps the caches, so for operations of a few milliseconds it runs
  /// before one in tens of them, not before every third; and its recorded
  /// samples find its own table in the cache whatever the workload left
  /// there, so that they follow the host, not the workload's footprint.
  static constexpr size_t kBlock = 16;
  /// Share of the run spent on samples.
  static constexpr double kDuty = 0.1;

  double Sample();

  std::vector<uint64_t> table_;
  std::vector<uint32_t> keys_;
  std::vector<uint32_t> sorted_;
  std::vector<double> samples_ms_;
  Clock::time_point first_;
  bool started_ = false;
  double kernel_s_ = 0.0;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOSTSPEED_H_
