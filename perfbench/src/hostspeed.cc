#include "hostspeed.h"

#include <algorithm>

namespace perfbench {

namespace {

constexpr size_t kTableWords = size_t{1} << 21;  // 16 MiB
constexpr size_t kProbes = 100000;
constexpr size_t kKeys = 8192;

uint64_t NextRandom(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state;
}

}  // namespace

HostSpeed::HostSpeed() : table_(kTableWords), keys_(kKeys) {
  uint64_t state = 1;
  for (uint64_t& word : table_) word = NextRandom(&state);
  for (uint32_t& key : keys_) {
    key = static_cast<uint32_t>(NextRandom(&state) >> 32);
  }
  sorted_.reserve(kKeys);
  samples_ms_.reserve(1 << 16);
}

double HostSpeed::Sample() {
  const Clock::time_point start = Clock::now();
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  uint64_t sum = 0;
  const size_t mask = table_.size() - 1;
  for (size_t i = 0; i < kProbes; ++i) {
    sum += table_[(NextRandom(&state) >> 17) & mask];
  }
  sorted_.assign(keys_.begin(), keys_.end());
  std::sort(sorted_.begin(), sorted_.end());
  sum += sorted_[kKeys / 2];
  const double ms = MsSince(start);
  // Keeps the reads observable, so the compiler cannot drop them.
  sink_ += sum;
  return ms;
}

void HostSpeed::Between() {
  if (!started_) {
    first_ = Clock::now();
    started_ = true;
  }
  if (samples_ms_.size() >= kWindow &&
      kernel_s_ >= kDuty * SecondsSince(first_)) {
    return;
  }
  kernel_s_ += Sample() / 1e3;  // warm-up, not recorded
  for (size_t n = 0; n < kBlock || samples_ms_.size() < kWindow ||
                     kernel_s_ < kDuty * SecondsSince(first_);
       ++n) {
    const double ms = Sample();
    samples_ms_.push_back(ms);
    kernel_s_ += ms / 1e3;
  }
}

double HostSpeed::Factor() const {
  if (samples_ms_.empty()) return 1.0;
  const auto n = static_cast<std::ptrdiff_t>(
      std::min(kWindow, samples_ms_.size()));
  return kReferenceKernelMs /
         Median(std::vector<double>(samples_ms_.end() - n, samples_ms_.end()));
}

double HostSpeed::Scaled(double ms) {
  Between();
  return ms * Factor();
}

}  // namespace perfbench
