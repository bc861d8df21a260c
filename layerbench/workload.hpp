// The workload interface shared by the three benchmark workloads.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace.hpp"

namespace layerbench {

/// What one measured phase produced. Times are steady-clock ns.
///
/// The phase is cut into kWindows equal windows, and every end-to-end
/// figure is first taken per window, so a host stall moves the windows it
/// falls in, not the whole figure.
struct PhaseStats {
  static constexpr int kWindows = 25;

  // Latency samples kept per window. Past this, every other sample is
  // dropped and the keep-stride doubles, so the benchmark's own memory (and
  // with it the process's peak RSS) stops growing with the op count.
  static constexpr std::size_t kMaxSamples = 1 << 14;

  std::uint64_t start_ns = 0;
  std::uint64_t window_ns = 1;  // length of one window
  std::uint64_t attempted = 0;  // ops started
  std::uint64_t failed = 0;     // ops that threw
  // Completions and latencies by the window the op completed in; the last
  // slot holds ops that completed after the phase (a stream draining).
  std::array<std::vector<std::uint32_t>, kWindows + 1> latencies_ns;
  std::array<std::uint64_t, kWindows + 1> completions{};
  std::array<unsigned, kWindows + 1> stride_log2{};
  // Frames and framed bytes the benchmark handed to the transport (its own
  // model of each call: payload + 8 bytes of length and CRC per frame).
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  // Payload sizes of a sample of those frames, for the CRC-32 cost model.
  std::vector<std::uint32_t> frame_sizes;

  void begin(std::uint64_t now, double seconds) {
    start_ns = now;
    window_ns = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(seconds * 1e9) / kWindows);
    // Touch the sample storage up front, so it counts the same in every
    // run's peak RSS however many ops complete.
    for (auto& v : latencies_ns) {
      v.resize(kMaxSamples);
      v.clear();
    }
  }

  void complete(std::uint64_t end, std::uint64_t latency) {
    const std::size_t t =
        end >= start_ns
            ? std::min<std::uint64_t>((end - start_ns) / window_ns, kWindows)
            : kWindows;
    const std::uint64_t n = completions[t]++;
    std::vector<std::uint32_t>& v = latencies_ns[t];
    if (n & ((std::uint64_t{1} << stride_log2[t]) - 1)) return;
    if (v.size() == kMaxSamples) {
      for (std::size_t i = 0; i < kMaxSamples / 2; ++i) v[i] = v[2 * i];
      v.resize(kMaxSamples / 2);
      if (n & (std::uint64_t{1} << stride_log2[t]++)) return;
    }
    v.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(latency, UINT32_MAX)));
  }

  std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : completions) n += c;
    return n;
  }

  void sample_frame(std::uint64_t payload) {
    if (frame_sizes.size() < 4096) {
      frame_sizes.push_back(static_cast<std::uint32_t>(payload));
    }
  }

  /// Folds in another thread's share of the same phase.
  void merge(const PhaseStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    // Samples of threads with different keep-strides are pooled as they
    // are; they come from the same window, so the quantiles barely move.
    for (int w = 0; w <= kWindows; ++w) {
      completions[w] += o.completions[w];
      latencies_ns[w].insert(latencies_ns[w].end(), o.latencies_ns[w].begin(),
                             o.latencies_ns[w].end());
    }
    frames += o.frames;
    bytes += o.bytes;
    for (std::uint32_t f : o.frame_sizes) sample_frame(f);
  }
};

/// Collects verification failures from any thread; the first few messages
/// are kept for the report.
class Verdict {
 public:
  void fail(const std::string& what) {
    std::lock_guard lock(mutex_);
    if (messages_.size() < 8) messages_.push_back(what);
    ++count_;
  }
  std::uint64_t count() const {
    std::lock_guard lock(mutex_);
    return count_;
  }
  std::vector<std::string> messages() const {
    std::lock_guard lock(mutex_);
    return messages_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;
  std::uint64_t count_ = 0;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  // Load threads hold the workload's address.
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds servers, registers formats and synthesizes the input pool from
  /// `seed`; may run untimed warm-up ops.
  virtual void setup(std::uint64_t seed) = 0;

  /// Drives load for `seconds`, then stops its load threads and waits for
  /// in-flight ops to finish.
  virtual PhaseStats run(double seconds) = 0;

  /// Stops the servers. Checks that need quiescence run after this.
  virtual void teardown() = 0;

  /// Whether a span belongs to an op's blocking path: spans on the op's
  /// root thread always do; spans on other threads when this says so.
  virtual bool cross_thread_path(Layer layer) const = 0;

  /// Thread and connection counts, for the report.
  virtual std::string shape() const = 0;

  Verdict verdict;
};

std::unique_ptr<Workload> make_bulk_stream();
std::unique_ptr<Workload> make_gateway_rpc();
std::unique_ptr<Workload> make_subscriber_join();

/// splitmix64: the seed expander every generator here uses.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Framing the transport adds to every frame: u32 length + u32 CRC.
inline constexpr std::uint64_t kFrameOverhead = 8;

}  // namespace layerbench
