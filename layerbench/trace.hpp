// Benchmark-side span tracing and process counters.
//
// Spans are recorded only from the benchmark's own files, around each call
// it makes into a module of the library. Each span carries a layer name,
// start and end (steady clock), the calling thread's CPU time over the call
// (CLOCK_THREAD_CPUTIME_ID), its parent on the same thread and the id of
// the operation it belongs to. Spans stay in per-thread memory while the
// run lasts and are written as JSONL and summarized once it ends.
#pragma once

#include <time.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace layerbench {

/// Every boundary the benchmark records. kOp is an operation's root span.
enum class Layer : std::uint16_t {
  kOp,
  kPublish,           // transport::RemotePublisher::publish
  kSubscribeReceive,  // transport::RemoteSubscription::receive
  kNdrSend,           // transport::NdrConnection::send
  kNdrReceive,        // transport::NdrConnection::receive
  kFormatFetch,       // transport::FormatServiceClient::fetch
  kFormatPush,        // transport::FormatServiceClient::push
  kEncode,            // core::Marshaler::encode
  kDecode,            // pbio::Decoder::decode
  kFirstDecode,       // first decode in a fresh core::Context
  kGatewayConvert,    // core::Gateway::convert
  kRegisterSchema,    // core::Xml2Wire::register_schema
  kHttpGet,           // http::get
  kHttpPut,           // http::Server::put_document
  kXmlParse,          // xml::parse
  kSchemaRead,        // schema::read_schema
  kAudit,             // analysis::audit_schema + audit_schema_xml + enforce
  kSynthesize,        // pbio::synthesize_wire
  kVerify,            // the benchmark's own check of an op's outputs
  kCount,
};

const char* layer_name(Layer layer);

inline std::uint64_t now_ns() noexcept {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline std::uint64_t thread_cpu_ns() noexcept {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// User plus system CPU of the whole process, all threads.
std::uint64_t process_cpu_ns() noexcept;

/// Peak resident set size of the process, in bytes.
std::uint64_t peak_rss_bytes() noexcept;

/// CPU time the hypervisor has taken from this machine's vCPUs (all of
/// them, the "steal" column of /proc/stat), in ns; 0 where not reported.
std::uint64_t host_steal_ns() noexcept;

/// Heap allocations made by the process so far (operator new hook).
std::uint64_t allocations() noexcept;

inline constexpr std::uint64_t kNoOp = ~std::uint64_t{0};
inline constexpr std::uint32_t kNoParent = 0;

struct SpanRec {
  std::uint64_t op;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t cpu;
  std::uint32_t id;      // unique in the run, never 0
  std::uint32_t parent;  // enclosing span on the same thread, or 0
  Layer layer;
  std::uint16_t thread;
};

class Tracer {
 public:
  /// One operation in `kSampleEvery` is traced (by op id), which keeps
  /// span memory and overhead bounded on the fastest workloads.
  static constexpr std::uint64_t kSampleEvery = 4;

  static void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  static bool sampled(std::uint64_t op) noexcept {
    return op != kNoOp && op % kSampleEvery == 0;
  }

  /// Every span recorded so far, all threads (call once workers ended).
  static std::vector<SpanRec> collect();

  // Used by Span.
  static std::uint32_t open(std::uint32_t* parent_out) noexcept;
  static void close(const SpanRec& rec) noexcept;

 private:
  static std::atomic<bool> enabled_;
};

/// Thread CPU time is read (a system call here, unlike the wall clock) only
/// around the transport calls, whose CPU share the per-layer metrics report
/// and which wait on a peer; other spans record cpu 0.
inline bool wants_cpu(Layer l) noexcept {
  return l == Layer::kPublish || l == Layer::kSubscribeReceive ||
         l == Layer::kNdrSend || l == Layer::kNdrReceive;
}

/// RAII span around one library call. Inert unless tracing is on and the op
/// is sampled (kNoOp, for set-up work outside any op, never is).
class Span {
 public:
  Span(Layer layer, std::uint64_t op) noexcept : layer_(layer), op_(op) {
    if (!Tracer::enabled() || !Tracer::sampled(op)) return;
    live_ = true;
    id_ = Tracer::open(&parent_);
    start_ = now_ns();
    if (wants_cpu(layer_)) cpu0_ = thread_cpu_ns();
  }
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void finish() noexcept {
    if (!live_) return;
    live_ = false;
    const std::uint64_t cpu = wants_cpu(layer_) ? thread_cpu_ns() - cpu0_ : 0;
    const std::uint64_t end = now_ns();
    Tracer::close(SpanRec{op_, start_, end, cpu, id_, parent_, layer_, 0});
  }

 private:
  Layer layer_;
  std::uint64_t op_;
  bool live_ = false;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = kNoParent;
  std::uint64_t start_ = 0;
  std::uint64_t cpu0_ = 0;
};

/// Records a root span with explicit bounds (an op whose start happened on
/// another thread, e.g. a message's publish).
void record_root(std::uint64_t op, std::uint64_t start, std::uint64_t end);

/// Writes spans as JSON lines; returns false if the file cannot be opened.
bool write_jsonl(const std::string& path, const std::vector<SpanRec>& spans);

}  // namespace layerbench
