#include "trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>

#include <unistd.h>

namespace layerbench {

namespace {

constexpr const char* kLayerNames[] = {
    "op",
    "transport.publish",
    "transport.subscribe_receive",
    "transport.ndr_send",
    "transport.ndr_receive",
    "transport.format_fetch",
    "transport.format_push",
    "pbio.encode",
    "pbio.decode",
    "pbio.first_decode",
    "core.gateway_convert",
    "core.register_schema",
    "http.get",
    "http.put_document",
    "xml.parse",
    "schema.read",
    "analysis.audit",
    "pbio.synthesize",
    "bench.verify",
};
static_assert(sizeof(kLayerNames) / sizeof(kLayerNames[0]) ==
              static_cast<std::size_t>(Layer::kCount));

struct ThreadSpans {
  std::uint16_t index = 0;
  std::uint32_t next_id = 0;
  std::vector<std::uint32_t> stack;
  std::vector<SpanRec> spans;
};

std::mutex g_threads_mutex;
// Owned here, not by the thread, so spans outlive the threads that made them.
std::vector<std::unique_ptr<ThreadSpans>> g_threads;

ThreadSpans& local() {
  thread_local ThreadSpans* mine = [] {
    std::lock_guard lock(g_threads_mutex);
    auto t = std::make_unique<ThreadSpans>();
    t->index = static_cast<std::uint16_t>(g_threads.size() + 1);
    t->spans.reserve(1 << 14);
    g_threads.push_back(std::move(t));
    return g_threads.back().get();
  }();
  return *mine;
}

// Allocation counter, striped per thread so the hook stays off shared lines.
struct alignas(64) AllocShard {
  std::atomic<std::uint64_t> n{0};
};
AllocShard g_alloc_shards[16];
std::atomic<unsigned> g_alloc_next{0};

inline void count_allocation() noexcept {
  thread_local unsigned slot =
      g_alloc_next.fetch_add(1, std::memory_order_relaxed) & 15u;
  g_alloc_shards[slot].n.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

std::uint32_t Tracer::open(std::uint32_t* parent_out) noexcept {
  ThreadSpans& t = local();
  *parent_out = t.stack.empty() ? kNoParent : t.stack.back();
  // 8 bits of thread index, 24 of per-thread sequence; never 0.
  const std::uint32_t id =
      (static_cast<std::uint32_t>(t.index) << 24) | (++t.next_id & 0xFFFFFFu);
  t.stack.push_back(id);
  return id;
}

void Tracer::close(const SpanRec& rec) noexcept {
  ThreadSpans& t = local();
  if (!t.stack.empty()) t.stack.pop_back();
  SpanRec r = rec;
  r.thread = t.index;
  t.spans.push_back(r);
}

void record_root(std::uint64_t op, std::uint64_t start, std::uint64_t end) {
  if (!Tracer::enabled() || !Tracer::sampled(op)) return;
  ThreadSpans& t = local();
  const std::uint32_t id =
      (static_cast<std::uint32_t>(t.index) << 24) | (++t.next_id & 0xFFFFFFu);
  t.spans.push_back(SpanRec{op, start, end, 0, id, kNoParent, Layer::kOp,
                            t.index});
}

std::vector<SpanRec> Tracer::collect() {
  std::lock_guard lock(g_threads_mutex);
  std::vector<SpanRec> all;
  for (const auto& t : g_threads) {
    all.insert(all.end(), t->spans.begin(), t->spans.end());
  }
  return all;
}

bool write_jsonl(const std::string& path, const std::vector<SpanRec>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRec& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"op\":%llu,\"id\":%u,\"parent\":%u,"
                 "\"thread\":%u,\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"cpu_ns\":%llu}\n",
                 layer_name(s.layer), static_cast<unsigned long long>(s.op),
                 s.id, s.parent, static_cast<unsigned>(s.thread),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end),
                 static_cast<unsigned long long>(s.cpu));
  }
  return std::fclose(f) == 0;
}

std::uint64_t process_cpu_ns() noexcept {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// VmHWM, not getrusage's ru_maxrss: the latter carries over the peak of the
// process that exec'd this one (here, the Python runner).
std::uint64_t peak_rss_bytes() noexcept {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib * 1024u;
}

std::uint64_t host_steal_ns() noexcept {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n < 8) return 0;
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? v[7] * (1000000000ull / static_cast<unsigned long long>(hz))
                : 0;
}

std::uint64_t allocations() noexcept {
  std::uint64_t total = 0;
  for (const AllocShard& s : g_alloc_shards) {
    total += s.n.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace layerbench

// Counting hook for every heap allocation the process makes, library and
// benchmark alike. The count is read as a delta over a measured phase.
void* operator new(std::size_t n) {
  layerbench::count_allocation();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  layerbench::count_allocation();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
