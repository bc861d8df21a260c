// layerbench: one process that runs a workload over TCP loopback, checks
// every output and prints its metrics as one JSON object on the last line
// of standard output.
//
//   layerbench --workload <bulk_stream|gateway_rpc|subscriber_join>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>] [--t0-ns <steady-clock ns at launch>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs an untraced half and a traced half of the same length, and reports
// the per-layer metrics: span medians from the traced half, program counter
// deltas per op from the untraced half, and the tracing overhead between
// the two. Spans are written to <out-dir>/spans-<workload>-<seed>.jsonl and
// the blocking-path ledger to <out-dir>/ledger-<workload>-<seed>.json.
#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "overload/budget.hpp"
#include "trace.hpp"
#include "util/hash.hpp"
#include "workload.hpp"

namespace layerbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::uint64_t t0_ns = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--t0-ns") a.t0_ns = std::strtoull(v, nullptr, 10);
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Mean of the middle half: drops the lowest and the highest quarter. On
/// windows that switch between a fast and a slow mode it moves with the
/// share of each, where the median jumps from one mode to the other.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Counters read before and after a phase.
struct Counters {
  std::uint64_t frames_tx, bytes_tx, plan_compiles, allocs, cpu_ns;
  static Counters read() {
    auto& reg = omf::obs::MetricsRegistry::instance();
    return {reg.counter("transport.frames_tx").value(),
            reg.counter("transport.bytes_tx").value(),
            reg.counter("pbio.plan_cache.compiles").value(), allocations(),
            process_cpu_ns()};
  }
};

struct Phase {
  PhaseStats st;
  Counters before{}, after{};
  // Process CPU time and host steal at each window boundary (kWindows + 1
  // readings each).
  std::vector<std::uint64_t> cpu_at, steal_at;
  // The windows the end-to-end figures are taken from (quiet_windows).
  std::vector<int> quiet;

  std::uint64_t ops() const { return st.completed(); }
  double per_op(std::uint64_t a, std::uint64_t b) const {
    return ops() ? static_cast<double>(b - a) / static_cast<double>(ops()) : 0;
  }
  /// Completed ops per second in each of `windows`.
  std::vector<double> window_rates(const std::vector<int>& windows) const {
    std::vector<double> v;
    for (int w : windows) {
      v.push_back(static_cast<double>(st.completions[w]) * 1e9 /
                  static_cast<double>(st.window_ns));
    }
    return v;
  }
  /// Latency quantile q in each of `windows` (windows with too few ops for
  /// q are skipped).
  std::vector<double> window_quantiles(const std::vector<int>& windows,
                                       double q) const {
    std::vector<double> v;
    for (int w : windows) {
      const auto& l = st.latencies_ns[w];
      if (!l.empty() && static_cast<double>(l.size()) * (1 - q) >= 10) {
        v.push_back(quantile(l, q));
      }
    }
    return v;
  }
  /// Process CPU time per completed op in each of `windows`.
  std::vector<double> window_cpu_per_op(const std::vector<int>& windows) const {
    std::vector<double> v;
    for (int w : windows) {
      if (st.completions[w] > 0) {
        v.push_back(static_cast<double>(cpu_at[w + 1] - cpu_at[w]) /
                    static_cast<double>(st.completions[w]));
      }
    }
    return v;
  }
  /// Host steal in each window, quiet or not.
  std::vector<double> window_steal() const {
    std::vector<double> v;
    for (std::size_t w = 0; w + 1 < steal_at.size(); ++w) {
      v.push_back(static_cast<double>(steal_at[w + 1] - steal_at[w]));
    }
    return v;
  }
  double ops_per_s() const { return interquartile_mean(window_rates(quiet)); }
  /// Latency quantile over every completed op.
  double latency(double q) const {
    std::vector<std::uint32_t> all;
    for (const auto& v : st.latencies_ns) {
      all.insert(all.end(), v.begin(), v.end());
    }
    return quantile(std::move(all), q);
  }
};

/// Reads the counters once the transport's stop moving. A server thread
/// counts a frame just after writing it, so its peer can return before the
/// count lands; waiting until two reads 2 ms apart agree (at most 200 ms)
/// keeps such a frame from falling on the wrong side of a phase boundary.
Counters settled() {
  Counters c = Counters::read();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const Counters d = Counters::read();
    if (d.frames_tx == c.frames_tx && d.bytes_tx == c.bytes_tx) return d;
    c = d;
  }
  return c;
}

/// Reads the process CPU clock and the host's steal at the kWindows + 1
/// window boundaries of a phase of `seconds` that starts at t0 (the
/// workload's own start follows within microseconds).
void sample_boundaries(Phase& p, std::uint64_t t0, double seconds) {
  const double window_ns = seconds * 1e9 / PhaseStats::kWindows;
  for (int k = 0; k <= PhaseStats::kWindows; ++k) {
    const std::uint64_t t = t0 + static_cast<std::uint64_t>(k * window_ns);
    timespec ts{static_cast<time_t>(t / 1000000000ull),
                static_cast<long>(t % 1000000000ull)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
    p.cpu_at.push_back(process_cpu_ns());
    p.steal_at.push_back(host_steal_ns());
  }
}

/// The windows in which the hypervisor took least CPU from this machine:
/// every window whose steal is at most the kQuietWindows-th least, or at
/// most 1 % of the vCPUs' time, so that on a host that steals nothing every
/// window counts. The choice rests on the host alone, not on the program's
/// figures, so a slower program reads slower in any window.
constexpr std::size_t kQuietWindows = 8;

std::vector<int> quiet_windows(const Phase& p) {
  const std::vector<double> steal = p.window_steal();
  std::vector<int> quiet;
  if (steal.size() < kQuietWindows) {
    for (int w = 0; w < PhaseStats::kWindows; ++w) quiet.push_back(w);
    return quiet;
  }
  std::vector<double> sorted = steal;
  std::nth_element(sorted.begin(), sorted.begin() + (kQuietWindows - 1),
                   sorted.end());
  const double floor = 0.01 * static_cast<double>(p.st.window_ns) *
                       std::max(1u, std::thread::hardware_concurrency());
  const double limit = std::max(sorted[kQuietWindows - 1], floor);
  for (std::size_t w = 0; w < steal.size(); ++w) {
    if (steal[w] <= limit) quiet.push_back(static_cast<int>(w));
  }
  return quiet;
}

Phase measure(Workload& w, double seconds) {
  Phase p;
  p.before = settled();
  const std::uint64_t t0 = now_ns();
  std::thread sampler([&] { sample_boundaries(p, t0, seconds); });
  p.st = w.run(seconds);
  sampler.join();
  p.quiet = quiet_windows(p);
  p.after = settled();
  // Independent totals: what the benchmark handed to the transport must be
  // exactly what the transport counted.
  const std::uint64_t frames = p.after.frames_tx - p.before.frames_tx;
  const std::uint64_t bytes = p.after.bytes_tx - p.before.bytes_tx;
  if (frames != p.st.frames || bytes != p.st.bytes) {
    w.verdict.fail("transport counted " + std::to_string(frames) +
                   " frames / " + std::to_string(bytes) +
                   " bytes; the benchmark handed it " +
                   std::to_string(p.st.frames) + " / " +
                   std::to_string(p.st.bytes));
  }
  return p;
}

volatile std::uint32_t g_crc_sink;

/// CRC-32 cost of an op's frames: omf::crc32 timed over the sampled frame
/// sizes, two passes per frame (sender and receiver).
double crc32_ns_per_op(const Phase& p) {
  const std::vector<std::uint32_t>& sizes = p.st.frame_sizes;
  if (sizes.empty() || p.ops() == 0) return 0;
  const std::uint32_t max = *std::max_element(sizes.begin(), sizes.end());
  std::vector<std::uint8_t> buf(max + 1);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(mix64(i));
  }
  // Each pass seeds the next, so neither can be elided.
  std::uint32_t crc = 0;
  std::uint64_t total = 0;
  for (std::uint32_t n : sizes) {
    const std::uint64_t t0 = now_ns();
    crc = omf::crc32(buf.data(), n, crc);
    crc = omf::crc32(buf.data(), n, crc);
    total += now_ns() - t0;
  }
  g_crc_sink = crc;
  const double frames_per_op =
      static_cast<double>(p.st.frames) / static_cast<double>(p.ops());
  return static_cast<double>(total) / static_cast<double>(sizes.size()) *
         frames_per_op;
}

bool waits_on_peer(Layer l) {
  return l == Layer::kSubscribeReceive || l == Layer::kNdrReceive;
}

/// Blocking-path ledger of the traced phase. For every traced op, the spans
/// on its path (the root's thread, plus the workload's cross-thread layers)
/// are clipped to the root span. A span that waits on a peer is busy only
/// for its last cpu_ns (the reads and checks after the data arrived); other
/// spans are busy throughout. Each instant of the op is charged to the
/// busy span that started last (the innermost), so self times never
/// overlap, and the instants no span is busy make the residual: kernel
/// loopback, wake-ups, scheduling, and work on threads without spans.
/// Self times plus residual equal the traced op time exactly.
struct Ledger {
  // Mean self time per traced op, by layer (0 for ops without the layer),
  // so the layers add up: their sum plus the mean residual is the mean op.
  std::map<std::string, double> mean_self_ns;
  double median_sum_self_ns = 0;  // median over ops of the op's self total
  double residual_ns = 0;         // median residual
  double traced_op_ns = 0;        // median traced op time
  std::uint64_t ops = 0;
};

Ledger build_ledger(const std::vector<SpanRec>& spans, const Workload& w) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRec*>> by_op;
  for (const SpanRec& s : spans) by_op[s.op].push_back(&s);
  std::map<Layer, double> self_total;
  std::vector<std::uint64_t> residuals, op_ns, sums;
  for (auto& [op, list] : by_op) {
    const SpanRec* root = nullptr;
    for (const SpanRec* s : list) {
      if (s->layer == Layer::kOp) root = s;
    }
    if (root == nullptr) continue;
    struct Busy {
      std::uint64_t a, b;
      Layer layer;
    };
    std::vector<Busy> path;
    std::vector<std::uint64_t> cuts = {root->start, root->end};
    for (const SpanRec* s : list) {
      if (s == root) continue;
      if (s->thread != root->thread && !w.cross_thread_path(s->layer)) continue;
      std::uint64_t a = s->start;
      if (waits_on_peer(s->layer) && s->end - s->start > s->cpu) {
        a = s->end - s->cpu;
      }
      a = std::max(a, root->start);
      const std::uint64_t b = std::min(s->end, root->end);
      if (b <= a) continue;
      path.push_back({a, b, s->layer});
      cuts.push_back(a);
      cuts.push_back(b);
    }
    std::sort(cuts.begin(), cuts.end());
    std::map<Layer, double> op_self;
    std::uint64_t uncovered = 0;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::uint64_t x = cuts[i], y = cuts[i + 1];
      if (x < root->start || y > root->end || y == x) continue;
      const Busy* inner = nullptr;
      for (const Busy& p : path) {
        if (p.a <= x && p.b >= y && (inner == nullptr || p.a >= inner->a)) {
          inner = &p;
        }
      }
      if (inner != nullptr) {
        op_self[inner->layer] += static_cast<double>(y - x);
      } else {
        uncovered += y - x;
      }
    }
    for (auto& [layer, v] : op_self) self_total[layer] += v;
    residuals.push_back(uncovered);
    op_ns.push_back(root->end - root->start);
    sums.push_back(root->end - root->start - uncovered);
  }
  Ledger l;
  for (auto& [layer, v] : self_total) {
    l.mean_self_ns[layer_name(layer)] =
        v / static_cast<double>(std::max<std::size_t>(1, op_ns.size()));
  }
  l.median_sum_self_ns = quantile(sums, 0.5);
  l.residual_ns = quantile(residuals, 0.5);
  l.traced_op_ns = quantile(op_ns, 0.5);
  l.ops = op_ns.size();
  return l;
}

std::string num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, const char*>>> rows;
  void add(const std::string& name, double v, const char* unit) {
    rows.push_back({name, {v, unit}});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + rows[i].first + "\": {\"value\": " +
             num(rows[i].second.first) + ", \"unit\": \"" +
             rows[i].second.second + "\"}";
    }
    return out + "}";
  }
};

void end_to_end(const Phase& p, double setup_s, std::uint64_t peak_rss,
                Metrics& m) {
  // A run too short to give a window enough ops falls back to the figure
  // over the whole run.
  auto over_quiet = [](const std::vector<double>& v, double whole) {
    return v.empty() ? whole : interquartile_mean(v);
  };
  m.add("setup_s", setup_s, "s");
  m.add("ops_per_s", p.ops_per_s(), "ops/s");
  m.add("latency_p50_us",
        over_quiet(p.window_quantiles(p.quiet, 0.50), p.latency(0.50)) / 1e3,
        "us");
  m.add("latency_p99_us",
        over_quiet(p.window_quantiles(p.quiet, 0.99), p.latency(0.99)) / 1e3,
        "us");
  m.add("cpu_us_per_op",
        over_quiet(p.window_cpu_per_op(p.quiet),
                   p.per_op(p.before.cpu_ns, p.after.cpu_ns)) /
            1e3,
        "us");
  m.add("peak_rss_mib", static_cast<double>(peak_rss) / 1048576.0, "MiB");
  // Every window's figures, for reading a noisy run's log.
  const std::vector<double> steal = p.window_steal();
  for (int w = 0; w < PhaseStats::kWindows; ++w) {
    const std::vector<int> one = {w};
    auto first = [](const std::vector<double>& v) {
      return v.empty() ? std::string("-") : num(std::round(v[0]));
    };
    std::fprintf(
        stderr,
        "layerbench: window %d: ops_per_s %s p50_ns %s p99_ns %s cpu_ns %s "
        "steal_ms %s%s\n",
        w, first(p.window_rates(one)).c_str(),
        first(p.window_quantiles(one, 0.50)).c_str(),
        first(p.window_quantiles(one, 0.99)).c_str(),
        first(p.window_cpu_per_op(one)).c_str(),
        w < static_cast<int>(steal.size()) ? num(steal[w] / 1e6).c_str() : "-",
        std::find(p.quiet.begin(), p.quiet.end(), w) != p.quiet.end()
            ? " quiet"
            : "");
  }
}

void per_layer(const Phase& plain, const Phase& traced,
               const std::vector<SpanRec>& spans, const Ledger& ledger,
               Metrics& m) {
  std::map<Layer, std::vector<double>> wall, cpu;
  for (const SpanRec& s : spans) {
    wall[s.layer].push_back(static_cast<double>(s.end - s.start));
    cpu[s.layer].push_back(static_cast<double>(s.cpu));
  }
  auto span_ns = [&](const char* name, Layer l) {
    m.add(name, median(wall[l]), "ns");
  };
  auto span_cpu_ns = [&](const char* name, Layer l) {
    m.add(name, median(cpu[l]), "ns");
  };
  span_ns("transport.publish_ns", Layer::kPublish);
  span_cpu_ns("transport.publish_cpu_ns", Layer::kPublish);
  span_ns("transport.subscribe_receive_ns", Layer::kSubscribeReceive);
  span_cpu_ns("transport.subscribe_receive_cpu_ns", Layer::kSubscribeReceive);
  span_ns("transport.ndr_send_ns", Layer::kNdrSend);
  span_cpu_ns("transport.ndr_send_cpu_ns", Layer::kNdrSend);
  span_ns("transport.ndr_receive_ns", Layer::kNdrReceive);
  span_cpu_ns("transport.ndr_receive_cpu_ns", Layer::kNdrReceive);
  span_ns("transport.format_fetch_ns", Layer::kFormatFetch);
  span_ns("transport.format_push_ns", Layer::kFormatPush);
  m.add("transport.frames_per_op",
        plain.per_op(plain.before.frames_tx, plain.after.frames_tx), "count");
  m.add("transport.bytes_per_op",
        plain.per_op(plain.before.bytes_tx, plain.after.bytes_tx), "bytes");
  m.add("util.crc32_ns_per_op", crc32_ns_per_op(plain), "ns");
  span_ns("pbio.encode_ns", Layer::kEncode);
  span_ns("pbio.decode_ns", Layer::kDecode);
  span_ns("pbio.first_decode_ns", Layer::kFirstDecode);
  m.add("pbio.plan_compiles_per_op",
        plain.per_op(plain.before.plan_compiles, plain.after.plan_compiles),
        "count");
  span_ns("core.gateway_convert_ns", Layer::kGatewayConvert);
  span_ns("core.register_schema_ns", Layer::kRegisterSchema);
  span_ns("http.get_ns", Layer::kHttpGet);
  span_ns("xml.parse_ns", Layer::kXmlParse);
  span_ns("schema.read_ns", Layer::kSchemaRead);
  span_ns("analysis.audit_ns", Layer::kAudit);
  m.add("process.allocs_per_op",
        plain.per_op(plain.before.allocs, plain.after.allocs), "count");
  m.add("overload.budget_peak_bytes",
        static_cast<double>(omf::overload::MemoryBudget::instance().peak()),
        "bytes");
  m.add("trace.residual_ns", ledger.residual_ns, "ns");
  const double base = plain.ops_per_s();
  m.add("trace.overhead_pct",
        base > 0 ? (base - traced.ops_per_s()) / base * 100.0 : 0, "%");
}

void write_ledger(const std::string& path, const Args& a, const Workload& w,
                  const Ledger& l, const Phase& plain, const Phase& traced) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::string layers;
  for (auto& [name, v] : l.mean_self_ns) {
    layers += (layers.empty() ? "" : ", ") + ("\"" + name + "\": " + num(v));
  }
  const double sum = l.median_sum_self_ns;
  const double untraced = plain.latency(0.5);
  // Little's law: ops in flight = latency x throughput. About 1 for a
  // closed loop with one client; far more for a stream that queues.
  const double period = 1e9 / std::max(1.0, plain.ops_per_s());
  std::fprintf(
      f,
      "{\"workload\": \"%s\", \"seed\": %llu, \"shape\": \"%s\",\n"
      " \"mean_self_ns_per_op\": {%s},\n"
      " \"median_sum_self_ns\": %s, \"residual_ns\": %s,"
      " \"traced_op_ns\": %s,\n"
      " \"untraced_op_ns\": %s, \"untraced_minus_sum_ns\": %s,\n"
      " \"traced_ops\": %llu, \"untraced_ops_per_s\": %s,"
      " \"traced_ops_per_s\": %s,\n"
      " \"tracing_inflation_ns\": %s, \"period_ns\": %s, \"in_flight\": %s,"
      " \"closes_within_25pct\": %s}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      w.shape().c_str(), layers.c_str(), num(sum).c_str(),
      num(l.residual_ns).c_str(), num(l.traced_op_ns).c_str(),
      num(untraced).c_str(), num(untraced - sum).c_str(),
      static_cast<unsigned long long>(l.ops), num(plain.ops_per_s()).c_str(),
      num(traced.ops_per_s()).c_str(), num(l.traced_op_ns - untraced).c_str(),
      num(period).c_str(), num(untraced / period).c_str(),
      std::abs(untraced - sum) <= 0.25 * untraced ? "true" : "false");
  std::fclose(f);
}

int run(const Args& a, std::uint64_t t0) {
  std::unique_ptr<Workload> w;
  if (a.workload == "bulk_stream") w = make_bulk_stream();
  else if (a.workload == "gateway_rpc") w = make_gateway_rpc();
  else if (a.workload == "subscriber_join") w = make_subscriber_join();
  if (!w) {
    std::fprintf(stderr, "layerbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  w->setup(a.seed);
  const double setup_s = static_cast<double>(now_ns() - t0) / 1e9;

  Metrics m;
  std::uint64_t attempted = 0, failed = 0;
  if (!a.trace) {
    Phase p = measure(*w, a.seconds);
    // Read before the statistics below allocate their scratch copies.
    const std::uint64_t peak_rss = peak_rss_bytes();
    w->teardown();
    attempted = p.st.attempted;
    failed = p.st.failed;
    end_to_end(p, setup_s, peak_rss, m);
  } else {
    Phase plain = measure(*w, a.seconds / 2);
    Tracer::set_enabled(true);
    Phase traced = measure(*w, a.seconds / 2);
    Tracer::set_enabled(false);
    w->teardown();
    attempted = plain.st.attempted + traced.st.attempted;
    failed = plain.st.failed + traced.st.failed;
    const std::vector<SpanRec> spans = Tracer::collect();
    const std::string stem = a.workload + "-" + std::to_string(a.seed);
    if (!write_jsonl(a.out_dir + "/spans-" + stem + ".jsonl", spans)) {
      std::fprintf(stderr, "layerbench: cannot write spans to %s\n",
                   a.out_dir.c_str());
    }
    const Ledger ledger = build_ledger(spans, *w);
    write_ledger(a.out_dir + "/ledger-" + stem + ".json", a, *w, ledger, plain,
                 traced);
    per_layer(plain, traced, spans, ledger, m);
  }

  for (const std::string& msg : w->verdict.messages()) {
    std::fprintf(stderr, "layerbench: check failed: %s\n", msg.c_str());
  }
  const bool correct = w->verdict.count() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) {
  const std::uint64_t main_ns = layerbench::now_ns();
  layerbench::Args args;
  if (!layerbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: layerbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out-dir <dir>] [--t0-ns <ns>]\n");
    return 2;
  }
  try {
    return layerbench::run(args, args.t0_ns != 0 ? args.t0_ns : main_ns);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layerbench: %s\n", e.what());
    return 1;
  }
}
