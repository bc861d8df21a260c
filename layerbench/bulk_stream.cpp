// bulk_stream: a bulk heterogeneous telemetry stream, closed by the
// publisher's in-flight window.
//
// One publisher thread replays a pool of 64 pre-built big-endian 64-bit
// (sparc64) wire messages of the Payload shape (tag, count, array of
// doubles), 24..40 KiB (mean 32 KiB) dealt to the slots by the seed, via a
// RemoteBackboneServer whose subscriber queues block when full (lossless)
// to two RemoteSubscriptions. Each subscriber decodes every message into
// native structs and checks every value against its closed form. Per-message
// transport cost and byte-swap conversion do the work; the metadata plane
// is idle.
//
// The publisher keeps at most kInFlight messages published but not yet
// checked by both subscribers. Without that window, TCP flow control
// closes the loop once the kernel's socket buffers fill, and how far the
// kernel has grown them (about 4 MB, 130-165 messages, varying from run to
// run) sets the latency: 10 ms in one run and 12.7 ms in the next at the
// same throughput. The window holds more than 5 ms of messages, because
// the server's publisher session sleeps 5 ms whenever its socket is empty.
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/xml2wire.hpp"
#include "obs/metrics.hpp"
#include "pbio/decode.hpp"
#include "pbio/record.hpp"
#include "pbio/synth.hpp"
#include "transport/backbone.hpp"
#include "transport/remote_backbone.hpp"
#include "workload.hpp"

namespace layerbench {
namespace {

using namespace omf;

struct Payload {
  char* tag;
  int count;
  double* values;
};

const char* kPayloadSchema = R"(<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Payload">
    <xsd:element name="tag" type="xsd:string" />
    <xsd:element name="count" type="xsd:int" />
    <xsd:element name="values" type="xsd:double" maxOccurs="count" />
  </xsd:complexType>
</xsd:schema>
)";

const std::string kChannel = "telemetry.bulk";
constexpr std::size_t kPool = 64;
constexpr int kSubscribers = 2;
constexpr std::size_t kQueueMessages = 8;
constexpr std::uint64_t kInFlight = 96;
constexpr std::size_t kRing = 1 << 14;  // far above kInFlight
// Stored into delivered_ by a subscriber that stops early, so the publisher
// never waits for a window that will not open.
constexpr std::uint64_t kAbandoned = ~std::uint64_t{0} / 2;
constexpr int kWarmupMessages = 64;
// Tag "seq:" + 10 decimal digits, rewritten in the wire bytes per send.
constexpr char kTagPrefix[] = "seq:";
constexpr std::size_t kTagDigits = 10;

/// The generator's closed form for value `i` of pool message `j`: exact in
/// a double, so a decode either reproduces it bit for bit or is wrong.
inline double expected_value(std::size_t j, std::size_t i) {
  return static_cast<double>(j) * 8192.0 + static_cast<double>(i) * 0.25;
}

void write_digits(std::uint8_t* at, std::uint64_t v) {
  for (std::size_t d = kTagDigits; d-- > 0;) {
    at[d] = static_cast<std::uint8_t>('0' + v % 10);
    v /= 10;
  }
}

// Wire layout of a sparc64 Payload message, worked out from the NDR rules
// (pbio/wire.hpp): a 16-byte big-endian header, the 24-byte struct (tag
// pointer, int count + 4 pad bytes, values pointer), then the variable
// section: the tag's bytes and NUL, padding to 8, the big-endian doubles.
// Pointer slots hold offsets from the start of the body.
constexpr std::size_t kHeader = 16;
constexpr std::size_t kStruct = 24;
// Where the tag's digits sit: the tag is the first thing after the struct.
constexpr std::size_t kTagDigitsAt = kHeader + kStruct + sizeof(kTagPrefix) - 1;

void put_be(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v,
            int bytes) {
  for (int i = bytes - 1; i >= 0; --i, v >>= 8) {
    b[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
  }
}

Buffer sparc64_wire(std::uint64_t format_id, const std::string& tag,
                    const std::vector<double>& values) {
  std::vector<std::uint8_t> b(kHeader + kStruct, 0);
  b[0] = 0xB1;  // magic
  b[1] = 1;     // version
  b[2] = 0x01;  // big-endian
  b[3] = kHeader;
  put_be(b, kHeader + 0, b.size() - kHeader, 8);  // tag offset
  b.insert(b.end(), tag.begin(), tag.end());
  b.push_back(0);
  put_be(b, kHeader + 8, values.size(), 4);
  while ((b.size() - kHeader) % 8 != 0) b.push_back(0);
  put_be(b, kHeader + 16, b.size() - kHeader, 8);  // values offset
  const std::size_t at = b.size();
  b.resize(at + 8 * values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &values[i], 8);
    put_be(b, at + 8 * i, bits, 8);
  }
  put_be(b, 4, b.size() - kHeader, 4);  // body length
  put_be(b, 8, format_id, 8);
  return Buffer(std::move(b));
}

class BulkStream final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    // Producer side: the sparc64 wire format and the pool of messages a
    // big-endian sender would have put on the wire. The pool is built by
    // the benchmark's own writer (sparc64_wire), which is first checked
    // byte for byte against the program's synthesize_wire on a small
    // message; the program then only ever sees the generated inputs.
    pbio::FormatRegistry producer;
    auto native = core::Xml2Wire(producer, arch::native())
                      .register_text(kPayloadSchema)
                      .at(0);
    auto sparc = core::Xml2Wire(producer, arch::sparc64())
                     .register_text(kPayloadSchema)
                     .at(0);
    std::string tag = kTagPrefix + std::string(kTagDigits, '0');
    {
      const std::vector<double> few = {1.5, -2.25, 1e300, 0.0};
      pbio::DynamicRecord rec(native);
      rec.set_string("tag", tag);
      rec.set_int("count", static_cast<std::int64_t>(few.size()));
      rec.set_float_array("values", few);
      Buffer theirs = pbio::synthesize_wire(*sparc, rec);
      Buffer ours = sparc64_wire(sparc->id(), tag, few);
      if (theirs.size() != ours.size() ||
          std::memcmp(theirs.data(), ours.data(), ours.size()) != 0) {
        throw Error("bulk_stream: the sparc64 writer disagrees with "
                    "pbio::synthesize_wire");
      }
    }
    // Sizes: 3072..5120 doubles (24..40 KiB, mean 32 KiB) in even steps,
    // dealt to the pool slots in a seeded order. The seed changes which
    // message has which size but not the total, so set-up and per-message
    // work do not depend on it.
    std::vector<std::size_t> order(kPool);
    for (std::size_t j = 0; j < kPool; ++j) order[j] = j;
    for (std::size_t j = kPool - 1; j > 0; --j) {
      std::swap(order[j], order[mix64(seed * 7919u + j) % (j + 1)]);
    }
    for (std::size_t j = 0; j < kPool; ++j) {
      const std::size_t count = 3072 + order[j] * 2048 / (kPool - 1);
      std::vector<double> values(count);
      for (std::size_t i = 0; i < count; ++i) values[i] = expected_value(j, i);
      pool_.push_back(sparc64_wire(sparc->id(), tag, values));
      counts_.push_back(count);
    }

    // Subscriber side: the same metadata, learned ahead of the stream.
    auto sub_sparc = core::Xml2Wire(sub_registry_, arch::sparc64())
                         .register_text(kPayloadSchema)
                         .at(0);
    if (sub_sparc->id() != sparc->id()) {
      throw Error("bulk_stream: producer and subscriber disagree on the id");
    }
    const std::vector<pbio::IOField> fields = {
        {"tag", "string", sizeof(char*), offsetof(Payload, tag)},
        {"count", "integer", sizeof(int), offsetof(Payload, count)},
        {"values", "float[count]", sizeof(double), offsetof(Payload, values)},
    };
    native_ = sub_registry_.register_format("Payload", fields, sizeof(Payload));

    transport::RemoteBackboneServer::Options opts;
    opts.queue.max_messages = kQueueMessages;
    opts.queue.policy = transport::OverflowPolicy::kBlock;
    server_ = std::make_unique<transport::RemoteBackboneServer>(backbone_,
                                                                opts);
    for (int s = 0; s < kSubscribers; ++s) {
      subs_.push_back(std::make_unique<transport::RemoteSubscription>(
          server_->port(), kChannel));
    }
    while (backbone_.subscriber_count(kChannel) < kSubscribers) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    publisher_ = std::make_unique<transport::RemotePublisher>(server_->port());

    run_messages(kWarmupMessages, 0);
  }

  PhaseStats run(double seconds) override {
    return run_messages(~std::uint64_t{0}, seconds);
  }

  void teardown() override {
    publisher_.reset();
    for (auto& s : subs_) s->close();
    if (server_) server_->stop();
    auto& reg = obs::MetricsRegistry::instance();
    const std::uint64_t published =
        reg.counter("transport.backbone.published").value();
    const std::uint64_t delivered =
        reg.counter("transport.backbone.delivered").value();
    if (delivered != published * kSubscribers || published != next_seq_) {
      verdict.fail("bulk_stream: backbone published " +
                   std::to_string(published) + " and delivered " +
                   std::to_string(delivered) + " for " +
                   std::to_string(next_seq_) + " messages sent");
    }
  }

  bool cross_thread_path(Layer layer) const override {
    return layer == Layer::kPublish;
  }

  std::string shape() const override {
    return "1 publisher thread + 2 subscriber threads, 3 connections; "
           "backbone server: acceptor, 1 publisher session, 2 subscriber "
           "workers";
  }

 private:
  /// Publishes until `limit` messages or `seconds`, whichever comes first
  /// (0 seconds: no time limit), and waits until both subscribers have
  /// verified every one of them.
  PhaseStats run_messages(std::uint64_t limit, double seconds) {
    PhaseStats st;
    st.begin(now_ns(), seconds);
    const std::uint64_t deadline =
        seconds > 0 ? st.start_ns + static_cast<std::uint64_t>(seconds * 1e9)
                    : ~std::uint64_t{0};
    const std::uint64_t first = next_seq_;
    std::atomic<std::uint64_t> end_seq{~std::uint64_t{0}};
    // Completions are recorded by whichever subscriber finishes a message
    // last, so each subscriber thread keeps its own share.
    std::vector<PhaseStats> done(kSubscribers);
    std::vector<std::uint64_t> received(kSubscribers, 0);
    std::vector<std::thread> threads;
    for (int s = 0; s < kSubscribers; ++s) {
      done[s].begin(st.start_ns, seconds);
      threads.emplace_back([&, s] {
        subscriber_loop(s, first, end_seq, done[s], received[s]);
      });
    }
    std::uint64_t seq = first;
    std::uint64_t sent = 0;
    try {
      for (bool last = false; !last;) {
        // Announce the end before the final publish: a subscriber checks
        // it before each receive, so none ever waits for a message that
        // will not come.
        last = sent + 1 >= limit || now_ns() >= deadline;
        if (last) end_seq.store(seq + 1);
        for (std::uint64_t d = delivered_.load(std::memory_order_acquire);
             seq >= d + kInFlight && d < kAbandoned;
             d = delivered_.load(std::memory_order_acquire)) {
          delivered_.wait(d, std::memory_order_acquire);
        }
        const std::size_t j = seq % kPool;
        Buffer& msg = pool_[j];
        write_digits(msg.data() + kTagDigitsAt, seq);
        done_[seq % kRing].store(0, std::memory_order_relaxed);
        pub_ns_[seq % kRing].store(now_ns(), std::memory_order_relaxed);
        {
          Span s(Layer::kPublish, seq);
          publisher_->publish(kChannel, msg);
        }
        const std::uint64_t frame = 2 + kChannel.size() + msg.size();
        st.frames += 1 + kSubscribers;
        st.bytes += frame + kFrameOverhead +
                    kSubscribers * (msg.size() + kFrameOverhead);
        st.sample_frame(frame);
        for (int s = 0; s < kSubscribers; ++s) st.sample_frame(msg.size());
        ++seq;
        ++sent;
      }
    } catch (const std::exception& e) {
      verdict.fail(std::string("bulk_stream publish: ") + e.what());
      for (auto& sub : subs_) sub->close();
    }
    next_seq_ = seq;
    st.attempted = sent;
    end_seq.store(seq);  // also releases subscribers after a failed publish
    for (std::thread& t : threads) t.join();
    for (int s = 0; s < kSubscribers; ++s) {
      if (received[s] != sent) {
        verdict.fail("bulk_stream: subscriber " + std::to_string(s) +
                     " got " + std::to_string(received[s]) + " of " +
                     std::to_string(sent) + " messages");
      }
      st.merge(done[s]);
    }
    st.failed = sent - st.completed();
    return st;
  }

  void subscriber_loop(int s, std::uint64_t first,
                       const std::atomic<std::uint64_t>& end_seq,
                       PhaseStats& done, std::uint64_t& received) {
    transport::RemoteSubscription& sub = *subs_[s];
    pbio::Decoder decoder(sub_registry_);
    pbio::DecodeArena arena;
    try {
      for (std::uint64_t seq = first;; ++seq) {
        // Messages are lossless and in order, so the next one is `seq`.
        if (seq >= end_seq.load()) return;
        std::optional<Buffer> msg;
        {
          Span span(Layer::kSubscribeReceive, seq);
          msg = sub.receive();
        }
        if (!msg) {
          verdict.fail("bulk_stream: subscription closed early");
          abandon();
          return;
        }
        Payload p{};
        arena.reset();
        {
          Span span(Layer::kDecode, seq);
          decoder.decode(msg->span(), *native_, &p, arena);
        }
        {
          Span span(Layer::kVerify, seq);
          check(seq, p);
        }
        ++received;
        if (done_[seq % kRing].fetch_add(1, std::memory_order_acq_rel) + 1 ==
            kSubscribers) {
          const std::uint64_t t = now_ns();
          const std::uint64_t t0 =
              pub_ns_[seq % kRing].load(std::memory_order_relaxed);
          done.complete(t, t - t0);
          record_root(seq, t0, t);
          // Both subscribers check messages in order, so the message that
          // completes is always the next one (unless a subscriber gave up).
          std::uint64_t expect = seq;
          delivered_.compare_exchange_strong(expect, seq + 1,
                                             std::memory_order_acq_rel);
          delivered_.notify_one();
        }
      }
    } catch (const std::exception& e) {
      verdict.fail(std::string("bulk_stream subscriber: ") + e.what());
      abandon();
    }
  }

  void abandon() {
    delivered_.store(kAbandoned, std::memory_order_release);
    delivered_.notify_one();
  }

  void check(std::uint64_t seq, const Payload& p) {
    const std::size_t j = seq % kPool;
    char want[32];  // the tag keeps the low kTagDigits decimal digits
    std::snprintf(want, sizeof(want), "%s%0*llu", kTagPrefix,
                  static_cast<int>(kTagDigits),
                  static_cast<unsigned long long>(seq % 10000000000ull));
    bool ok = p.tag != nullptr && std::strcmp(p.tag, want) == 0 &&
              p.count == static_cast<int>(counts_[j]) && p.values != nullptr;
    for (std::size_t i = 0; ok && i < counts_[j]; ++i) {
      ok = p.values[i] == expected_value(j, i);
    }
    if (!ok) {
      verdict.fail("bulk_stream: message " + std::to_string(seq) +
                   " decoded wrong (or out of order)");
    }
  }

  std::vector<Buffer> pool_;
  std::vector<std::size_t> counts_;
  pbio::FormatRegistry sub_registry_;
  pbio::FormatHandle native_;
  transport::EventBackbone backbone_;
  std::unique_ptr<transport::RemoteBackboneServer> server_;
  std::vector<std::unique_ptr<transport::RemoteSubscription>> subs_;
  std::unique_ptr<transport::RemotePublisher> publisher_;
  std::uint64_t next_seq_ = 0;
  std::atomic<std::uint64_t> pub_ns_[kRing] = {};
  std::atomic<int> done_[kRing] = {};
  // Messages checked by both subscribers (all sequence numbers below it).
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace

std::unique_ptr<Workload> make_bulk_stream() {
  return std::make_unique<BulkStream>();
}

}  // namespace layerbench
