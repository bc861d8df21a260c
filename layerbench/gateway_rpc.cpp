// gateway_rpc: small request/response from one closed-loop client.
//
// The client encodes the paper's Appendix A ASDOffEvent natively and sends
// it on an NdrConnection (the first frame carries the format bundle
// in-band). A server thread runs a core::Gateway that converts each request
// to the sparc32 wire format (byte swap plus width and offset remap) and
// replies; the client decodes the reply back to native. Frames are about
// 100 bytes, so fixed per-frame costs dominate and the CRC does not.
#include <cstring>
#include <thread>

#include "core/context.hpp"
#include "core/gateway.hpp"
#include "core/xml2wire.hpp"
#include "pbio/decode.hpp"
#include "transport/ndr_connection.hpp"
#include "transport/tcp.hpp"
#include "workload.hpp"

namespace layerbench {
namespace {

using namespace omf;

// Appendix A, structure A (paper Figure 4).
struct AsdOff {
  char* cntrId;
  char* arln;
  int fltNum;
  char* equip;
  char* org;
  char* dest;
  unsigned long off;
  unsigned long eta;
};

const char* kAsdOffSchema = R"(<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrId" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:int" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsignedLong" />
    <xsd:element name="eta" type="xsd:unsignedLong" />
  </xsd:complexType>
</xsd:schema>
)";

// The sparc32 struct layout of ASDOffEvent, worked out by hand from that
// ABI (4-byte pointers, ints and longs): six 4-byte slots before `off`.
constexpr std::size_t kWireHeader = 16;
constexpr std::size_t kSparc32FltNum = 8;
constexpr std::size_t kSparc32Off = 24;
constexpr std::size_t kSparc32Eta = 28;

struct Request {
  std::string cntr, arln, equip, org, dest;
  int flt = 0;
  unsigned long off = 0, eta = 0;
};

constexpr std::size_t kPool = 256;
constexpr int kWarmupOps = 64;

bool big_endian_u32_at(const Buffer& wire, std::size_t at, std::uint32_t v) {
  const std::uint8_t want[4] = {static_cast<std::uint8_t>(v >> 24),
                                static_cast<std::uint8_t>(v >> 16),
                                static_cast<std::uint8_t>(v >> 8),
                                static_cast<std::uint8_t>(v)};
  return wire.size() >= at + 4 && std::memcmp(wire.data() + at, want, 4) == 0;
}

class GatewayRpc final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    static const char* kCenters[] = {"ZTL", "ZJX", "ZDC", "ZNY", "ZOB"};
    static const char* kAirlines[] = {"DL", "UA", "AA", "WN", "AS", "B6"};
    static const char* kEquip[] = {"B757", "MD88", "A320", "CRJ9", "E175"};
    static const char* kPorts[] = {"ATL", "MCO", "BOS", "LGA", "SEA", "DEN",
                                   "ORD", "SFO"};
    for (std::size_t i = 0; i < kPool; ++i) {
      const std::uint64_t r = mix64(seed * 1000003u + i);
      Request q;
      q.cntr = kCenters[r % 5];
      q.arln = kAirlines[(r >> 8) % 6];
      q.equip = kEquip[(r >> 16) % 5];
      q.org = kPorts[(r >> 24) % 8];
      q.dest = kPorts[(r >> 32) % 8];
      q.flt = static_cast<int>(100 + (r >> 40) % 9000);
      q.off = 955910000ul + (r >> 20) % 86400;
      q.eta = q.off + 600 + (r >> 44) % 20000;
      pool_.push_back(std::move(q));
    }

    // Client: PBIO-native registration from the compiled struct.
    const std::vector<pbio::IOField> fields = {
        {"cntrId", "string", sizeof(char*), offsetof(AsdOff, cntrId)},
        {"arln", "string", sizeof(char*), offsetof(AsdOff, arln)},
        {"fltNum", "integer", sizeof(int), offsetof(AsdOff, fltNum)},
        {"equip", "string", sizeof(char*), offsetof(AsdOff, equip)},
        {"org", "string", sizeof(char*), offsetof(AsdOff, org)},
        {"dest", "string", sizeof(char*), offsetof(AsdOff, dest)},
        {"off", "unsigned", sizeof(unsigned long), offsetof(AsdOff, off)},
        {"eta", "unsigned", sizeof(unsigned long), offsetof(AsdOff, eta)},
    };
    native_ = client_registry_.register_format("ASDOffEvent", fields,
                                               sizeof(AsdOff));
    decoder_ = std::make_unique<pbio::Decoder>(client_registry_);
    marshaler_ = std::make_unique<core::Marshaler>(*decoder_, native_);

    // Server: staging and target formats from the same XML metadata.
    auto staging = core::Xml2Wire(server_registry_, arch::native())
                       .register_text(kAsdOffSchema)
                       .at(0);
    target_ = core::Xml2Wire(server_registry_, arch::sparc32())
                  .register_text(kAsdOffSchema)
                  .at(0);
    gateway_ = std::make_unique<core::Gateway>(server_registry_, staging,
                                               target_);

    // The connect completes in the listener's backlog, so one thread can
    // dial and then accept.
    transport::TcpListener listener(0);
    client_ = std::make_unique<transport::NdrConnection>(
        transport::tcp_connect(listener.port()), client_registry_);
    server_conn_ = listener.accept();
    server_ = std::thread([this] { serve(); });

    PhaseStats warm;
    for (int i = 0; i < kWarmupOps; ++i) one_op(warm);
  }

  PhaseStats run(double seconds) override {
    PhaseStats st;
    const std::uint64_t frames0 = server_frames_.load();
    const std::uint64_t bytes0 = server_bytes_.load();
    st.begin(now_ns(), seconds);
    const std::uint64_t deadline =
        st.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
    while (now_ns() < deadline) one_op(st);
    // The reply reaches the client before the server thread accounts for
    // it; wait (boundedly: a failed op may never get one) for the server to
    // catch up before reading its totals.
    const std::uint64_t give_up = now_ns() + 2000000000ull;
    while (server_ops_.load() < next_op_ && now_ns() < give_up) {
      std::this_thread::yield();
    }
    st.frames += server_frames_.load() - frames0;
    st.bytes += server_bytes_.load() - bytes0;
    return st;
  }

  // Also on a failed set-up, so the server thread is never left unjoined.
  ~GatewayRpc() override { teardown(); }

  void teardown() override {
    if (client_) client_->close();
    if (server_.joinable()) server_.join();
  }

  bool cross_thread_path(Layer layer) const override {
    // The server's receive, convert and reply block the client's receive.
    return layer == Layer::kNdrReceive || layer == Layer::kGatewayConvert ||
           layer == Layer::kNdrSend;
  }

  std::string shape() const override {
    return "1 closed-loop client thread, 1 connection; 1 gateway server "
           "thread";
  }

 private:
  void one_op(PhaseStats& st) {
    const std::uint64_t op = next_op_++;
    const Request& q = pool_[op % kPool];
    AsdOff in{};
    in.cntrId = const_cast<char*>(q.cntr.c_str());
    in.arln = const_cast<char*>(q.arln.c_str());
    in.fltNum = q.flt;
    in.equip = const_cast<char*>(q.equip.c_str());
    in.org = const_cast<char*>(q.org.c_str());
    in.dest = const_cast<char*>(q.dest.c_str());
    in.off = q.off;
    in.eta = q.eta;

    ++st.attempted;
    const std::uint64_t t0 = now_ns();
    Span root(Layer::kOp, op);
    try {
      Buffer wire;
      {
        Span s(Layer::kEncode, op);
        wire = marshaler_->encode(&in);
      }
      {
        Span s(Layer::kNdrSend, op);
        client_->send(*native_, wire);
      }
      st.frames += 1;
      st.bytes += 1 + wire.size() + kFrameOverhead;
      st.sample_frame(1 + wire.size());
      std::optional<Buffer> reply;
      {
        Span s(Layer::kNdrReceive, op);
        reply = client_->receive();
      }
      if (!reply) throw TransportError("gateway closed the connection");
      st.sample_frame(1 + reply->size());
      AsdOff out{};
      arena_.reset();
      {
        Span s(Layer::kDecode, op);
        decoder_->decode(reply->span(), *native_, &out, arena_);
      }
      root.finish();
      const std::uint64_t t1 = now_ns();
      check(op, q, in, out, *reply);
      st.complete(t1, t1 - t0);
    } catch (const std::exception& e) {
      ++st.failed;
      verdict.fail(std::string("gateway_rpc op failed: ") + e.what());
    }
  }

  void check(std::uint64_t op, const Request& q, const AsdOff& in,
             const AsdOff& out, const Buffer& reply) {
    auto same = [](const char* a, const std::string& b) {
      return a != nullptr && b == a;
    };
    const bool decoded = same(out.cntrId, q.cntr) && same(out.arln, q.arln) &&
                         out.fltNum == in.fltNum && same(out.equip, q.equip) &&
                         same(out.org, q.org) && same(out.dest, q.dest) &&
                         out.off == in.off && out.eta == in.eta;
    // The reply must be the big-endian sparc32 encoding, not a pass-through:
    // its flags say big-endian and the integer slots hold the byte-swapped
    // 32-bit values at the hand-derived offsets.
    const std::size_t body = kWireHeader;
    const bool swapped =
        reply.size() > 2 && (reply.data()[2] & 0x01) != 0 &&
        big_endian_u32_at(reply, body + kSparc32FltNum,
                          static_cast<std::uint32_t>(q.flt)) &&
        big_endian_u32_at(reply, body + kSparc32Off,
                          static_cast<std::uint32_t>(q.off)) &&
        big_endian_u32_at(reply, body + kSparc32Eta,
                          static_cast<std::uint32_t>(q.eta));
    if (!decoded || !swapped) {
      verdict.fail("gateway_rpc op " + std::to_string(op) +
                   (decoded ? ": reply bytes are not the sparc32 encoding"
                            : ": reply does not decode to the request"));
    }
  }

  void serve() {
    transport::NdrConnection conn(std::move(server_conn_), server_registry_);
    for (std::uint64_t op = 0;; ++op) {
      std::optional<Buffer> msg;
      try {
        Span s(Layer::kNdrReceive, op);
        msg = conn.receive();
      } catch (const std::exception& e) {
        verdict.fail(std::string("gateway server receive: ") + e.what());
        return;
      }
      if (!msg) return;  // client closed: teardown
      try {
        Buffer out;
        {
          Span s(Layer::kGatewayConvert, op);
          out = gateway_->convert(msg->span());
        }
        {
          Span s(Layer::kNdrSend, op);
          conn.send(*target_, out);
        }
        server_frames_.fetch_add(1);
        server_bytes_.fetch_add(1 + out.size() + kFrameOverhead);
        server_ops_.fetch_add(1);
      } catch (const std::exception& e) {
        verdict.fail(std::string("gateway server: ") + e.what());
        return;
      }
    }
  }

  std::vector<Request> pool_;
  pbio::FormatRegistry client_registry_;
  pbio::FormatRegistry server_registry_;
  pbio::FormatHandle native_;
  pbio::FormatHandle target_;
  std::unique_ptr<pbio::Decoder> decoder_;
  std::unique_ptr<core::Marshaler> marshaler_;
  std::unique_ptr<core::Gateway> gateway_;
  pbio::DecodeArena arena_;
  transport::TcpConnection server_conn_;
  std::unique_ptr<transport::NdrConnection> client_;
  std::thread server_;
  std::uint64_t next_op_ = 0;
  std::atomic<std::uint64_t> server_frames_{0};
  std::atomic<std::uint64_t> server_bytes_{0};
  std::atomic<std::uint64_t> server_ops_{0};
};

}  // namespace

std::unique_ptr<Workload> make_gateway_rpc() {
  return std::make_unique<GatewayRpc>();
}

}  // namespace layerbench
