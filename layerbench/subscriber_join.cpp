// subscriber_join: the one-time cost a subscriber pays to join a stream,
// with schema registrations beside the joins.
//
// Joiners (kJoiners) each build a fresh core::Context per op. A join
// discovers the Appendix A-C schemas and the telemetry payload schema from
// an http::Server (GET, parse, read, audit, register, each a span of its
// own), fetches the producer's sparc64 wire format by id from a
// FormatServiceServer, binds and decodes the producer's first message, and
// checks it against the producer's values. In a fixed share of ops (one in
// kRound, at a seed-chosen slot) a joiner acts as the producer instead: it
// pushes a new schema revision (one added field) to the format service and
// republishes the document, and later joins must decode that revision.
#include <map>
#include <thread>

#include "analysis/audit_schema.hpp"
#include "analysis/diagnostics.hpp"
#include "core/context.hpp"
#include "core/xml2wire.hpp"
#include "http/http.hpp"
#include "pbio/metaserde.hpp"
#include "pbio/record.hpp"
#include "pbio/synth.hpp"
#include "schema/reader.hpp"
#include "transport/format_service.hpp"
#include "workload.hpp"
#include "xml/parser.hpp"

namespace layerbench {
namespace {

using namespace omf;

constexpr int kJoiners = 1;
// Revision r's added field is stamp_f<r mod kFieldCycle>. Cycling the name
// lets the registries deduplicate old revisions, so memory does not grow
// with the length of the run; a join never spans kFieldCycle revisions.
constexpr std::uint64_t kFieldCycle = 64;
constexpr std::uint64_t kRevisionsKept = 256;
constexpr std::uint64_t kRound = 16;  // ops per round; one is a registration
// Few: the first join pays the lazy set-up; more warm-up joins would make
// setup_s mostly steady-state join time, which swings with the host.
constexpr int kWarmupOps = 4;

// Appendix A, structures A, B and C (paper Figures 6, 9 and 12).
const char* kAppendixA = R"(<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
            targetNamespace="http://www.cc.gatech.edu/pmw/schemas">
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

const char* kAsdOffB = R"(  <xsd:complexType name="ASDOffEventB">
    <xsd:element name="cntrId" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:int" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsignedLong" minOccurs="5" maxOccurs="5" />
    <xsd:element name="eta" type="xsd:unsignedLong" minOccurs="0" maxOccurs="eta_count" />
    <xsd:element name="eta_count" type="xsd:int" />
  </xsd:complexType>
)";

const char* kSchemaOpen = R"(<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
            targetNamespace="http://www.cc.gatech.edu/pmw/schemas">
)";

const char* kThreeAsdOffs = R"(  <xsd:complexType name="threeASDOffs">
    <xsd:element name="one" type="ASDOffEventB" />
    <xsd:element name="bart" type="xsd:double" />
    <xsd:element name="two" type="ASDOffEventB" />
    <xsd:element name="lisa" type="xsd:double" />
    <xsd:element name="three" type="ASDOffEventB" />
  </xsd:complexType>
)";

const std::string kAppendixB =
    std::string(kSchemaOpen) + kAsdOffB + "</xsd:schema>\n";
const std::string kAppendixC =
    std::string(kSchemaOpen) + kAsdOffB + kThreeAsdOffs + "</xsd:schema>\n";

std::string stamp_field(std::uint64_t r) {
  return "stamp_f" + std::to_string(r % kFieldCycle);
}

/// Revision `r` of the telemetry payload schema: the bulk Payload shape
/// plus one added field.
std::string payload_doc(std::uint64_t r) {
  return R"(<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Payload">
    <xsd:element name="tag" type="xsd:string" />
    <xsd:element name="count" type="xsd:int" />
    <xsd:element name="values" type="xsd:double" maxOccurs="count" />
    <xsd:element name=")" +
         stamp_field(r) + R"(" type="xsd:long" />
  </xsd:complexType>
</xsd:schema>
)";
}

// Closed forms of revision r's first message.
std::string rev_tag(std::uint64_t r) { return "rev:" + std::to_string(r); }
std::size_t rev_count(std::uint64_t r, std::uint64_t seed) {
  return 8 + mix64(seed ^ (r * 131u)) % 25;
}
double rev_value(std::uint64_t r, std::size_t i) {
  return static_cast<double>(r) * 64.0 + static_cast<double>(i) * 0.5;
}
std::int64_t rev_stamp(std::uint64_t r) {
  return static_cast<std::int64_t>(r * 1000003u + 7u);
}

struct Revision {
  pbio::FormatId id = 0;
  Buffer message;
  std::size_t bundle_bytes = 0;
};

struct Doc {
  const char* path;
  std::size_t types;  // complexTypes the document defines
};
constexpr Doc kDocs[] = {{"/appendix/a.xsd", 1},
                         {"/appendix/b.xsd", 1},
                         {"/appendix/c.xsd", 2},
                         {"/telemetry/payload.xsd", 1}};

class SubscriberJoin final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    // A multiple of the trace sampling stride, so traced runs see the
    // registrations too.
    reg_slot_ = mix64(seed) % (kRound / Tracer::kSampleEvery) *
                Tracer::kSampleEvery;
    http_ = std::make_unique<http::Server>();
    formats_ = std::make_unique<transport::FormatServiceServer>();
    http_->put_document("/appendix/a.xsd", kAppendixA);
    http_->put_document("/appendix/b.xsd", kAppendixB);
    http_->put_document("/appendix/c.xsd", kAppendixC);
    PhaseStats warm;
    publish_revision(0, warm);
    for (int i = 0; i < kWarmupOps; ++i) one_op(warm);
  }

  PhaseStats run(double seconds) override {
    PhaseStats st;
    st.begin(now_ns(), seconds);
    const std::uint64_t deadline =
        st.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<PhaseStats> per(kJoiners);
    for (PhaseStats& p : per) p.begin(st.start_ns, seconds);
    std::vector<std::thread> threads;
    for (int t = 0; t < kJoiners; ++t) {
      threads.emplace_back([&, t] {
        while (now_ns() < deadline) one_op(per[t]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const PhaseStats& p : per) st.merge(p);
    return st;
  }

  void teardown() override {
    if (http_) http_->stop();
    if (formats_) formats_->stop();
  }

  bool cross_thread_path(Layer) const override { return false; }

  std::string shape() const override {
    return std::to_string(kJoiners) +
           " joiner thread(s), 5 short connections per join (4 HTTP GETs, 1 "
           "format fetch), 1 per registration (format push); http::Server "
           "and FormatServiceServer: 1 thread each";
  }

 private:
  void one_op(PhaseStats& st) {
    const std::uint64_t op = next_op_.fetch_add(1);
    ++st.attempted;
    const std::uint64_t t0 = now_ns();
    try {
      Span root(Layer::kOp, op);
      if (op % kRound == reg_slot_) {
        std::lock_guard lock(producer_mutex_);
        publish_revision(next_revision_, st, op);
      } else {
        join(op, st);
      }
    } catch (const std::exception& e) {
      ++st.failed;
      verdict.fail(std::string("subscriber_join op failed: ") + e.what());
      return;
    }
    const std::uint64_t t1 = now_ns();
    st.complete(t1, t1 - t0);
  }

  /// Producer: registers revision r, pushes its sparc64 format to the
  /// format service and republishes the schema document.
  void publish_revision(std::uint64_t r, PhaseStats& st,
                        std::uint64_t op = kNoOp) {
    const std::string doc = payload_doc(r);
    xml::Document dom;
    {
      Span s(Layer::kXmlParse, op);
      dom = xml::parse(doc);
    }
    schema::SchemaDocument model;
    {
      Span s(Layer::kSchemaRead, op);
      model = schema::read_schema(dom);
    }
    pbio::FormatHandle native, sparc;
    {
      Span s(Layer::kRegisterSchema, op);
      native = core::Xml2Wire(producer_native_, arch::native())
                   .register_schema(model)
                   .at(0);
      sparc = core::Xml2Wire(producer_sparc_, arch::sparc64())
                  .register_schema(model)
                  .at(0);
    }
    const std::size_t count = rev_count(r, seed_);
    std::vector<double> values(count);
    for (std::size_t i = 0; i < count; ++i) values[i] = rev_value(r, i);
    pbio::DynamicRecord rec(native);
    rec.set_string("tag", rev_tag(r));
    rec.set_int("count", static_cast<std::int64_t>(count));
    rec.set_float_array("values", values);
    rec.set_int(stamp_field(r), rev_stamp(r));
    Revision rev;
    rev.id = sparc->id();
    {
      Span s(Layer::kSynthesize, op);
      rev.message = pbio::synthesize_wire(*sparc, rec);
    }
    rev.bundle_bytes = pbio::serialize_format_bundle(*sparc).size();
    {
      Span s(Layer::kFormatPush, op);
      transport::FormatServiceClient(formats_->port()).push(*sparc);
    }
    // 'P' + u32 length + bundle, answered by a 1-byte status.
    st.frames += 2;
    st.bytes += (1 + 4 + rev.bundle_bytes + kFrameOverhead) +
                (1 + kFrameOverhead);
    st.sample_frame(1 + 4 + rev.bundle_bytes);
    st.sample_frame(1);
    {
      std::lock_guard lock(revisions_mutex_);
      revisions_[r] = std::move(rev);
      if (r >= kRevisionsKept) revisions_.erase(r - kRevisionsKept);
    }
    {
      Span s(Layer::kHttpPut, op);
      http_->put_document("/telemetry/payload.xsd", doc);
    }
    next_revision_ = r + 1;
    published_.store(r + 1);
  }

  void join(std::uint64_t op, PhaseStats& st) {
    const std::uint64_t newest_at_start = published_.load() - 1;
    core::Context ctx;
    pbio::FormatHandle payload;
    for (const Doc& d : kDocs) {
      const std::string url = http_->url_for(d.path);
      http::Response resp;
      {
        Span s(Layer::kHttpGet, op);
        resp = http::get(url);
      }
      if (resp.status != 200) {
        throw Error("GET " + url + " answered " + std::to_string(resp.status));
      }
      xml::Document dom;
      {
        Span s(Layer::kXmlParse, op);
        dom = xml::parse(resp.body);
      }
      schema::SchemaDocument model;
      {
        Span s(Layer::kSchemaRead, op);
        model = schema::read_schema(dom);
      }
      {
        Span s(Layer::kAudit, op);
        std::vector<analysis::Diagnostic> diags = analysis::audit_schema(model);
        std::vector<analysis::Diagnostic> more =
            analysis::audit_schema_xml(dom);
        diags.insert(diags.end(), more.begin(), more.end());
        analysis::enforce(url, diags, ctx.audit_policy());
      }
      std::vector<pbio::FormatHandle> handles;
      {
        Span s(Layer::kRegisterSchema, op);
        handles = ctx.xml2wire().register_schema(model);
      }
      if (handles.size() != d.types) {
        throw Error(url + " registered " + std::to_string(handles.size()) +
                    " types, expected " + std::to_string(d.types));
      }
      payload = handles.back();
    }

    // The added field's name gives the revision modulo kFieldCycle; the
    // document served is the first such revision at or after the newest
    // one published when the join began.
    std::uint64_t k = kFieldCycle;
    for (const pbio::Field& f : payload->fields()) {
      if (f.name.rfind("stamp_f", 0) == 0) k = std::stoull(f.name.substr(7));
    }
    if (k >= kFieldCycle) throw Error("payload schema has no added field");
    const std::uint64_t r =
        newest_at_start +
        (k + kFieldCycle - newest_at_start % kFieldCycle) % kFieldCycle;
    Revision rev;
    {
      std::lock_guard lock(revisions_mutex_);
      auto it = revisions_.find(r);
      if (it == revisions_.end() || r >= published_.load()) {
        throw Error("discovered revision " + std::to_string(r) +
                    " was never published");
      }
      rev = it->second;
    }
    pbio::FormatHandle wire;
    {
      Span s(Layer::kFormatFetch, op);
      wire = transport::FormatServiceClient(formats_->port())
                 .fetch(ctx.registry(), rev.id);
    }
    // 'G' + u64 id, answered by u32 length + bundle.
    st.frames += 2;
    st.bytes += (1 + 8 + kFrameOverhead) +
                (4 + rev.bundle_bytes + kFrameOverhead);
    st.sample_frame(1 + 8);
    st.sample_frame(4 + rev.bundle_bytes);
    if (!wire || wire->id() != rev.id) {
      throw Error("format service did not return revision " +
                  std::to_string(r));
    }

    core::Marshaler bound = ctx.bind_dynamic(payload);
    pbio::DynamicRecord rec = bound.make_record();
    pbio::DecodeArena arena;
    {
      Span s(Layer::kFirstDecode, op);
      bound.decode(rev.message.span(), rec.data(), arena);
    }
    Span s(Layer::kVerify, op);
    check(op, r, rec);
  }

  void check(std::uint64_t op, std::uint64_t r,
             const pbio::DynamicRecord& rec) {
    bool ok = rec.get_string("tag") != nullptr &&
              rev_tag(r) == rec.get_string("tag") &&
              rec.get_int("count") ==
                  static_cast<std::int64_t>(rev_count(r, seed_)) &&
              rec.get_int(stamp_field(r)) == rev_stamp(r);
    if (ok) {
      const std::vector<double> values = rec.get_float_array("values");
      ok = values.size() == rev_count(r, seed_);
      for (std::size_t i = 0; ok && i < values.size(); ++i) {
        ok = values[i] == rev_value(r, i);
      }
    }
    if (!ok) {
      verdict.fail("subscriber_join op " + std::to_string(op) +
                   ": first message of revision " + std::to_string(r) +
                   " decoded wrong");
    }
  }

  std::uint64_t seed_ = 0;
  std::uint64_t reg_slot_ = 0;
  std::unique_ptr<http::Server> http_;
  std::unique_ptr<transport::FormatServiceServer> formats_;
  std::mutex producer_mutex_;
  pbio::FormatRegistry producer_native_;
  pbio::FormatRegistry producer_sparc_;
  std::mutex revisions_mutex_;
  std::map<std::uint64_t, Revision> revisions_;
  std::uint64_t next_revision_ = 0;  // guarded by producer_mutex_
  std::atomic<std::uint64_t> published_{0};  // revisions served over HTTP
  std::atomic<std::uint64_t> next_op_{0};
};

}  // namespace

std::unique_ptr<Workload> make_subscriber_join() {
  return std::make_unique<SubscriberJoin>();
}

}  // namespace layerbench
