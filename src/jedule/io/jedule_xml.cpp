#include "jedule/io/jedule_xml.hpp"

#include <cmath>
#include <deque>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

#include "jedule/io/file.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/strings.hpp"
#include "jedule/xml/pull.hpp"
#include "jedule/xml/xml.hpp"

namespace jedule::io {

namespace {

using model::Configuration;
using model::HostRange;
using model::Schedule;
using model::Task;

int require_int_attr(const xml::Element& e, std::string_view name) {
  auto v = util::parse_int(e.require_attr(name));
  if (!v) {
    throw ParseError("attribute '" + std::string(name) + "' of <" + e.name() +
                         "> is not an integer",
                     e.source_line());
  }
  return static_cast<int>(*v);
}

Configuration parse_configuration(const xml::Element& e) {
  Configuration cfg;
  bool have_cluster = false;
  int declared_hosts = -1;
  for (const auto* prop : e.children_named("conf_property")) {
    const auto name = prop->require_attr("name");
    const auto value = prop->require_attr("value");
    if (name == "cluster_id") {
      auto v = util::parse_int(value);
      if (!v) throw ParseError("bad cluster_id", prop->source_line());
      cfg.cluster_id = static_cast<int>(*v);
      have_cluster = true;
    } else if (name == "host_nb") {
      auto v = util::parse_int(value);
      if (!v) throw ParseError("bad host_nb", prop->source_line());
      declared_hosts = static_cast<int>(*v);
    } else {
      throw ParseError("unknown conf_property '" + std::string(name) + "'",
                       prop->source_line());
    }
  }
  if (!have_cluster) {
    throw ParseError("<configuration> lacks a cluster_id conf_property",
                     e.source_line());
  }
  const xml::Element* lists = e.first_child("host_lists");
  if (lists == nullptr) {
    throw ParseError("<configuration> lacks <host_lists>", e.source_line());
  }
  for (const auto* hosts : lists->children_named("hosts")) {
    HostRange r;
    r.start = require_int_attr(*hosts, "start");
    r.nb = require_int_attr(*hosts, "nb");
    cfg.hosts.push_back(r);
  }
  if (declared_hosts >= 0 && declared_hosts != cfg.host_count()) {
    throw ParseError(
        "host_nb (" + std::to_string(declared_hosts) +
            ") disagrees with the host ranges (" +
            std::to_string(cfg.host_count()) + " hosts)",
        e.source_line());
  }
  return cfg;
}

Task parse_node(const xml::Element& e) {
  Task t;
  bool have_id = false;
  bool have_type = false;
  bool have_start = false;
  bool have_end = false;
  double start = 0;
  double end = 0;
  for (const auto* prop : e.children_named("node_property")) {
    const auto name = prop->require_attr("name");
    const auto value = std::string(prop->require_attr("value"));
    if (name == "id") {
      t.set_id(value);
      have_id = true;
    } else if (name == "type") {
      t.set_type(value);
      have_type = true;
    } else if (name == "start_time") {
      auto v = util::parse_double(value);
      if (!v) throw ParseError("bad start_time", prop->source_line());
      start = *v;
      have_start = true;
    } else if (name == "end_time") {
      auto v = util::parse_double(value);
      if (!v) throw ParseError("bad end_time", prop->source_line());
      end = *v;
      have_end = true;
    } else {
      t.set_property(std::string(name), value);
    }
  }
  if (!have_id || !have_type || !have_start || !have_end) {
    throw ParseError(
        "<node_statistics> requires id, type, start_time and end_time "
        "node_property entries",
        e.source_line());
  }
  t.set_times(start, end);
  for (const auto* cfg : e.children_named("configuration")) {
    t.add_configuration(parse_configuration(*cfg));
  }
  return t;
}

// ---------------------------------------------------------------------------
// Streaming reader: consumes xml::PullParser events directly, so schedule
// ingest never materializes a DOM. The accepted documents (and the resulting
// Schedule) are identical to the DOM walk below: only the first jedule_meta /
// platform / node_infos (and host_lists per configuration) sections count,
// unknown elements are skipped (but still validated as XML), and all
// semantic errors carry the same messages and source lines.
// ---------------------------------------------------------------------------

using xml::PullParser;

int require_int_attr(const PullParser& p, std::string_view name) {
  auto v = util::parse_int(p.require_attr(name));
  if (!v) {
    throw ParseError("attribute '" + std::string(name) + "' of <" +
                         std::string(p.name()) + "> is not an integer",
                     p.line());
  }
  return static_cast<int>(*v);
}

Configuration read_configuration(PullParser& p) {
  const long cfg_line = p.line();
  Configuration cfg;
  bool have_cluster = false;
  bool seen_lists = false;
  int declared_hosts = -1;
  for (auto ev = p.next(); ev != PullParser::Event::kEndElement;
       ev = p.next()) {
    if (ev != PullParser::Event::kStartElement) continue;
    if (p.name() == "conf_property") {
      const auto name = p.require_attr("name");
      const auto value = p.require_attr("value");
      if (name == "cluster_id") {
        auto v = util::parse_int(value);
        if (!v) throw ParseError("bad cluster_id", p.line());
        cfg.cluster_id = static_cast<int>(*v);
        have_cluster = true;
      } else if (name == "host_nb") {
        auto v = util::parse_int(value);
        if (!v) throw ParseError("bad host_nb", p.line());
        declared_hosts = static_cast<int>(*v);
      } else {
        throw ParseError("unknown conf_property '" + std::string(name) + "'",
                         p.line());
      }
      p.skip_element();
    } else if (p.name() == "host_lists" && !seen_lists) {
      seen_lists = true;
      for (auto lists_ev = p.next(); lists_ev != PullParser::Event::kEndElement;
           lists_ev = p.next()) {
        if (lists_ev != PullParser::Event::kStartElement) continue;
        if (p.name() == "hosts") {
          HostRange r;
          r.start = require_int_attr(p, "start");
          r.nb = require_int_attr(p, "nb");
          cfg.hosts.push_back(r);
        }
        p.skip_element();
      }
    } else {
      p.skip_element();
    }
  }
  if (!have_cluster) {
    throw ParseError("<configuration> lacks a cluster_id conf_property",
                     cfg_line);
  }
  if (!seen_lists) {
    throw ParseError("<configuration> lacks <host_lists>", cfg_line);
  }
  if (declared_hosts >= 0 && declared_hosts != cfg.host_count()) {
    throw ParseError(
        "host_nb (" + std::to_string(declared_hosts) +
            ") disagrees with the host ranges (" +
            std::to_string(cfg.host_count()) + " hosts)",
        cfg_line);
  }
  return cfg;
}

Task read_node(PullParser& p, TypeInternCache* types = nullptr) {
  const long node_line = p.line();
  Task t;
  bool have_id = false;
  bool have_type = false;
  bool have_start = false;
  bool have_end = false;
  double start = 0;
  double end = 0;
  for (auto ev = p.next(); ev != PullParser::Event::kEndElement;
       ev = p.next()) {
    if (ev != PullParser::Event::kStartElement) continue;
    if (p.name() == "node_property") {
      const auto name = p.require_attr("name");
      const auto value = p.require_attr("value");
      if (name == "id") {
        t.set_id(std::string(value));
        have_id = true;
      } else if (name == "type") {
        if (types != nullptr) {
          t.set_interned_type(types->intern(value));
        } else {
          t.set_type(std::string(value));
        }
        have_type = true;
      } else if (name == "start_time") {
        auto v = util::parse_double(value);
        if (!v) throw ParseError("bad start_time", p.line());
        start = *v;
        have_start = true;
      } else if (name == "end_time") {
        auto v = util::parse_double(value);
        if (!v) throw ParseError("bad end_time", p.line());
        end = *v;
        have_end = true;
      } else {
        t.set_property(std::string(name), std::string(value));
      }
      p.skip_element();
    } else if (p.name() == "configuration") {
      t.add_configuration(read_configuration(p));
    } else {
      p.skip_element();
    }
  }
  if (!have_id || !have_type || !have_start || !have_end) {
    throw ParseError(
        "<node_statistics> requires id, type, start_time and end_time "
        "node_property entries",
        node_line);
  }
  t.set_times(start, end);
  return t;
}

// A `<precedence src=... dst=... data=...>` record as parsed, before the
// task ids are resolved to indices. Resolution is deferred until every
// task is known, so a <precedences> section may precede <node_infos> —
// and so the chunked reader can resolve after its worker merge.
struct PendingDep {
  std::string src;
  std::string dst;
  double data = 0;
  long line = 0;
};

void resolve_deps(Schedule& schedule, const std::vector<PendingDep>& pending) {
  if (pending.empty()) return;
  std::unordered_map<std::string_view, std::uint32_t> ids;
  ids.reserve(schedule.tasks().size());
  for (std::size_t i = 0; i < schedule.tasks().size(); ++i) {
    ids.emplace(schedule.tasks()[i].id(), static_cast<std::uint32_t>(i));
  }
  for (const auto& p : pending) {
    const auto s = ids.find(p.src);
    if (s == ids.end()) {
      throw ParseError("<precedence> references unknown task '" + p.src + "'",
                       p.line);
    }
    const auto d = ids.find(p.dst);
    if (d == ids.end()) {
      throw ParseError("<precedence> references unknown task '" + p.dst + "'",
                       p.line);
    }
    schedule.add_dependency(s->second, d->second, p.data);
  }
}

PendingDep read_precedence(const PullParser& p) {
  PendingDep d;
  d.src = std::string(p.require_attr("src"));
  d.dst = std::string(p.require_attr("dst"));
  d.line = p.line();
  if (const auto data = p.attr("data")) {
    const auto v = util::parse_double(*data);
    if (!v) {
      throw ParseError("attribute 'data' of <precedence> is not a number",
                       p.line());
    }
    d.data = *v;
  }
  return d;
}

// When `defer` is non-null the <precedences> records are returned raw
// instead of resolved — the chunked reader resolves them only after the
// worker batches are merged back in.
Schedule read_schedule_xml_impl(std::string_view xml_text, bool validate,
                                std::vector<PendingDep>* defer = nullptr) {
  PullParser p(xml_text);
  p.next();  // the parser throws unless the document opens with an element
  if (p.name() != "jedule") {
    throw ParseError("root element must be <jedule>, got <" +
                         std::string(p.name()) + ">",
                     p.line());
  }
  const long root_line = p.line();

  Schedule schedule;
  std::vector<PendingDep> pending;
  bool seen_meta = false;
  bool seen_platform = false;
  bool seen_nodes = false;
  bool seen_precedences = false;
  for (auto ev = p.next(); ev != PullParser::Event::kEndElement;
       ev = p.next()) {
    if (ev != PullParser::Event::kStartElement) continue;
    const std::string_view section = p.name();
    if (section == "jedule_meta" && !seen_meta) {
      seen_meta = true;
      for (auto meta_ev = p.next(); meta_ev != PullParser::Event::kEndElement;
           meta_ev = p.next()) {
        if (meta_ev != PullParser::Event::kStartElement) continue;
        if (p.name() == "meta") {
          auto name = std::string(p.require_attr("name"));
          auto value = std::string(p.require_attr("value"));
          schedule.set_meta(std::move(name), std::move(value));
        }
        p.skip_element();
      }
    } else if (section == "platform" && !seen_platform) {
      seen_platform = true;
      for (auto plat_ev = p.next(); plat_ev != PullParser::Event::kEndElement;
           plat_ev = p.next()) {
        if (plat_ev != PullParser::Event::kStartElement) continue;
        if (p.name() == "cluster") {
          model::Cluster c;
          c.id = require_int_attr(p, "id");
          if (auto name = p.attr("name")) {
            c.name = std::string(*name);
          } else {
            c.name = "cluster-" + std::to_string(c.id);
          }
          c.hosts = require_int_attr(p, "hosts");
          schedule.add_cluster(std::move(c));
        }
        p.skip_element();
      }
    } else if (section == "node_infos" && !seen_nodes) {
      seen_nodes = true;
      for (auto node_ev = p.next(); node_ev != PullParser::Event::kEndElement;
           node_ev = p.next()) {
        if (node_ev != PullParser::Event::kStartElement) continue;
        if (p.name() == "node_statistics") {
          schedule.add_task(read_node(p));
        } else {
          p.skip_element();
        }
      }
    } else if (section == "precedences" && !seen_precedences) {
      seen_precedences = true;
      for (auto prec_ev = p.next(); prec_ev != PullParser::Event::kEndElement;
           prec_ev = p.next()) {
        if (prec_ev != PullParser::Event::kStartElement) continue;
        if (p.name() == "precedence") pending.push_back(read_precedence(p));
        p.skip_element();
      }
    } else {
      p.skip_element();
    }
  }

  if (!seen_platform) {
    throw ParseError("<jedule> lacks a <platform> section (at least one "
                         "cluster is required)",
                     root_line);
  }

  if (defer != nullptr) {
    *defer = std::move(pending);
  } else {
    resolve_deps(schedule, pending);
  }
  if (validate) schedule.validate();
  return schedule;
}

// ---------------------------------------------------------------------------
// Parallel chunked reader (DESIGN.md §4i).
//
// The boundary scanner is a conservative mini-lexer: it tracks tags,
// quoted attribute values, comments and CDATA exactly as far as needed to
// locate the <node_statistics> record spans of the first <node_infos>
// section — and *bails* (returns "let the serial reader decide") on
// anything outside its model (PIs or declarations in content, a
// non-record child of <node_infos>, truncated constructs). Everything the
// scan excises is exactly the record spans; the remaining bytes — the
// "skeleton" document — are re-parsed serially, so prolog, platform,
// meta, inter-record comments/text and the epilog all keep their serial
// validation. Workers parse each record slice as a standalone document
// through a reused PullParser; the merge appends tasks in document order.
// ---------------------------------------------------------------------------

constexpr std::size_t kScanNpos = std::string_view::npos;

class ChunkScanner {
 public:
  explicit ChunkScanner(TextSource& src) : src_(&src) { grow(64 * 1024); }

  std::string_view view() const { return view_; }
  bool complete() const { return complete_; }

  /// Extends the published view to cover [0, end); false at true EOF.
  bool ensure(std::size_t end) {
    while (view_.size() < end && !complete_) grow(end);
    return view_.size() >= end;
  }

  /// find() over the growing view: only returns npos at true EOF.
  std::size_t find(std::string_view token, std::size_t from) {
    std::size_t searched = from;
    while (true) {
      const std::size_t hit = view_.find(token, searched);
      if (hit != kScanNpos) return hit;
      if (complete_) return kScanNpos;
      // Re-search only the bytes a straddling match could start in.
      searched = view_.size() > from + token.size()
                     ? view_.size() - token.size() + 1
                     : from;
      grow(view_.size() + kGrowStep);
    }
  }
  std::size_t find(char c, std::size_t from) {
    return find(std::string_view(&c, 1), from);
  }

  bool match(std::size_t pos, std::string_view token) {
    if (!ensure(pos + token.size())) return false;
    return view_.compare(pos, token.size(), token) == 0;
  }

  struct Tag {
    enum Kind { kStart, kEnd, kComment, kCData, kBail } kind = kBail;
    std::string_view name;  // start/end tags only
    std::size_t end = 0;    // one past the construct
    bool self_closing = false;
  };

  /// Lexes the markup construct at `lt` (which holds '<').
  Tag next_tag(std::size_t lt) {
    Tag tag;
    if (match(lt, "<!--")) {
      const std::size_t e = find("-->", lt + 4);
      if (e == kScanNpos) return tag;
      tag.kind = Tag::kComment;
      tag.end = e + 3;
      return tag;
    }
    if (match(lt, "<![CDATA[")) {
      const std::size_t e = find("]]>", lt + 9);
      if (e == kScanNpos) return tag;
      tag.kind = Tag::kCData;
      tag.end = e + 3;
      return tag;
    }
    if (!ensure(lt + 2)) return tag;
    const char c1 = view_[lt + 1];
    if (c1 == '?' || c1 == '!') return tag;  // PI / declaration: bail
    if (c1 == '/') {
      const std::size_t gt = find('>', lt + 2);
      if (gt == kScanNpos) return tag;
      std::string_view name = view_.substr(lt + 2, gt - lt - 2);
      while (!name.empty() && is_space(name.back())) name.remove_suffix(1);
      tag.kind = Tag::kEnd;
      tag.name = name;
      tag.end = gt + 1;
      return tag;
    }
    // Start tag: name runs to the first space, '/' or '>'.
    std::size_t ne = lt + 1;
    while (true) {
      if (!ensure(ne + 1)) return tag;
      const char c = view_[ne];
      if (is_space(c) || c == '/' || c == '>') break;
      ++ne;
    }
    if (ne == lt + 1) return tag;  // "<>" or "< ": malformed, bail
    tag.name = view_.substr(lt + 1, ne - lt - 1);
    // Attributes: scan to the closing '>', skipping quoted values whole
    // (a '>' or '/' inside quotes is data, not structure).
    std::size_t i = ne;
    while (true) {
      if (!ensure(i + 1)) return tag;
      const char c = view_[i];
      if (c == '"' || c == '\'') {
        const std::size_t q = find(c, i + 1);
        if (q == kScanNpos) return tag;
        i = q + 1;
        continue;
      }
      if (c == '>') break;
      if (c == '<') return tag;  // malformed; let the serial parser report
      ++i;
    }
    tag.kind = Tag::kStart;
    tag.self_closing = view_[i - 1] == '/';
    tag.end = i + 1;
    return tag;
  }

  /// From just past a non-self-closing start tag, scans to just past the
  /// matching end tag; kScanNpos to bail.
  std::size_t scan_element_body(std::size_t pos) {
    int depth = 1;
    while (depth > 0) {
      const std::size_t lt = find('<', pos);
      if (lt == kScanNpos) return kScanNpos;
      const Tag t = next_tag(lt);
      switch (t.kind) {
        case Tag::kComment:
        case Tag::kCData:
          break;
        case Tag::kStart:
          if (!t.self_closing) ++depth;
          break;
        case Tag::kEnd:
          --depth;
          break;
        case Tag::kBail:
          return kScanNpos;
      }
      pos = t.end;
    }
    return pos;
  }

  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }

 private:
  static constexpr std::size_t kGrowStep = 256 * 1024;

  void grow(std::size_t hint) {
    const TextSource::View v =
        src_->wait_for(std::max(hint, view_.size() + kGrowStep));
    view_ = std::string_view(v.data, v.size);
    complete_ = v.complete;
  }

  TextSource* src_;
  std::string_view view_;
  bool complete_ = false;
};

/// One worker batch: record spans as offsets plus the view base current at
/// dispatch time (kept valid by TextSource even across its rare gzip
/// overflow fallback, which switches buffers but retires neither).
struct RecordBatch {
  const char* base = nullptr;
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t bytes = 0;
};

void parse_record_batch(const RecordBatch& batch, std::vector<Task>* out) {
  PullParser p(std::string_view{});
  TypeInternCache types;
  out->reserve(batch.spans.size());
  for (const auto& [begin, end] : batch.spans) {
    // A record slice is a complete standalone document: one element, no
    // prolog or epilog. The PullParser accepts exactly that, with every
    // in-record validation rule of the serial pass.
    p.reset(std::string_view(batch.base + begin, end - begin));
    p.next();  // kStartElement <node_statistics> (or throws)
    out->push_back(read_node(p, &types));
  }
}

/// Scans the document, dispatching record batches to `group` as they are
/// discovered (so workers overlap with the scan — and, for gzip, with
/// decompression). Returns false to bail to the serial reader. On success,
/// `records` holds every record span in document order and `batch_count`
/// the number of submitted jobs.
bool scan_and_dispatch(ChunkScanner& scan, const IngestOptions& opt,
                       util::TaskGroup& group,
                       std::deque<std::vector<Task>>& outputs,
                       std::vector<std::pair<std::size_t, std::size_t>>& records) {
  // Prolog: XML declaration / comments / DOCTYPE until the root start tag.
  std::size_t pos = 0;
  ChunkScanner::Tag root;
  while (true) {
    const std::size_t lt = scan.find('<', pos);
    if (lt == kScanNpos) return false;
    for (std::size_t i = pos; i < lt; ++i) {
      if (!ChunkScanner::is_space(scan.view()[i])) return false;
    }
    if (scan.match(lt, "<?")) {
      const std::size_t e = scan.find("?>", lt + 2);
      if (e == kScanNpos) return false;
      pos = e + 2;
      continue;
    }
    if (scan.match(lt, "<!--")) {
      const std::size_t e = scan.find("-->", lt + 4);
      if (e == kScanNpos) return false;
      pos = e + 3;
      continue;
    }
    if (scan.match(lt, "<!")) {  // DOCTYPE (non-nested, like the parser)
      const std::size_t e = scan.find('>', lt + 2);
      if (e == kScanNpos) return false;
      pos = e + 1;
      continue;
    }
    root = scan.next_tag(lt);
    if (root.kind != ChunkScanner::Tag::kStart) return false;
    break;
  }
  if (root.name != "jedule" || root.self_closing) return false;

  // Depth-1 walk to the first <node_infos>.
  pos = root.end;
  while (true) {
    const std::size_t lt = scan.find('<', pos);
    if (lt == kScanNpos) return false;
    const ChunkScanner::Tag t = scan.next_tag(lt);
    switch (t.kind) {
      case ChunkScanner::Tag::kComment:
      case ChunkScanner::Tag::kCData:
        pos = t.end;
        continue;
      case ChunkScanner::Tag::kEnd:
        // Root closed without a <node_infos>: nothing to parallelize.
        return false;
      case ChunkScanner::Tag::kBail:
        return false;
      case ChunkScanner::Tag::kStart:
        break;
    }
    if (t.name == "node_infos" && !t.self_closing) {
      pos = t.end;
      break;
    }
    // Some other depth-1 section: skip its whole subtree.
    pos = t.self_closing ? t.end : scan.scan_element_body(t.end);
    if (pos == kScanNpos) return false;
  }

  // Record scan inside <node_infos>: batches close on a deterministic byte
  // threshold (a pure function of the input, never of worker timing).
  RecordBatch batch;
  const auto flush = [&] {
    if (batch.spans.empty()) return;
    batch.base = scan.view().data();
    outputs.emplace_back();
    group.submit([b = std::move(batch), out = &outputs.back()] {
      parse_record_batch(b, out);
    });
    batch = RecordBatch{};
  };
  while (true) {
    const std::size_t lt = scan.find('<', pos);
    if (lt == kScanNpos) return false;
    const ChunkScanner::Tag t = scan.next_tag(lt);
    if (t.kind == ChunkScanner::Tag::kComment ||
        t.kind == ChunkScanner::Tag::kCData) {
      pos = t.end;
      continue;
    }
    if (t.kind == ChunkScanner::Tag::kEnd) {
      if (t.name != "node_infos") return false;
      break;
    }
    if (t.kind != ChunkScanner::Tag::kStart || t.name != "node_statistics") {
      return false;  // a non-record child: rare, let the serial reader rule
    }
    const std::size_t rec_end =
        t.self_closing ? t.end : scan.scan_element_body(t.end);
    if (rec_end == kScanNpos) return false;
    records.emplace_back(lt, rec_end);
    batch.spans.emplace_back(lt, rec_end);
    batch.bytes += rec_end - lt;
    if (batch.bytes >= opt.target_chunk_bytes) flush();
    pos = rec_end;
  }
  flush();
  return true;
}

}  // namespace

model::Schedule read_schedule_xml(std::string_view xml_text) {
  return read_schedule_xml_impl(xml_text, /*validate=*/true);
}

model::Schedule read_schedule_xml_chunked(TextSource& src,
                                          const IngestOptions& opt,
                                          IngestStats* stats) {
  if (parse_serially(src, opt)) return read_schedule_xml(src.all());

  std::deque<std::vector<Task>> outputs;
  std::vector<std::pair<std::size_t, std::size_t>> records;
  try {
    ChunkScanner scan(src);
    util::TaskGroup group(opt.threads);
    const bool scanned = scan_and_dispatch(scan, opt, group, outputs, records);
    group.wait();  // rethrows the lowest-index worker error
    if (!scanned) return read_schedule_xml(src.all());

    // Skeleton pass: the full text minus the record spans, parsed
    // serially. Everything outside records (prolog, meta, platform,
    // inter-record comments/text, later sections, epilog) keeps its
    // serial validation; the first <node_infos> simply has no records
    // left, so the skeleton contributes clusters/meta and zero tasks.
    const std::string_view text = src.all();
    std::size_t excised = 0;
    for (const auto& [begin, end] : records) excised += end - begin;
    std::string skeleton;
    skeleton.reserve(text.size() - excised);
    std::size_t cursor = 0;
    for (const auto& [begin, end] : records) {
      skeleton.append(text.data() + cursor, begin - cursor);
      cursor = end;
    }
    skeleton.append(text.data() + cursor, text.size() - cursor);
    // Precedence records stay raw through the skeleton pass — their task
    // ids resolve only once the worker batches are merged back in.
    std::vector<PendingDep> pending;
    Schedule schedule =
        read_schedule_xml_impl(skeleton, /*validate=*/false, &pending);

    // In-order merge: batches were submitted in document order and each
    // holds its records in document order, so this reproduces the serial
    // add_task sequence exactly.
    const std::size_t chunks = outputs.size();
    schedule.append_tasks({std::make_move_iterator(outputs.begin()),
                           std::make_move_iterator(outputs.end())},
                          opt.threads);
    resolve_deps(schedule, pending);
    if (stats != nullptr) {
      stats->chunks = chunks;
      stats->parallel = true;
    }
    schedule.validate(opt.threads);
    return schedule;
  } catch (const ParseError&) {
    // The serial reader is the spec: re-run it to produce the exact
    // serial result — or the exact serial error message and line.
    if (stats != nullptr) {
      stats->chunks = 0;
      stats->parallel = false;
    }
    return read_schedule_xml(src.all());
  }
}

model::Schedule read_schedule_xml_dom(const std::string& xml_text) {
  const xml::Document doc = xml::baseline_parse(xml_text);
  const xml::Element& root = *doc.root;
  if (root.name() != "jedule") {
    throw ParseError("root element must be <jedule>, got <" + root.name() +
                         ">",
                     root.source_line());
  }

  Schedule schedule;

  if (const auto* meta = root.first_child("jedule_meta")) {
    for (const auto* info : meta->children_named("meta")) {
      schedule.set_meta(std::string(info->require_attr("name")),
                        std::string(info->require_attr("value")));
    }
  }

  const xml::Element* platform = root.first_child("platform");
  if (platform == nullptr) {
    throw ParseError("<jedule> lacks a <platform> section (at least one "
                         "cluster is required)",
                     root.source_line());
  }
  for (const auto* cluster : platform->children_named("cluster")) {
    model::Cluster c;
    c.id = require_int_attr(*cluster, "id");
    if (auto name = cluster->attr("name")) {
      c.name = std::string(*name);
    } else {
      c.name = "cluster-" + std::to_string(c.id);
    }
    c.hosts = require_int_attr(*cluster, "hosts");
    schedule.add_cluster(std::move(c));
  }

  if (const auto* nodes = root.first_child("node_infos")) {
    for (const auto* node : nodes->children_named("node_statistics")) {
      schedule.add_task(parse_node(*node));
    }
  }

  if (const auto* precs = root.first_child("precedences")) {
    std::vector<PendingDep> pending;
    for (const auto* prec : precs->children_named("precedence")) {
      PendingDep d;
      d.src = std::string(prec->require_attr("src"));
      d.dst = std::string(prec->require_attr("dst"));
      d.line = prec->source_line();
      if (const auto data = prec->attr("data")) {
        const auto v = util::parse_double(*data);
        if (!v) {
          throw ParseError("attribute 'data' of <precedence> is not a number",
                           prec->source_line());
        }
        d.data = *v;
      }
      pending.push_back(std::move(d));
    }
    resolve_deps(schedule, pending);
  }

  schedule.validate();
  return schedule;
}

model::Schedule load_schedule_xml(const std::string& path) {
  return read_schedule_xml(read_file(path));
}

namespace {

/// Times are written with enough digits to round-trip a double exactly,
/// trimmed of trailing zeros past the third decimal so simple files keep the
/// paper's "0.310" look.
std::string format_time(double t) {
  std::string full = util::format_fixed(t, 3);
  if (auto parsed = util::parse_double(full); parsed && *parsed == t) {
    return full;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", t);
  return buf;
}

void add_kv(xml::Element& parent, const char* element, std::string name,
            std::string value) {
  auto& e = parent.add_child(element);
  e.set_attr("name", std::move(name));
  e.set_attr("value", std::move(value));
}

}  // namespace

std::string write_schedule_xml(const model::Schedule& schedule) {
  xml::Element root("jedule");
  root.set_attr("version", "1.0");

  if (!schedule.meta().empty()) {
    auto& meta = root.add_child("jedule_meta");
    for (const auto& [k, v] : schedule.meta()) add_kv(meta, "meta", k, v);
  }

  auto& platform = root.add_child("platform");
  for (const auto& c : schedule.clusters()) {
    auto& e = platform.add_child("cluster");
    e.set_attr("id", std::to_string(c.id));
    e.set_attr("name", c.name);
    e.set_attr("hosts", std::to_string(c.hosts));
  }

  auto& nodes = root.add_child("node_infos");
  for (const auto& t : schedule.tasks()) {
    auto& node = nodes.add_child("node_statistics");
    add_kv(node, "node_property", "id", t.id());
    add_kv(node, "node_property", "type", t.type());
    add_kv(node, "node_property", "start_time", format_time(t.start_time()));
    add_kv(node, "node_property", "end_time", format_time(t.end_time()));
    for (const auto& [k, v] : t.properties()) {
      add_kv(node, "node_property", k, v);
    }
    for (const auto& cfg : t.configurations()) {
      auto& c = node.add_child("configuration");
      add_kv(c, "conf_property", "cluster_id",
             std::to_string(cfg.cluster_id));
      add_kv(c, "conf_property", "host_nb", std::to_string(cfg.host_count()));
      auto& lists = c.add_child("host_lists");
      for (const auto& r : cfg.hosts) {
        auto& h = lists.add_child("hosts");
        h.set_attr("start", std::to_string(r.start));
        h.set_attr("nb", std::to_string(r.nb));
      }
    }
  }

  if (!schedule.dependencies().empty()) {
    const auto& tasks = schedule.tasks();
    auto& precs = root.add_child("precedences");
    for (const auto& d : schedule.dependencies()) {
      auto& e = precs.add_child("precedence");
      e.set_attr("src", tasks[d.src].id());
      e.set_attr("dst", tasks[d.dst].id());
      if (d.data != 0) e.set_attr("data", format_time(d.data));
    }
  }

  return xml::serialize(root);
}

void save_schedule_xml(const model::Schedule& schedule,
                       const std::string& path) {
  write_file(path, write_schedule_xml(schedule));
}

}  // namespace jedule::io
