#include "jedule/io/jedule_xml.hpp"

#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "jedule/io/file.hpp"
#include "jedule/model/id_table.hpp"
#include "jedule/model/task_view.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/interner.hpp"
#include "jedule/util/parallel.hpp"
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

// A `<precedence src=... dst=... data=...>` record as parsed, before its
// task ids resolve to indices. `src` and `dst` view the document text, or
// the reader's arena for an id that held an entity reference. Resolution
// waits until every task is known, so a <precedences> section may precede
// <node_infos>, and the chunked reader resolves after its merge.
struct PendingDep {
  std::string_view src;
  std::string_view dst;
  double data = 0;
};

// `value` if it views `text`, else its copy in `arena`: the pull parser
// hands out views into its input, except for entity-decoded values, which
// live only until its next event.
std::string_view keep(std::string_view value, std::string_view text,
                      util::Arena& arena) {
  const std::less_equal<const char*> le;
  if (le(text.data(), value.data()) &&
      le(value.data() + value.size(), text.data() + text.size())) {
    return value;
  }
  return arena.store(value);
}

PendingDep read_precedence(const PullParser& p, std::string_view text,
                           util::Arena& arena) {
  PendingDep d;
  d.src = keep(p.require_attr("src"), text, arena);
  d.dst = keep(p.require_attr("dst"), text, arena);
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

constexpr std::size_t kNpos = std::string_view::npos;

// Where resolve_deps stopped: the first record, in document order, that
// names an unknown task, and that id. `record` is kNpos when every id
// resolved.
struct DepMiss {
  std::size_t record = kNpos;
  std::string_view id;
};

// The id table of the schedule's tasks, which the readers build once: the
// edge resolve looks ids up in it and validate reads its duplicate check
// from it.
model::IdTable task_ids(const Schedule& schedule, int threads) {
  return model::IdTable(model::AosRows{schedule.tasks().data()},
                        schedule.tasks().size(), threads);
}

// The one resolver of every reader: appends the records of `parts`, in
// order, to the schedule's dependencies through `ids`, looking the parts
// up on up to `threads` workers. On a miss the schedule's dependencies
// are incomplete and the caller throws or falls back.
DepMiss resolve_deps(Schedule& schedule, const model::IdTable& ids,
                     const std::vector<std::span<const PendingDep>>& parts,
                     int threads) {
  std::vector<std::size_t> firsts(parts.size() + 1, 0);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    firsts[p + 1] = firsts[p] + parts[p].size();
  }
  if (firsts.back() == 0) return {};
  const model::AosRows rows{schedule.tasks().data()};
  auto& deps = schedule.mutable_dependencies();
  const std::size_t base = deps.size();
  deps.resize(base + firsts.back());
  std::vector<DepMiss> misses(parts.size());
  util::parallel_for(parts.size(), threads, [&](std::size_t p) {
    for (std::size_t i = 0; i < parts[p].size(); ++i) {
      const PendingDep& d = parts[p][i];
      const std::uint32_t src = ids.find(rows, d.src);
      const std::uint32_t dst =
          src == model::IdTable::kMissing ? src : ids.find(rows, d.dst);
      if (dst == model::IdTable::kMissing) {
        misses[p] = {firsts[p] + i,
                     src == model::IdTable::kMissing ? d.src : d.dst};
        return;
      }
      deps[base + firsts[p] + i] = model::Dependency{src, dst, d.data};
    }
  });
  for (const DepMiss& miss : misses) {
    if (miss.record != kNpos) return miss;
  }
  return {};
}

// The serial readers' resolve: names the first bad <precedence> and its
// line (`lines` runs parallel to `pending`).
void resolve_deps_or_throw(Schedule& schedule, const model::IdTable& ids,
                           const std::vector<PendingDep>& pending,
                           const std::vector<long>& lines) {
  const DepMiss miss = resolve_deps(schedule, ids, {pending}, 1);
  if (miss.record != kNpos) {
    throw ParseError("<precedence> references unknown task '" +
                         std::string(miss.id) + "'",
                     lines[miss.record]);
  }
}

Schedule read_schedule_xml_impl(std::string_view xml_text, bool validate) {
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
  std::vector<long> pending_lines;
  util::Arena decoded_ids;
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
        if (p.name() == "precedence") {
          pending.push_back(read_precedence(p, xml_text, decoded_ids));
          pending_lines.push_back(p.line());
        }
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

  const model::IdTable ids = task_ids(schedule, 1);
  resolve_deps_or_throw(schedule, ids, pending, pending_lines);
  if (validate) schedule.validate(1, ids);
  return schedule;
}

// ---------------------------------------------------------------------------
// Parallel chunked reader (DESIGN.md §4i).
//
// The boundary scan walks the root's children. Inside the first
// <node_infos> and the first <precedences> section (the ones the serial
// reader keeps) it cuts out every record: it lexes only the record's start
// tag and cuts just past the first end tag of the record's name after it.
// A cut that lands early — inside a comment or a CDATA section, or at the
// end of a nested record — leaves the slice with an unterminated construct
// or an unclosed element, so the worker's parse throws and the serial
// reader rules. Between records the scan allows comments, CDATA and text;
// any other element, and anything outside the scanner's model (PIs or
// declarations in content, truncated constructs), bails to the serial
// reader. What the cuts leave — prolog, meta, platform, whatever stands
// between records and is not whitespace, other sections, the epilog — is
// the "skeleton" document, parsed serially, so it keeps every serial check.
// ---------------------------------------------------------------------------

class ChunkScanner {
 public:
  explicit ChunkScanner(TextSource& src) : src_(&src) { grow(64 * 1024); }

  std::string_view view() const { return view_; }

  /// Extends the published view to cover [0, end); false at true EOF.
  bool ensure(std::size_t end) {
    while (view_.size() < end && !complete_) grow(end);
    return view_.size() >= end;
  }

  /// memmem over the growing view: only returns kNpos at true EOF.
  std::size_t find(std::string_view token, std::size_t from) {
    std::size_t searched = from;
    while (true) {
      if (searched < view_.size()) {
        const void* hit = ::memmem(view_.data() + searched,
                                   view_.size() - searched, token.data(),
                                   token.size());
        if (hit != nullptr) {
          return static_cast<std::size_t>(static_cast<const char*>(hit) -
                                          view_.data());
        }
      }
      if (complete_) return kNpos;
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
      if (e == kNpos) return tag;
      tag.kind = Tag::kComment;
      tag.end = e + 3;
      return tag;
    }
    if (match(lt, "<![CDATA[")) {
      const std::size_t e = find("]]>", lt + 9);
      if (e == kNpos) return tag;
      tag.kind = Tag::kCData;
      tag.end = e + 3;
      return tag;
    }
    if (!ensure(lt + 2)) return tag;
    const char c1 = view_[lt + 1];
    if (c1 == '?' || c1 == '!') return tag;  // PI / declaration: bail
    if (c1 == '/') {
      const std::size_t gt = find('>', lt + 2);
      if (gt == kNpos) return tag;
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
        if (q == kNpos) return tag;
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
  /// matching end tag; kNpos to bail.
  std::size_t scan_element_body(std::size_t pos) {
    int depth = 1;
    while (depth > 0) {
      const std::size_t lt = find('<', pos);
      if (lt == kNpos) return kNpos;
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
          return kNpos;
      }
      pos = t.end;
    }
    return pos;
  }

  /// Just past the first end tag `close` ("</name") at or after `from`:
  /// the name must end there (a space or '>' follows), and the tag runs to
  /// the next '>'. kNpos when there is none.
  std::size_t find_end_tag(std::string_view close, std::size_t from) {
    while (true) {
      const std::size_t at = find(close, from);
      if (at == kNpos || !ensure(at + close.size() + 1)) return kNpos;
      const char c = view_[at + close.size()];
      if (c == '>' || is_space(c)) {
        const std::size_t gt = find('>', at + close.size());
        return gt == kNpos ? kNpos : gt + 1;
      }
      from = at + 1;
    }
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

/// The <precedence> records one worker batch parsed.
struct DepBatch {
  std::vector<PendingDep> deps;
  util::Arena decoded;  // the entity-decoded ids
};

// Parses each record of `batch` through one reused PullParser, as a
// standalone document that must be exactly one `name` element: a slice
// cut short throws. `read(p, slice)` consumes the record after its start
// tag, through its end tag.
template <typename Read>
void parse_records(const RecordBatch& batch, std::string_view name,
                   Read&& read) {
  PullParser p(std::string_view{});
  for (const auto& [begin, end] : batch.spans) {
    const std::string_view slice(batch.base + begin, end - begin);
    p.reset(slice);
    if (p.next() != PullParser::Event::kStartElement || p.name() != name) {
      throw ParseError("record slice does not start with <" +
                       std::string(name) + ">");
    }
    read(p, slice);
    if (p.next() != PullParser::Event::kEndDocument) {
      throw ParseError("record slice does not end at its end tag");
    }
  }
}

void parse_task_batch(const RecordBatch& batch, std::vector<Task>* out) {
  TypeInternCache types;
  out->reserve(batch.spans.size());
  parse_records(batch, "node_statistics",
                [&](PullParser& p, std::string_view) {
                  out->push_back(read_node(p, &types));
                });
}

void parse_dep_batch(const RecordBatch& batch, DepBatch* out) {
  out->deps.reserve(batch.spans.size());
  parse_records(batch, "precedence",
                [&](PullParser& p, std::string_view slice) {
                  out->deps.push_back(read_precedence(p, slice, out->decoded));
                  p.skip_element();
                });
}

/// The boundary scan: cuts the records out of the document, hands them to
/// a TaskGroup in byte-threshold batches while it scans on (so workers
/// overlap with the scan and, for gzip, with decompression), and keeps
/// what is left as the skeleton.
class RecordCutter {
 public:
  RecordCutter(ChunkScanner& scan, std::size_t target_chunk_bytes)
      : scan_(scan), target_chunk_bytes_(target_chunk_bytes) {}

  /// Scans the document; false to bail to the serial reader. Batches are
  /// closed on a deterministic byte threshold (a pure function of the
  /// input, never of worker timing).
  bool run(util::TaskGroup& group) {
    group_ = &group;
    std::size_t pos = 0;
    if (!scan_prolog(pos)) return false;
    bool seen_nodes = false;
    bool seen_precedences = false;
    // Depth-1 walk until both record sections are found.
    while (!seen_nodes || !seen_precedences) {
      const std::size_t lt = scan_.find('<', pos);
      if (lt == kNpos) return false;
      const ChunkScanner::Tag t = scan_.next_tag(lt);
      switch (t.kind) {
        case ChunkScanner::Tag::kComment:
        case ChunkScanner::Tag::kCData:
          pos = t.end;
          continue;
        case ChunkScanner::Tag::kEnd:  // the root closed
          return !task_parts.empty() || !dep_parts.empty();
        case ChunkScanner::Tag::kBail:
          return false;
        case ChunkScanner::Tag::kStart:
          break;
      }
      pos = t.end;
      if (t.name == "node_infos" && !seen_nodes) {
        seen_nodes = true;
        if (!t.self_closing && !scan_section(Kind::kTask, pos)) return false;
      } else if (t.name == "precedences" && !seen_precedences) {
        seen_precedences = true;
        if (!t.self_closing && !scan_section(Kind::kDep, pos)) return false;
      } else if (!t.self_closing) {
        pos = scan_.scan_element_body(pos);
        if (pos == kNpos) return false;
      }
    }
    return true;
  }

  /// The skeleton: `text` (the complete document) minus the cut records.
  std::string skeleton(std::string_view text) {
    skeleton_.append(text.substr(kept_));
    return std::move(skeleton_);
  }

  /// Worker outputs, in document order; a deque keeps each slot in place
  /// while its job fills it.
  std::deque<std::vector<Task>> task_parts;
  std::deque<DepBatch> dep_parts;

 private:
  enum class Kind { kTask, kDep };

  // XML declaration, comments and DOCTYPE up to the <jedule> start tag.
  bool scan_prolog(std::size_t& pos) {
    while (true) {
      const std::size_t lt = scan_.find('<', pos);
      if (lt == kNpos) return false;
      for (std::size_t i = pos; i < lt; ++i) {
        if (!ChunkScanner::is_space(scan_.view()[i])) return false;
      }
      std::size_t end = kNpos;
      if (scan_.match(lt, "<?")) {
        end = scan_.find("?>", lt + 2);
        if (end != kNpos) end += 2;
      } else if (scan_.match(lt, "<!--")) {
        end = scan_.find("-->", lt + 4);
        if (end != kNpos) end += 3;
      } else if (scan_.match(lt, "<!")) {
        // DOCTYPE (non-nested, like the parser)
        end = scan_.find('>', lt + 2);
        if (end != kNpos) end += 1;
      } else {
        const ChunkScanner::Tag root = scan_.next_tag(lt);
        pos = root.end;
        return root.kind == ChunkScanner::Tag::kStart &&
               root.name == "jedule" && !root.self_closing;
      }
      if (end == kNpos) return false;
      pos = end;
    }
  }

  // The records of one section, from just past its start tag through its
  // end tag.
  bool scan_section(Kind kind, std::size_t& pos) {
    const bool tasks = kind == Kind::kTask;
    const std::string_view section = tasks ? "node_infos" : "precedences";
    const std::string_view record = tasks ? "node_statistics" : "precedence";
    const std::string_view close =
        tasks ? "</node_statistics" : "</precedence";
    while (true) {
      const std::size_t lt = scan_.find('<', pos);
      if (lt == kNpos) return false;
      const ChunkScanner::Tag t = scan_.next_tag(lt);
      if (t.kind == ChunkScanner::Tag::kComment ||
          t.kind == ChunkScanner::Tag::kCData) {
        pos = t.end;
        continue;
      }
      if (t.kind == ChunkScanner::Tag::kEnd) {
        if (t.name != section) return false;
        flush(kind);
        pos = t.end;
        return true;
      }
      if (t.kind != ChunkScanner::Tag::kStart || t.name != record) {
        return false;  // a non-record child: rare, let the serial reader rule
      }
      const std::size_t end =
          t.self_closing ? t.end : scan_.find_end_tag(close, t.end);
      if (end == kNpos) return false;
      cut(lt, end);
      batch_.spans.emplace_back(lt, end);
      batch_.bytes += end - lt;
      if (batch_.bytes >= target_chunk_bytes_) flush(kind);
      pos = end;
    }
  }

  // Drops [begin, end) from the skeleton. Whitespace between two records
  // goes too, since no reader keeps it. Any other gap stays, closed by an
  // empty comment so that its text cannot run on into the next gap's: an
  // entity reference split by a record must stay malformed.
  void cut(std::size_t begin, std::size_t end) {
    const std::string_view gap = scan_.view().substr(kept_, begin - kept_);
    for (const char c : gap) {
      if (!ChunkScanner::is_space(c)) {
        skeleton_.append(gap).append("<!---->");
        break;
      }
    }
    kept_ = end;
  }

  void flush(Kind kind) {
    if (batch_.spans.empty()) return;
    batch_.base = scan_.view().data();
    if (kind == Kind::kTask) {
      std::vector<Task>* out = &task_parts.emplace_back();
      group_->submit(
          [b = std::move(batch_), out] { parse_task_batch(b, out); });
    } else {
      DepBatch* out = &dep_parts.emplace_back();
      group_->submit([b = std::move(batch_), out] { parse_dep_batch(b, out); });
    }
    batch_ = RecordBatch{};
  }

  ChunkScanner& scan_;
  std::size_t target_chunk_bytes_;
  util::TaskGroup* group_ = nullptr;
  RecordBatch batch_;
  std::string skeleton_;
  std::size_t kept_ = 0;  // the skeleton holds the text before here
};

// The chunked read; nullopt when the serial reader must decide (a bail or
// an unknown id). A worker or skeleton parse error throws ParseError.
std::optional<Schedule> try_read_chunked(TextSource& src,
                                         const IngestOptions& opt,
                                         IngestStats* stats) {
  ChunkScanner scan(src);
  RecordCutter cutter(scan, opt.target_chunk_bytes);
  bool scanned = false;
  {
    util::TaskGroup group(opt.threads);
    scanned = cutter.run(group);
    if (scanned) group.wait();  // rethrows the lowest-index worker error
  }  // a bailed scan drops the batches no worker has claimed yet
  if (!scanned) return std::nullopt;

  // Skeleton pass. The first <node_infos> and <precedences> keep no
  // records, so the skeleton contributes clusters and meta only.
  Schedule schedule =
      read_schedule_xml_impl(cutter.skeleton(src.all()), /*validate=*/false);

  // In-order merge: batches were submitted in document order and each
  // holds its records in document order, so this reproduces the serial
  // add_task sequence exactly.
  const std::size_t chunks = cutter.task_parts.size() + cutter.dep_parts.size();
  schedule.append_tasks({std::make_move_iterator(cutter.task_parts.begin()),
                         std::make_move_iterator(cutter.task_parts.end())},
                        opt.threads);
  std::vector<std::span<const PendingDep>> deps;
  for (const DepBatch& b : cutter.dep_parts) deps.emplace_back(b.deps);
  const model::IdTable ids = task_ids(schedule, opt.threads);
  if (resolve_deps(schedule, ids, deps, opt.threads).record != kNpos) {
    return std::nullopt;
  }
  if (stats != nullptr) {
    stats->chunks = chunks;
    stats->parallel = true;
  }
  schedule.validate(opt.threads, ids);
  return schedule;
}

}  // namespace

model::Schedule read_schedule_xml(std::string_view xml_text) {
  return read_schedule_xml_impl(xml_text, /*validate=*/true);
}

model::Schedule read_schedule_xml_chunked(TextSource& src,
                                          const IngestOptions& opt,
                                          IngestStats* stats) {
  if (!parse_serially(src, opt)) {
    std::optional<Schedule> schedule;
    try {
      schedule = try_read_chunked(src, opt, stats);
    } catch (const ParseError&) {
    }
    if (schedule) return std::move(*schedule);
    if (stats != nullptr) {
      stats->chunks = 0;
      stats->parallel = false;
    }
  }
  // The serial reader is the spec: it re-derives the exact serial result,
  // or the exact serial error message and line.
  return read_schedule_xml(src.all());
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

  const model::IdTable ids = task_ids(schedule, 1);
  if (const auto* precs = root.first_child("precedences")) {
    std::vector<PendingDep> pending;
    std::vector<long> lines;
    for (const auto* prec : precs->children_named("precedence")) {
      PendingDep d;
      d.src = prec->require_attr("src");
      d.dst = prec->require_attr("dst");
      if (const auto data = prec->attr("data")) {
        const auto v = util::parse_double(*data);
        if (!v) {
          throw ParseError("attribute 'data' of <precedence> is not a number",
                           prec->source_line());
        }
        d.data = *v;
      }
      pending.push_back(d);
      lines.push_back(prec->source_line());
    }
    resolve_deps_or_throw(schedule, ids, pending, lines);
  }

  schedule.validate(1, ids);
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
