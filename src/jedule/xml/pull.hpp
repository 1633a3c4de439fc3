#pragma once

// Zero-copy XML pull parser: the streaming core under xml::parse and the
// io readers. Lexes in situ over the caller's buffer — element names,
// attribute names/values and text runs are handed out as string_views into
// the input (stable for the input buffer's lifetime); decoded strings are
// only materialized (into an arena that is recycled per event) when an
// entity or character reference actually appears.
//
// The grammar accepted (and every error message, down to line numbers) is
// identical to the recursive DOM parser this replaces, which is retained
// as xml::baseline_parse for differential testing.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "jedule/util/interner.hpp"

namespace jedule::xml {

class PullParser {
 public:
  enum class Event {
    kStartElement,  // name() + attributes() are valid
    kEndElement,    // name() is the element being closed
    kText,          // text() is one decoded character-data run
    kEndDocument,   // the root element closed and the epilog was clean
  };

  struct Attr {
    std::string_view name;   // view into the input: stable for its lifetime
    std::string_view value;  // valid until the next next() call
  };

  /// The input buffer must outlive the parser; views point into it.
  explicit PullParser(std::string_view input) : in_(input) {}

  /// Rewinds onto a fresh input buffer, keeping the decoded-string arena's
  /// and the scratch vectors' capacity. The chunked ingest workers parse
  /// thousands of record slices through one parser this way instead of
  /// paying construction per record. `line_base` offsets every reported
  /// line number, so a slice at line N of the real document keeps its
  /// document-relative diagnostics.
  void reset(std::string_view input, long line_base = 0);

  /// Advances to the next event; throws jedule::ParseError on malformed
  /// input. After kEndDocument, keeps returning kEndDocument.
  Event next();

  /// Element name of the current kStartElement / kEndElement. A view into
  /// the input buffer: stays valid for the input's lifetime.
  std::string_view name() const { return name_; }

  /// 1-based line where the current element's start tag began.
  long line() const { return elem_line_; }

  /// Attributes of the current kStartElement, in document order. Values
  /// are valid until the next next() call.
  const std::vector<Attr>& attributes() const { return attrs_; }

  /// Value of attribute `name` on the current kStartElement, or nullopt.
  std::optional<std::string_view> attr(std::string_view name) const;

  /// Like attr(), but throws the same ParseError as Element::require_attr
  /// (message and line included) when the attribute is absent.
  std::string_view require_attr(std::string_view name) const;

  /// One character-data run for the current kText event (text between two
  /// pieces of markup; consecutive runs of one element may be split by
  /// comments, CDATA sections or child elements). Valid until next().
  std::string_view text() const { return text_; }

  /// After a kStartElement: consumes events through the matching
  /// kEndElement, validating (but otherwise ignoring) the whole subtree.
  void skip_element();

 private:
  enum class State { kProlog, kContent, kEpilog };

  struct Open {
    std::string_view name;
    long line;
  };

  [[noreturn]] void fail(const std::string& msg) const;
  bool at_end() const { return pos_ >= in_.size(); }
  char peek() const { return at_end() ? '\0' : in_[pos_]; }
  char get();
  bool looking_at(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }
  void expect(std::string_view s);
  void skip_ws();
  void skip_comment();
  void skip_misc();
  void parse_prolog();
  Event parse_start_tag();
  Event parse_end_tag();
  Event emit_end();
  bool parse_cdata();
  bool parse_text_run();
  std::string_view parse_name_view();
  std::string_view parse_attr_value_view();
  void decode_entity(std::string& out);
  static void encode_utf8(unsigned long cp, std::string& out);
  /// Advances pos_ to `end`, counting newlines in the skipped span.
  void advance_to(std::size_t end);

  std::string_view in_;
  std::size_t pos_ = 0;
  long line_ = 1;
  State state_ = State::kProlog;

  util::Arena decoded_;     // per-event storage for entity-decoded strings
  std::string decode_buf_;  // reused scratch for the slow (entity) paths

  std::vector<Open> stack_;
  std::vector<Attr> attrs_;
  std::string_view name_;
  std::string_view text_;
  long elem_line_ = 0;
  bool pending_end_ = false;  // a self-closing tag owes its kEndElement
};

}  // namespace jedule::xml
