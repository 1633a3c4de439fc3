// Robustness fuzzing of the XML parser and the schedule/colormap readers:
// randomly mutated documents must either parse or throw a jedule exception
// — never crash, hang, or corrupt memory. (Run under ASan in CI-like
// setups for full value; the invariant holds either way.)

#include <gtest/gtest.h>

#include <optional>

#include "jedule/io/colormap_xml.hpp"
#include "jedule/io/csv.hpp"
#include "jedule/io/ingest.hpp"
#include "jedule/io/jedule_xml.hpp"
#include "jedule/io/swf.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/rng.hpp"
#include "jedule/xml/xml.hpp"

namespace jedule {
namespace {

const char kSeedDoc[] = R"(<jedule version="1.0">
  <jedule_meta><meta name="alg" value="CPA"/></jedule_meta>
  <platform><cluster id="0" name="c" hosts="8"/></platform>
  <node_infos>
    <node_statistics>
      <node_property name="id" value="1"/>
      <node_property name="type" value="computation"/>
      <node_property name="start_time" value="0.0"/>
      <node_property name="end_time" value="0.31"/>
      <configuration>
        <conf_property name="cluster_id" value="0"/>
        <host_lists><hosts start="0" nb="8"/></host_lists>
      </configuration>
    </node_statistics>
  </node_infos>
</jedule>)";

std::string mutate(std::string doc, util::Rng& rng) {
  const int edits = static_cast<int>(rng.uniform_int(1, 6));
  for (int e = 0; e < edits && !doc.empty(); ++e) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(doc.size()) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip a character
        doc[pos] = static_cast<char>(rng.uniform_int(32, 126));
        break;
      case 1:  // delete a span
        doc.erase(pos, static_cast<std::size_t>(rng.uniform_int(1, 8)));
        break;
      case 2:  // duplicate a span
        doc.insert(pos, doc.substr(pos, static_cast<std::size_t>(
                                            rng.uniform_int(1, 12))));
        break;
      default:  // inject syntax characters
        doc.insert(pos, std::string(1, "<>&\"'/="[rng.uniform_int(0, 6)]));
        break;
    }
  }
  return doc;
}

class XmlFuzz : public ::testing::TestWithParam<int> {};

TEST_P(XmlFuzz, NeverCrashes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int round = 0; round < 300; ++round) {
    const std::string doc = mutate(kSeedDoc, rng);
    try {
      const auto parsed = xml::parse(doc);
      // If the XML layer accepted it, the schedule reader must still
      // either accept or throw cleanly.
      try {
        io::read_schedule_xml(doc);
      } catch (const Error&) {
      }
    } catch (const Error&) {
      // Clean rejection is the expected outcome for most mutants.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzz, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Differential fuzzing: the pull-based xml::parse must accept exactly the
// documents the original recursive parser accepts, build the same tree, and
// reject with the same message and line.

void expect_same_tree(const xml::Element& a, const xml::Element& b) {
  ASSERT_EQ(a.name(), b.name());
  EXPECT_EQ(a.text(), b.text()) << "in <" << a.name() << ">";
  EXPECT_EQ(a.source_line(), b.source_line()) << "in <" << a.name() << ">";
  ASSERT_EQ(a.attributes().size(), b.attributes().size())
      << "in <" << a.name() << ">";
  for (std::size_t i = 0; i < a.attributes().size(); ++i) {
    EXPECT_EQ(a.attributes()[i].name, b.attributes()[i].name);
    EXPECT_EQ(a.attributes()[i].value, b.attributes()[i].value);
  }
  ASSERT_EQ(a.children().size(), b.children().size())
      << "in <" << a.name() << ">";
  for (std::size_t i = 0; i < a.children().size(); ++i) {
    expect_same_tree(*a.children()[i], *b.children()[i]);
  }
}

// A seed exercising the decoder edge cases: entities, character references,
// CDATA, comments, mixed whitespace, and attribute values needing both the
// zero-copy fast path and the decoding slow path.
const char kEdgeSeedDoc[] = R"(<?xml version="1.0" encoding="UTF-8"?>
<root a="plain" b="a&amp;b" c="&#65;&#x42;c" d="q&quot;q&apos;">
  <!-- comment -->
  <t1>text &amp; more &lt;raw&gt; &#xE9;</t1>
  <t2><![CDATA[verbatim <&> ]]]> tail]]></t2>
  <t3>  spaced  <inner/>  out  </t3>
  <empty/>
</root>)";

void check_parse_equivalence(const std::string& doc) {
  std::optional<xml::Document> ref;
  std::string ref_error;
  long ref_line = -1;
  try {
    ref = xml::baseline_parse(doc);
  } catch (const ParseError& e) {
    ref_error = e.what();
    ref_line = e.line();
  }
  try {
    const auto got = xml::parse(doc);
    ASSERT_TRUE(ref.has_value())
        << "pull parser accepted what the baseline rejects: " << ref_error;
    expect_same_tree(*ref->root, *got.root);
  } catch (const ParseError& e) {
    ASSERT_FALSE(ref.has_value())
        << "pull parser rejected an accepted document: " << e.what();
    EXPECT_EQ(ref_error, e.what());
    EXPECT_EQ(ref_line, e.line());
  }
}

class XmlDifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(XmlDifferentialFuzz, PullMatchesBaseline) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  for (int round = 0; round < 300; ++round) {
    const char* seed = round % 2 == 0 ? kSeedDoc : kEdgeSeedDoc;
    check_parse_equivalence(mutate(seed, rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlDifferentialFuzz, ::testing::Range(1, 6));

TEST(XmlDifferentialFuzz, SeedsThemselvesAgree) {
  check_parse_equivalence(kSeedDoc);
  check_parse_equivalence(kEdgeSeedDoc);
}

// The streaming schedule reader accepts exactly the same documents as the
// retained DOM-walking reference, producing an identical Schedule (compared
// via the canonical serialization). Error messages may differ — the DOM
// reader's checking order was never part of the contract — but acceptance
// must not.
TEST(ScheduleReaderFuzz, StreamingMatchesDom) {
  util::Rng rng(2718);
  for (int round = 0; round < 400; ++round) {
    const std::string doc = mutate(kSeedDoc, rng);
    std::optional<model::Schedule> ref;
    try {
      ref = io::read_schedule_xml_dom(doc);
    } catch (const Error&) {
    }
    try {
      const auto got = io::read_schedule_xml(doc);
      ASSERT_TRUE(ref.has_value())
          << "streaming reader accepted what the DOM reader rejects";
      EXPECT_EQ(io::write_schedule_xml(*ref), io::write_schedule_xml(got));
    } catch (const Error&) {
      EXPECT_FALSE(ref.has_value())
          << "streaming reader rejected what the DOM reader accepts";
    }
  }
}

// A seed for the chunked reader: several records on two clusters, a
// comment between records, and a <precedences> section before
// <node_infos> holding an edge with data and an entity-encoded id.
const char kChunkSeedDoc[] = R"(<?xml version="1.0"?>
<jedule version="1.0">
  <platform>
    <cluster id="0" name="c" hosts="8"/><cluster id="1" hosts="4"/>
  </platform>
  <precedences>
    <precedence src="a" dst="b" data="2.5"/>
    <precedence src="b" dst="&#99;"/>
  </precedences>
  <node_infos>
    <node_statistics>
      <node_property name="id" value="a"/>
      <node_property name="type" value="computation"/>
      <node_property name="start_time" value="0.0"/>
      <node_property name="end_time" value="1.5"/>
      <configuration>
        <conf_property name="cluster_id" value="0"/>
        <host_lists><hosts start="0" nb="4"/></host_lists>
      </configuration>
    </node_statistics>
    <!-- between records -->
    <node_statistics>
      <node_property name="id" value="b"/>
      <node_property name="type" value="transfer"/>
      <node_property name="start_time" value="1.5"/>
      <node_property name="end_time" value="2.0"/>
      <configuration>
        <conf_property name="cluster_id" value="1"/>
        <host_lists>
          <hosts start="0" nb="2"/><hosts start="3" nb="1"/>
        </host_lists>
      </configuration>
    </node_statistics>
    <node_statistics>
      <node_property name="id" value="c"/>
      <node_property name="type" value="computation"/>
      <node_property name="start_time" value="2.0"/>
      <node_property name="end_time" value="4.0"/>
      <node_property name="note" value="x&amp;y"/>
      <configuration>
        <conf_property name="cluster_id" value="0"/>
        <host_lists><hosts start="4" nb="4"/></host_lists>
      </configuration>
    </node_statistics>
  </node_infos>
</jedule>
)";

// The schedule a read gives, re-serialized, or its error message.
template <typename Read>
std::string read_outcome(Read&& read) {
  try {
    return io::write_schedule_xml(read());
  } catch (const ParseError& e) {
    return std::string("ParseError: ") + e.what();
  } catch (const ValidationError& e) {
    return std::string("ValidationError: ") + e.what();
  } catch (const Error& e) {
    return std::string("Error: ") + e.what();
  }
}

// The chunked reader, with every document small enough to chunk and
// records batched one or a few at a time, must give the serial reader's
// schedule or its exact error, line included, for every mutant.
TEST(ScheduleReaderFuzz, ChunkedMatchesSerial) {
  util::Rng rng(31337);
  for (int round = 0; round < 2000; ++round) {
    const char* seed = round % 3 == 0 ? kSeedDoc : kChunkSeedDoc;
    const std::string doc = mutate(seed, rng);
    const std::string serial =
        read_outcome([&] { return io::read_schedule_xml(doc); });
    for (const int threads : {2, 8}) {
      io::IngestOptions opt;
      opt.threads = threads;
      opt.min_parallel_bytes = 1;
      opt.target_chunk_bytes = threads == 2 ? 1 : 200;
      io::TextSource src(doc);
      EXPECT_EQ(read_outcome([&] {
                  return io::read_schedule_xml_chunked(src, opt, nullptr);
                }),
                serial)
          << "round " << round << " threads " << threads << "\n"
          << doc;
    }
  }
}

TEST(ColormapFuzz, NeverCrashes) {
  const char* seed = R"(<cmap name="m">
    <conf name="fontsize_label" value="13"/>
    <task id="t"><color type="fg" rgb="FFFFFF"/></task>
    <composite><task id="t"/><color type="bg" rgb="ff6200"/></composite>
  </cmap>)";
  util::Rng rng(99);
  for (int round = 0; round < 500; ++round) {
    const std::string doc = mutate(seed, rng);
    try {
      io::read_colormap_xml(doc);
    } catch (const Error&) {
    }
  }
}

TEST(CsvFuzz, NeverCrashes) {
  const char* seed =
      "!cluster,0,c,8\n"
      "task_id,type,start,end,allocs\n"
      "1,computation,0.0,0.31,0:0-7\n";
  util::Rng rng(123);
  for (int round = 0; round < 500; ++round) {
    const std::string doc = mutate(seed, rng);
    try {
      io::read_schedule_csv(doc);
    } catch (const Error&) {
    }
  }
}

TEST(SwfFuzz, NeverCrashes) {
  const char* seed =
      "; MaxProcs: 16\n"
      "1 0 10 300 16 280.5 -1 16 600 -1 1 6447 3 5 1 1 -1 -1\n";
  util::Rng rng(321);
  for (int round = 0; round < 500; ++round) {
    const std::string doc = mutate(seed, rng);
    try {
      io::read_swf(doc);
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace jedule
