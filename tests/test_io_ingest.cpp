#include "jedule/io/ingest.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "jedule/io/csv.hpp"
#include "jedule/io/file.hpp"
#include "jedule/io/jedule_xml.hpp"
#include "jedule/io/registry.hpp"
#include "jedule/io/swf.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/render/deflate.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/inflate.hpp"
#include "jedule/workload/swf_parser.hpp"

namespace jedule::io {
namespace {

// Tiny thresholds so even hand-sized documents exercise the multi-chunk
// parallel path; production defaults would keep all of these serial.
IngestOptions tiny(int threads) {
  IngestOptions opt;
  opt.threads = threads;
  opt.min_parallel_bytes = 1;
  opt.target_chunk_bytes = 64;
  return opt;
}

const int kThreadCounts[] = {1, 2, 8};

std::string gzip(const std::string& text) {
  const auto z = render::gzip_compress(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  return {reinterpret_cast<const char*>(z.data()), z.size()};
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// A schedule large enough that 64-byte chunks produce many of them, with
// repeated and distinct task types (exercises the chunk-local interner)
// and both contiguous and scattered allocations.
std::string big_xml(int tasks) {
  model::ScheduleBuilder b;
  b.cluster(0, "alpha", 64).cluster(1, "beta", 32);
  b.meta("algorithm", "test").meta("n", std::to_string(tasks));
  for (int i = 0; i < tasks; ++i) {
    const char* type = (i % 3 == 0)   ? "computation"
                       : (i % 3 == 1) ? "transfer"
                                      : "idle";
    b.task("t" + std::to_string(i), type, i * 1.5, i * 1.5 + 1.25)
        .on(i % 2, (i * 7) % 24, 4);
    if (i % 5 == 0) b.property("k" + std::to_string(i % 7), "v&<>\"");
  }
  return write_schedule_xml(b.build());
}

std::string big_csv(int tasks) {
  std::string text =
      "!cluster,0,alpha,64\n"
      "!cluster,1,beta,32\n"
      "!meta,algorithm,test\n"
      "# generated fixture\n"
      "task_id,type,start,end,allocs\n";
  for (int i = 0; i < tasks; ++i) {
    const char* type = (i % 2 != 0) ? "transfer" : "computation";
    text += "t" + std::to_string(i) + "," + type + "," +
            std::to_string(i * 0.5) + "," + std::to_string(i * 0.5 + 0.25) +
            "," + std::to_string(i % 2) + ":" + std::to_string(i % 16) + "-" +
            std::to_string(i % 16 + 3);
    if (i % 4 == 0) text += "|" + std::to_string((i + 1) % 2) + ":0-1";
    text += "\n";
  }
  return text;
}

std::string big_swf(int jobs) {
  std::string text =
      "; Computer: Fixture\n"
      "; MaxProcs: 128\n"
      ";\n";
  for (int i = 0; i < jobs; ++i) {
    text += std::to_string(i + 1) + " " + std::to_string(i * 10) + " 5 30 " +
            std::to_string(1 + i % 8) +
            " 29 -1 4 60 -1 1 100 3 5 1 1 -1 -1\n";
  }
  return text;
}

// --- Differential: chunked output must be byte-identical to serial ------

TEST(IngestDifferential, XmlMatchesSerialAtEveryThreadCount) {
  const std::string text = big_xml(60);
  const std::string serial = write_schedule_xml(read_schedule_xml(text));
  for (int t : kThreadCounts) {
    TextSource src(text);
    IngestStats stats;
    const auto s = read_schedule_xml_chunked(src, tiny(t), &stats);
    EXPECT_EQ(write_schedule_xml(s), serial) << "threads=" << t;
    if (t > 1) {
      EXPECT_TRUE(stats.parallel);
      EXPECT_GT(stats.chunks, 1u);
    }
  }
}

TEST(IngestDifferential, CsvMatchesSerialAtEveryThreadCount) {
  const std::string text = big_csv(80);
  const std::string serial = write_schedule_csv(read_schedule_csv(text));
  for (int t : kThreadCounts) {
    TextSource src(text);
    IngestStats stats;
    const auto s = read_schedule_csv_chunked(src, tiny(t), &stats);
    EXPECT_EQ(write_schedule_csv(s), serial) << "threads=" << t;
    if (t > 1) {
      EXPECT_TRUE(stats.parallel);
    }
  }
}

TEST(IngestDifferential, SwfMatchesSerialAtEveryThreadCount) {
  const std::string text = big_swf(80);
  const std::string serial = write_swf(read_swf(text));
  for (int t : kThreadCounts) {
    TextSource src(text);
    IngestStats stats;
    const auto trace = read_swf_chunked(src, tiny(t), &stats);
    EXPECT_EQ(write_swf(trace), serial) << "threads=" << t;
    if (t > 1) {
      EXPECT_TRUE(stats.parallel);
    }
  }
}

TEST(IngestDifferential, GzipInputMatchesPlainInput) {
  for (const std::string& text : {big_xml(40), big_csv(60)}) {
    TextSource plain(text);
    TextSource zipped(gzip(text));
    EXPECT_TRUE(zipped.gzip());
    EXPECT_EQ(zipped.all(), plain.all());
  }
}

// --- Adversarial chunk-boundary inputs ----------------------------------

TEST(IngestAdversarial, CsvCrlfAndMissingFinalNewline) {
  // CRLF line endings plus a last record with no trailing newline: both
  // land on the trim/short-final-line edge of the boundary scan.
  std::string text = "task_id,type,start,end,allocs\r\n";
  for (int i = 0; i < 30; ++i) {
    text += "c" + std::to_string(i) + ",t,0," + std::to_string(i + 1) +
            ",0:" + std::to_string(i) + "\r\n";
  }
  text += "last,t,0,99,0:31";  // truncated: no newline
  const std::string serial = write_schedule_csv(read_schedule_csv(text));
  for (int t : kThreadCounts) {
    TextSource src(text);
    const auto s = read_schedule_csv_chunked(src, tiny(t), nullptr);
    EXPECT_EQ(write_schedule_csv(s), serial) << "threads=" << t;
  }
}

TEST(IngestAdversarial, CsvDirectiveAfterHeaderFallsBackToSerial) {
  std::string text = big_csv(20);
  text += "!meta,late,directive\n";
  text += "z,t,0,1,0:0\n";
  const std::string serial = write_schedule_csv(read_schedule_csv(text));
  TextSource src(text);
  IngestStats stats;
  const auto s = read_schedule_csv_chunked(src, tiny(8), &stats);
  EXPECT_EQ(write_schedule_csv(s), serial);
  EXPECT_FALSE(stats.parallel);  // bailed to the serial reader
}

TEST(IngestAdversarial, SwfHeaderLineAfterDataFallsBackToSerial) {
  std::string text = big_swf(20);
  text += "; Note: appears-after-data\n";
  text += "99 0 0 1 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n";
  const std::string serial = write_swf(read_swf(text));
  TextSource src(text);
  IngestStats stats;
  const auto trace = read_swf_chunked(src, tiny(8), &stats);
  EXPECT_EQ(write_swf(trace), serial);
  EXPECT_FALSE(stats.parallel);
  EXPECT_EQ(trace.header.at("Note"), "appears-after-data");
}

TEST(IngestAdversarial, SwfBlankAndCommentOnlyTail) {
  std::string text = big_swf(10) + "\n\n";
  const std::string serial = write_swf(read_swf(text));
  for (int t : kThreadCounts) {
    TextSource src(text);
    EXPECT_EQ(write_swf(read_swf_chunked(src, tiny(t), nullptr)), serial);
  }
}

TEST(IngestAdversarial, XmlCommentsBetweenRecordsStayIdentical) {
  // Comments (and XML declarations) between records land in the skeleton;
  // whatever the boundary scanner does with them, the parse must agree
  // with the serial reader.
  std::string text = big_xml(30);
  const auto pos = text.find("<node_statistics>");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "<!-- interleaved <node_statistics> lookalike -->\n");
  const std::string serial = write_schedule_xml(read_schedule_xml(text));
  for (int t : kThreadCounts) {
    TextSource src(text);
    const auto s = read_schedule_xml_chunked(src, tiny(t), nullptr);
    EXPECT_EQ(write_schedule_xml(s), serial) << "threads=" << t;
  }
}

// The error a read throws, as "<kind>: <message>"; "" when it succeeds.
template <typename Read>
std::string read_error(Read&& read) {
  try {
    read();
  } catch (const ParseError& e) {
    return std::string("ParseError: ") + e.what();
  } catch (const ValidationError& e) {
    return std::string("ValidationError: ") + e.what();
  }
  return "";
}

TEST(IngestAdversarial, ErrorMessagesMatchSerialExactly) {
  // A worker-visible parse error must surface as the *serial* diagnostic:
  // the chunked readers fall back and re-derive it. A duplicate id in a
  // later chunk parses fine and fails the merged schedule's validate(),
  // which must name the same first violation as the serial reader's.
  struct Case {
    const char* name;
    std::string text;
    model::Schedule (*serial)(std::string_view);
    model::Schedule (*chunked)(TextSource&, const IngestOptions&,
                               IngestStats*);
    std::size_t chunk_bytes;  // worker chunk size of the chunked read
  };
  std::string bad_xml = big_xml(20);
  const auto v = bad_xml.find("value=\"1.500\"");
  if (v != std::string::npos) bad_xml.replace(v + 7, 5, "zap");
  std::string bad_csv = big_csv(20);
  bad_csv += "broken,t,zero,1,0:0\n";
  // "t17" becomes a second "t3", many chunks after the first.
  const auto duplicate = [](std::string text, const std::string& from,
                            const std::string& to) {
    const auto at = text.find(from);
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  const std::string dup_xml =
      duplicate(big_xml(20), "value=\"t17\"", "value=\"t3\"");
  const std::string dup_csv = duplicate(big_csv(20), "\nt17,", "\nt3,");
  // Large enough for the block-parallel validate (> 2 blocks of tasks).
  const std::string dup_big_csv =
      duplicate(big_csv(40000), "\nt39000,", "\nt20,");
  const Case cases[] = {
      {"xml parse", bad_xml, read_schedule_xml, read_schedule_xml_chunked, 64},
      {"csv parse", bad_csv, read_schedule_csv, read_schedule_csv_chunked, 64},
      {"xml duplicate", dup_xml, read_schedule_xml, read_schedule_xml_chunked,
       64},
      {"csv duplicate", dup_csv, read_schedule_csv, read_schedule_csv_chunked,
       64},
      {"large csv duplicate", dup_big_csv, read_schedule_csv,
       read_schedule_csv_chunked, 1 << 16},
  };
  for (const auto& c : cases) {
    const std::string serial = read_error([&] { c.serial(c.text); });
    if (serial.empty()) {
      ADD_FAILURE() << c.name << ": fixture should not load";
      continue;
    }
    for (int t : kThreadCounts) {
      IngestOptions opt = tiny(t);
      opt.target_chunk_bytes = c.chunk_bytes;
      TextSource src(c.text);
      EXPECT_EQ(read_error([&] { c.chunked(src, opt, nullptr); }), serial)
          << c.name << " threads=" << t;
    }
  }
}

// A chain of `tasks` tasks with one <precedence> per task after the first
// (the perfbench chain shape, small); every third edge carries data.
std::string chain_xml(int tasks) {
  model::ScheduleBuilder b;
  b.cluster(0, "alpha", 16);
  for (int i = 0; i < tasks; ++i) {
    b.task("t" + std::to_string(i), "computation", i, i + 1.5)
        .on(0, i % 16, 1);
  }
  model::Schedule s = b.build();
  for (int i = 1; i < tasks; ++i) {
    s.add_dependency(static_cast<std::uint32_t>(i - 1),
                     static_cast<std::uint32_t>(i), i % 3 == 0 ? 0.5 * i : 0);
  }
  return write_schedule_xml(s);
}

std::string replace_first(std::string text, const std::string& from,
                          const std::string& to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

// `text` with `insertion` placed just after the n-th (0-based) `tag`.
std::string insert_after_nth(std::string text, const std::string& tag, int n,
                             const std::string& insertion) {
  std::size_t at = text.find(tag);
  for (int i = 0; i < n && at != std::string::npos; ++i) {
    at = text.find(tag, at + 1);
  }
  EXPECT_NE(at, std::string::npos) << tag << " #" << n;
  if (at != std::string::npos) text.insert(at + tag.size(), insertion);
  return text;
}

// The schedule a read gives, re-serialized, or its error as read_error
// spells it.
template <typename Read>
std::string read_outcome(Read&& read) {
  std::string xml;
  const std::string error =
      read_error([&] { xml = write_schedule_xml(read()); });
  return error.empty() ? xml : error;
}

TEST(IngestAdversarial, RecordCutsMatchSerialExactly) {
  // The scanner cuts a record just past the first end tag of its name.
  // Where that tag is not the record's own, the slice must fail to parse
  // and the serial reader must decide; where the sections come in an
  // unusual order or number, the chunked read must keep the ones the
  // serial reader keeps.
  const std::string base = chain_xml(40);
  const auto in_record = [&](const std::string& body) {
    return insert_after_nth(base, "<node_statistics>", 7, body);
  };
  const std::string prec = "<precedence src=\"t7\" dst=\"t8\"/>";
  const auto in_precedence = [&](const std::string& body) {
    return replace_first(base, prec,
                         "<precedence src=\"t7\" dst=\"t8\">" + body +
                             "</precedence>");
  };
  const auto precs_at = base.find("  <precedences>");
  const auto precs_end = base.find("</precedences>\n") + 15;
  const std::string precs = base.substr(precs_at, precs_end - precs_at);
  const std::string no_precs =
      base.substr(0, precs_at) + base.substr(precs_end);
  struct Case {
    const char* name;
    std::string text;
    bool parallel;  // T > 1: the chunked path, not the serial rerun, decides
  };
  const Case cases[] = {
      {"record end tag in a comment",
       in_record("<!-- </node_statistics> -->"), false},
      {"record end tag in a CDATA section",
       in_record("<![CDATA[ </node_statistics> ]]>"), false},
      {"record end tag in an attribute value",
       in_record("<node_property name=\"note\" value=\"</node_statistics>\"/>"),
       false},
      {"escaped record end tag in an attribute value",
       in_record("<node_property name=\"note\" "
                 "value=\"&lt;/node_statistics>\"/>"),
       true},
      {"nested record",
       in_record("<node_statistics><node_property name=\"id\" value=\"in\"/>"
                 "</node_statistics>"),
       false},
      {"record end tag with a space",
       replace_first(base, "</node_statistics>", "</node_statistics >"), true},
      {"entity reference split by a record",
       replace_first(
           replace_first(base, "<node_statistics>", "&am<node_statistics>"),
           "</node_statistics>", "</node_statistics>p;"),
       false},
      {"entity reference split by two records",
       insert_after_nth(replace_first(base, "<node_statistics>",
                                      "&am<node_statistics>"),
                        "</node_statistics>", 1, "p;"),
       false},
      {"longer element name after the record's",
       in_record("<node_statistics_note>x</node_statistics_note>"), true},
      {"precedence end tag in a comment",
       in_precedence("<!-- </precedence> -->"), false},
      {"precedence end tag in a CDATA section",
       in_precedence("<![CDATA[</precedence>]]>"), false},
      {"precedence end tag in an attribute value",
       replace_first(base, prec,
                     "<precedence src=\"t7\" dst=\"t8\" "
                     "note=\"</precedence>\"/>"),
       false},
      {"nested precedence", in_precedence("<precedence src=\"t0\" dst=\"t1\">"
                                          "</precedence>"),
       false},
      {"nested self-closing precedence",
       in_precedence("<precedence src=\"t0\" dst=\"t1\"/>"), true},
      {"entity-encoded precedence ids",
       replace_first(base, prec,
                     "<precedence src=\"t&#55;\" dst=\"&#x74;8\"/>"),
       true},
      {"precedences before node_infos",
       replace_first(no_precs, "  <node_infos>", precs + "  <node_infos>"),
       true},
      {"two precedences sections",
       replace_first(base, "</precedences>\n",
                     "</precedences>\n<precedences><precedence src=\"t0\" "
                     "dst=\"nope\"/></precedences>\n"),
       true},
      {"self-closing first precedences",
       replace_first(base, "  <node_infos>", "<precedences/>\n  <node_infos>"),
       true},
      {"self-closing first node_infos",
       replace_first(no_precs, "  <node_infos>",
                     "<node_infos/>\n  <node_infos>"),
       false},
      {"non-precedence child", replace_first(base, prec, prec + "<note/>"),
       false},
      {"unknown precedence id",
       replace_first(base, prec, "<precedence src=\"t7\" dst=\"t99x\"/>"),
       false},
      {"precedence data is not a number",
       replace_first(base, prec,
                     "<precedence src=\"t7\" dst=\"t8\" data=\"z\"/>"),
       false},
      {"backward precedence",
       replace_first(base, prec, "<precedence src=\"t8\" dst=\"t7\"/>"), true},
  };
  for (const auto& c : cases) {
    const std::string serial =
        read_outcome([&] { return read_schedule_xml(c.text); });
    for (int t : kThreadCounts) {
      TextSource src(c.text);
      IngestStats stats;
      EXPECT_EQ(read_outcome([&] {
                  return read_schedule_xml_chunked(src, tiny(t), &stats);
                }),
                serial)
          << c.name << " threads=" << t;
      if (t > 1) {
        EXPECT_EQ(stats.parallel, c.parallel) << c.name;
      }
    }
  }
}

TEST(IngestAdversarial, SwfErrorMessagesMatchSerialExactly) {
  std::string text = big_swf(20);
  text += "21 0 0 nope 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n";
  std::string serial_msg;
  try {
    read_swf(text);
    FAIL() << "fixture should not parse";
  } catch (const ParseError& e) {
    serial_msg = e.what();
  }
  for (int t : kThreadCounts) {
    TextSource src(text);
    try {
      read_swf_chunked(src, tiny(t), nullptr);
      FAIL() << "expected ParseError at threads=" << t;
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()), serial_msg) << "threads=" << t;
    }
  }
}

TEST(IngestAdversarial, LyingIsizeTrailerKeepsSerialError) {
  // Tampering the ISIZE trailer down forces the bounded decode to
  // overflow; the eager fallback then re-derives the exact serial
  // trailer-mismatch diagnostic.
  std::string z = gzip(big_csv(200));
  ASSERT_GT(z.size(), 4u);
  for (int i = 1; i <= 4; ++i) z[z.size() - i] = '\0';
  std::string direct_msg;
  try {
    util::gzip_decompress(reinterpret_cast<const std::uint8_t*>(z.data()),
                          z.size());
    FAIL() << "tampered trailer should not verify";
  } catch (const ParseError& e) {
    direct_msg = e.what();
  }
  TextSource src(z);
  try {
    src.all();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), direct_msg);
  }
}

TEST(IngestAdversarial, CorruptGzipBodyKeepsSerialError) {
  std::string z = gzip(big_xml(30));
  z[z.size() / 2] ^= 0x5a;  // flip bits mid-stream
  std::string direct_msg;
  try {
    util::gzip_decompress(reinterpret_cast<const std::uint8_t*>(z.data()),
                          z.size());
  } catch (const ParseError& e) {
    direct_msg = e.what();
  }
  ASSERT_FALSE(direct_msg.empty());
  TextSource src(z);
  EXPECT_THROW(
      {
        try {
          src.all();
        } catch (const ParseError& e) {
          EXPECT_EQ(std::string(e.what()), direct_msg);
          throw;
        }
      },
      ParseError);
}

// --- TextSource / LineScanner units -------------------------------------

TEST(TextSource, PlainInputIsCompleteImmediately) {
  TextSource src(std::string("hello\nworld\n"));
  EXPECT_FALSE(src.gzip());
  const auto v = src.wait_for(1);
  EXPECT_TRUE(v.complete);
  EXPECT_EQ(v.text(), "hello\nworld\n");
  EXPECT_EQ(src.all(), "hello\nworld\n");
}

TEST(TextSource, GzipDecodePublishesFullText) {
  const std::string text = big_csv(300);
  TextSource src(gzip(text));
  EXPECT_TRUE(src.gzip());
  EXPECT_EQ(src.all(), text);
  EXPECT_EQ(src.all(), text);  // idempotent
}

TEST(LineScanner, FindsNewlinesAndSlices) {
  TextSource src(std::string("a\nbb\n\nccc"));
  LineScanner scan(src);
  EXPECT_EQ(scan.find_newline(0), 1u);
  EXPECT_EQ(scan.find_newline(2), 4u);
  EXPECT_EQ(scan.find_newline(5), 5u);
  EXPECT_EQ(scan.find_newline(6), LineScanner::npos);
  EXPECT_TRUE(scan.complete());
  EXPECT_EQ(scan.size(), 9u);
  EXPECT_EQ(scan.slice(2, 4), "bb");
  EXPECT_EQ(scan.slice(6, 9), "ccc");
}

TEST(LineScanner, WorksAcrossGzipPublishSteps) {
  std::string text;
  for (int i = 0; i < 50000; ++i) {
    text += "line" + std::to_string(i) + "\n";
  }
  TextSource src(gzip(text));
  LineScanner scan(src);
  std::size_t pos = 0, lines = 0;
  while (true) {
    const std::size_t nl = scan.find_newline(pos);
    if (nl == LineScanner::npos) break;
    ++lines;
    pos = nl + 1;
  }
  EXPECT_EQ(lines, 50000u);
}

// --- Registry integration: stats, counters, mapped loads ----------------

TEST(IngestRegistry, ParseScheduleFillsStatsAndCounters) {
  const std::string text = big_csv(80);
  const auto before = ingest_counters()["csv"];
  IngestStats stats;
  const auto s =
      parse_schedule(text, "fixture.csv", "", tiny(2), &stats);
  EXPECT_EQ(s.tasks().size(), 80u);
  EXPECT_EQ(stats.format, "csv");
  EXPECT_EQ(stats.bytes, text.size());
  EXPECT_EQ(stats.threads, 2);
  EXPECT_TRUE(stats.parallel);
  EXPECT_FALSE(stats.gzip);
  EXPECT_FALSE(stats.mapped_input);
  const auto after = ingest_counters()["csv"];
  EXPECT_EQ(after.parses, before.parses + 1);
  EXPECT_EQ(after.parallel_parses, before.parallel_parses + 1);
  EXPECT_GE(after.bytes, before.bytes + text.size());
  const std::string line = ingest_summary(stats);
  EXPECT_NE(line.find("csv"), std::string::npos);
  EXPECT_NE(line.find("thread"), std::string::npos);
}

TEST(IngestRegistry, GzipNameHintStripsExtension) {
  const std::string text = big_xml(30);
  IngestStats stats;
  const auto s = parse_schedule(gzip(text), "fixture.jed.gz", "", tiny(2),
                                &stats);
  EXPECT_EQ(stats.format, "jedule-xml");
  EXPECT_TRUE(stats.gzip);
  EXPECT_EQ(write_schedule_xml(s), write_schedule_xml(read_schedule_xml(text)));
}

TEST(IngestRegistry, LoadScheduleUsesMappedInput) {
  const std::string text = big_csv(50);
  const std::string path = temp_path("jedule_ingest_mapped.csv");
  write_file(path, text);
  IngestStats stats;
  const auto s = load_schedule(path, "", tiny(2), &stats);
  EXPECT_EQ(s.tasks().size(), 50u);
  if (stats.mapped_input) {  // heap fallback is legal but unmapped
    EXPECT_EQ(stats.mapped_bytes, text.size());
  }
  EXPECT_EQ(write_schedule_csv(s), write_schedule_csv(read_schedule_csv(text)));
  std::filesystem::remove(path);
}

TEST(IngestRegistry, LoadScheduleMissingFileKeepsLegacyError) {
  const std::string path = temp_path("jedule_ingest_no_such_file.csv");
  std::string legacy_msg;
  try {
    read_file(path);
  } catch (const IoError& e) {
    legacy_msg = e.what();
  }
  ASSERT_FALSE(legacy_msg.empty());
  try {
    load_schedule(path);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(std::string(e.what()), legacy_msg);
  }
}

TEST(IngestRegistry, SwfRoutesThroughChunkedPath) {
  workload::register_swf_parser();  // idempotent
  const std::string text = big_swf(120);
  IngestStats stats;
  const auto s = parse_schedule(text, "trace.swf", "swf", tiny(8), &stats);
  EXPECT_EQ(stats.format, "swf");
  EXPECT_TRUE(stats.parallel);
  EXPECT_FALSE(s.tasks().empty());
  IngestStats serial_stats;
  const auto serial =
      parse_schedule(text, "trace.swf", "swf", tiny(1), &serial_stats);
  EXPECT_FALSE(serial_stats.parallel);
  EXPECT_EQ(write_schedule_xml(s), write_schedule_xml(serial));
}

TEST(IngestRegistry, ProductionDefaultsKeepSmallInputsSerial) {
  const std::string text = big_csv(40);  // far below min_parallel_bytes
  IngestStats stats;
  IngestOptions opt;
  opt.threads = 8;
  const auto s = parse_schedule(text, "small.csv", "", opt, &stats);
  EXPECT_EQ(s.tasks().size(), 40u);
  EXPECT_FALSE(stats.parallel);
  EXPECT_EQ(stats.chunks, 0u);
}

}  // namespace
}  // namespace jedule::io
