// Structural validation of the vector exporters: the SVG is parsed back
// through the in-tree XML DOM; the PDF's cross-reference table is checked
// to point at real objects (what a picky viewer would verify first).

#include <gtest/gtest.h>

#include "jedule/model/builder.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/util/inflate.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/render/pdf.hpp"
#include "jedule/render/svg.hpp"
#include "jedule/util/strings.hpp"
#include "jedule/xml/xml.hpp"

namespace jedule::render {
namespace {

model::Schedule demo() {
  return model::ScheduleBuilder()
      .cluster(0, "c0", 8)
      .meta("algorithm", "vector-test")
      .task("1", "computation", 0.0, 4.0)
      .on(0, 0, 8)
      .task("2", "transfer", 3.0, 6.0)
      .on(0, 2, 4)
      .build();
}

GanttStyle style() {
  GanttStyle s;
  s.width = 640;
  s.height = 400;
  return s;
}

std::string bytes_for(const model::Schedule& schedule,
                      const std::string& format) {
  RenderOptions options;
  options.style = style();
  options.threads = 1;
  return render_to_bytes(schedule, options, format);
}

TEST(SvgExport, IsWellFormedXml) {
  const std::string svg = bytes_for(demo(), "svg");
  const auto doc = xml::parse(svg);
  EXPECT_EQ(doc.root->name(), "svg");
  EXPECT_EQ(doc.root->attr("width"), "640");
  EXPECT_EQ(doc.root->attr("height"), "400");
}

TEST(SvgExport, HasOneFilledRectPerBoxPlusChrome) {
  const auto schedule = demo();
  const auto layout = layout_gantt(schedule, color::standard_colormap(),
                                   style());
  const std::string svg = bytes_for(schedule, "svg");
  const auto doc = xml::parse(svg);

  int filled_rects = 0;
  int texts = 0;
  int lines = 0;
  for (const auto& child : doc.root->children()) {
    if (child->name() == "rect" && child->attr("fill") != "none") {
      ++filled_rects;
    }
    if (child->name() == "text") ++texts;
    if (child->name() == "line") ++lines;
  }
  // Background + every task/composite box is a filled rect.
  EXPECT_GE(filled_rects, static_cast<int>(layout.boxes.size()) + 1);
  // Labels + header + titles + axis tick labels.
  EXPECT_GE(texts, static_cast<int>(layout.boxes.size()));
  EXPECT_GT(lines, 4);  // grid + axis + ticks
}

TEST(SvgExport, TaskColorsAppear) {
  const std::string svg = bytes_for(demo(), "svg");
  EXPECT_NE(svg.find("#0000ff"), std::string::npos);  // computation
  EXPECT_NE(svg.find("#f10000"), std::string::npos);  // transfer
  EXPECT_NE(svg.find("#ff6200"), std::string::npos);  // composite
}

TEST(SvgExport, EscapesSpecialCharacters) {
  auto s = model::ScheduleBuilder()
               .cluster(0, "a<b>&c", 2)
               .task("t\"1\"", "x&y", 0, 1)
               .on(0, 0, 2)
               .build();
  const std::string svg = bytes_for(s, "svg");
  EXPECT_NO_THROW(xml::parse(svg));
  EXPECT_NE(svg.find("a&lt;b&gt;&amp;c"), std::string::npos);
}

TEST(PdfExport, XrefOffsetsPointAtObjects) {
  const std::string pdf = bytes_for(demo(), "pdf");
  // startxref declares where the table lives; the bytes there must read
  // "xref". (Careful: "startxref" itself contains the substring "xref".)
  const auto startxref_pos = pdf.rfind("startxref\n");
  ASSERT_NE(startxref_pos, std::string::npos);
  const auto offset_str = pdf.substr(startxref_pos + 10);
  const auto declared = util::parse_int(
      util::trim(offset_str.substr(0, offset_str.find('\n'))));
  ASSERT_TRUE(declared);
  const auto xref_pos = static_cast<std::size_t>(*declared);
  ASSERT_EQ(pdf.substr(xref_pos, 5), "xref\n");

  // Each "NNNNNNNNNN 00000 n" entry points at "<i> 0 obj".
  std::size_t cursor = pdf.find('\n', xref_pos) + 1;  // start of "0 6" line
  cursor = pdf.find('\n', cursor) + 1;                // start of free entry
  cursor = pdf.find('\n', cursor) + 1;                // first object entry
  for (int i = 1; i <= 5; ++i) {
    const auto entry = pdf.substr(cursor, 20);
    const auto offset = util::parse_int(util::trim(entry.substr(0, 10)));
    ASSERT_TRUE(offset) << "entry " << i;
    const std::string expected = std::to_string(i) + " 0 obj";
    EXPECT_EQ(pdf.substr(static_cast<std::size_t>(*offset), expected.size()),
              expected);
    cursor = pdf.find('\n', cursor) + 1;
  }
}

// Extracts and inflates the /FlateDecode page content stream, checking
// that /Length covers exactly the compressed bytes (the EOL before
// `endstream` is not part of the stream data).
std::string content_stream_of(const std::string& pdf) {
  const auto len_pos = pdf.find("/Length ");
  EXPECT_NE(len_pos, std::string::npos);
  const auto len_end = pdf.find(' ', len_pos + 8);
  const auto length = util::parse_int(pdf.substr(len_pos + 8,
                                                 len_end - len_pos - 8));
  EXPECT_TRUE(length);
  EXPECT_NE(pdf.find("/Filter /FlateDecode"), std::string::npos);
  const auto stream_pos = pdf.find("stream\n", len_pos) + 7;
  const auto n = static_cast<std::size_t>(*length);
  EXPECT_EQ(pdf.substr(stream_pos + n, 10), "\nendstream");
  const auto raw = util::zlib_decompress(
      reinterpret_cast<const std::uint8_t*>(pdf.data() + stream_pos), n);
  return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
}

TEST(PdfExport, ContentStreamLengthIsExactAndInflates) {
  const std::string pdf = bytes_for(demo(), "pdf");
  const std::string content = content_stream_of(pdf);
  EXPECT_NE(content.find(" re f"), std::string::npos);   // filled rects
  EXPECT_NE(content.find("Tj ET"), std::string::npos);   // text
  EXPECT_NE(content.find("c0 \\(8 hosts\\)"), std::string::npos);
}

TEST(PdfExport, EscapesParentheses) {
  auto s = model::ScheduleBuilder()
               .cluster(0, "c (main)", 2)
               .task("t(1)", "x", 0, 1)
               .on(0, 0, 2)
               .build();
  const std::string pdf = bytes_for(s, "pdf");
  EXPECT_NE(content_stream_of(pdf).find("\\(main\\)"),
            std::string::npos);
}

TEST(SvgzExport, GzipFramedAndMatchesSvg) {
  const auto s = demo();
  const std::string svgz = bytes_for(s, "svgz");
  ASSERT_GE(svgz.size(), 18u);
  EXPECT_EQ(static_cast<std::uint8_t>(svgz[0]), 0x1F);
  EXPECT_EQ(static_cast<std::uint8_t>(svgz[1]), 0x8B);
  const auto raw = util::gzip_decompress(
      reinterpret_cast<const std::uint8_t*>(svgz.data()), svgz.size());
  const std::string svg = bytes_for(s, "svg");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(raw.data()),
                        raw.size()),
            svg);
  EXPECT_LT(svgz.size(), svg.size());
}

TEST(VectorExports, Deterministic) {
  const auto s = demo();
  for (const char* format : {"svg", "svgz", "pdf"}) {
    EXPECT_EQ(bytes_for(s, format), bytes_for(s, format));
  }
}

}  // namespace
}  // namespace jedule::render
