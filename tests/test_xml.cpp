#include "jedule/xml/xml.hpp"

#include <gtest/gtest.h>

#include "jedule/util/error.hpp"

namespace jedule::xml {
namespace {

TEST(Parse, SimpleElement) {
  const auto doc = parse("<root/>");
  EXPECT_EQ(doc.root->name(), "root");
  EXPECT_TRUE(doc.root->children().empty());
  EXPECT_TRUE(doc.root->text().empty());
}

TEST(Parse, AttributesBothQuoteStyles) {
  const auto doc = parse(R"(<a x="1" y='two'/>)");
  EXPECT_EQ(doc.root->attr("x"), "1");
  EXPECT_EQ(doc.root->attr("y"), "two");
  EXPECT_FALSE(doc.root->attr("z").has_value());
}

TEST(Parse, NestedChildrenInOrder) {
  const auto doc = parse("<a><b/><c/><b/></a>");
  ASSERT_EQ(doc.root->children().size(), 3u);
  EXPECT_EQ(doc.root->children()[0]->name(), "b");
  EXPECT_EQ(doc.root->children()[1]->name(), "c");
  EXPECT_EQ(doc.root->children_named("b").size(), 2u);
  EXPECT_EQ(doc.root->first_child("c")->name(), "c");
  EXPECT_EQ(doc.root->first_child("missing"), nullptr);
}

TEST(Parse, TextContentTrimmed) {
  const auto doc = parse("<a>  hello world  </a>");
  EXPECT_EQ(doc.root->text(), "hello world");
}

TEST(Parse, EntityDecoding) {
  const auto doc = parse("<a t=\"&lt;&amp;&gt;\">&quot;x&apos;</a>");
  EXPECT_EQ(doc.root->attr("t"), "<&>");
  EXPECT_EQ(doc.root->text(), "\"x'");
}

TEST(Parse, NumericCharacterReferences) {
  const auto doc = parse("<a>&#65;&#x42;</a>");
  EXPECT_EQ(doc.root->text(), "AB");
}

TEST(Parse, NumericReferenceUtf8) {
  const auto doc = parse("<a>&#233;</a>");  // e-acute
  EXPECT_EQ(doc.root->text(), "\xC3\xA9");
}

TEST(Parse, CdataIsVerbatim) {
  const auto doc = parse("<a><![CDATA[<not-xml> & stuff]]></a>");
  EXPECT_EQ(doc.root->text(), "<not-xml> & stuff");
}

TEST(Parse, CommentsIgnoredEverywhere) {
  const auto doc = parse(
      "<!-- head --><a><!-- inner --><b/><!-- tail --></a><!-- post -->");
  EXPECT_EQ(doc.root->children().size(), 1u);
}

TEST(Parse, DeclarationAndDoctypeSkipped) {
  const auto doc = parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE jedule SYSTEM \"jedule.dtd\">\n"
      "<jedule/>");
  EXPECT_EQ(doc.root->name(), "jedule");
}

TEST(Parse, SourceLinesTracked) {
  const auto doc = parse("<a>\n  <b/>\n  <c/>\n</a>");
  EXPECT_EQ(doc.root->source_line(), 1);
  EXPECT_EQ(doc.root->children()[0]->source_line(), 2);
  EXPECT_EQ(doc.root->children()[1]->source_line(), 3);
}

TEST(Parse, ErrorsCarryLineNumbers) {
  try {
    parse("<a>\n<b>\n</a>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

struct BadInput {
  const char* name;
  const char* text;
};

// Without this, gtest prints the raw bytes of the two pointers, which puts
// load addresses into the discovered ctest names and changes them per build.
void PrintTo(const BadInput& in, std::ostream* os) { *os << in.name; }

class ParseRejects : public ::testing::TestWithParam<BadInput> {};

TEST_P(ParseRejects, Throws) {
  EXPECT_THROW(parse(GetParam().text), ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParseRejects,
    ::testing::Values(
        BadInput{"empty", ""},
        BadInput{"mismatched_close", "<a></b>"},
        BadInput{"unterminated", "<a><b></b>"},
        BadInput{"trailing_content", "<a/><b/>"},
        BadInput{"duplicate_attr", "<a x='1' x='2'/>"},
        BadInput{"unknown_entity", "<a>&nope;</a>"},
        BadInput{"bad_charref", "<a>&#xZZ;</a>"},
        BadInput{"lt_in_attr", "<a x='<'/>"},
        BadInput{"unterminated_comment", "<!-- oops <a/>"},
        BadInput{"unterminated_cdata", "<a><![CDATA[x</a>"},
        BadInput{"doctype_subset", "<!DOCTYPE a [<!ENTITY x 'y'>]><a/>"},
        BadInput{"unquoted_attr", "<a x=1/>"},
        BadInput{"bare_text", "hello"}),
    [](const auto& info) { return info.param.name; });

TEST(Element, RequireAttrThrowsWithContext) {
  const auto doc = parse("<node/>");
  EXPECT_THROW(doc.root->require_attr("id"), ParseError);
}

TEST(Element, SetAttrReplaces) {
  Element e("x");
  e.set_attr("k", "1");
  e.set_attr("k", "2");
  EXPECT_EQ(e.attr("k"), "2");
  EXPECT_EQ(e.attributes().size(), 1u);
}

TEST(Serialize, RoundTripsStructure) {
  Element root("jedule");
  root.set_attr("version", "1.0");
  auto& meta = root.add_child("meta");
  meta.set_attr("name", "a<b");
  meta.set_attr("value", "\"quoted\"");
  root.add_child("empty");
  auto& text_el = root.add_child("label");
  text_el.set_text("x & y");

  const std::string xml = serialize(root);
  const auto doc = parse(xml);
  EXPECT_EQ(doc.root->name(), "jedule");
  EXPECT_EQ(doc.root->attr("version"), "1.0");
  EXPECT_EQ(doc.root->first_child("meta")->attr("name"), "a<b");
  EXPECT_EQ(doc.root->first_child("meta")->attr("value"), "\"quoted\"");
  EXPECT_EQ(doc.root->first_child("label")->text(), "x & y");
  EXPECT_TRUE(doc.root->first_child("empty")->children().empty());
}

TEST(Serialize, DeterministicOutput) {
  Element root("a");
  root.add_child("b").set_attr("k", "v");
  EXPECT_EQ(serialize(root), serialize(root));
}

TEST(ParseFile, MissingFileThrowsIoError) {
  EXPECT_THROW(parse_file("/nonexistent/definitely_not_here.xml"), IoError);
}

}  // namespace
}  // namespace jedule::xml
