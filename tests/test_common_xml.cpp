#include "common/xml.hpp"

#include <gtest/gtest.h>

#include <string>

namespace rw::xml {
namespace {

TEST(Xml, ParsesSimpleElement) {
  auto r = parse("<root/>");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value()->name, "root");
  EXPECT_TRUE(r.value()->children.empty());
}

TEST(Xml, ParsesAttributes) {
  auto r = parse(R"(<core id="3" freq="400e6" name='dsp 1'/>)");
  ASSERT_TRUE(r.ok());
  const auto& e = *r.value();
  EXPECT_EQ(e.attr("id"), "3");
  EXPECT_EQ(e.attr_u64("id"), 3u);
  EXPECT_EQ(e.attr("freq"), "400e6");
  EXPECT_EQ(e.attr("name"), "dsp 1");
  EXPECT_EQ(e.attr("missing"), "");
  EXPECT_EQ(e.attr_u64("missing", 99), 99u);
}

TEST(Xml, ParsesNestedChildren) {
  auto r = parse(R"(
    <architecture name="cellish">
      <core id="0" class="RISC"/>
      <core id="1" class="DSP"/>
      <memory kind="shared" bytes="1048576"/>
    </architecture>)");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  const auto& root = *r.value();
  EXPECT_EQ(root.name, "architecture");
  EXPECT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children_named("core").size(), 2u);
  ASSERT_NE(root.child("memory"), nullptr);
  EXPECT_EQ(root.child("memory")->attr_u64("bytes"), 1048576u);
  EXPECT_EQ(root.child("nonexistent"), nullptr);
}

TEST(Xml, ParsesTextContent) {
  auto r = parse("<note>  hello world  </note>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->text, "hello world");
}

TEST(Xml, SkipsPrologAndComments) {
  auto r = parse(R"(<?xml version="1.0"?>
    <!-- top comment -->
    <root>
      <!-- inner comment -->
      <a/>
    </root>
    <!-- trailing comment -->)");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value()->children.size(), 1u);
}

TEST(Xml, DecodesEntities) {
  auto r = parse(R"(<e v="&lt;&amp;&gt;">&quot;x&apos;</e>)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->attr("v"), "<&>");
  EXPECT_EQ(r.value()->text, "\"x'");
}

TEST(Xml, RejectsMismatchedTags) {
  auto r = parse("<a><b></a></b>");
  EXPECT_FALSE(r.ok());
}

TEST(Xml, RejectsTrailingContent) {
  auto r = parse("<a/><b/>");
  EXPECT_FALSE(r.ok());
}

TEST(Xml, RejectsUnterminatedInput) {
  EXPECT_FALSE(parse("<a>").ok());
  EXPECT_FALSE(parse("<a foo=>").ok());
  EXPECT_FALSE(parse("<a foo=\"x>").ok());
  EXPECT_FALSE(parse("").ok());
}

std::string nested_elements(int depth) {
  std::string doc;
  for (int i = 0; i < depth; ++i) doc += "<e>";
  for (int i = 0; i < depth; ++i) doc += "</e>";
  return doc;
}

TEST(Xml, RejectsHostileNestingWithTypedError) {
  // 100k levels used to overflow the stack; now a typed error.
  auto r = parse(nested_elements(100'000));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("nesting too deep"), std::string::npos)
      << r.error().to_string();
}

TEST(Xml, ParsesDeepButBoundedNesting) {
  auto r = parse(nested_elements(200));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  int depth = 1;
  for (const Element* e = r.value().get(); !e->children.empty();
       e = e->children.front().get())
    ++depth;
  EXPECT_EQ(depth, 200);
}

TEST(Xml, ErrorCarriesLineNumber) {
  auto r = parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(r.ok());
  EXPECT_GE(r.error().line, 3);
}

TEST(Xml, RoundTripsThroughSerialize) {
  const char* doc = R"(<arch n="2"><core id="0"/><core id="1"/></arch>)";
  auto r1 = parse(doc);
  ASSERT_TRUE(r1.ok());
  const std::string text = serialize(*r1.value());
  auto r2 = parse(text);
  ASSERT_TRUE(r2.ok()) << r2.error().to_string() << "\n" << text;
  EXPECT_EQ(r2.value()->children.size(), 2u);
  EXPECT_EQ(r2.value()->attr_u64("n"), 2u);
  EXPECT_EQ(serialize(*r2.value()), text);  // fixpoint after one round trip
}

TEST(Xml, SerializeEscapesSpecials) {
  Element e;
  e.name = "t";
  e.attributes.emplace_back("v", "a<b&c\"d");
  const std::string text = serialize(e);
  auto r = parse(text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->attr("v"), "a<b&c\"d");
}

}  // namespace
}  // namespace rw::xml
