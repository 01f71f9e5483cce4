// RFC 8259 conformance of json::Parse, the one reader behind the journal,
// metrics.jsonl, trace.json and profile.json: the value grammar, every
// escape JsonEscape writes, \u surrogate pairs, exact uint64 numbers, the
// nesting cap, and the typed member accessors the decoders use.

#include "common/json.h"

#include <gtest/gtest.h>

#include <string>

#include "common/string_util.h"

namespace gly::json {
namespace {

Value ParseOrDie(std::string_view text) {
  auto parsed = Parse(text);
  EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
  return parsed.ok() ? std::move(parsed).ValueOrDie() : Value();
}

void ExpectRejected(std::string_view text) {
  auto parsed = Parse(text);
  EXPECT_TRUE(parsed.status().IsInvalidArgument())
      << "accepted: " << std::string(text);
}

TEST(JsonTest, Literals) {
  EXPECT_EQ(ParseOrDie("null").type(), Value::Type::kNull);
  EXPECT_TRUE(*ParseOrDie("true").As<bool>());
  EXPECT_FALSE(*ParseOrDie(" \t\r\nfalse \n").As<bool>());
  for (const char* bad : {"", "   ", "nul", "True", "NULL", "nullx", "tru e",
                          "undefined", "'a'", "// c\nnull", "/* c */ null"}) {
    ExpectRejected(bad);
  }
}

TEST(JsonTest, NumbersKeepTheirLiteral) {
  EXPECT_EQ(*ParseOrDie("0").As<uint64_t>(), 0u);
  EXPECT_EQ(*ParseOrDie("18446744073709551615").As<uint64_t>(), UINT64_MAX);
  EXPECT_EQ(*ParseOrDie("9007199254740993").As<uint64_t>(),
            9007199254740993u);  // 2^53 + 1: not a double
  EXPECT_EQ(*ParseOrDie("-0").As<double>(), 0.0);
  EXPECT_EQ(*ParseOrDie("-1.5e3").As<double>(), -1500.0);
  EXPECT_EQ(*ParseOrDie("2.5E-1").As<double>(), 0.25);
  EXPECT_EQ(*ParseOrDie("1e+2").As<double>(), 100.0);
  EXPECT_EQ(*ParseOrDie("4294967295").As<uint32_t>(), UINT32_MAX);
  EXPECT_FALSE(ParseOrDie("4294967296").As<uint32_t>().ok());
  // uint64 reads only non-negative integer literals that fit.
  for (const char* text : {"-1", "1.0", "1e2", "18446744073709551616"}) {
    EXPECT_TRUE(ParseOrDie(text).As<double>().ok()) << text;
    EXPECT_FALSE(ParseOrDie(text).As<uint64_t>().ok()) << text;
  }
  for (const char* bad : {"01", "-01", "+1", "-", ".5", "1.", "1.e3", "1e",
                          "1e+", "0x10", "NaN", "Infinity", "-Infinity",
                          "1_000", "- 1"}) {
    ExpectRejected(bad);
  }
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(*ParseOrDie(R"("\"\\\/\b\f\n\r\t")").As<std::string>(),
            "\"\\/\b\f\n\r\t");
  EXPECT_EQ(*ParseOrDie(R"("\u0041\u00e9\u20AC")").As<std::string>(),
            "A\xC3\xA9\xE2\x82\xAC");
  // A surrogate pair decodes to one 4-byte UTF-8 sequence.
  EXPECT_EQ(*ParseOrDie(R"("\ud83d\ude00")").As<std::string>(),
            "\xF0\x9F\x98\x80");
  EXPECT_EQ(*ParseOrDie(R"("\u0000")").As<std::string>(), std::string(1, '\0'));
  // Bytes >= 0x80 and DEL pass through as written.
  EXPECT_EQ(*ParseOrDie("\"\xC3\xA9\x7F\xFF\"").As<std::string>(),
            "\xC3\xA9\x7F\xFF");
  for (const char* bad :
       {R"("abc)", R"("\)", R"("\x41")", R"("\U0041")", R"("\u12")",
        R"("\u12g4")", R"("\ud83d")", R"("\ude00")", R"("\ud83dA")",
        R"("\ud83dx")", "\"tab\there\"", "\"new\nline\"", "'single'"}) {
    ExpectRejected(bad);
  }
}

// Every byte string survives JsonEscape -> Parse, control bytes included.
TEST(JsonTest, JsonEscapeRoundTripsEveryByte) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(*ParseOrDie("\"" + JsonEscape(all) + "\"").As<std::string>(), all);
}

TEST(JsonTest, ArraysAndObjects) {
  Value doc = ParseOrDie(
      " { \"a\" : [ 1 , [ ] , { } , \"x\" ] ,\n\"b\":{\"c\":null} } ");
  const Value::Array* a = doc.Find("a")->array();
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 4u);
  EXPECT_EQ(*(*a)[0].As<uint64_t>(), 1u);
  EXPECT_TRUE((*a)[1].array()->empty());
  EXPECT_TRUE((*a)[2].object()->empty());
  EXPECT_EQ(doc.Find("b")->Find("c")->type(), Value::Type::kNull);
  EXPECT_EQ(doc.Find("missing"), nullptr);
  EXPECT_EQ((*a)[0].Find("a"), nullptr);  // not an object

  // A repeated key is kept in order; Find returns the first.
  Value dup = ParseOrDie(R"({"k":1,"k":2})");
  EXPECT_EQ(dup.object()->size(), 2u);
  EXPECT_EQ(*dup.Get<uint64_t>("k"), 1u);

  for (const char* bad :
       {"[1,]", "[,1]", "[1 2]", "[", "]", "{\"a\":1,}", "{\"a\" 1}",
        "{a:1}", "{1:2}", "{\"a\":}", "{\"a\":1", "{} {}", "[] x", "{}}"}) {
    ExpectRejected(bad);
  }
}

TEST(JsonTest, NestingIsCapped) {
  auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(Parse(nested(kMaxDepth)).ok());
  EXPECT_TRUE(Parse(nested(kMaxDepth + 1)).status().IsInvalidArgument());
  std::string objects;
  for (int i = 0; i <= kMaxDepth; ++i) objects += "{\"a\":";
  EXPECT_TRUE(Parse(objects + "1" + std::string(kMaxDepth + 1, '}'))
                  .status()
                  .IsInvalidArgument());
  // Far past the cap, open or closed: an error, not a stack overflow.
  EXPECT_TRUE(Parse(std::string(1000000, '[')).status().IsInvalidArgument());
  EXPECT_TRUE(Parse(nested(1000000)).status().IsInvalidArgument());
}

TEST(JsonTest, TypedMemberAccess) {
  Value doc = ParseOrDie(
      R"({"s":"text","n":7,"f":0.5,"b":true,"a":[1],"o":{}})");
  EXPECT_EQ(*doc.Get<std::string>("s"), "text");
  EXPECT_EQ(*doc.Get<uint64_t>("n"), 7u);
  EXPECT_EQ(*doc.Get<double>("f"), 0.5);
  EXPECT_TRUE(*doc.Get<bool>("b"));
  EXPECT_EQ((*doc.GetArray("a"))->size(), 1u);

  // Errors name the key.
  auto missing = doc.Get<std::string>("nope");
  EXPECT_TRUE(missing.status().IsInvalidArgument());
  EXPECT_NE(missing.status().message().find("\"nope\""), std::string::npos);
  auto mistyped = doc.Get<uint64_t>("s");
  EXPECT_TRUE(mistyped.status().IsInvalidArgument());
  EXPECT_NE(mistyped.status().message().find("\"s\""), std::string::npos);
  EXPECT_FALSE(doc.Get<uint64_t>("f").ok());
  EXPECT_FALSE(doc.Get<bool>("n").ok());
  EXPECT_FALSE(doc.GetArray("o").ok());
  EXPECT_FALSE(doc.GetArray("nope").ok());

  // GetOr falls back only when the key is absent, never on a wrong type.
  EXPECT_EQ(*doc.GetOr<uint64_t>("nope", 42), 42u);
  EXPECT_EQ(*doc.GetOr<uint64_t>("n", 42), 7u);
  EXPECT_FALSE(doc.GetOr<uint64_t>("s", 42).ok());
}

TEST(JsonTest, ErrorsNameTheByteOffset) {
  auto parsed = Parse("{\"a\":[1,2,x]}");
  ASSERT_TRUE(parsed.status().IsInvalidArgument());
  EXPECT_NE(parsed.status().message().find("byte 10"), std::string::npos)
      << parsed.status().ToString();
}

}  // namespace
}  // namespace gly::json
