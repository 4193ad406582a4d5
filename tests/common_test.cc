// Unit tests for src/common: Status/Result, Value, RLE, BitRle, XML, RNG.
#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "common/rle.h"
#include "common/status.h"
#include "common/value.h"
#include "common/xml.h"

namespace bdbms {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("gene JW0080");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: gene JW0080");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  BDBMS_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = DoublePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = DoublePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(ValueTest, TotalOrderAcrossTypes) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(5).Compare(Value::Text("a")), 0);
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_GT(Value::Double(3.5).Compare(Value::Int(3)), 0);
  EXPECT_LT(Value::Text("abc").Compare(Value::Text("abd")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, SequenceComparesAsString) {
  EXPECT_EQ(Value::Sequence("ATG").Compare(Value::Text("ATG")), 0);
}

TEST(ValueTest, ToStringQuotesText) {
  EXPECT_EQ(Value::Text("it's").ToString(), "'it''s'");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  std::vector<Value> vals = {
      Value::Null(), Value::Int(-123456789), Value::Double(2.75),
      Value::Text("hello world"), Value::Sequence("ATGATGGAAAA")};
  std::string buf;
  for (const Value& v : vals) v.EncodeTo(&buf);
  size_t off = 0;
  for (const Value& v : vals) {
    auto decoded = Value::DecodeFrom(buf, &off);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->type(), v.type());
    EXPECT_EQ(*decoded, v);
  }
  EXPECT_EQ(off, buf.size());
}

TEST(ValueTest, DecodeTruncatedFails) {
  std::string buf;
  Value::Text("payload").EncodeTo(&buf);
  buf.resize(buf.size() - 2);
  size_t off = 0;
  auto decoded = Value::DecodeFrom(buf, &off);
  EXPECT_FALSE(decoded.ok());
}

TEST(ValueTest, CoerceIntToDouble) {
  auto r = Value::Int(4).CoerceTo(DataType::kDouble);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(r->as_double(), 4.0);
}

TEST(ValueTest, CoerceTextToIntFails) {
  EXPECT_FALSE(Value::Text("x").CoerceTo(DataType::kInt).ok());
}

TEST(RleTest, EncodeDecodeRoundTrip) {
  std::string raw = "LLLEEEEEEEHHHHHHHHHHHHHHHHHHHHHHEEEEEELL";
  auto runs = Rle::Encode(raw);
  EXPECT_EQ(Rle::Decode(runs), raw);
}

TEST(RleTest, TextualFormMatchesPaperFigure12) {
  // Paper Figure 12: "LLLEEEEEEEH..." compresses to "L3E7H22E6L2...".
  std::string raw = "LLL";
  raw += std::string(7, 'E');
  raw += std::string(22, 'H');
  raw += std::string(6, 'E');
  raw += "LL";
  EXPECT_EQ(Rle::CompressToText(raw), "L3E7H22E6L2");
}

TEST(RleTest, FromTextRoundTrip) {
  auto runs = Rle::FromText("L3E7H22E6L2");
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(Rle::ToText(*runs), "L3E7H22E6L2");
  EXPECT_EQ(Rle::UncompressedLength(*runs), 40u);
}

TEST(RleTest, FromTextRejectsMalformed) {
  EXPECT_FALSE(Rle::FromText("L").ok());        // missing count
  EXPECT_FALSE(Rle::FromText("3L").ok());       // digit as run char
  EXPECT_FALSE(Rle::FromText("L0").ok());       // zero run
  EXPECT_FALSE(Rle::FromText("L3E").ok());      // trailing missing count
}

TEST(RleTest, EmptyInput) {
  EXPECT_TRUE(Rle::Encode("").empty());
  EXPECT_EQ(Rle::CompressToText(""), "");
  auto runs = Rle::FromText("");
  ASSERT_TRUE(runs.ok());
  EXPECT_TRUE(runs->empty());
}

TEST(BitRleTest, RoundTrip) {
  std::vector<bool> bits = {false, false, true, true, true, false, true};
  auto runs = BitRle::Encode(bits);
  EXPECT_EQ(BitRle::Decode(runs), bits);
}

TEST(BitRleTest, LeadingOneRun) {
  std::vector<bool> bits = {true, true, false};
  auto runs = BitRle::Encode(bits);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], 0u);  // zero leading zeros
  EXPECT_EQ(BitRle::Decode(runs), bits);
}

TEST(BitRleTest, SerializeRoundTrip) {
  std::vector<bool> bits(1000, false);
  for (int i = 400; i < 420; ++i) bits[i] = true;
  auto runs = BitRle::Encode(bits);
  std::string buf;
  BitRle::Serialize(runs, &buf);
  auto back = BitRle::Deserialize(buf);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(BitRle::Decode(*back), bits);
  // Sparse bitmap compresses far below the 125 bytes of the raw bitmap.
  EXPECT_LT(buf.size(), 16u);
}

TEST(BitRleTest, DeserializeTruncatedFails) {
  std::vector<uint32_t> runs = {1000, 20, 3000};
  std::string buf;
  BitRle::Serialize(runs, &buf);
  auto bad = BitRle::Deserialize(std::string_view(buf).substr(0, 2));
  EXPECT_FALSE(bad.ok());
}

TEST(XmlTest, ParsesAnnotationBody) {
  auto root = Xml::Parse("<Annotation>obtained from GenoBase</Annotation>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->tag, "Annotation");
  EXPECT_EQ((*root)->text, "obtained from GenoBase");
}

TEST(XmlTest, ParsesNestedElementsAndAttributes) {
  auto root = Xml::Parse(
      "<Provenance source=\"RegulonDB\"><Table>Gene</Table>"
      "<Time>42</Time><Op kind=\"copy\"/></Provenance>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->attributes.at("source"), "RegulonDB");
  ASSERT_NE((*root)->FindChild("Table"), nullptr);
  EXPECT_EQ((*root)->FindChild("Table")->text, "Gene");
  EXPECT_EQ((*root)->FindChild("Op")->attributes.at("kind"), "copy");
}

TEST(XmlTest, EntityEscapingRoundTrip) {
  auto root = Xml::Parse("<A>1 &lt; 2 &amp;&amp; 3 &gt; 2</A>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ((*root)->text, "1 < 2 && 3 > 2");
  std::string serialized = "<A>" + Xml::Escape((*root)->text) + "</A>";
  auto reparsed = Xml::Parse(serialized);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ((*reparsed)->text, (*root)->text);
}

TEST(XmlTest, RejectsMalformed) {
  EXPECT_FALSE(Xml::Parse("<A><B></A></B>").ok());
  EXPECT_FALSE(Xml::Parse("<A>unclosed").ok());
  EXPECT_FALSE(Xml::Parse("no root").ok());
  EXPECT_FALSE(Xml::Parse("<A></A><B></B>").ok());
}

TEST(XmlSchemaTest, ValidatesProvenanceRecords) {
  XmlSchema schema("Provenance", {"Source", "Time"}, {"Program", "Comment"});
  EXPECT_TRUE(schema
                  .ValidateText("<Provenance><Source>DB1</Source>"
                                "<Time>3</Time></Provenance>")
                  .ok());
  // Missing required <Time>.
  EXPECT_FALSE(
      schema.ValidateText("<Provenance><Source>DB1</Source></Provenance>")
          .ok());
  // Unknown child rejected.
  EXPECT_FALSE(schema
                   .ValidateText("<Provenance><Source>x</Source><Time>1</Time>"
                                 "<Hack/></Provenance>")
                   .ok());
  // Wrong root tag.
  EXPECT_FALSE(schema.ValidateText("<Annotation/>").ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextStringUsesAlphabet) {
  Rng rng(9);
  std::string s = rng.NextString(500, "ACGT");
  EXPECT_EQ(s.size(), 500u);
  for (char c : s) {
    EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T');
  }
}

TEST(ClockTest, MonotonicAndAdvanceable) {
  LogicalClock clock;
  uint64_t t1 = clock.Tick();
  uint64_t t2 = clock.Tick();
  EXPECT_LT(t1, t2);
  clock.AdvanceTo(100);
  EXPECT_GT(clock.Tick(), 100u);
  clock.AdvanceTo(5);  // no-op backwards
  EXPECT_GT(clock.Tick(), 100u);
}

}  // namespace
}  // namespace bdbms
