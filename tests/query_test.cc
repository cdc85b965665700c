#include "kdb/query.h"

#include <gtest/gtest.h>

namespace adahealth {
namespace kdb {
namespace {

using common::Json;

Document MakeDocument() {
  auto document = Document::Parse(R"({
    "kind": "cluster",
    "quality": 0.8,
    "size": 120,
    "flags": {"selected": true},
    "interest": "high"
  })");
  EXPECT_TRUE(document.ok());
  return document.value();
}

TEST(QueryTest, EmptyQueryMatchesEverything) {
  EXPECT_TRUE(Query().Matches(MakeDocument()));
  EXPECT_TRUE(Query().Matches(Document()));
}

TEST(QueryTest, EqOnStringsAndNumbers) {
  Document document = MakeDocument();
  EXPECT_TRUE(Query().Eq("kind", Json("cluster")).Matches(document));
  EXPECT_FALSE(Query().Eq("kind", Json("rule")).Matches(document));
  EXPECT_TRUE(Query().Eq("size", Json(int64_t{120})).Matches(document));
  // Numeric equality across int/double representations.
  EXPECT_TRUE(Query().Eq("size", Json(120.0)).Matches(document));
  EXPECT_TRUE(Query().Eq("quality", Json(0.8)).Matches(document));
}

TEST(QueryTest, EqOnMissingFieldFails) {
  EXPECT_FALSE(Query().Eq("absent", Json(1)).Matches(MakeDocument()));
}

TEST(QueryTest, NeMatchesMissingField) {
  Document document = MakeDocument();
  EXPECT_TRUE(Query()
                  .Where("absent", QueryOp::kNe, Json(1))
                  .Matches(document));
  EXPECT_TRUE(Query()
                  .Where("kind", QueryOp::kNe, Json("rule"))
                  .Matches(document));
  EXPECT_FALSE(Query()
                   .Where("kind", QueryOp::kNe, Json("cluster"))
                   .Matches(document));
}

TEST(QueryTest, OrderingOperatorsOnNumbers) {
  Document document = MakeDocument();
  EXPECT_TRUE(Query()
                  .Where("quality", QueryOp::kGt, Json(0.5))
                  .Matches(document));
  EXPECT_FALSE(Query()
                   .Where("quality", QueryOp::kGt, Json(0.8))
                   .Matches(document));
  EXPECT_TRUE(Query()
                  .Where("quality", QueryOp::kGe, Json(0.8))
                  .Matches(document));
  EXPECT_TRUE(Query()
                  .Where("size", QueryOp::kLt, Json(int64_t{200}))
                  .Matches(document));
  EXPECT_TRUE(Query()
                  .Where("size", QueryOp::kLe, Json(120.0))
                  .Matches(document));
}

TEST(QueryTest, OrderingOnStringsIsLexicographic) {
  Document document = MakeDocument();
  EXPECT_TRUE(Query()
                  .Where("kind", QueryOp::kLt, Json("zebra"))
                  .Matches(document));
  EXPECT_FALSE(Query()
                   .Where("kind", QueryOp::kLt, Json("alpha"))
                   .Matches(document));
}

TEST(QueryTest, OrderingOnMismatchedTypesNeverMatches) {
  Document document = MakeDocument();
  EXPECT_FALSE(Query()
                   .Where("kind", QueryOp::kGt, Json(1))
                   .Matches(document));
  EXPECT_FALSE(Query()
                   .Where("flags", QueryOp::kLt, Json(1))
                   .Matches(document));
}

TEST(QueryTest, ExistsChecksPresence) {
  Document document = MakeDocument();
  EXPECT_TRUE(Query()
                  .Where("flags.selected", QueryOp::kExists, Json())
                  .Matches(document));
  EXPECT_FALSE(Query()
                   .Where("flags.missing", QueryOp::kExists, Json())
                   .Matches(document));
}

TEST(QueryTest, DottedPathConditions) {
  Document document = MakeDocument();
  EXPECT_TRUE(
      Query().Eq("flags.selected", Json(true)).Matches(document));
}

TEST(QueryTest, ConjunctionSemantics) {
  Document document = MakeDocument();
  EXPECT_TRUE(Query()
                  .Eq("kind", Json("cluster"))
                  .Where("quality", QueryOp::kGe, Json(0.5))
                  .Matches(document));
  EXPECT_FALSE(Query()
                   .Eq("kind", Json("cluster"))
                   .Where("quality", QueryOp::kGe, Json(0.9))
                   .Matches(document));
}

TEST(QueryTest, BooleanComparison) {
  Document document = MakeDocument();
  EXPECT_TRUE(Query()
                  .Where("flags.selected", QueryOp::kGe, Json(true))
                  .Matches(document));
}

}  // namespace
}  // namespace kdb
}  // namespace adahealth
