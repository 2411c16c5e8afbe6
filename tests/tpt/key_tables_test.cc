#include "tpt/key_tables.h"

#include <gtest/gtest.h>

namespace hpm {
namespace {

/// Region layout of the paper's Fig. 3 / Table I: R0^0 (offset 0),
/// R1^0 and R1^1 (offset 1), R2^0 and R2^1 (offset 2).
FrequentRegionSet PaperRegions() {
  FrequentRegionSet set;
  set.set_period(3);
  const std::vector<Timestamp> offsets = {0, 1, 1, 2, 2};
  for (size_t i = 0; i < offsets.size(); ++i) {
    FrequentRegion r;
    r.id = static_cast<int>(i);
    r.offset = offsets[i];
    r.center = {static_cast<double>(i) * 10, 0};
    r.mbr.Extend(r.center);
    r.support = 5;
    set.AddRegion(r);
  }
  return set;
}

/// The paper's four patterns (Fig. 3): P0: R0->R1^0 (0.9),
/// P1: R0->R1^1 (0.8), P2: R0^R1^0->R2^0 (0.5), P3: R0^R1^1->R2^1 (0.4).
std::vector<TrajectoryPattern> PaperPatterns() {
  std::vector<TrajectoryPattern> out(4);
  out[0] = {{0}, 1, 0.9, 9};
  out[1] = {{0}, 2, 0.8, 8};
  out[2] = {{0, 1}, 3, 0.5, 5};
  out[3] = {{0, 2}, 4, 0.4, 4};
  return out;
}

class KeyTablesPaperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    regions_ = PaperRegions();
    patterns_ = PaperPatterns();
    tables_ = KeyTables::Build(regions_, patterns_);
  }
  FrequentRegionSet regions_;
  std::vector<TrajectoryPattern> patterns_;
  KeyTables tables_;
};

TEST_F(KeyTablesPaperTest, KeyLengthsMatchTables) {
  // Table I: 5 regions -> premise keys of length 5.
  EXPECT_EQ(tables_.premise_key_length(), 5u);
  // Table II: consequences at offsets 1 and 2 -> length 2.
  EXPECT_EQ(tables_.consequence_key_length(), 2u);
  EXPECT_EQ(tables_.consequence_offsets(),
            (std::vector<Timestamp>{1, 2}));
}

TEST_F(KeyTablesPaperTest, TimeIdMapping) {
  EXPECT_EQ(tables_.TimeIdForOffset(1), 0);
  EXPECT_EQ(tables_.TimeIdForOffset(2), 1);
  EXPECT_EQ(tables_.TimeIdForOffset(0), -1);  // No pattern concludes at 0.
  EXPECT_EQ(tables_.OffsetForTimeId(0), 1);
  EXPECT_EQ(tables_.OffsetForTimeId(1), 2);
}

TEST_F(KeyTablesPaperTest, EncodePatternReproducesTableIII) {
  EXPECT_EQ(tables_.EncodePattern(patterns_[0], regions_).ToString(),
            "0100001");
  EXPECT_EQ(tables_.EncodePattern(patterns_[1], regions_).ToString(),
            "0100001");  // Same key for both offset-1 consequences.
  EXPECT_EQ(tables_.EncodePattern(patterns_[2], regions_).ToString(),
            "1000011");
  EXPECT_EQ(tables_.EncodePattern(patterns_[3], regions_).ToString(),
            "1000101");
}

TEST_F(KeyTablesPaperTest, DecodePremiseInvertsEncodePattern) {
  for (const TrajectoryPattern& p : patterns_) {
    const PatternKey key = tables_.EncodePattern(p, regions_);
    EXPECT_EQ(tables_.DecodePremise(key.premise().words()), p.premise)
        << p.ToString();
  }
}

TEST_F(KeyTablesPaperTest, EncodeQueryMatchesPaperExample) {
  // §VI-B: Jane's recent movements R0^0 and R1^0, tq = 2 -> 1000011.
  PatternKey q;
  ASSERT_TRUE(tables_.EncodeQueryInto({0, 1}, 2, &q).ok());
  EXPECT_EQ(q.ToString(), "1000011");
}

TEST_F(KeyTablesPaperTest, EncodeQueryUnknownOffsetIsNotFound) {
  PatternKey q;
  EXPECT_EQ(tables_.EncodeQueryInto({0}, 0, &q).code(),
            StatusCode::kNotFound);
}

TEST_F(KeyTablesPaperTest, EncodeQueryIntervalSetsAllCoveredOffsets) {
  PatternKey k;
  tables_.EncodeQueryIntervalInto({0}, 1, 2, &k);
  EXPECT_EQ(k.consequence().Count(), 2u);
  PatternKey only_two;
  tables_.EncodeQueryIntervalInto({0}, 2, 5, &only_two);
  EXPECT_EQ(only_two.consequence().Count(), 1u);
  EXPECT_TRUE(only_two.consequence().Test(1));
  PatternKey none;
  tables_.EncodeQueryIntervalInto({0}, 5, 9, &none);
  EXPECT_TRUE(none.consequence().None());
}

TEST_F(KeyTablesPaperTest, EncodeQueryIntervalEmptyWhenReversed) {
  PatternKey k;
  tables_.EncodeQueryIntervalInto({0}, 3, 1, &k);
  EXPECT_TRUE(k.consequence().None());
}

TEST(KeyTablesTest, EmptyPatternsGiveEmptyConsequenceTable) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = KeyTables::Build(regions, {});
  EXPECT_EQ(tables.consequence_key_length(), 0u);
  EXPECT_EQ(tables.premise_key_length(), 5u);
  EXPECT_EQ(tables.TimeIdForOffset(1), -1);
}

TEST(KeyTablesTest, EncodeQueryIntervalOnEmptyTablesHasNoConsequence) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = KeyTables::Build(regions, {});
  PatternKey k;
  tables.EncodeQueryIntervalInto({0}, 1, 4, &k);
  EXPECT_TRUE(k.consequence().None());
  EXPECT_TRUE(k.premise().Test(0));
}

TEST(KeyTablesTest, DecodePremiseReadsEveryWord) {
  // 130 regions span three premise words; bit i decodes to region i.
  FrequentRegionSet regions;
  regions.set_period(130);
  for (int id = 0; id < 130; ++id) {
    FrequentRegion r;
    r.id = id;
    r.offset = id;
    regions.AddRegion(r);
  }
  const KeyTables tables = KeyTables::Build(regions, {});
  const std::vector<int> premise = {0, 1, 63, 64, 65, 127, 128, 129};
  PatternKey key;
  tables.EncodeQueryIntervalInto(premise, 1, 0, &key);
  EXPECT_EQ(tables.DecodePremise(key.premise().words()), premise);
  key.mutable_premise().Reset();
  EXPECT_TRUE(tables.DecodePremise(key.premise().words()).empty());
}

TEST(KeyTablesDeathTest, EncodeQueryBadRegionAborts) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = KeyTables::Build(regions, PaperPatterns());
  PatternKey q;
  EXPECT_DEATH((void)tables.EncodeQueryInto({7}, 1, &q), "HPM_CHECK");
}

TEST(KeyTablesDeathTest, EncodeQueryNegativeRegionAborts) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = KeyTables::Build(regions, PaperPatterns());
  PatternKey q;
  EXPECT_DEATH((void)tables.EncodeQueryInto({-1}, 1, &q), "HPM_CHECK");
}

TEST(KeyTablesDeathTest, EncodePatternUnknownConsequenceOffsetAborts) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = KeyTables::Build(regions, PaperPatterns());
  // Region 0 concludes at offset 0, which no pattern's consequence uses,
  // so the consequence-time table has no slot for it.
  const TrajectoryPattern rogue = {{1}, 0, 0.5, 3};
  EXPECT_DEATH((void)tables.EncodePattern(rogue, regions), "HPM_CHECK");
}

TEST(KeyTablesDeathTest, OffsetForTimeIdOutOfRangeAborts) {
  const FrequentRegionSet regions = PaperRegions();
  const KeyTables tables = KeyTables::Build(regions, PaperPatterns());
  EXPECT_DEATH((void)tables.OffsetForTimeId(99), "HPM_CHECK");
  EXPECT_DEATH((void)tables.OffsetForTimeId(-1), "HPM_CHECK");
}

}  // namespace
}  // namespace hpm
