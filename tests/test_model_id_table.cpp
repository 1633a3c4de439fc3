#include "jedule/model/id_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace jedule::model {
namespace {

// Rows of plain id strings, read the way IdTable reads a schedule's.
struct Ids {
  std::vector<std::string> ids;
  std::string_view id(std::size_t i) const { return ids[i]; }
};

constexpr std::uint32_t kMissing = IdTable::kMissing;

TEST(IdTable, FirstTaskWinsOnRepeatedIds) {
  const Ids rows{{"a", "b", "a", "c", "b", "a"}};
  const IdTable table(rows, rows.ids.size());
  EXPECT_EQ(table.find(rows, "a"), 0u);
  EXPECT_EQ(table.find(rows, "b"), 1u);
  EXPECT_EQ(table.find(rows, "c"), 3u);
  EXPECT_EQ(table.first_duplicate(), 2u);

  IdTable grown;
  EXPECT_EQ(grown.insert(rows, 0), kMissing);
  EXPECT_EQ(grown.insert(rows, 1), kMissing);
  EXPECT_EQ(grown.first_duplicate(), kMissing);
  EXPECT_EQ(grown.insert(rows, 4), 1u);  // "b" again: the first one stays
  EXPECT_EQ(grown.insert(rows, 2), 0u);
  EXPECT_EQ(grown.first_duplicate(), 2u);  // the lowest repeat, not the first
  EXPECT_EQ(grown.find(rows, "b"), 1u);
}

TEST(IdTable, MissesReadAsMissing) {
  const Ids rows{{"t0", "t1", ""}};
  EXPECT_EQ(IdTable().find(rows, "t0"), kMissing);
  EXPECT_TRUE(IdTable().empty());
  const IdTable table(rows, rows.ids.size());
  EXPECT_FALSE(table.empty());
  EXPECT_EQ(table.find(rows, "t2"), kMissing);
  EXPECT_EQ(table.find(rows, "t"), kMissing);
  EXPECT_EQ(table.find(rows, ""), 2u);  // the empty id is an id like any
  EXPECT_EQ(table.first_duplicate(), kMissing);
}

TEST(IdTable, InsertGrowsEveryShard) {
  // Inserted one by one into an empty table: 40k ids spread over all 16
  // shards, each of which grows from nothing many times over.
  Ids rows;
  for (int i = 0; i < 40000; ++i) {
    rows.ids.push_back("task-" + std::to_string(i));
  }
  IdTable table;
  for (std::uint32_t i = 0; i < rows.ids.size(); ++i) {
    ASSERT_EQ(table.insert(rows, i), kMissing) << i;
  }
  for (std::uint32_t i = 0; i < rows.ids.size(); ++i) {
    ASSERT_EQ(table.find(rows, rows.ids[i]), i) << i;
  }
  EXPECT_EQ(table.find(rows, "task-40000"), kMissing);
  EXPECT_EQ(table.first_duplicate(), kMissing);
  // Two slots per id at most four: the table stays between half and a
  // quarter full after doubling.
  EXPECT_GE(table.heap_bytes(), 2 * 8 * rows.ids.size());
  EXPECT_LE(table.heap_bytes(), 4 * 8 * rows.ids.size() + 16 * 16 * 8);
}

TEST(IdTable, ParallelBuildEqualsSerialBuild) {
  // More than three blocks, with repeats inside a block, across the first
  // block seam and far apart.
  const std::size_t n = 3 * IdTable::kBlock + 1234;
  Ids rows;
  for (std::size_t i = 0; i < n; ++i) {
    rows.ids.push_back("t" + std::to_string(i));
  }
  rows.ids[IdTable::kBlock] = rows.ids[IdTable::kBlock - 1];
  rows.ids[n - 1] = rows.ids[5];
  rows.ids[40000] = rows.ids[39990];
  const IdTable serial(rows, n, 1);
  ASSERT_EQ(serial.first_duplicate(), IdTable::kBlock);
  for (int threads : {1, 2, 8}) {
    const IdTable table(rows, n, threads);
    EXPECT_EQ(table.first_duplicate(), serial.first_duplicate()) << threads;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(table.find(rows, rows.ids[i]), serial.find(rows, rows.ids[i]))
          << threads << " " << i;
    }
    EXPECT_EQ(table.find(rows, "t" + std::to_string(n)), kMissing);
  }
  EXPECT_EQ(serial.find(rows, rows.ids[n - 1]), 5u);
  EXPECT_EQ(serial.find(rows, rows.ids[40000]), 39990u);
}

}  // namespace
}  // namespace jedule::model
