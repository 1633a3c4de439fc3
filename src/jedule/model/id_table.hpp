#pragma once

// model::IdTable — task id -> index of the first task with that id, the
// one id table of the library (DESIGN.md §4l). The table stores only task
// indices: ids are read through the caller's rows (anything with
// `std::string_view id(std::size_t) const`, such as AosRows or
// ColumnRows), so it never copies an id string and works on either
// resident form. The same table resolves a reader's edges, answers
// validate's duplicate-id check and keeps an arena's ids for append.
//
// The slots are split into 16 shards picked by the top bits of the id
// hash. Equal ids hash alike, so a repeated id always meets its first
// occurrence in one shard, and a large build hashes its rows in blocks and
// fills the shards on workers, with the same slots at any thread count.
// A slot holds the task index and 32 bits of the hash, so a probe reads a
// task's id only on a tag match.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string_view>
#include <vector>

#include "jedule/util/parallel.hpp"

namespace jedule::model {

class IdTable {
 public:
  static constexpr std::uint32_t kMissing = ~std::uint32_t{0};
  /// Tasks per block of the threaded passes over a schedule (this build
  /// and TaskView::validate); fewer than two blocks run serially.
  static constexpr std::size_t kBlock = std::size_t{1} << 14;

  /// An empty table; insert() grows it.
  IdTable() = default;

  /// The table of rows [0, n), inserted in task order: for a repeated id
  /// the first task wins and first_duplicate() names the earliest repeat.
  /// `threads` > 1 hashes blocks of rows and fills the shards on workers.
  template <typename Rows>
  IdTable(const Rows& rows, std::size_t n, int threads = 1);

  /// Index of the first task with this id, or kMissing.
  template <typename Rows>
  std::uint32_t find(const Rows& rows, std::string_view id) const {
    const std::size_t h = hash(id);
    return shards_[shard_of(h)].find(rows, id, h);
  }

  /// Adds task `index` unless an earlier task has its id; returns that
  /// earlier task, or kMissing when `index` was added.
  template <typename Rows>
  std::uint32_t insert(const Rows& rows, std::uint32_t index) {
    const std::size_t h = hash(rows.id(index));
    const std::uint32_t earlier = shards_[shard_of(h)].insert(rows, index, h);
    if (earlier != kMissing) {
      first_duplicate_ = std::min(first_duplicate_, index);
    }
    return earlier;
  }

  /// The lowest inserted index whose id repeats an earlier task's, or
  /// kMissing.
  std::uint32_t first_duplicate() const { return first_duplicate_; }

  /// Whether no id was ever added.
  bool empty() const {
    return std::all_of(shards_.begin(), shards_.end(),
                       [](const Shard& s) { return s.count == 0; });
  }

  std::size_t heap_bytes() const {
    std::size_t b = 0;
    for (const Shard& s : shards_) b += s.slots.capacity() * sizeof(Slot);
    return b;
  }

 private:
  static constexpr int kShardBits = 4;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;
  static constexpr int kHashBits = std::numeric_limits<std::size_t>::digits;

  static std::size_t hash(std::string_view id) {
    return std::hash<std::string_view>{}(id);
  }
  static std::size_t shard_of(std::size_t h) {
    return h >> (kHashBits - kShardBits);
  }
  static std::uint32_t tag_of(std::size_t h) {
    return static_cast<std::uint32_t>(h >> (kHashBits / 2));
  }

  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t index = kMissing;
  };

  // One open-addressed table with linear probing, at most half full. A
  // cache line each, so workers filling neighbouring shards do not share
  // one.
  struct alignas(64) Shard {
    std::vector<Slot> slots;
    std::size_t count = 0;

    void reserve(std::size_t n) {
      if (n > 0) slots.assign(std::bit_ceil(n * 2 + 16), Slot{});
    }

    template <typename Rows>
    std::uint32_t find(const Rows& rows, std::string_view id,
                       std::size_t h) const {
      if (slots.empty()) return kMissing;
      const std::size_t mask = slots.size() - 1;
      for (std::size_t at = h & mask;; at = (at + 1) & mask) {
        const Slot& slot = slots[at];
        if (slot.index == kMissing) return kMissing;
        if (slot.tag == tag_of(h) && rows.id(slot.index) == id) {
          return slot.index;
        }
      }
    }

    // Reads task ids only on a tag match, so a build from precomputed
    // hashes mostly leaves the rows alone.
    template <typename Rows>
    std::uint32_t insert(const Rows& rows, std::uint32_t index,
                         std::size_t h) {
      if ((count + 1) * 2 > slots.size()) grow(rows);
      const std::size_t mask = slots.size() - 1;
      for (std::size_t at = h & mask;; at = (at + 1) & mask) {
        Slot& slot = slots[at];
        if (slot.index == kMissing) {
          slot = {tag_of(h), index};
          ++count;
          return kMissing;
        }
        if (slot.tag == tag_of(h) && rows.id(slot.index) == rows.id(index)) {
          return slot.index;
        }
      }
    }

    template <typename Rows>
    void grow(const Rows& rows) {
      std::vector<Slot> old(std::max<std::size_t>(16, slots.size() * 2));
      old.swap(slots);
      const std::size_t mask = slots.size() - 1;
      for (const Slot& s : old) {
        if (s.index == kMissing) continue;
        std::size_t at = hash(rows.id(s.index)) & mask;
        while (slots[at].index != kMissing) at = (at + 1) & mask;
        slots[at] = s;
      }
    }
  };

  std::array<Shard, kShards> shards_;
  std::uint32_t first_duplicate_ = kMissing;
};

template <typename Rows>
IdTable::IdTable(const Rows& rows, std::size_t n, int threads) {
  if (threads <= 1 || n < 2 * kBlock) {
    // A shard receives about n / 16 ids, give or take a few times their
    // square root. The slack keeps any from growing mid-build and is
    // small, so it seldom lifts a shard to the next power of two.
    const std::size_t per_shard = n / kShards;
    for (Shard& s : shards_) s.reserve(per_shard + per_shard / 32 + 64);
    for (std::size_t i = 0; i < n; ++i) {
      insert(rows, static_cast<std::uint32_t>(i));
    }
    return;
  }
  // Per block: the block's rows with their hashes, bucketed by shard.
  // Per shard: its rows inserted in task order (blocks ascending, rows
  // ascending within a block), exactly as the serial build would.
  struct Member {
    std::uint32_t index;
    std::size_t hash;
  };
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  std::vector<std::array<std::vector<Member>, kShards>> members(blocks);
  util::parallel_for(blocks, threads, [&](std::size_t b) {
    const std::size_t last = std::min(n, (b + 1) * kBlock);
    for (std::size_t i = b * kBlock; i < last; ++i) {
      const std::size_t h = hash(rows.id(i));
      members[b][shard_of(h)].push_back({static_cast<std::uint32_t>(i), h});
    }
  });
  std::array<std::uint32_t, kShards> duplicate;
  duplicate.fill(kMissing);
  util::parallel_for(kShards, threads, [&](std::size_t s) {
    std::size_t count = 0;
    for (const auto& m : members) count += m[s].size();
    shards_[s].reserve(count);
    for (const auto& m : members) {
      for (const Member& e : m[s]) {
        const std::uint32_t earlier = shards_[s].insert(rows, e.index, e.hash);
        if (earlier != kMissing && duplicate[s] == kMissing) {
          duplicate[s] = e.index;
        }
      }
    }
  });
  first_duplicate_ = *std::min_element(duplicate.begin(), duplicate.end());
}

}  // namespace jedule::model
