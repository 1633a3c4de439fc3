#pragma once

// FNV-1a hashing helpers behind every content hash: the task hash of
// TaskIndex::hash_schedule and of the columnar ScheduleArena, the edge
// hashes of the arena and of EdgeIndex, and the entry id that folds them
// (engine::ScheduleEntry). The two task hashes walk logically identical
// byte streams (clusters, then per-task fields, then the task count), as
// do the two edge hashes (src, dst, data per edge), so each pair must
// consume bytes through the same primitives — keeping them here makes an
// accidental divergence a compile-visible edit instead of a silent
// cache-key split. These hashes are not the task-id table's hash
// (std::hash, model::IdTable).

#include <cstdint>
#include <cstring>
#include <string_view>

namespace jedule::model::detail {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void fnv_bytes(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

inline void fnv_u64(std::uint64_t* h, std::uint64_t v) { fnv_bytes(h, &v, 8); }

inline void fnv_double(std::uint64_t* h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  fnv_u64(h, bits);
}

inline void fnv_string(std::uint64_t* h, std::string_view s) {
  fnv_u64(h, s.size());
  fnv_bytes(h, s.data(), s.size());
}

}  // namespace jedule::model::detail
