#pragma once

// Runtime CPU feature detection and the JEDULE_SIMD switch. Both are read
// once, on first use; the results are immutable afterwards, so concurrent
// readers are safe.

namespace jedule::util {

struct CpuFeatures {
  bool pclmul = false;  ///< carry-less multiply (x86 PCLMULQDQ + SSE4.1)
};

/// Features of the executing CPU.
const CpuFeatures& cpu_features();

/// False when the JEDULE_SIMD environment variable is "scalar", "off" or
/// "0": the raster kernels (render/kernels.hpp) and crc32() then take
/// their portable paths. Any other value, or none, leaves SIMD on.
bool simd_enabled();

}  // namespace jedule::util
