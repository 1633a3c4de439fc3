#include "jedule/util/cpu.hpp"

#include <cstdlib>
#include <string_view>

namespace jedule::util {

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    f.pclmul = __builtin_cpu_supports("pclmul") != 0 &&
               __builtin_cpu_supports("sse4.1") != 0;
#endif
    return f;
  }();
  return features;
}

bool simd_enabled() {
  static const bool on = [] {
    const char* env = std::getenv("JEDULE_SIMD");
    if (env == nullptr) return true;
    const std::string_view want(env);
    return want != "scalar" && want != "off" && want != "0";
  }();
  return on;
}

}  // namespace jedule::util
