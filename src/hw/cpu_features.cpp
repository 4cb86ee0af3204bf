#include "src/hw/cpu_features.h"

#include <algorithm>

namespace gf::hw {

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kGeneric: return "generic";
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kAvx512: return "avx512";
    case SimdIsa::kNeon: return "neon";
  }
  return "?";
}

namespace {

CpuFeatures probe() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
  f.max_vector_width_floats = f.avx512f ? 16 : (f.avx2 ? 8 : 4);
#elif defined(__aarch64__)
  f.neon = true;  // Advanced SIMD is baseline on AArch64
  f.max_vector_width_floats = 4;
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = probe();
  return features;
}

bool isa_supported(SimdIsa isa, const CpuFeatures& features) {
  switch (isa) {
    case SimdIsa::kGeneric: return true;
    case SimdIsa::kAvx2: return features.avx2;
    case SimdIsa::kAvx512: return features.avx512f;
    case SimdIsa::kNeon: return features.neon;
  }
  return false;
}

SimdIsa best_simd_isa(const CpuFeatures& features) {
  if (features.avx512f) return SimdIsa::kAvx512;
  if (features.avx2) return SimdIsa::kAvx2;
  if (features.neon) return SimdIsa::kNeon;
  return SimdIsa::kGeneric;
}

int simd_width_floats(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kGeneric: return 8;
    case SimdIsa::kAvx2: return 8;
    case SimdIsa::kAvx512: return 16;
    case SimdIsa::kNeon: return 4;
  }
  return 1;
}

int simd_register_count(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kGeneric: return 16;
    case SimdIsa::kAvx2: return 16;
    case SimdIsa::kAvx512: return 32;
    case SimdIsa::kNeon: return 32;
  }
  return 16;
}

RegisterTile register_tile_rule(SimdIsa isa) {
  const std::int64_t width = simd_width_floats(isa);
  const std::int64_t regs = simd_register_count(isa);
  // B-row floats per micro-tile: whole vectors, at least the seed tile's 8.
  const std::int64_t nr = std::max<std::int64_t>(8, width);
  // Each of the mr rows keeps nr/width fp32 accumulator vectors live, plus
  // one rounded-product vector per accumulator (unfused multiply, then add).
  const std::int64_t vecs_per_row = 2 * nr / width;
  const std::int64_t mr = std::clamp<std::int64_t>((regs - 4) / vecs_per_row, 4, 8);
  return RegisterTile{mr, nr};
}

}  // namespace gf::hw
