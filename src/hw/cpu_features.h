// Runtime CPU SIMD capability probe and the register-tile rule.
//
// The codegen layer (src/runtime/codegen/) compiles fused pointwise
// programs and the GEMM micro-kernel once per instruction set and picks an
// implementation at runtime. This header is the single source of truth for
//
//   - what the executing CPU supports (`cpu_features()`, probed once), and
//   - how wide the register micro-tile of the blocked GEMM should be for a
//     given ISA (`register_tile_rule`) — the register-file analogue of the
//     cache-tile rule in hw/cache_model.h: the mr x nr fp32 accumulator
//     block, one rounded-product register per accumulator, one broadcast A
//     value and one packed B row must fit the architectural vector register
//     file, exactly as the KC/MC/NC cache blocks must fit the modeled cache.
//
// The runtime runs the widest ISA the CPU supports (`best_simd_isa()`);
// src/runtime/codegen/dispatch.h's set_forced_isa lets tests and benches
// pin another one, and a request the CPU cannot execute falls back to the
// best available ISA rather than faulting.
#pragma once

#include <cstdint>

namespace gf::hw {

/// Instruction sets the codegen layer can target. kGeneric is the
/// portable path — the same vectorized loops built without ISA-specific
/// flags — and is available on every CPU.
enum class SimdIsa : std::uint8_t { kGeneric, kAvx2, kAvx512, kNeon };

const char* simd_isa_name(SimdIsa isa);

/// What the executing CPU can run, probed once (GCC/Clang builtins on
/// x86-64, architecture macros on AArch64).
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool neon = false;
  /// Widest usable float lane count (16 on AVX-512, 8 on AVX2, 4 on
  /// NEON, 4 with bare SSE2 — x86-64 baseline).
  int max_vector_width_floats = 4;
};

const CpuFeatures& cpu_features();

/// True when the probed CPU can execute code compiled for `isa`.
/// kGeneric is always supported.
bool isa_supported(SimdIsa isa, const CpuFeatures& features = cpu_features());

/// Widest supported compiled ISA for the probed CPU (kGeneric when no
/// vector extension is available).
SimdIsa best_simd_isa(const CpuFeatures& features = cpu_features());

/// Float lanes per vector register for an ISA (kGeneric uses 8 — the
/// portable loops are written 8 wide and lowered by the compiler to
/// whatever the baseline ISA provides).
int simd_width_floats(SimdIsa isa);

/// Architectural vector register count the ISA guarantees (16 for
/// AVX2/generic x86-64, 32 for AVX-512 and NEON/AArch64).
int simd_register_count(SimdIsa isa);

/// GEMM register micro-tile.
struct RegisterTile {
  std::int64_t mr = 4;
  std::int64_t nr = 8;
};

/// Derives the register tile for an ISA from its vector geometry:
///   nr = smallest multiple of the float lane width >= 8 (the B row is
///        whole vectors, and each broadcast A value feeds at least the seed
///        tile's 8 products), and
///   mr = clamp((regs - 4) / (2*nr/width), 4, 8) — each of the mr rows
///        holds nr/width fp32 accumulator vectors plus as many product
///        vectors, because the micro-kernels round a*b to float before the
///        add (no FMA) so every product is a value of its own; 4 registers
///        stay free for the broadcast A value and the packed B row.
RegisterTile register_tile_rule(SimdIsa isa);

}  // namespace gf::hw
