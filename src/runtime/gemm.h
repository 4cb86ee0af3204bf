// Cache-blocked, packed GEMM core — the numeric-runtime counterpart of the
// paper's cache-hierarchy execution model (`hw/cache_model.h`).
//
// The hardware analysis (§4, Table 4, Fig. 9) assumes matrix ops run as a
// tiled GEMM whose square tile edge follows the Coleman–McKinley rule
//   T = floor(sqrt(cache_bytes / (3 * dtype_bytes)))
// and whose off-chip traffic is
//   A: M*K * ceil(N/T)   B: K*N * ceil(M/T)   C: 2*M*N     (elements).
// This file implements exactly that algorithm, so the executor's measured
// behaviour can validate the model instead of contradicting it:
//
//  - KC/MC/NC cache blocks are derived from the same tile rule
//    (`select_gemm_tiling`), with MC/NC rounded to register-tile multiples.
//  - A and B panels are packed into contiguous micro-tile strips; the
//    `trans_a`/`trans_b` flags are folded into the pack step, so the inner
//    loop is branch- and lambda-free and streams unit-stride memory.
//  - The micro-kernel accumulates an mr x nr register tile in fp32: each
//    product is rounded to float and added to a float accumulator in
//    ascending-k order, never fused into an FMA (this TU and the codegen
//    TUs build with -ffp-contract=off). The float tile is carried across
//    KC blocks and each C element is written exactly once. The tile is
//    sized by hw::register_tile_rule for the active codegen ISA; any other
//    tile (the seed 4x8 {kGemmMr, kGemmNr}, which tests and kernel_bench
//    pass to reach it) runs a runtime-sized scalar micro-kernel. The
//    vectorized micro-kernels in src/runtime/codegen/ preserve the
//    per-element operation sequence, so output bits are identical across
//    ISAs, tile shapes and thread counts.
//    Against the double-accumulating `reference_gemm` the contract is an
//    error bound, not bit equality: |c - ref| <= (k+2) * 2^-24 *
//    sum_p |a_ip * b_pj| per element (tests/test_gemm.cpp,
//    bench/kernel_bench).
//  - Work is partitioned 2D over (batch x M-tiles x N-tiles); every tile is
//    computed by exactly one `parallel_for` iteration (disjoint writes, no
//    cross-thread reduction), which preserves the wavefront executor's
//    bitwise-determinism guarantees.
//  - B reaches the micro-kernel one of two ways. By default each tile
//    packs its own block of op(B) per KC block. A caller that multiplies
//    by the same B many times (the executor, for a recurrent weight read
//    every timestep) packs all of op(B) once with `pack_b_panels` and
//    passes the result as `b_packed`; the tiles then read those panels,
//    which hold exactly the strips per-tile packing would have produced,
//    so the output bits do not change.
//  - Packing volume is counted per call (`GemmTraffic`), giving an
//    *empirical* traffic measurement that `bench/kernel_bench` cross-checks
//    against `hw::tiled_matmul_bytes`. It counts only the packing the call
//    itself does: B panels a caller packed are not charged.
#pragma once

#include <cstdint>

#include "src/concurrency/thread_pool.h"
#include "src/hw/cpu_features.h"

namespace gf::rt {

/// The seed register micro-tile. No compiled micro-kernel uses it, so a
/// tiling packed for it runs blocked_gemm's scalar micro-kernel — the
/// oracle the compiled tiles (hw::register_tile_rule(isa): 6x8 on AVX2,
/// 8x16 on AVX-512, carried in GemmTiling::mr/nr) are tested against;
/// results are bitwise-identical either way.
inline constexpr std::int64_t kGemmMr = 4;
inline constexpr std::int64_t kGemmNr = 8;

/// Cache-block edges (KC/MC/NC) plus the register micro-tile the panels are
/// packed for (and MC/NC are rounded to).
struct GemmTiling {
  std::int64_t mc = 0;  ///< A-panel rows per macro-tile (multiple of mr)
  std::int64_t nc = 0;  ///< B-panel cols per macro-tile (multiple of nr)
  std::int64_t kc = 0;  ///< shared-dimension block length
  std::int64_t mr = kGemmMr;  ///< micro-tile rows (strip height of packed A)
  std::int64_t nr = kGemmNr;  ///< micro-tile cols (strip width of packed B)
  friend bool operator==(const GemmTiling&, const GemmTiling&) = default;
};

/// Derives KC/MC/NC from a cache size using the same square-tile rule as
/// `hw::tiled_matmul_bytes` (T = floor(sqrt(cache/3/dtype))), rounding MC/NC
/// down to micro-tile multiples (never below one micro-tile). The micro-tile
/// defaults to the seed 4x8; pass hw::register_tile_rule(isa) to pack for a
/// compiled micro-kernel.
GemmTiling select_gemm_tiling(double cache_bytes, std::int64_t dtype_bytes,
                              hw::RegisterTile tile = {kGemmMr, kGemmNr});

/// Cache size the default tiling models: a per-core L2-like working set.
inline constexpr double kGemmModelCacheBytes = 256.0 * 1024.0;

/// Tiling used by the runtime kernels: `select_gemm_tiling` applied to
/// kGemmModelCacheBytes at fp32, with the register tile of the active
/// codegen ISA. Re-evaluated per call so set_forced_isa overrides in tests
/// and benches take effect.
const GemmTiling& default_gemm_tiling();

/// Bytes the blocked GEMM actually moved through its packing/write paths —
/// measured by counting, not modeled. Matches the paper's tiled-traffic
/// shape: A is re-packed once per N-tile column, B once per M-tile row.
struct GemmTraffic {
  double a_packed_bytes = 0;  ///< bytes copied into A panels (incl. padding)
  double b_packed_bytes = 0;  ///< bytes copied into B panels (incl. padding)
  double c_bytes = 0;         ///< bytes written to C
  double total() const { return a_packed_bytes + b_packed_bytes + c_bytes; }
};

/// Per-element epilogue fused into the C write pass (src/ir/fusion.h folds
/// MatMul -> BiasAdd -> activation chains down to this). Applied to each
/// element's float accumulator exactly once, unchanged, in unfused op
/// order — float bias add first, then float activation — so the result is
/// bitwise identical to writing C and running the separate kernels.
struct GemmEpilogue {
  enum class Act : std::uint8_t { kNone, kSigmoid, kTanh, kRelu };
  const float* bias = nullptr;  ///< length-n column bias, or null
  Act act = Act::kNone;
};

/// Floats `pack_b_panels` writes for a (k x n) op(B) under `tiling`: every
/// column zero-padded to a multiple of nr, times k.
std::int64_t packed_b_floats(std::int64_t k, std::int64_t n, const GemmTiling& tiling);

/// Packs all of op(B) (k x n; stored n x k when trans_b) into the strips
/// blocked_gemm's tiles read: per N-tile jn (columns j0 = jn*nc on) and KC
/// block kk, the block per-tile packing would produce, stored at
/// j0*k + nr_blocks*nr*kk. `panels` holds packed_b_floats(k, n, tiling)
/// floats; pass it to blocked_gemm as `b_packed` under the same tiling.
void pack_b_panels(const float* b, bool trans_b, std::int64_t k, std::int64_t n,
                   const GemmTiling& tiling, float* panels);

/// C = op(A) . op(B) over `batch` independent row-major matrices.
/// op(A) is (m x k) (stored k x m when trans_a), op(B) is (k x n) (stored
/// n x k when trans_b). Strides are in elements between consecutive batch
/// matrices; pass b_stride = 0 to broadcast one shared B across the batch.
/// Each C element is accumulated in fp32 over ascending k (float products,
/// float adds, no FMA) and written once: output bits are independent of
/// the micro-kernel, tiling and thread count. A non-null `b_packed` is
/// op(B) already packed by pack_b_panels under `tiling`; B is then shared
/// across the batch (b_stride must be 0 when batch > 1), `b` is not read,
/// and the bits are those of per-tile packing.
void blocked_gemm(const float* a, const float* b, float* c, std::int64_t batch,
                  std::int64_t m, std::int64_t n, std::int64_t k, bool trans_a,
                  bool trans_b, std::int64_t a_stride, std::int64_t b_stride,
                  std::int64_t c_stride, const GemmTiling& tiling,
                  conc::ThreadPool& pool, GemmTraffic* traffic = nullptr,
                  const GemmEpilogue& epilogue = {}, const float* b_packed = nullptr);

/// The retained reference kernel: naive row-parallel triple loop with
/// per-element transpose lambdas and a double accumulator — the accuracy
/// oracle. The blocked path must stay within the fp32 error bound of it
/// (see the header comment); `kernel_bench` reports speedup against it.
void reference_gemm(const float* a, const float* b, float* c, std::int64_t batch,
                    std::int64_t m, std::int64_t n, std::int64_t k, bool trans_a,
                    bool trans_b, std::int64_t a_stride, std::int64_t b_stride,
                    std::int64_t c_stride, conc::ThreadPool& pool,
                    const GemmEpilogue& epilogue = {});

}  // namespace gf::rt
