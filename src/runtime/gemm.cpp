#include "src/runtime/gemm.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "src/runtime/arena.h"
#include "src/runtime/codegen/dispatch.h"

namespace gf::rt {
namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

std::int64_t round_down_to(std::int64_t v, std::int64_t unit) {
  const std::int64_t r = (v / unit) * unit;
  return r < unit ? unit : r;
}

/// Per-thread packing/accumulator scratch. Workers are long-lived pool
/// threads and a `parallel_for` iteration never yields mid-tile, so one
/// scratch set per thread is race-free by construction.
struct GemmScratch {
  AlignedVector<float> a_panel;
  AlignedVector<float> b_panel;
  AlignedVector<float> acc;
};

/// The calling thread's scratch, sized the first time the thread runs a
/// tiling to that tiling's full extents (an mc x kc A panel, a kc x nc B
/// panel, an mc x nc accumulator), so a thread allocates once per tiling
/// rather than again each time it meets a larger shape.
GemmScratch& thread_scratch(const GemmTiling& t) {
  thread_local GemmScratch scratch;
  const std::int64_t rows = ceil_div(t.mc, t.mr) * t.mr;
  const std::int64_t cols = ceil_div(t.nc, t.nr) * t.nr;
  const auto fit = [](AlignedVector<float>& v, std::int64_t floats) {
    if (v.size() < static_cast<std::size_t>(floats)) v.resize(static_cast<std::size_t>(floats));
  };
  fit(scratch.a_panel, rows * t.kc);
  fit(scratch.b_panel, cols * t.kc);
  fit(scratch.acc, rows * cols);
  return scratch;
}

/// Packs the (mc_eff x kc_eff) block of op(A) at (i0, kk) into mr-row
/// strips, k-major within a strip: a_panel[(ib*kc_eff + p)*mr + i].
/// Rows past mc_eff are zero-padded so the micro-kernel needs no edge
/// branches. The transpose flag dies here: the strip layout is identical
/// either way.
void pack_a(const float* a, bool trans_a, std::int64_t m, std::int64_t k,
            std::int64_t i0, std::int64_t kk, std::int64_t mc_eff,
            std::int64_t kc_eff, std::int64_t mr, float* panel) {
  const std::int64_t mr_blocks = ceil_div(mc_eff, mr);
  for (std::int64_t ib = 0; ib < mr_blocks; ++ib) {
    float* strip = panel + ib * kc_eff * mr;
    const std::int64_t rows = std::min(mr, mc_eff - ib * mr);
    for (std::int64_t p = 0; p < kc_eff; ++p) {
      float* dst = strip + p * mr;
      const std::int64_t col = kk + p;
      for (std::int64_t i = 0; i < rows; ++i) {
        const std::int64_t row = i0 + ib * mr + i;
        dst[i] = trans_a ? a[col * m + row] : a[row * k + col];
      }
      for (std::int64_t i = rows; i < mr; ++i) dst[i] = 0.0f;
    }
  }
}

/// Packs the (kc_eff x nc_eff) block of op(B) at (kk, j0) into nr-column
/// strips, k-major within a strip: b_panel[(jb*kc_eff + p)*nr + j].
void pack_b(const float* b, bool trans_b, std::int64_t k, std::int64_t n,
            std::int64_t kk, std::int64_t j0, std::int64_t kc_eff,
            std::int64_t nc_eff, std::int64_t nr, float* panel) {
  const std::int64_t nr_blocks = ceil_div(nc_eff, nr);
  for (std::int64_t jb = 0; jb < nr_blocks; ++jb) {
    float* strip = panel + jb * kc_eff * nr;
    const std::int64_t cols = std::min(nr, nc_eff - jb * nr);
    for (std::int64_t p = 0; p < kc_eff; ++p) {
      float* dst = strip + p * nr;
      const std::int64_t row = kk + p;
      for (std::int64_t j = 0; j < cols; ++j) {
        const std::int64_t col = j0 + jb * nr + j;
        dst[j] = trans_b ? b[col * k + row] : b[row * n + col];
      }
      for (std::int64_t j = cols; j < nr; ++j) dst[j] = 0.0f;
    }
  }
}

/// Scalar mr x nr register tile: acc[i][j] = fl(acc[i][j] + fl(A[p][i] *
/// B[p][j])) for p ascending — a float product added to a float
/// accumulator, never fused (this TU builds with -ffp-contract=off), so the
/// compiled tiles in src/runtime/codegen/ reproduce every element's k-chain
/// bit for bit. Runs any tile shape — the fallback when no compiled
/// micro-kernel matches the tiling.
void micro_kernel(const float* a_strip, const float* b_strip, std::int64_t kc_eff,
                  float* acc, std::int64_t mr, std::int64_t nr) {
  for (std::int64_t p = 0; p < kc_eff; ++p) {
    const float* arow = a_strip + p * mr;
    const float* brow = b_strip + p * nr;
    for (std::int64_t i = 0; i < mr; ++i) {
      const float av = arow[i];
      float* accrow = acc + i * nr;
      for (std::int64_t j = 0; j < nr; ++j) accrow[j] += av * brow[j];
    }
  }
}

/// Epilogue for one C element in global column `col`. The float expressions
/// mirror the standalone bias_add / pointwise kernels token for token
/// (src/runtime/kernels.cpp), which is what makes fused == unfused bitwise.
inline float apply_epilogue(float v, const GemmEpilogue& epi, std::int64_t col) {
  if (epi.bias != nullptr) v = v + epi.bias[col];
  switch (epi.act) {
    case GemmEpilogue::Act::kNone: break;
    case GemmEpilogue::Act::kSigmoid: v = 1.0f / (1.0f + std::exp(-v)); break;
    case GemmEpilogue::Act::kTanh: v = std::tanh(v); break;
    case GemmEpilogue::Act::kRelu: v = std::max(0.0f, v); break;
  }
  return v;
}

}  // namespace

GemmTiling select_gemm_tiling(double cache_bytes, std::int64_t dtype_bytes,
                              hw::RegisterTile reg) {
  // Same square-tile rule as hw::tiled_matmul_bytes: three T x T operand
  // tiles (A, B, C blocks) share the cache.
  double tile = std::floor(std::sqrt(cache_bytes / (3.0 * static_cast<double>(
                                                              dtype_bytes))));
  if (tile < 1.0) tile = 1.0;
  const auto t = static_cast<std::int64_t>(tile);
  GemmTiling tl;
  tl.mr = reg.mr;
  tl.nr = reg.nr;
  tl.mc = round_down_to(t, tl.mr);
  tl.nc = round_down_to(t, tl.nr);
  tl.kc = std::max<std::int64_t>(t, 1);
  return tl;
}

const GemmTiling& default_gemm_tiling() {
  // One tiling per ISA, precomputed: the cache-block rule is shared, only
  // the register tile (and hence the MC/NC rounding) differs. Indexed by
  // the active codegen ISA at each call so set_forced_isa changes are
  // honored.
  static const std::array<GemmTiling, 4> tilings = [] {
    std::array<GemmTiling, 4> t{};
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = select_gemm_tiling(
          kGemmModelCacheBytes, sizeof(float),
          hw::register_tile_rule(static_cast<hw::SimdIsa>(i)));
    return t;
  }();
  return tilings[static_cast<std::size_t>(codegen::active_isa())];
}

std::int64_t packed_b_floats(std::int64_t k, std::int64_t n, const GemmTiling& tiling) {
  return ceil_div(n, tiling.nr) * tiling.nr * k;
}

void pack_b_panels(const float* b, bool trans_b, std::int64_t k, std::int64_t n,
                   const GemmTiling& tiling, float* panels) {
  for (std::int64_t j0 = 0; j0 < n; j0 += tiling.nc) {
    const std::int64_t nc_eff = std::min(tiling.nc, n - j0);
    const std::int64_t nr_blocks = ceil_div(nc_eff, tiling.nr);
    for (std::int64_t kk = 0; kk < k; kk += tiling.kc)
      pack_b(b, trans_b, k, n, kk, j0, std::min(tiling.kc, k - kk), nc_eff, tiling.nr,
             panels + j0 * k + nr_blocks * tiling.nr * kk);
  }
}

void blocked_gemm(const float* a, const float* b, float* c, std::int64_t batch,
                  std::int64_t m, std::int64_t n, std::int64_t k, bool trans_a,
                  bool trans_b, std::int64_t a_stride, std::int64_t b_stride,
                  std::int64_t c_stride, const GemmTiling& tiling,
                  conc::ThreadPool& pool, GemmTraffic* traffic,
                  const GemmEpilogue& epilogue, const float* b_packed) {
  if (b_packed != nullptr && batch > 1 && b_stride != 0)
    throw std::invalid_argument("blocked_gemm: packed B panels need a shared B (b_stride 0)");
  const std::int64_t mr = tiling.mr, nr = tiling.nr;
  const std::int64_t mt = ceil_div(m, tiling.mc);
  const std::int64_t nt = ceil_div(n, tiling.nc);
  const std::int64_t tiles = batch * mt * nt;
  std::atomic<std::int64_t> a_bytes{0}, b_bytes{0}, c_written{0};
  const bool count = traffic != nullptr;
  // Micro-kernel choice is uniform across the call: the compiled kernel for
  // the active ISA when its register tile is what we packed for, else the
  // runtime-sized scalar tile. Both produce identical bits (dispatch.h).
  const codegen::SimdIsa ukr_isa = codegen::active_isa();
  const hw::RegisterTile ukr_tile = codegen::gemm_register_tile(ukr_isa);
  const bool compiled_ukr = ukr_tile.mr == mr && ukr_tile.nr == nr;

  conc::parallel_for(pool, 0, static_cast<std::size_t>(tiles), [&](std::size_t t) {
    const auto ti = static_cast<std::int64_t>(t);
    const std::int64_t bi = ti / (mt * nt);
    const std::int64_t im = (ti / nt) % mt;
    const std::int64_t jn = ti % nt;

    const float* a_mat = a + bi * a_stride;
    const float* b_mat = b + bi * b_stride;
    float* c_mat = c + bi * c_stride;

    const std::int64_t i0 = im * tiling.mc;
    const std::int64_t j0 = jn * tiling.nc;
    const std::int64_t mc_eff = std::min(tiling.mc, m - i0);
    const std::int64_t nc_eff = std::min(tiling.nc, n - j0);
    const std::int64_t mr_blocks = ceil_div(mc_eff, mr);
    const std::int64_t nr_blocks = ceil_div(nc_eff, nr);

    GemmScratch& scratch = thread_scratch(tiling);
    const std::size_t acc_size =
        static_cast<std::size_t>(mr_blocks * nr_blocks * mr * nr);
    std::fill(scratch.acc.begin(), scratch.acc.begin() + acc_size, 0.0f);

    // One accumulator pass per tile: KC blocks stream through the packed
    // panels in ascending-k order, carrying the float tile across blocks,
    // and each C element is written once.
    for (std::int64_t kk = 0; kk < k; kk += tiling.kc) {
      const std::int64_t kc_eff = std::min(tiling.kc, k - kk);
      const std::size_t a_size = static_cast<std::size_t>(mr_blocks * mr * kc_eff);
      const std::size_t b_size = static_cast<std::size_t>(nr_blocks * nr * kc_eff);
      pack_a(a_mat, trans_a, m, k, i0, kk, mc_eff, kc_eff, mr,
             scratch.a_panel.data());
      const float* b_panel = scratch.b_panel.data();
      if (b_packed != nullptr) {
        b_panel = b_packed + j0 * k + nr_blocks * nr * kk;
      } else {
        pack_b(b_mat, trans_b, k, n, kk, j0, kc_eff, nc_eff, nr, scratch.b_panel.data());
        if (count)
          b_bytes.fetch_add(static_cast<std::int64_t>(b_size * sizeof(float)),
                            std::memory_order_relaxed);
      }
      if (count)
        a_bytes.fetch_add(static_cast<std::int64_t>(a_size * sizeof(float)),
                          std::memory_order_relaxed);
      for (std::int64_t jb = 0; jb < nr_blocks; ++jb)
        for (std::int64_t ib = 0; ib < mr_blocks; ++ib) {
          const float* a_strip = scratch.a_panel.data() + ib * kc_eff * mr;
          const float* b_strip = b_panel + jb * kc_eff * nr;
          float* acc = scratch.acc.data() + (ib * nr_blocks + jb) * mr * nr;
          if (!compiled_ukr ||
              !codegen::gemm_micro_kernel(ukr_isa, a_strip, b_strip, kc_eff,
                                          acc, mr, nr))
            micro_kernel(a_strip, b_strip, kc_eff, acc, mr, nr);
        }
    }

    for (std::int64_t ib = 0; ib < mr_blocks; ++ib) {
      const std::int64_t rows = std::min(mr, mc_eff - ib * mr);
      for (std::int64_t jb = 0; jb < nr_blocks; ++jb) {
        const std::int64_t cols = std::min(nr, nc_eff - jb * nr);
        const float* acc = scratch.acc.data() + (ib * nr_blocks + jb) * mr * nr;
        for (std::int64_t i = 0; i < rows; ++i) {
          float* crow = c_mat + (i0 + ib * mr + i) * n + j0 + jb * nr;
          for (std::int64_t j = 0; j < cols; ++j)
            crow[j] = apply_epilogue(acc[i * nr + j], epilogue, j0 + jb * nr + j);
        }
      }
    }
    if (count)
      c_written.fetch_add(mc_eff * nc_eff * static_cast<std::int64_t>(sizeof(float)),
                          std::memory_order_relaxed);
  });

  if (traffic != nullptr) {
    traffic->a_packed_bytes += static_cast<double>(a_bytes.load());
    traffic->b_packed_bytes += static_cast<double>(b_bytes.load());
    traffic->c_bytes += static_cast<double>(c_written.load());
  }
}

void reference_gemm(const float* a, const float* b, float* c, std::int64_t batch,
                    std::int64_t m, std::int64_t n, std::int64_t k, bool trans_a,
                    bool trans_b, std::int64_t a_stride, std::int64_t b_stride,
                    std::int64_t c_stride, conc::ThreadPool& pool,
                    const GemmEpilogue& epilogue) {
  auto at = [&](std::int64_t bi, std::int64_t r, std::int64_t col) {
    return a[bi * a_stride + (trans_a ? col * m + r : r * k + col)];
  };
  auto bt = [&](std::int64_t bi, std::int64_t r, std::int64_t col) {
    return b[bi * b_stride + (trans_b ? col * k + r : r * n + col)];
  };
  conc::parallel_for(pool, 0, static_cast<std::size_t>(batch * m), [&](std::size_t idx) {
    const std::int64_t bi = static_cast<std::int64_t>(idx) / m;
    const std::int64_t r = static_cast<std::int64_t>(idx) % m;
    for (std::int64_t col = 0; col < n; ++col) {
      double acc = 0;
      for (std::int64_t x = 0; x < k; ++x) acc += at(bi, r, x) * bt(bi, x, col);
      c[bi * c_stride + r * n + col] =
          apply_epilogue(static_cast<float>(acc), epilogue, col);
    }
  });
}

}  // namespace gf::rt
