// im2col / col2im lowering for the convolution kernels.
//
// The paper's cache model (hw/cache_model.h) treats every convolution as
// its im2col GEMM; the runtime now executes it the same way, so the
// measured kernel behaviour and the model describe one algorithm. The
// column matrix has one row per output pixel (n, ho, wo) and one column
// per filter tap (kh, kw, c) — ascending (kh, kw, c) order, matching the
// reference kernel's accumulation order, so each GEMM-backed conv2d output
// is one fp32 k-chain over the taps, within the GEMM's error bound of the
// reference (gemm.h). Padding follows the conv kernels: "same" for odd
// kernel sizes (ph = (KH-1)/2), zero-filled taps outside the image.
#pragma once

#include <cstdint>

#include "src/concurrency/thread_pool.h"

namespace gf::rt {

/// Shape bundle shared by the lowering routines (NHWC input, HO x WO
/// output grid for the given square stride).
struct Im2ColShape {
  std::int64_t n = 0, h = 0, w = 0, c = 0;  ///< input NHWC
  std::int64_t kh = 0, kw = 0;              ///< filter window
  std::int64_t ho = 0, wo = 0;              ///< output grid
  int stride = 1;

  std::int64_t rows() const { return n * ho * wo; }
  std::int64_t cols() const { return kh * kw * c; }
};

/// Expands NHWC `x` into the (rows x cols) column matrix. Parallel over
/// output pixels; every column-matrix element is written exactly once.
void im2col(const float* x, const Im2ColShape& s, float* col,
            conc::ThreadPool& pool);

/// Scatter-adds a column matrix back into NHWC `dx` (the adjoint of
/// im2col). `dx` must be pre-zeroed. Parallel over batch images — taps of
/// one image accumulate serially in ascending (ho, wo, kh, kw, c) order,
/// so results are bitwise independent of thread count.
void col2im_add(const float* col, const Im2ColShape& s, float* dx,
                conc::ThreadPool& pool);

}  // namespace gf::rt
