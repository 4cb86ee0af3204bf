// Concrete tensors for the numeric executor.
//
// The runtime plays the role TFprof + TensorFlow play in the paper's
// methodology (§4.1): it executes training-step graphs at small concrete
// sizes, measures executed FLOPs/bytes and allocator peaks independently of
// the symbolic layer, and lets tests check gradient math end-to-end.
#pragma once

#include <cstdint>
#include <vector>

#include "src/ir/tensor.h"
#include "src/runtime/arena.h"

namespace gf::rt {

class DenseTensor {
 public:
  DenseTensor() = default;
  DenseTensor(std::vector<std::int64_t> shape, ir::DataType dtype);

  static DenseTensor zeros(std::vector<std::int64_t> shape,
                           ir::DataType dtype = ir::DataType::kFloat32);

  /// Non-owning view over externally managed storage (the memory planner's
  /// slab). `data` must be kTensorAlignment-aligned and at least
  /// numel * 4 bytes; the view does NOT zero it — the executor zeroes
  /// planned outputs at execution time instead (see ResolvedOp::zero_first).
  static DenseTensor view(std::vector<std::int64_t> shape, ir::DataType dtype,
                          void* data);

  /// Zero-fills the storage (owned or viewed).
  void fill_zero();

  const std::vector<std::int64_t>& shape() const { return shape_; }
  ir::DataType dtype() const { return dtype_; }
  std::int64_t numel() const { return numel_; }
  std::int64_t dim(std::size_t i) const { return shape_.at(i); }
  std::size_t rank() const { return shape_.size(); }
  std::size_t byte_size() const;

  bool is_float() const { return dtype_ == ir::DataType::kFloat32; }

  // Inline so element loops that index through f()/i32() compile to plain
  // loads and stores; the dtype check stays, its throw is out of line.
  float* fdata() {
    if (!is_float()) dtype_mismatch("fdata() on integer tensor");
    return ext_ != nullptr ? static_cast<float*>(ext_) : fbuf_.data();
  }
  const float* fdata() const {
    if (!is_float()) dtype_mismatch("fdata() on integer tensor");
    return ext_ != nullptr ? static_cast<const float*>(ext_) : fbuf_.data();
  }
  std::int32_t* idata() {
    if (is_float()) dtype_mismatch("idata() on float tensor");
    return ext_ != nullptr ? static_cast<std::int32_t*>(ext_) : ibuf_.data();
  }
  const std::int32_t* idata() const {
    if (is_float()) dtype_mismatch("idata() on float tensor");
    return ext_ != nullptr ? static_cast<const std::int32_t*>(ext_) : ibuf_.data();
  }

  float& f(std::int64_t i) { return fdata()[i]; }
  float f(std::int64_t i) const { return fdata()[i]; }
  std::int32_t& i32(std::int64_t i) { return idata()[i]; }
  std::int32_t i32(std::int64_t i) const { return idata()[i]; }

 private:
  struct ViewTag {};
  /// Throws std::logic_error(what).
  [[noreturn]] static void dtype_mismatch(const char* what);
  DenseTensor(ViewTag, std::vector<std::int64_t> shape, ir::DataType dtype, void* data);

  std::vector<std::int64_t> shape_;
  ir::DataType dtype_ = ir::DataType::kFloat32;
  std::int64_t numel_ = 0;
  // Cacheline-aligned so packed GEMM tiles and SIMD loads start aligned.
  AlignedVector<float> fbuf_;
  AlignedVector<std::int32_t> ibuf_;
  // External storage (memory-planner slab); when set, fbuf_/ibuf_ stay empty.
  void* ext_ = nullptr;
};

}  // namespace gf::rt
