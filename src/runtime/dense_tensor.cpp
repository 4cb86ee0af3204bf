#include "src/runtime/dense_tensor.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace gf::rt {

DenseTensor::DenseTensor(std::vector<std::int64_t> shape, ir::DataType dtype)
    : shape_(std::move(shape)), dtype_(dtype) {
  numel_ = 1;
  for (std::int64_t d : shape_) {
    if (d <= 0) throw std::invalid_argument("DenseTensor dims must be positive");
    numel_ *= d;
  }
  if (dtype_ == ir::DataType::kFloat32 || dtype_ == ir::DataType::kFloat16) {
    dtype_ = ir::DataType::kFloat32;  // runtime computes in fp32
    fbuf_.assign(static_cast<std::size_t>(numel_), 0.0f);
    assert(reinterpret_cast<std::uintptr_t>(fbuf_.data()) % kTensorAlignment == 0);
  } else {
    dtype_ = ir::DataType::kInt32;
    ibuf_.assign(static_cast<std::size_t>(numel_), 0);
    assert(reinterpret_cast<std::uintptr_t>(ibuf_.data()) % kTensorAlignment == 0);
  }
}

DenseTensor DenseTensor::zeros(std::vector<std::int64_t> shape, ir::DataType dtype) {
  return DenseTensor(std::move(shape), dtype);
}

DenseTensor::DenseTensor(ViewTag, std::vector<std::int64_t> shape, ir::DataType dtype,
                         void* data)
    : shape_(std::move(shape)), ext_(data) {
  numel_ = 1;
  for (std::int64_t d : shape_) {
    if (d <= 0) throw std::invalid_argument("DenseTensor dims must be positive");
    numel_ *= d;
  }
  dtype_ = (dtype == ir::DataType::kFloat32 || dtype == ir::DataType::kFloat16)
               ? ir::DataType::kFloat32
               : ir::DataType::kInt32;
  if (ext_ == nullptr) throw std::invalid_argument("DenseTensor view needs storage");
  assert(reinterpret_cast<std::uintptr_t>(ext_) % kTensorAlignment == 0);
}

DenseTensor DenseTensor::view(std::vector<std::int64_t> shape, ir::DataType dtype,
                              void* data) {
  return DenseTensor(ViewTag{}, std::move(shape), dtype, data);
}

void DenseTensor::fill_zero() {
  if (is_float()) {
    std::fill_n(fdata(), numel_, 0.0f);
  } else {
    std::fill_n(idata(), numel_, 0);
  }
}

std::size_t DenseTensor::byte_size() const {
  return static_cast<std::size_t>(numel_) * ir::dtype_bytes(dtype_);
}

void DenseTensor::dtype_mismatch(const char* what) { throw std::logic_error(what); }

}  // namespace gf::rt
