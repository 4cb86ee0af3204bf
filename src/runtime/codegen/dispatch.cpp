#include "src/runtime/codegen/dispatch.h"

#include <algorithm>
#include <stdexcept>

#include "src/runtime/codegen/exec_detail.h"

namespace gf::rt::codegen {
namespace {

std::optional<SimdIsa>& forced_isa() {
  static std::optional<SimdIsa> forced;
  return forced;
}

using RunBlockFn = void (*)(const detail::FlatProgram&, const detail::PwArgs&);
using GemmUkrFn = void (*)(const float*, const float*, std::int64_t, float*);

RunBlockFn run_block_for(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kGeneric: return detail::run_block_generic;
#if defined(__x86_64__) || defined(__i386__)
    case SimdIsa::kAvx2: return detail::run_block_avx2;
    case SimdIsa::kAvx512: return detail::run_block_avx512;
#endif
#if defined(__aarch64__)
    case SimdIsa::kNeon: return detail::run_block_neon;
#endif
    default: return nullptr;
  }
}

GemmUkrFn gemm_ukr_for(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kGeneric: return detail::gemm_ukr_generic;
#if defined(__x86_64__) || defined(__i386__)
    case SimdIsa::kAvx2: return detail::gemm_ukr_avx2;
    case SimdIsa::kAvx512: return detail::gemm_ukr_avx512;
#endif
#if defined(__aarch64__)
    case SimdIsa::kNeon: return detail::gemm_ukr_neon;
#endif
    default: return nullptr;
  }
}

}  // namespace

SimdIsa resolve_isa(SimdIsa requested) {
  if (hw::isa_supported(requested) && run_block_for(requested) != nullptr)
    return requested;
  return hw::best_simd_isa();
}

SimdIsa active_isa() { return forced_isa().value_or(hw::best_simd_isa()); }

void set_forced_isa(std::optional<SimdIsa> isa) {
  forced_isa() = isa ? std::optional<SimdIsa>(resolve_isa(*isa)) : std::nullopt;
}

hw::RegisterTile gemm_register_tile(SimdIsa isa) {
  return hw::register_tile_rule(resolve_isa(isa));
}

bool gemm_micro_kernel(SimdIsa isa, const float* a_strip, const float* b_strip,
                       std::int64_t kc, float* acc, std::int64_t mr,
                       std::int64_t nr) {
  if (!hw::isa_supported(isa)) return false;
  const GemmUkrFn fn = gemm_ukr_for(isa);
  if (fn == nullptr) return false;
  const hw::RegisterTile tile = hw::register_tile_rule(isa);
  if (tile.mr != mr || tile.nr != nr) return false;
  fn(a_strip, b_strip, kc, acc);
  return true;
}

bool compilable(const LoweredProgram& program) {
  return program.loads.size() <=
         static_cast<std::size_t>(detail::kMaxLoadSlots);
}

void run_lowered(const LoweredProgram& program, SimdIsa isa,
                 const float* const* src, const std::int64_t* extent,
                 const float* alphas, float* out, std::int64_t n,
                 conc::ThreadPool& pool) {
  const RunBlockFn fn = run_block_for(isa);
  if (fn == nullptr)
    throw std::logic_error("run_lowered: no compiled executor for ISA " +
                           std::string(hw::simd_isa_name(isa)));
  if (!compilable(program))
    throw std::invalid_argument("run_lowered: too many load slots");

  // Flatten once per dispatch; the block bodies then touch only POD arrays.
  std::vector<int> args;
  std::vector<detail::FlatInstr> body;
  body.reserve(program.body.size());
  for (const LoweredInstr& ins : program.body) {
    detail::FlatInstr fi;
    fi.fn = ins.fn;
    fi.nargs = static_cast<int>(ins.args.size());
    fi.arg_offset = static_cast<int>(args.size());
    if (ins.alpha_slot >= 0) fi.alpha = alphas[ins.alpha_slot];
    args.insert(args.end(), ins.args.begin(), ins.args.end());
    body.push_back(fi);
  }
  detail::FlatProgram fp;
  fp.num_loads = static_cast<int>(program.loads.size());
  fp.num_body = static_cast<int>(body.size());
  fp.result = program.result;
  fp.load_inputs = program.loads.data();
  fp.body = body.data();
  fp.args = args.data();

  const std::int64_t nblocks =
      (n + detail::kSimdBlock - 1) / detail::kSimdBlock;
  conc::parallel_for(
      pool, 0, static_cast<std::size_t>(nblocks),
      [&](std::size_t b) {
        detail::PwArgs a;
        a.src = src;
        a.extent = extent;
        a.out = out;
        a.n = n;
        a.i0 = static_cast<std::int64_t>(b) * detail::kSimdBlock;
        a.i1 = std::min<std::int64_t>(a.i0 + detail::kSimdBlock, n);
        fn(fp, a);
      },
      1);
}

}  // namespace gf::rt::codegen
