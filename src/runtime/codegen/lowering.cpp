#include "src/runtime/codegen/lowering.h"

#include <stdexcept>

#include "src/ir/semantics.h"

namespace gf::rt::codegen {

LoweredProgram lower_program(const std::vector<ir::FusedInstr>& program,
                             std::size_t num_inputs) {
  if (program.empty() || num_inputs == 0)
    throw std::invalid_argument("lower_program: empty program or no inputs");
  if (program.size() > ir::FusedPointwiseOp::kMaxInstrs)
    throw std::invalid_argument("lower_program: program too long");
  const int nin = static_cast<int>(num_inputs);

  LoweredProgram out;
  out.num_inputs = num_inputs;
  // Validate operand references up front (same bounds the interpreter
  // enforces), so liveness can walk the program without re-checking. The
  // op layer's FLOP rule also enforces each fn's arity (it throws
  // std::invalid_argument on a mismatch).
  for (std::size_t j = 0; j < program.size(); ++j) {
    out.flops_per_element +=
        ir::pointwise_fn_flops_per_element(program[j].fn, program[j].args.size());
    for (const int a : program[j].args)
      if (a < 0 || a >= nin + static_cast<int>(j))
        throw std::invalid_argument("lower_program: operand index out of range");
  }

  // Backward liveness from the result. Identity instructions are treated
  // as transparent: marking one live marks its source instead, so the
  // identity itself never survives.
  std::vector<char> live(program.size(), 0);
  // forward_to[j]: the operand an identity at j forwards (resolved later).
  std::vector<char> visited(program.size(), 0);
  // Iterative stack walk (programs are <= kMaxInstrs, but keep it flat).
  std::vector<int> stack;
  const auto mark = [&](int operand) {
    if (operand >= nin) stack.push_back(operand - nin);
  };
  mark(nin + static_cast<int>(program.size()) - 1);
  while (!stack.empty()) {
    const int j = stack.back();
    stack.pop_back();
    if (visited[static_cast<std::size_t>(j)] != 0) continue;
    visited[static_cast<std::size_t>(j)] = 1;
    const ir::FusedInstr& instr = program[static_cast<std::size_t>(j)];
    if (instr.fn == ir::PointwiseFn::kIdentity) {
      mark(instr.args[0]);  // transparent: only the source is live
    } else {
      live[static_cast<std::size_t>(j)] = 1;
      for (const int a : instr.args) mark(a);
    }
  }

  // resolve(operand): chase identity chains to the value actually read.
  const auto resolve = [&](int operand) {
    while (operand >= nin &&
           program[static_cast<std::size_t>(operand - nin)].fn ==
               ir::PointwiseFn::kIdentity)
      operand = program[static_cast<std::size_t>(operand - nin)].args[0];
    return operand;
  };

  std::vector<int> load_slot(num_inputs, -1);  // input -> load slot
  std::vector<int> body_slot(program.size(), -1);  // source instr -> SSA slot
  const auto slot_of = [&](int operand) {
    operand = resolve(operand);
    if (operand < nin) {
      if (load_slot[static_cast<std::size_t>(operand)] < 0) {
        load_slot[static_cast<std::size_t>(operand)] =
            static_cast<int>(out.loads.size());
        out.loads.push_back(operand);
      }
      return load_slot[static_cast<std::size_t>(operand)];
    }
    return body_slot[static_cast<std::size_t>(operand - nin)];
  };

  // First pass: reserve load slots in first-use order by walking live
  // instructions' operands, then emit the body. Two passes are needed
  // because body slots are offset by the final load count.
  for (std::size_t j = 0; j < program.size(); ++j) {
    if (live[j] == 0) continue;
    for (const int a : program[j].args) {
      const int r = resolve(a);
      if (r < nin && load_slot[static_cast<std::size_t>(r)] < 0) {
        load_slot[static_cast<std::size_t>(r)] = static_cast<int>(out.loads.size());
        out.loads.push_back(r);
      }
    }
  }
  // A pure-identity program reads exactly one input and has no live body.
  const int result_operand = resolve(nin + static_cast<int>(program.size()) - 1);
  if (result_operand < nin && load_slot[static_cast<std::size_t>(result_operand)] < 0) {
    load_slot[static_cast<std::size_t>(result_operand)] =
        static_cast<int>(out.loads.size());
    out.loads.push_back(result_operand);
  }

  const int num_loads = static_cast<int>(out.loads.size());
  for (std::size_t j = 0; j < program.size(); ++j) {
    if (live[j] == 0) continue;
    LoweredInstr instr;
    instr.fn = program[j].fn;
    instr.args.reserve(program[j].args.size());
    for (const int a : program[j].args) instr.args.push_back(slot_of(a));
    if (instr.fn == ir::PointwiseFn::kScale)
      instr.alpha_slot = static_cast<int>(j);
    body_slot[j] = num_loads + static_cast<int>(out.body.size());
    out.body.push_back(std::move(instr));
  }

  out.result = slot_of(nin + static_cast<int>(program.size()) - 1);
  return out;
}

sym::Expr lowered_program_semantics(const LoweredProgram& lowered,
                                    const std::vector<ir::FusedInstr>& source) {
  std::vector<sym::Expr> vals;
  vals.reserve(lowered.num_slots());
  for (const int input : lowered.loads) {
    if (input < 0 || static_cast<std::size_t>(input) >= lowered.num_inputs)
      throw std::invalid_argument("lowered_program_semantics: load out of range");
    vals.push_back(sym::Expr::symbol("x" + std::to_string(input)));
  }
  for (const LoweredInstr& instr : lowered.body) {
    std::vector<sym::Expr> args;
    args.reserve(instr.args.size());
    for (const int a : instr.args) {
      if (a < 0 || static_cast<std::size_t>(a) >= vals.size())
        throw std::invalid_argument("lowered_program_semantics: slot out of range");
      args.push_back(vals[static_cast<std::size_t>(a)]);
    }
    sym::Expr alpha(1.0);
    if (instr.fn == ir::PointwiseFn::kScale) {
      if (instr.alpha_slot < 0 ||
          static_cast<std::size_t>(instr.alpha_slot) >= source.size())
        throw std::invalid_argument("lowered_program_semantics: bad alpha slot");
      alpha = source[static_cast<std::size_t>(instr.alpha_slot)].alpha;
    }
    vals.push_back(ir::pointwise_fn_semantics(instr.fn, args, alpha));
  }
  if (lowered.result < 0 ||
      static_cast<std::size_t>(lowered.result) >= vals.size())
    throw std::invalid_argument("lowered_program_semantics: result out of range");
  return vals[static_cast<std::size_t>(lowered.result)];
}

}  // namespace gf::rt::codegen
