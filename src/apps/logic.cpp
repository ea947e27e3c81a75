#include "apps/logic.hpp"

#include <cassert>

#include "sim/random.hpp"

namespace hpcvorx::apps {

Circuit Circuit::random(int blocks, int gates_per_block, int dffs_per_block,
                        int primary_inputs, std::uint64_t seed) {
  assert(dffs_per_block >= 1 && dffs_per_block < gates_per_block);
  Circuit c;
  c.blocks_ = blocks;
  c.gates_per_block_ = gates_per_block;
  c.primary_inputs_ = primary_inputs;
  c.gates_.resize(static_cast<std::size_t>(blocks) * gates_per_block);
  sim::Rng rng(seed);

  for (int b = 0; b < blocks; ++b) {
    const int base = b * gates_per_block;
    // The last dffs_per_block gates of each block are its flip-flops; the
    // rest are combinational, generated in topological (id) order.
    const int comb = gates_per_block - dffs_per_block;
    for (int i = 0; i < gates_per_block; ++i) {
      Gate& g = c.gates_[static_cast<std::size_t>(base + i)];
      auto pick_source = [&]() -> SignalRef {
        // Local earlier gate, any DFF in the whole circuit, or a primary
        // input.  DFF reads use the latched plane, so any block is fine.
        const auto kind = rng.below(3);
        if (kind == 0 && i > 0) {
          return base + static_cast<int>(rng.below(static_cast<std::uint64_t>(i)));
        }
        if (kind == 1) {
          const int db = static_cast<int>(rng.below(static_cast<std::uint64_t>(blocks)));
          const int di = comb + static_cast<int>(rng.below(
                                    static_cast<std::uint64_t>(dffs_per_block)));
          return db * gates_per_block + di;
        }
        return -1 - static_cast<int>(rng.below(
                        static_cast<std::uint64_t>(primary_inputs)));
      };
      if (i >= comb) {
        g.type = GateType::kDff;
        // The D input must be a block-local combinational signal.
        g.a = base + static_cast<int>(rng.below(static_cast<std::uint64_t>(comb)));
        g.b = -1;
      } else {
        g.type = static_cast<GateType>(rng.below(6));
        g.a = pick_source();
        g.b = g.type == GateType::kNot ? -1 : pick_source();
      }
    }
  }
  return c;
}

std::vector<int> Circuit::dffs_in_block(int block) const {
  std::vector<int> out;
  const int base = block * gates_per_block_;
  for (int i = 0; i < gates_per_block_; ++i) {
    if (is_dff(base + i)) out.push_back(base + i);
  }
  return out;
}

std::vector<int> Circuit::boundary(int owner, int reader) const {
  std::vector<int> out;
  if (owner == reader) return out;
  const int rbase = reader * gates_per_block_;
  std::vector<bool> needed(gates_.size(), false);
  for (int i = 0; i < gates_per_block_; ++i) {
    const Gate& g = gates_[static_cast<std::size_t>(rbase + i)];
    for (SignalRef ref : {g.a, g.b}) {
      if (ref >= 0 && block_of(ref) == owner && is_dff(ref)) {
        needed[static_cast<std::size_t>(ref)] = true;
      }
    }
  }
  for (std::size_t id = 0; id < gates_.size(); ++id) {
    if (needed[id]) out.push_back(static_cast<int>(id));
  }
  return out;
}

bool Circuit::input_value(int input, int cycle) {
  // A cheap per-input pattern: bit of a mixed counter (deterministic and
  // computable by every node without communication).
  const std::uint64_t x =
      (static_cast<std::uint64_t>(cycle) + 1) * 0x9e3779b97f4a7c15ULL ^
      (static_cast<std::uint64_t>(input) * 0xbf58476d1ce4e5b9ULL);
  return ((x >> 17) & 1) != 0;
}

bool Circuit::resolve(SignalRef ref, const std::vector<bool>& values,
                      const std::vector<bool>& latched, int cycle) const {
  if (ref < 0) return input_value(-1 - ref, cycle);
  if (is_dff(ref)) return latched[static_cast<std::size_t>(ref)];
  return values[static_cast<std::size_t>(ref)];
}

bool Circuit::eval_gate(int gate, const std::vector<bool>& values,
                        const std::vector<bool>& latched, int cycle) const {
  const Gate& g = gates_[static_cast<std::size_t>(gate)];
  const bool a = resolve(g.a, values, latched, cycle);
  switch (g.type) {
    case GateType::kNot: return !a;
    case GateType::kAnd: return a && resolve(g.b, values, latched, cycle);
    case GateType::kOr: return a || resolve(g.b, values, latched, cycle);
    case GateType::kXor: return a != resolve(g.b, values, latched, cycle);
    case GateType::kNand: return !(a && resolve(g.b, values, latched, cycle));
    case GateType::kNor: return !(a || resolve(g.b, values, latched, cycle));
    case GateType::kDff: break;
  }
  assert(false && "eval_gate on a flip-flop");
  return false;
}

std::uint64_t Circuit::simulate_serial(int cycles) const {
  const auto n = gates_.size();
  std::vector<bool> values(n, false);   // combinational plane, this cycle
  std::vector<bool> latched(n, false);  // DFF outputs, latched
  std::vector<std::uint64_t> block_hash(static_cast<std::size_t>(blocks_),
                                        sim::kFnvOffset);
  for (int t = 0; t < cycles; ++t) {
    // Latch: every DFF takes its D value from the previous cycle's plane.
    std::vector<bool> next_latched = latched;
    for (std::size_t g = 0; g < n; ++g) {
      if (gates_[g].type == GateType::kDff) {
        next_latched[g] = values[static_cast<std::size_t>(gates_[g].a)];
      }
    }
    latched = std::move(next_latched);
    // Evaluate combinational gates in id order (generation guarantees
    // topological validity), folding the trace per block.
    for (int b = 0; b < blocks_; ++b) {
      const int base = b * gates_per_block_;
      for (int i = 0; i < gates_per_block_; ++i) {
        const int g = base + i;
        bool v;
        if (is_dff(g)) {
          v = latched[static_cast<std::size_t>(g)];
        } else {
          v = eval_gate(g, values, latched, t);
          values[static_cast<std::size_t>(g)] = v;
        }
        block_hash[static_cast<std::size_t>(b)] =
            fold_bit(block_hash[static_cast<std::size_t>(b)], v);
      }
    }
  }
  std::uint64_t h = sim::kFnvOffset;
  for (std::uint64_t bh : block_hash) h = sim::fnv1a_step(h, bh);
  return h;
}

}  // namespace hpcvorx::apps
