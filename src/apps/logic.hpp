// Gate-level logic simulation — the CEMU workload (§4.1/§5; ref [15],
// "MOS Timing Simulation on a Message Based Multiprocessor").
//
// Circuits are generated as P register-bounded blocks: combinational
// gates read only block-local signals, primary inputs (global LFSR
// patterns computable anywhere), and D-flip-flop outputs (from any block,
// latched at the cycle boundary).  Cross-block communication in the
// distributed simulator (cemu_app) is therefore exactly the latched DFF
// values — the message-based structure the CEMU work used.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/fnv.hpp"

namespace hpcvorx::apps {

enum class GateType : std::uint8_t {
  kNot,
  kAnd,
  kOr,
  kXor,
  kNand,
  kNor,
  kDff,  // out(t) = D-input value as of the end of cycle t-1
};

/// Signal reference: >= 0 is gate output `id`; < 0 is primary input
/// -(k+1) whose value is a pure function of (input k, cycle).
using SignalRef = int;

struct Gate {
  GateType type = GateType::kNot;
  SignalRef a = -1;
  SignalRef b = -1;  // unused for kNot / kDff
};

/// A register-bounded partitioned circuit.
class Circuit {
 public:
  /// Deterministic random circuit: `blocks` partitions, each with
  /// `gates_per_block` gates of which `dffs_per_block` are flip-flops.
  static Circuit random(int blocks, int gates_per_block, int dffs_per_block,
                        int primary_inputs, std::uint64_t seed);

  [[nodiscard]] int blocks() const { return blocks_; }
  [[nodiscard]] int gates_per_block() const { return gates_per_block_; }
  [[nodiscard]] int num_gates() const { return static_cast<int>(gates_.size()); }
  [[nodiscard]] int primary_inputs() const { return primary_inputs_; }
  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  [[nodiscard]] int block_of(int gate) const { return gate / gates_per_block_; }
  [[nodiscard]] bool is_dff(int gate) const {
    return gates_[static_cast<std::size_t>(gate)].type == GateType::kDff;
  }

  /// All DFF gate ids in `block`.
  [[nodiscard]] std::vector<int> dffs_in_block(int block) const;

  /// DFF ids owned by `owner` whose latched value some gate in `reader`
  /// references (the distributed simulator's boundary set).
  [[nodiscard]] std::vector<int> boundary(int owner, int reader) const;

  /// Primary-input value at a cycle (a per-input LFSR bit) — a pure
  /// function every node can evaluate locally.
  [[nodiscard]] static bool input_value(int input, int cycle);

  /// Evaluates one combinational gate given current signal values and the
  /// latched DFF plane.
  [[nodiscard]] bool eval_gate(int gate, const std::vector<bool>& values,
                               const std::vector<bool>& latched,
                               int cycle) const;

  /// Serial reference simulation: runs `cycles`, returning a checksum
  /// folded over every gate value at every cycle.
  [[nodiscard]] std::uint64_t simulate_serial(int cycles) const;

 private:
  [[nodiscard]] bool resolve(SignalRef ref, const std::vector<bool>& values,
                             const std::vector<bool>& latched, int cycle) const;

  int blocks_ = 0;
  int gates_per_block_ = 0;
  int primary_inputs_ = 0;
  std::vector<Gate> gates_;
};

/// Folds one gate value into a running trace checksum.
[[nodiscard]] inline std::uint64_t fold_bit(std::uint64_t h, bool bit) {
  return sim::fnv1a_step(
      h, bit ? 0x9e3779b97f4a7c15ULL : 0x517cc1b727220a95ULL);
}

}  // namespace hpcvorx::apps
