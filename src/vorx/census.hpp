// Per-node census of blocked threads — the source of the software
// oscilloscope's idle-time breakdown (§6.2): a processor's idle time is
// labelled by *why* it is idle (threads waiting for input, for output, a
// mix across threads, or something else).
#pragma once

#include "sim/cpu.hpp"

namespace hpcvorx::vorx {

enum class BlockReason { kInput, kOutput, kOther };

class NodeCensus {
 public:
  explicit NodeCensus(sim::Cpu& cpu) : cpu_(cpu) {
    cpu_.set_idle_classifier([this] { return classify(); });
  }

  /// Records a thread entering (`delta=+1`) or leaving (`-1`) a blocked
  /// state, re-labelling the CPU's current idle span.
  void block(BlockReason r, int delta) {
    switch (r) {
      case BlockReason::kInput: input_ += delta; break;
      case BlockReason::kOutput: output_ += delta; break;
      case BlockReason::kOther: break;  // labelled kIdleOther by default
    }
    cpu_.note_idle_reason_changed();
  }

  [[nodiscard]] sim::Category classify() const {
    if (input_ > 0 && output_ > 0) return sim::Category::kIdleMixed;
    if (input_ > 0) return sim::Category::kIdleInput;
    if (output_ > 0) return sim::Category::kIdleOutput;
    return sim::Category::kIdleOther;
  }

 private:
  sim::Cpu& cpu_;
  int input_ = 0;
  int output_ = 0;
};

/// RAII: marks a thread blocked for `reason` for the guard's lifetime.
class BlockedScope {
 public:
  BlockedScope(NodeCensus& census, BlockReason r) : census_(census), r_(r) {
    census_.block(r_, +1);
  }
  ~BlockedScope() { census_.block(r_, -1); }
  BlockedScope(const BlockedScope&) = delete;
  BlockedScope& operator=(const BlockedScope&) = delete;

 private:
  NodeCensus& census_;
  BlockReason r_;
};

}  // namespace hpcvorx::vorx
