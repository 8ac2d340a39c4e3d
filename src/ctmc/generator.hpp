// Generic engine over a GeneratorModel: streams the successor function
// straight into a CSR generator, accumulating per-label sparse reward
// vectors on the way — no retained labelled-transition list. rebind()
// repopulates the rate values on the frozen sparsity pattern (see the
// rebinding contract in generator_model.hpp), which turns the per-point
// cost of a rate sweep from "re-enumerate the state space" into "one pass
// over the non-zeros". The model's aggregation key becomes a block
// partition at assembly; it reads no rate, so rebind() keeps it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/generator_model.hpp"
#include "linalg/ncd.hpp"

namespace tags::ctmc {

/// One entry of a per-label reward vector: total emission rate of the
/// label out of `state`, self-loops included. Entries are sorted by state
/// (assembly visits states in order) with one entry per emitting state.
struct StateRate {
  index_t state;
  double rate;
};

class GeneratorCtmc {
 public:
  GeneratorCtmc() = default;

  /// Enumerate the model into CSR + rewards. May be called again to
  /// rebuild from scratch (structural parameters changed).
  void assemble(const GeneratorModel& model);

  /// Repopulate rate values on the frozen pattern. Throws std::logic_error
  /// if the model emits a transition outside the assembled pattern or the
  /// state/label spaces changed — that means a structural parameter moved
  /// and the caller should assemble() instead.
  void rebind(const GeneratorModel& model);

  [[nodiscard]] index_t n_states() const noexcept { return n_; }
  [[nodiscard]] const linalg::CsrMatrix& generator() const noexcept { return q_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return q_.nnz(); }

  /// The block partition of the model's aggregation key, or nullptr when
  /// the model supplies none. Pass it to steady_state with generator().
  [[nodiscard]] const linalg::NcdPartition* partition() const noexcept {
    return blocks_.n_blocks() > 0 ? &blocks_ : nullptr;
  }

  /// All interned label names; index = label_t. Entry 0 is "tau".
  [[nodiscard]] const std::vector<std::string>& label_names() const noexcept {
    return label_names_;
  }

  /// Label id for a name, or -1 if the model never declared it.
  [[nodiscard]] std::int64_t find_label(std::string_view name) const noexcept;

  /// Sparse reward vector of one label (empty span for out-of-range ids).
  [[nodiscard]] std::span<const StateRate> label_rewards(label_t label) const noexcept;

  /// Throughput of a label: sum over its reward entries of rate * pi[state].
  [[nodiscard]] double throughput(std::span<const double> pi, label_t label) const;
  [[nodiscard]] double throughput(std::span<const double> pi,
                                  std::string_view label_name) const;

  /// Exit rate of each state (= -Q(i,i), self-loops excluded).
  [[nodiscard]] linalg::Vec exit_rates() const;

  /// Largest exit rate; tracked during assembly/rebinding.
  [[nodiscard]] double max_exit_rate() const noexcept { return max_exit_rate_; }

  /// True if every row of Q sums to ~0 and off-diagonals are non-negative.
  [[nodiscard]] bool is_valid_generator(double tol = 1e-9) const;

 private:
  index_t n_ = 0;
  linalg::CsrMatrix q_;
  linalg::NcdPartition blocks_;
  double max_exit_rate_ = 0.0;
  std::vector<std::string> label_names_;
  std::vector<std::vector<StateRate>> rewards_;  // indexed by label_t
};

/// Materialise the full labelled-transition representation (classic Ctmc)
/// of a generator model. Needed only by consumers of the transition list —
/// first-passage analysis, exporters; steady-state work should stay on
/// GeneratorCtmc.
[[nodiscard]] Ctmc materialize(const GeneratorModel& model);

}  // namespace tags::ctmc
