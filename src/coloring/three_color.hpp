// 3-coloring of path/cycle systems in O(log* X) rounds.
//
// The inner primitive of the paper's defective coloring (Section 4.1):
// given a conflict graph of maximum degree 2 (a disjoint union of paths and
// cycles) and an initial proper coloring with X colors, produce a proper
// 3-coloring in O(log* X) rounds.  Implemented as Linial reduction to an
// O(1) palette followed by a constant-length class sweep — which, unlike
// the classic Cole–Vishkin procedure, needs no consistent orientation of
// the cycles (impossible to compute locally anyway).
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/coloring/palette.hpp"
#include "src/common/exec_config.hpp"
#include "src/dist/backend.hpp"
#include "src/local/ledger.hpp"

namespace qplec {

struct ThreeColorResult {
  std::vector<Color> colors;  ///< in {0, 1, 2} for active items
  int rounds = 0;
};

/// view must have maximum conflict degree <= 2 (throws otherwise);
/// phi/palette: a proper initial coloring of the active items.  The inner
/// Linial reduction and class sweep run their per-item passes on `exec`
/// (null = one inline lane) with bit-identical results.
/// `gate` (optional) tiers the entry degree sweep and the final properness
/// walk; null keeps the seed's always-validate behavior.
ThreeColorResult three_color_paths_cycles(const ConflictView& view,
                                          const std::vector<std::uint64_t>& phi,
                                          std::uint64_t palette, RoundLedger& ledger,
                                          const ExecBackend* exec = nullptr,
                                          ValidationGate* gate = nullptr);

}  // namespace qplec
