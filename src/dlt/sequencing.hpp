// Participation and sequencing analysis.
//
// * leave_one_out(): optimal makespan of the system without processor i —
//   the T(α(b_{-i}), b_{-i}) term of the DLS-BL bonus (paper §3). When the
//   removed processor is the load-originating one, the machine holding the
//   data still distributes but no longer computes, which is exactly the
//   BUS-LINEAR-CP configuration over the remaining processors; we therefore
//   re-solve the reduced system as kCP in that case (design decision
//   documented in DESIGN.md).
// * makespan_over_permutations(): evidence for Theorem 2.2 — every load
//   allocation order achieves the same optimal makespan.
#pragma once

#include <span>
#include <vector>

#include "dlt/types.hpp"

namespace dlsbl::dlt {

// The reduced instance obtained by deleting processor `removed` (0-based).
// Throws if the instance has fewer than two processors.
ProblemInstance remove_processor(const ProblemInstance& instance, std::size_t removed);

// Optimal makespan of the system excluding processor `removed`: bit for bit
// optimal_makespan(remove_processor(instance, removed)), computed in O(m)
// without building the reduced instance or allocating. Profiled as one
// "allocation_solve", like the optimal_allocation call it replaces.
double leave_one_out_makespan(const ProblemInstance& instance, std::size_t removed);

// All m rows at once: out[i] = leave_one_out_makespan(instance, i) bit for
// bit, for every i. Rows are solved 8 at a time in lockstep lanes over
// ratio tables and a multiplier prefix shared by all rows (O(m) to build,
// one scratch buffer per call), each lane doing the scalar row's
// floating-point operations in the scalar row's order, with one division
// per row element instead of three. Still Θ(m²) in total: every row is a
// full closed-form solve, profiled as one "allocation_solve" call per row.
// The load origin's row reduces to a kCP system and goes through
// leave_one_out_makespan. Throws std::invalid_argument unless m >= 2,
// out.size() == m, z >= 0 and every rate is finite and > 0.
void leave_one_out_makespans(const ProblemInstance& instance, std::span<double> out);

struct PermutationStudy {
    std::vector<double> makespans;  // optimal makespan per sampled processor order
    double min = 0.0;
    double max = 0.0;
};

// Optimal makespan for `samples` random processor orders (plus the identity
// order first). Theorem 2.2 predicts identical values for all of them.
PermutationStudy makespan_over_permutations(const ProblemInstance& instance,
                                            std::size_t samples, std::uint64_t seed);

}  // namespace dlsbl::dlt
