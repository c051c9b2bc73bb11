#include "dlt/sequencing.hpp"

#include <algorithm>
#include <stdexcept>

#include "dlt/closed_form.hpp"
#include "dlt/finish_time.hpp"
#include "obs/profiler.hpp"
#include "util/rng.hpp"

namespace dlsbl::dlt {

namespace {

void check_removable(const ProblemInstance& instance, std::size_t removed) {
    if (instance.processor_count() < 2) {
        throw std::invalid_argument("remove_processor: need at least two processors");
    }
    if (removed >= instance.processor_count()) {
        throw std::out_of_range("remove_processor: bad index");
    }
}

// Removing the load-originating processor removes the computing role of the
// data-holding machine but not its distributing role: the reduced system
// behaves as a bus with a control processor.
NetworkKind reduced_kind(const ProblemInstance& instance, std::size_t removed) {
    if (instance.kind != NetworkKind::kCP &&
        removed == load_origin_index(instance.kind, instance.processor_count())) {
        return NetworkKind::kCP;
    }
    return instance.kind;
}

// Rows per lane group of leave_one_out_makespans.
constexpr std::size_t kLanes = 8;

// The running state of kLanes leave-one-out rows solved in lockstep. Lane j
// does, at each position, exactly what leave_one_out_makespan does for its
// row; ratio_of(j) and rate_of(j) give lane j's chain ratio and rate there.
struct LaneGroup {
    double c[kLanes];         // multiplier c_k at the current position
    double total[kLanes];     // Σ c_k: running in the forward pass, final in the walk
    double comm[kLanes];      // the bus term, z Σ α_j over the transfers so far
    double makespan[kLanes];  // max T_k so far

    // Forward pass: c_k = c_{k-1}·ratio, Σ += c_k.
    template <typename RatioOf>
    void sum(RatioOf ratio_of) {
        for (std::size_t j = 0; j < kLanes; ++j) {
            c[j] = c[j] * ratio_of(j);
            total[j] = total[j] + c[j];
        }
    }

    // Walk pass (walk_bus and the max fold): α_k = c_k / Σ, the bus term
    // grows by z·α_k unless this is NCP-NFE's last position, and
    // T_k = comm + α_k·rate.
    template <typename RatioOf, typename RateOf>
    void walk(RatioOf ratio_of, RateOf rate_of, double z, bool bus) {
        for (std::size_t j = 0; j < kLanes; ++j) {
            c[j] = c[j] * ratio_of(j);
            const double alpha = c[j] / total[j];
            if (bus) comm[j] = comm[j] + z * alpha;
            makespan[j] = std::max(makespan[j], comm[j] + alpha * rate_of(j));
        }
    }
};

}  // namespace

ProblemInstance remove_processor(const ProblemInstance& instance, std::size_t removed) {
    check_removable(instance, removed);
    ProblemInstance reduced = instance;
    reduced.w.erase(reduced.w.begin() + static_cast<std::ptrdiff_t>(removed));
    reduced.kind = reduced_kind(instance, removed);
    return reduced;
}

double leave_one_out_makespan(const ProblemInstance& instance, std::size_t removed) {
    // optimal_makespan(remove_processor(instance, removed)), replayed operation
    // for operation over w with `removed` skipped: the same checks (each
    // rate as it is first read), the same multiplier chain and sum
    // (optimal_allocation_generic), then the same finishing times and max
    // (makespan_generic), regenerating each c_k instead of storing it.
    // Bit-identical, and no heap allocation.
    check_removable(instance, removed);
    OBS_SCOPE("allocation_solve");  // still one closed-form solve per row
    validate_bus_time(instance.z);
    const NetworkKind kind = reduced_kind(instance, removed);
    const std::size_t n = instance.processor_count() - 1;
    const double z = instance.z;
    const auto w = [&](std::size_t k) { return instance.w[k < removed ? k : k + 1]; };

    double c = 1.0;
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        validate_rate(w(k));
        if (k > 0) c = c * chain_ratio(kind, n, k - 1, w(k - 1), w(k), z);
        total = total + c;
    }
    double makespan = 0.0;
    c = 1.0;
    walk_bus(
        kind, n, z,
        [&](std::size_t k) {
            if (k > 0) c = c * chain_ratio(kind, n, k - 1, w(k - 1), w(k), z);
            return c / total;
        },
        [&](std::size_t k, double alpha, double bus) {
            const double t = bus + alpha * w(k);
            makespan = k == 0 ? t : std::max(makespan, t);
        });
    return makespan;
}

void leave_one_out_makespans(const ProblemInstance& instance, std::span<double> out) {
    const std::size_t m = instance.processor_count();
    if (m < 2) throw std::invalid_argument("remove_processor: need at least two processors");
    if (out.size() != m) {
        throw std::invalid_argument("leave_one_out_makespans: need one slot per processor");
    }
    // Every rate is kept by some row, so this is every row's check.
    instance.validate();
    const NetworkKind kind = instance.kind;
    // The load origin's row reduces to a kCP system (reduced_kind) and is
    // solved on its own; rows [first, end) keep the instance's kind.
    std::size_t first = 0;
    std::size_t end = m;
    if (kind == NetworkKind::kNcpFE) {
        out[0] = leave_one_out_makespan(instance, 0);
        first = 1;
    } else if (kind == NetworkKind::kNcpNFE) {
        out[m - 1] = leave_one_out_makespan(instance, m - 1);
        end = m - 1;
    }

    // Row r is the n-processor system w[0..r-1], w[r+1..m-1]: its position
    // k reads w[k] before r and w[k+1] from r on, and its ratio k (k >= 1,
    // linking positions k-1 and k) is before[k] for k < r, skip[k] at k = r
    // and after[k] for k > r. n, not m, places NCP-NFE's last link. For
    // k < r every row's c_k and running sum are the same operations on the
    // same start as the prefix table's, so they are its bits.
    const std::size_t n = m - 1;
    const double z = instance.z;
    const std::vector<double>& w = instance.w;
    std::vector<double> tables(5 * n);
    double* const before = tables.data();
    double* const after = before + n;
    double* const skip = after + n;
    double* const prefix_c = skip + n;
    double* const prefix_total = prefix_c + n;
    prefix_c[0] = 1.0;
    prefix_total[0] = 0.0 + prefix_c[0];
    for (std::size_t k = 1; k < n; ++k) {
        before[k] = chain_ratio(kind, n, k - 1, w[k - 1], w[k], z);
        after[k] = chain_ratio(kind, n, k - 1, w[k], w[k + 1], z);
        skip[k] = chain_ratio(kind, n, k - 1, w[k - 1], w[k + 1], z);
        prefix_c[k] = prefix_c[k - 1] * before[k];
        prefix_total[k] = prefix_total[k - 1] + prefix_c[k];
    }
    // walk_bus: positions [0, on_bus) put their share on the bus; NCP-NFE's
    // load origin, last, computes after every transfer.
    const std::size_t on_bus = kind == NetworkKind::kNcpNFE ? n - 1 : n;

    OBS_SCOPE("allocation_solve", end - first);  // one closed-form solve per row
    for (std::size_t r0 = first; r0 < end; r0 += kLanes) {
        // Lane j solves row r0 + j; a short last group repeats its last row
        // and drops the copies.
        std::size_t row[kLanes];
        for (std::size_t j = 0; j < kLanes; ++j) row[j] = std::min(r0 + j, end - 1);
        const auto ratio_at = [&](std::size_t k) {
            return [&, k](std::size_t j) {
                return k < row[j] ? before[k] : k == row[j] ? skip[k] : after[k];
            };
        };
        const auto rate_at = [&](std::size_t k) {
            return [&, k](std::size_t j) { return k < row[j] ? w[k] : w[k + 1]; };
        };
        // Positions below r0 have every lane before its row; from `past`
        // on, every lane is past it. Only [r0, past) needs a per-lane pick.
        const std::size_t past = std::min(r0 + kLanes, n);
        LaneGroup lanes{};

        // Forward pass, seeded from the prefix just before the group's first
        // ratio: the rows agree with the prefix up to there.
        const std::size_t start = std::max<std::size_t>(r0, 1);
        for (std::size_t j = 0; j < kLanes; ++j) {
            lanes.c[j] = prefix_c[start - 1];
            lanes.total[j] = prefix_total[start - 1];
        }
        for (std::size_t k = start; k < past; ++k) lanes.sum(ratio_at(k));
        for (std::size_t k = past; k < n; ++k) {
            lanes.sum([&](std::size_t) { return after[k]; });
        }

        // Walk pass. Position 0: c_0 = 1; NCP-FE's load origin computes
        // from t = 0 with a bus term of -0 (walk_bus).
        for (std::size_t j = 0; j < kLanes; ++j) {
            lanes.c[j] = 1.0;
            const double alpha = lanes.c[j] / lanes.total[j];
            lanes.comm[j] = 0.0;
            double bus = -0.0;
            if (kind != NetworkKind::kNcpFE) {
                if (on_bus > 0) lanes.comm[j] = lanes.comm[j] + z * alpha;
                bus = lanes.comm[j];
            }
            lanes.makespan[j] = bus + alpha * rate_at(0)(j);
        }
        for (std::size_t k = 1; k < std::min(r0, on_bus); ++k) {
            lanes.walk([&](std::size_t) { return before[k]; },
                       [&](std::size_t) { return w[k]; }, z, true);
        }
        for (std::size_t k = start; k < std::min(past, on_bus); ++k) {
            lanes.walk(ratio_at(k), rate_at(k), z, true);
        }
        for (std::size_t k = past; k < on_bus; ++k) {
            lanes.walk([&](std::size_t) { return after[k]; },
                       [&](std::size_t) { return w[k + 1]; }, z, true);
        }
        if (on_bus > 0 && on_bus < n) lanes.walk(ratio_at(on_bus), rate_at(on_bus), z, false);

        for (std::size_t j = 0; j < kLanes && r0 + j < end; ++j) out[r0 + j] = lanes.makespan[j];
    }
}

PermutationStudy makespan_over_permutations(const ProblemInstance& instance,
                                            std::size_t samples, std::uint64_t seed) {
    instance.validate();
    const std::size_t m = instance.processor_count();
    // The transmission order may be permuted; the load-originating machine
    // keeps its role (it physically holds the data), so for the NCP kinds we
    // permute only the non-LO processors.
    std::size_t fixed = m;  // index pinned in place; m = none
    if (instance.kind != NetworkKind::kCP) fixed = load_origin_index(instance.kind, m);

    util::Xoshiro256 rng{seed};
    PermutationStudy study;
    std::vector<std::size_t> order(m);
    for (std::size_t i = 0; i < m; ++i) order[i] = i;

    auto evaluate = [&](const std::vector<std::size_t>& perm) {
        ProblemInstance permuted = instance;
        for (std::size_t i = 0; i < m; ++i) permuted.w[i] = instance.w[perm[i]];
        study.makespans.push_back(optimal_makespan(permuted));
    };

    evaluate(order);
    std::vector<std::size_t> movable;
    for (std::size_t i = 0; i < m; ++i) {
        if (i != fixed) movable.push_back(i);
    }
    for (std::size_t s = 1; s < samples; ++s) {
        rng.shuffle(movable);
        std::vector<std::size_t> perm(m);
        std::size_t next = 0;
        for (std::size_t i = 0; i < m; ++i) {
            perm[i] = (i == fixed) ? fixed : movable[next++];
        }
        evaluate(perm);
    }

    const auto [lo, hi] = std::minmax_element(study.makespans.begin(), study.makespans.end());
    study.min = *lo;
    study.max = *hi;
    return study;
}

}  // namespace dlsbl::dlt
