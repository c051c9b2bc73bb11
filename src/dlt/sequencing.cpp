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
