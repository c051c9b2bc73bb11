#include "dlt/types.hpp"

#include <cmath>

namespace dlsbl::dlt {

const char* to_string(NetworkKind kind) noexcept {
    switch (kind) {
        case NetworkKind::kCP: return "BUS-LINEAR-CP";
        case NetworkKind::kNcpFE: return "BUS-LINEAR-NCP-FE";
        case NetworkKind::kNcpNFE: return "BUS-LINEAR-NCP-NFE";
    }
    return "?";
}

std::size_t load_origin_index(NetworkKind kind, std::size_t processor_count) {
    if (processor_count == 0) throw std::invalid_argument("load_origin_index: empty system");
    switch (kind) {
        case NetworkKind::kCP:
        case NetworkKind::kNcpFE:
            return 0;
        case NetworkKind::kNcpNFE:
            return processor_count - 1;
    }
    throw std::invalid_argument("load_origin_index: bad kind");
}

void ProblemInstance::validate() const {
    if (w.empty()) throw std::invalid_argument("ProblemInstance: need at least one processor");
    validate_bus_time(z);
    for (const double wi : w) validate_rate(wi);
}

void validate_bus_time(double z) {
    if (!(z >= 0.0) || !std::isfinite(z)) {
        throw std::invalid_argument("ProblemInstance: z must be finite and >= 0");
    }
}

bool is_feasible_allocation(const LoadAllocation& alpha, double tolerance) {
    double sum = 0.0;
    for (double a : alpha) {
        if (!(a >= -tolerance) || !std::isfinite(a)) return false;
        sum += a;
    }
    return std::abs(sum - 1.0) <= tolerance;
}

}  // namespace dlsbl::dlt
