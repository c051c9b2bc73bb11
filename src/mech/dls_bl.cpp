#include "mech/dls_bl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dlsbl::mech {

DlsBl::DlsBl(dlt::NetworkKind kind, double z, std::vector<double> bids) {
    if (bids.size() < 2) {
        throw std::invalid_argument("DlsBl: mechanism needs at least two processors");
    }
    instance_.kind = kind;
    instance_.z = z;
    instance_.w = std::move(bids);
    instance_.validate();
    alpha_ = dlt::optimal_allocation(instance_);
    const std::size_t m = instance_.processor_count();
    bus_.resize(m);
    prefix_max_.resize(m);
    suffix_max_.resize(m);
    dlt::walk_bus(
        instance_.kind, m, instance_.z, [&](std::size_t k) { return alpha_[k]; },
        [&](std::size_t k, double alpha, double bus) {
            bus_[k] = bus;
            suffix_max_[k] = bus + alpha * instance_.w[k];
        });
    prefix_max_[0] = suffix_max_[0];
    for (std::size_t k = 1; k < m; ++k) {
        prefix_max_[k] = std::max(prefix_max_[k - 1], suffix_max_[k]);
    }
    for (std::size_t k = m - 1; k-- > 0;) {
        suffix_max_[k] = std::max(suffix_max_[k], suffix_max_[k + 1]);
    }
    exclusion_cache_.assign(m, std::numeric_limits<double>::quiet_NaN());
}

double DlsBl::bid_makespan() const { return dlt::makespan(instance_, alpha_); }

double DlsBl::realized_makespan(std::span<const double> exec_values) const {
    if (exec_values.size() != instance_.processor_count()) {
        throw std::invalid_argument("DlsBl: execution vector size mismatch");
    }
    return dlt::makespan_generic<double>(instance_.kind, std::span<const double>(alpha_),
                                         exec_values, instance_.z);
}

double DlsBl::exclusion_makespan(std::size_t i) const {
    if (i >= instance_.processor_count()) throw std::out_of_range("DlsBl: bad index");
    if (std::isnan(exclusion_cache_[i])) {
        exclusion_cache_[i] = dlt::leave_one_out_makespan(instance_, i);
    }
    return exclusion_cache_[i];
}

double DlsBl::bonus_of(std::size_t i, double exec_value) const {
    const double exclusion = exclusion_makespan(i);
    // T(α(b), (b_-i, w̃_i)): the bid-derived allocation evaluated with P_i
    // at its observed speed and everyone else at their bid. Only T_i moves,
    // so this is makespan_generic's max fold (seeded with T_0) over the
    // cached maxima on either side of i; max is exact, so no bit changes.
    const double own = bus_[i] + alpha_[i] * exec_value;
    double realized = std::max(i == 0 ? own : prefix_max_[i - 1], own);
    if (i + 1 < suffix_max_.size()) realized = std::max(realized, suffix_max_[i + 1]);
    return exclusion - realized;
}

double DlsBl::utility_of(std::size_t i, double exec_value) const {
    // U_i = Q_i + V_i = (C_i + B_i) - α_i w̃_i = B_i.
    return bonus_of(i, exec_value);
}

PaymentBreakdown DlsBl::payments(std::span<const double> exec_values) const {
    const std::size_t m = instance_.processor_count();
    if (exec_values.size() != m) {
        throw std::invalid_argument("DlsBl: execution vector size mismatch");
    }
    // Any row missing: solve all m in one batched pass (a cached row gets
    // its own bits back).
    if (std::any_of(exclusion_cache_.begin(), exclusion_cache_.end(),
                    [](double row) { return std::isnan(row); })) {
        dlt::leave_one_out_makespans(instance_, exclusion_cache_);
    }
    PaymentBreakdown out;
    out.compensation.resize(m);
    out.bonus.resize(m);
    out.payment.resize(m);
    out.utility.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        out.compensation[i] = alpha_[i] * exec_values[i];
        out.bonus[i] = bonus_of(i, exec_values[i]);
        out.payment[i] = out.compensation[i] + out.bonus[i];
        out.utility[i] = out.payment[i] - alpha_[i] * exec_values[i];
    }
    return out;
}

}  // namespace dlsbl::mech
