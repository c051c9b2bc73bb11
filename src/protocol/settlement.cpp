#include "protocol/settlement.hpp"

#include <utility>

#include "dlt/closed_form.hpp"
#include "mech/dls_bl.hpp"
#include "protocol/blocks.hpp"

namespace dlsbl::protocol {
namespace {

// The processors not excluded, in id order, and their bids.
struct Active {
    std::vector<std::size_t> ids;
    std::vector<double> bids;
};

Active active(std::span<const double> bids, std::span<const std::uint8_t> excluded) {
    Active out;
    out.ids.reserve(bids.size());
    out.bids.reserve(bids.size());
    for (std::size_t j = 0; j < bids.size(); ++j) {
        if (excluded[j] != 0) continue;
        out.ids.push_back(j);
        out.bids.push_back(bids[j]);
    }
    return out;
}

}  // namespace

Allocation allocate(dlt::NetworkKind kind, double z, std::size_t block_count,
                    std::span<const double> bids, std::span<const std::uint8_t> excluded) {
    Active act = active(bids, excluded);
    const auto alpha = dlt::optimal_allocation({kind, z, std::move(act.bids)});
    const auto blocks = DataSet::blocks_for_allocation(block_count, alpha);
    Allocation out{std::vector<double>(bids.size(), 0.0),
                   std::vector<std::size_t>(bids.size(), 0)};
    for (std::size_t k = 0; k < act.ids.size(); ++k) {
        out.alpha[act.ids[k]] = alpha[k];
        out.blocks[act.ids[k]] = blocks[k];
    }
    return out;
}

std::vector<std::size_t> block_starts(std::span<const std::size_t> blocks) {
    std::vector<std::size_t> starts(blocks.size(), 0);
    for (std::size_t i = 1; i < blocks.size(); ++i) {
        starts[i] = starts[i - 1] + blocks[i - 1];
    }
    return starts;
}

std::vector<double> settle_payments(const SettlementInputs& in) {
    std::vector<double> q(in.bids.size(), 0.0);
    Active act = active(in.bids, in.excluded);
    if (act.ids.size() < 2) return q;

    // w̃_j = φ_j / α_j (§4 Computing Payments), where α_j is the fraction of
    // the blocks P_j actually ran.
    const double block_count = static_cast<double>(in.block_count);
    std::vector<double> exec(act.ids.size());
    for (std::size_t k = 0; k < act.ids.size(); ++k) {
        const std::size_t j = act.ids[k];
        const double fraction = static_cast<double>(in.realized[j]) / block_count;
        exec[k] = fraction > 0.0 && in.phi[j] ? *in.phi[j] / fraction : act.bids[k];
    }

    const mech::DlsBl mechanism(in.kind, in.z, std::move(act.bids));
    const auto payment = mechanism.payments(std::span<const double>(exec)).payment;
    for (std::size_t k = 0; k < act.ids.size(); ++k) {
        const std::size_t j = act.ids[k];
        const double realized = static_cast<double>(in.realized[j]);
        double value = payment[k];
        if (in.realized[j] != in.prescribed[j]) {
            value = in.prescribed[j] > 0
                        ? value * (realized / static_cast<double>(in.prescribed[j]))
                        : value + exec[k] * (realized / block_count);
        }
        q[j] = value;
    }
    return q;
}

}  // namespace dlsbl::protocol
