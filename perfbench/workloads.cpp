#include "workloads.hpp"

#include <cmath>
#include <cstring>

#include "agents/zoo.hpp"
#include "util/rng.hpp"

namespace perfbench {

using dlsbl::protocol::Phase;
using dlsbl::protocol::ProtocolConfig;
using dlsbl::protocol::ProtocolOutcome;
using dlsbl::protocol::Strategy;

namespace {

// The nine §4 offenses and the ruling the referee must reach for each:
// exactly the deviant is fined, and the run either terminates with
// `reason` + deviant or (payment-phase cheats) still settles.
struct Offense {
    const char* name;
    Strategy (*make)();
    bool on_load_origin;
    const char* reason;  // termination reason, less the deviant's name; nullptr = settles
};

const Offense kOffenses[] = {
    {"inconsistent_bidder", [] { return dlsbl::agents::inconsistent_bidder(); }, false,
     "double-bid by "},
    {"short_shipping_lo", [] { return dlsbl::agents::short_shipping_lo(); }, true,
     "short-shipment by "},
    {"corrupting_lo", [] { return dlsbl::agents::corrupting_lo(); }, true,
     "load-unit integrity failure by "},
    {"refusing_lo", [] { return dlsbl::agents::refusing_lo(); }, true,
     "mediation refused by "},
    {"payment_cheater", [] { return dlsbl::agents::payment_cheater(); }, false, nullptr},
    {"contradictory_payer", [] { return dlsbl::agents::contradictory_payer(); }, false,
     nullptr},
    {"bid_vector_tamperer", [] { return dlsbl::agents::bid_vector_tamperer(); }, false,
     "manipulated bid vector(s): "},
    {"false_accuser", [] { return dlsbl::agents::false_accuser(); }, false,
     "unfounded double-bid accusation by "},
    {"false_short_claimer", [] { return dlsbl::agents::false_short_claimer(); }, false,
     "unfounded allocation complaint by "},
};

const Offense* find_offense(const std::string& name) {
    for (const auto& offense : kOffenses) {
        if (name == offense.name) return &offense;
    }
    return nullptr;
}

class Fnv1a {
 public:
    void bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void str(const std::string& s) {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::optional<WorkloadSpec> find_workload(std::string_view name, bool smoke) {
    // Smoke sizes keep every code path of the full size (same offenses,
    // same oracle, same probes) at m = 4 and a few hundred blocks.
    if (name == "bulk_load") {
        return smoke ? WorkloadSpec{"bulk_load", 4, 512, false, 2}
                     : WorkloadSpec{"bulk_load", 16, 65536, false, 24};
    }
    if (name == "wide_bus") {
        return smoke ? WorkloadSpec{"wide_bus", 4, 256, false, 2}
                     : WorkloadSpec{"wide_bus", 256, 1024, false, 10};
    }
    if (name == "disputes") {
        return smoke ? WorkloadSpec{"disputes", 4, 300, true, 1}
                     : WorkloadSpec{"disputes", 64, 19200, true, 6};
    }
    return std::nullopt;
}

std::vector<RunInput> make_op(const WorkloadSpec& spec, std::uint64_t workload_seed,
                              std::size_t op_index) {
    const std::uint64_t op_seed = dlsbl::util::derive_seed(workload_seed, op_index);
    dlsbl::util::Xoshiro256 rng(op_seed);

    ProtocolConfig base;
    base.kind = dlsbl::dlt::NetworkKind::kNcpFE;
    base.z = 0.05;
    base.true_w.resize(spec.processors);
    for (double& w : base.true_w) w = rng.uniform(0.8, 2.0);
    base.block_count = spec.blocks;
    base.signature_algorithm = dlsbl::crypto::SignatureAlgorithm::kMerkleWots;
    base.seed = op_seed;
    if (!spec.disputes) return {RunInput{base, "", ""}};

    // NCP-FE: the load origin is P1, so worker offenses go on another
    // processor, drawn from the seed.
    const std::size_t worker = rng.uniform_int(1, spec.processors - 1);
    std::vector<RunInput> runs;
    for (std::size_t j = 0; j < std::size(kOffenses); ++j) {
        const Offense& offense = kOffenses[j];
        RunInput run{base, offense.name, ""};
        // Every run of the pass gets its own keys and data set.
        run.config.seed = dlsbl::util::derive_seed(op_seed, j + 1);
        const std::size_t index = offense.on_load_origin ? 0 : worker;
        run.config.strategies.assign(spec.processors, dlsbl::agents::truthful());
        run.config.strategies[index] = offense.make();
        run.deviant = "P" + std::to_string(index + 1);
        runs.push_back(std::move(run));
    }
    return runs;
}

std::uint64_t outcome_digest(const ProtocolOutcome& outcome) {
    Fnv1a h;
    h.u64(outcome.terminated_early ? 1 : 0);
    h.str(outcome.termination_reason);
    h.u64(static_cast<std::uint64_t>(outcome.ended_in));
    h.f64(outcome.fine_amount);
    h.f64(outcome.makespan);
    h.f64(outcome.user_paid);
    h.u64(outcome.control_messages);
    h.u64(outcome.control_bytes);
    for (const auto& [phase, bytes] : outcome.bytes_by_phase) {
        h.str(phase);
        h.u64(bytes);
    }
    for (const auto& p : outcome.processors) {
        h.str(p.name);
        h.f64(p.bid);
        h.f64(p.alpha);
        h.u64(p.blocks_assigned);
        h.u64(p.blocks_received);
        h.f64(p.phi);
        h.f64(p.payment);
        h.f64(p.fines);
        h.f64(p.rewards);
        h.f64(p.work_cost);
    }
    return h.value();
}

RunRecord check_run(const RunInput& input, const ProtocolOutcome& outcome) {
    RunRecord record;
    record.makespan = outcome.makespan;
    record.user_paid = outcome.user_paid;
    record.control_bytes = outcome.control_bytes;
    record.digest = outcome_digest(outcome);
    for (const auto& p : outcome.processors) {
        if (p.name != input.deviant && p.utility() < 0.0) ++record.truthful_losers;
    }
    auto fail = [&](const std::string& what) {
        if (record.failure.empty()) {
            record.failure = (input.offense.empty() ? "honest" : input.offense) + ": " + what;
        }
    };

    const std::size_t m = input.config.true_w.size();
    if (outcome.processors.size() != m) fail("processor count");
    if (!std::isfinite(outcome.makespan) || outcome.makespan < 0.0) fail("makespan");

    const Offense* offense = input.offense.empty() ? nullptr : find_offense(input.offense);
    if (!input.offense.empty() && offense == nullptr) fail("unknown offense");
    const bool settles = offense == nullptr || offense->reason == nullptr;
    if (settles) {
        // Settlement: the run completes, Σ Q_i is what the user paid, and
        // every block reached exactly the processor it was assigned to.
        if (outcome.terminated_early || outcome.ended_in != Phase::kDone) {
            fail("did not settle: " + outcome.termination_reason);
        }
        if (outcome.makespan <= 0.0) fail("settled with no work done");
        double paid = 0.0;
        std::size_t blocks = 0;
        for (const auto& p : outcome.processors) {
            if (!std::isfinite(p.payment)) fail("non-finite payment for " + p.name);
            paid += p.payment;
            blocks += p.blocks_received;
            if (p.blocks_received != p.blocks_assigned) fail("short delivery to " + p.name);
        }
        // Exact on purpose: the referee sums the same vector in the same order.
        if (paid != outcome.user_paid) fail("sum of payments != user_paid");
        if (blocks != input.config.block_count) fail("block counts do not sum to B");
    } else {
        if (!outcome.terminated_early) fail("run was not terminated");
        if (outcome.termination_reason != offense->reason + input.deviant) {
            fail("termination reason '" + outcome.termination_reason + "'");
        }
    }
    if (offense == nullptr) {
        if (outcome.fined_count() != 0) fail("an honest run fined someone");
    } else {
        if (outcome.fined_count() != 1) {
            fail(std::to_string(outcome.fined_count()) + " processors fined");
        }
        for (const auto& p : outcome.processors) {
            if (p.fined != (p.name == input.deviant)) fail("wrong processor fined: " + p.name);
        }
    }
    return record;
}

}  // namespace perfbench
