// E8: Lemma 5.1 / Theorem 5.1 — compliance: every protocol deviation is
// detected and strictly utility-dominated by honest play.
//
// For each offense of §4 (i)-(v) this runs the full protocol with one
// deviant and reports the deviant's utility against its utility under
// honest play in the same instance. The per-deviant runs are independent,
// so they are submitted to exec::RunExecutor (`--jobs N` / DLSBL_JOBS) and
// read back in submission order — the report is byte-identical at any job
// count.
#include "agents/zoo.hpp"
#include "bench/common.hpp"
#include "protocol/runner.hpp"
#include "util/table.hpp"

using namespace dlsbl;

namespace {

protocol::ProtocolConfig make_config(dlt::NetworkKind kind) {
    protocol::ProtocolConfig config;
    config.kind = kind;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 2400;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    return config;
}

struct DeviantCase {
    protocol::Strategy strategy;
    std::size_t slot = 0;
    const char* role = "";
};

}  // namespace

int main(int argc, char** argv) {
    const auto options = bench::parallel_options(argc, argv, /*root_seed=*/8);
    bench::Report report("E8: Theorem 5.1 — faithful execution maximizes utility");

    bool all_fined = true;
    bool all_dominated = true;

    for (auto kind : {dlt::NetworkKind::kNcpFE, dlt::NetworkKind::kNcpNFE}) {
        report.section(std::string(dlt::to_string(kind)) +
                       " — one deviant vs honest play (agent utilities)");
        const auto honest = protocol::run_protocol(make_config(kind));
        const std::size_t lo_index =
            dlt::load_origin_index(kind, honest.processors.size());
        // A non-LO slot for worker deviations.
        const std::size_t worker_index = (lo_index == 0) ? 2 : 1;

        std::vector<DeviantCase> cases;
        for (const auto& strategy : agents::worker_deviants()) {
            cases.push_back({strategy, worker_index, "worker"});
        }
        for (const auto& strategy : agents::lo_deviants()) {
            cases.push_back({strategy, lo_index, "load-origin"});
        }

        // One full protocol run per deviant, fanned out across the pool.
        const auto outcomes =
            bench::run_parallel(options, cases.size(), [&](exec::RunSlot& slot) {
                auto config = make_config(kind);
                config.strategies[cases[slot.index()].slot] =
                    cases[slot.index()].strategy;
                return protocol::run_protocol(config);
            });

        util::Table table({"strategy", "role", "fined?", "deviant U", "honest U",
                           "loss from deviating"});
        table.set_precision(5);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const auto& deviant = outcomes[i].processors[cases[i].slot];
            const double honest_u = honest.processors[cases[i].slot].utility();
            if (!deviant.fined) all_fined = false;
            if (deviant.utility() >= honest_u) all_dominated = false;
            table.add_row({cases[i].strategy.name, cases[i].role,
                           deviant.fined ? "yes" : "NO",
                           util::Table::format_double(deviant.utility(), 5),
                           util::Table::format_double(honest_u, 5),
                           util::Table::format_double(honest_u - deviant.utility(), 5)});
        }
        report.text(table.render());
    }

    report.section("verdicts");
    report.verdict(all_fined, "every deviation detected and fined (offenses i-v)");
    report.verdict(all_dominated,
                   "every deviation strictly utility-dominated by honest play");
    return report.exit_code();
}
