// E22 (extension): what does strategyproofness cost in wall-clock time?
//
// The paper's timing model charges only load movement; Theorem 5.4 counts
// the mechanism's control traffic but not its duration. This experiment
// turns on the bandwidth-charged control-message model (the Θ(m²) bytes
// occupy the same one-port bus as the load) and measures the makespan
// inflation the mechanism itself causes, versus fleet size and per-byte
// cost. Shape: overhead grows ~quadratically with m — negligible for small
// fleets, the dominant term once m² messaging rivals the job size.
//
// The (m, cost) grid of simulations is independent, so it goes through
// exec::RunExecutor (`--jobs N` / DLSBL_JOBS) with order-merged results.
//
// A second section measures the *host* wall-clock cost of the cryptographic
// substrate — the one real-time expense the mechanism adds — across SHA-256
// backends and MSS keygen job counts. `--json-out PATH` writes those
// timings to a BENCH_*.json document (bench/bench_json.hpp).
//
// `--smoke` times only the message path: the referee's envelope pipeline,
// and the bare bus fanning out the wide_bus bid round.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_json.hpp"
#include "bench/common.hpp"
#include "crypto/pki.hpp"
#include "crypto/sha256.hpp"
#include "protocol/messages.hpp"
#include "protocol/wire.hpp"
#include "dlt/finish_time.hpp"
#include "protocol/runner.hpp"
#include "sim/network.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"

using namespace dlsbl;

namespace {

double simulated_makespan(std::size_t m, double seconds_per_byte) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.2;
    config.true_w.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        config.true_w[i] = 1.0 + 0.05 * static_cast<double>(i % 7);
    }
    config.block_count = 8 * m;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.control_seconds_per_byte = seconds_per_byte;
    return protocol::run_protocol(config).makespan;
}

// Host wall-clock seconds for one full Merkle-signed protocol run with the
// given SHA-256 backend and keygen job count (median of `trials`).
double crypto_wall_seconds(std::string_view backend, std::size_t jobs,
                           std::size_t trials) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.2;
    config.true_w = {1.0, 1.3, 1.1, 1.6, 1.2, 1.05};
    config.block_count = 96;
    config.signature_algorithm = crypto::SignatureAlgorithm::kMerkleWots;
    config.mss_height = 5;
    config.crypto_keygen_jobs = jobs;

    const std::string saved{crypto::sha256_backend()};
    crypto::sha256_set_backend(backend);
    std::vector<double> samples;
    for (std::size_t t = 0; t < trials; ++t) {
        const auto start = std::chrono::steady_clock::now();
        protocol::run_protocol(config);
        const auto stop = std::chrono::steady_clock::now();
        samples.push_back(std::chrono::duration<double>(stop - start).count());
    }
    crypto::sha256_set_backend(saved);
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

// Message-path throughput, isolated from keygen and load movement: the
// referee's per-envelope pipeline over 64 distinct WOTS-signed bid
// envelopes. batch 0 replays the pre-batching path (legacy
// SignedMessage::deserialize + eager Pki::verify + legacy body decode);
// batch >= 1 is the current one (zero-copy SignedMessageView/BidView +
// Pki::verify_many in `batch`-sized slices). The cache is off — a live
// run's envelopes are distinct, so steady state is all misses.
double message_path_rate(std::size_t batch, std::size_t trials) {
    crypto::Pki pki;
    pki.set_verify_cache_capacity(0);
    constexpr std::size_t kEnvelopes = 64;
    std::vector<std::string> names;
    std::vector<std::unique_ptr<crypto::Signer>> signers;
    for (std::size_t p = 0; p < 8; ++p) {
        names.push_back("P" + std::to_string(p + 1));
        signers.push_back(crypto::make_registered_signer(
            pki, names.back(), 100 + p, crypto::SignatureAlgorithm::kMerkleWots, 3));
    }
    std::vector<util::Bytes> envelopes;
    std::vector<std::string> senders;  // stable Identity storage for requests
    for (std::size_t i = 0; i < kEnvelopes; ++i) {
        const std::size_t p = i % names.size();
        protocol::BidBody body;
        body.job_id = 7;
        body.processor = names[p];
        body.bid = 1.0 + 0.01 * static_cast<double>(i);
        envelopes.push_back(protocol::wire::flat_encode(
            crypto::sign_message(*signers[p], names[p], protocol::wire::flat_encode(body))));
        senders.push_back(names[p]);
    }

    std::vector<double> samples;
    std::size_t verified = 0;
    for (std::size_t t = 0; t < trials; ++t) {
        const auto start = std::chrono::steady_clock::now();
        if (batch == 0) {
            for (const auto& bytes : envelopes) {
                const auto msg = crypto::SignedMessage::deserialize(bytes);
                if (msg && msg->verify(pki)) {
                    const auto body = protocol::BidBody::deserialize(msg->payload);
                    if (body) ++verified;
                }
            }
        } else {
            std::vector<protocol::wire::SignedMessageView> views;
            std::vector<crypto::Pki::VerifyRequest> requests;
            views.reserve(kEnvelopes);
            requests.reserve(kEnvelopes);
            for (std::size_t i = 0; i < kEnvelopes; ++i) {
                const auto view = protocol::wire::SignedMessageView::parse(envelopes[i]);
                views.push_back(*view);
                requests.push_back({&senders[i], view->payload, view->signature});
            }
            std::vector<std::uint8_t> verdicts(kEnvelopes);
            static_assert(sizeof(bool) == 1);
            for (std::size_t offset = 0; offset < kEnvelopes; offset += batch) {
                pki.verify_many(
                    std::span<const crypto::Pki::VerifyRequest>(requests)
                        .subspan(offset, std::min(batch, kEnvelopes - offset)),
                    reinterpret_cast<bool*>(verdicts.data() + offset));
            }
            for (std::size_t i = 0; i < kEnvelopes; ++i) {
                if (verdicts[i] &&
                    protocol::wire::BidView::parse(views[i].payload).has_value()) {
                    ++verified;
                }
            }
        }
        const auto stop = std::chrono::steady_clock::now();
        samples.push_back(std::chrono::duration<double>(stop - start).count());
    }
    if (verified != kEnvelopes * trials) return 0.0;  // pipeline broke; poison the rate
    std::sort(samples.begin(), samples.end());
    return static_cast<double>(kEnvelopes) / samples[samples.size() / 2];
}

// The bus alone, at the wide_bus bid round: `processes` processes that
// ignore what they receive each broadcast one frame, so every process
// receives every other one's, each delivery traced. Host seconds per
// delivery (median of `trials`), set-up and teardown excluded.
double broadcast_fanout_seconds(std::size_t processes, std::size_t trials) {
    class Sink final : public sim::Process {
     public:
        explicit Sink(std::string name) : Process(std::move(name)) {}
        void on_message(const sim::Envelope& /*envelope*/) override {}
    };
    std::vector<std::unique_ptr<Sink>> sinks;
    for (std::size_t i = 0; i < processes; ++i) {
        sinks.push_back(std::make_unique<Sink>("P" + std::to_string(i + 1)));
    }
    const util::Frame bid(util::Bytes(64, 0x5a));
    const double deliveries = static_cast<double>(processes * (processes - 1));
    std::vector<double> samples;
    for (std::size_t t = 0; t < trials; ++t) {
        sim::Simulator simulator;
        sim::Network network(simulator, 0.05);
        for (const auto& sink : sinks) network.attach(*sink);
        const auto start = std::chrono::steady_clock::now();
        for (const auto& sink : sinks) network.broadcast(sink->name(), 1, bid);
        simulator.run();
        const auto stop = std::chrono::steady_clock::now();
        samples.push_back(std::chrono::duration<double>(stop - start).count() / deliveries);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

// End-to-end wall-clock per full Merkle-signed run at the given deferred-
// verification batch size (1 = eager). Keygen dominates this number on a
// SHA-NI host — the microbench above is the message-path signal; this one
// pins that batching never hurts the whole run. Median of `trials`.
struct Throughput {
    double seconds = 0.0;
    double messages = 0.0;
    [[nodiscard]] double rate() const { return messages / seconds; }
};

Throughput message_throughput(std::size_t verify_batch, std::size_t trials) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.2;
    config.true_w = {1.0, 1.3, 1.1, 1.6, 1.2, 1.05, 1.4, 1.15};
    config.block_count = 128;
    config.signature_algorithm = crypto::SignatureAlgorithm::kMerkleWots;
    config.mss_height = 5;
    config.verify_batch = verify_batch;

    Throughput best;
    std::vector<double> samples;
    for (std::size_t t = 0; t < trials; ++t) {
        const auto start = std::chrono::steady_clock::now();
        const auto outcome = protocol::run_protocol(config);
        const auto stop = std::chrono::steady_clock::now();
        samples.push_back(std::chrono::duration<double>(stop - start).count());
        best.messages = static_cast<double>(outcome.control_messages);
    }
    std::sort(samples.begin(), samples.end());
    best.seconds = samples[samples.size() / 2];
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    const auto json_out = bench::json_out_from_args(&argc, argv);
    // --smoke: only the message-path series and the bus fan-out, at a
    // budget fit for ctest.
    // The sim grid and the keygen-bound wall-clock sections are full-length
    // measurements the bench-regress gate does not track.
    bool smoke = false;
    bench::ArgSpec spec;
    spec.flag("--smoke", [&smoke] { smoke = true; });
    const auto options = bench::parallel_options(argc, argv, /*root_seed=*/22, spec);
    bench::Report report("E22 (extension): wall-clock overhead of the mechanism");
    if (smoke) {
        report.section("message-path throughput (envelopes per host second)");
        const std::size_t path_trials = 10;
        const double path_legacy = message_path_rate(0, path_trials);
        const double path_b16 = message_path_rate(16, path_trials);
        const double path_b64 = message_path_rate(64, path_trials);
        report.line(bench::fmt("legacy codec + eager verify : %.0f msg/s", path_legacy));
        report.line(bench::fmt2(
            "flat codec + batch 16       : %.0f msg/s  (speedup %.2fx)", path_b16,
            path_b16 / path_legacy));
        report.line(bench::fmt2(
            "flat codec + batch 64       : %.0f msg/s  (speedup %.2fx)", path_b64,
            path_b64 / path_legacy));
        report.section("bus fan-out (256 processes, one broadcast each, traced)");
        const std::size_t fanout_trials = 10;
        const double fanout = broadcast_fanout_seconds(256, fanout_trials);
        report.line(bench::fmt("seconds per delivery        : %.3g", fanout));
        report.section("verdicts");
        report.verdict(path_b16 >= 1.5 * path_legacy,
                       "flat codec + deferred batch verification moves >=1.5x more "
                       "envelopes per second than the legacy eager path");
        if (json_out) {
            obs::RunManifest manifest;
            manifest.set("bench", "protocol_overhead (message-path smoke)");
            manifest.set("sha256_backend_auto", std::string(crypto::sha256_backend()));
            const std::vector<bench::JsonResult> results{
                {"message_path/legacy_eager", path_trials, 64.0 / path_legacy, 0.0},
                {"message_path/flat_batch16", path_trials, 64.0 / path_b16, 0.0},
                {"message_path/flat_batch64", path_trials, 64.0 / path_b64, 0.0},
                {"bus/broadcast_fanout_256", fanout_trials, fanout, 0.0},
            };
            const std::map<std::string, double> derived{
                {"messages_per_sec_legacy_eager", path_legacy},
                {"messages_per_sec_batch16", path_b16},
                {"messages_per_sec_batch64", path_b64},
                {"message_path_speedup_batch16", path_b16 / path_legacy},
            };
            if (!bench::write_bench_json(*json_out, manifest, results, derived)) return 1;
        }
        return report.exit_code();
    }

    const std::vector<std::size_t> sizes{4, 8, 16, 32, 64};
    report.manifest().set_uint("m_max", sizes.back());
    // Cost 0 is the denominator of every overhead fraction, so it is part of
    // the simulated grid rather than a separate run.
    const std::vector<double> costs{0.0, 1e-7, 1e-6, 1e-5};

    const auto makespans =
        bench::run_parallel(options, sizes.size() * costs.size(), [&](exec::RunSlot& slot) {
            const std::size_t m = sizes[slot.index() / costs.size()];
            const double cost = costs[slot.index() % costs.size()];
            return simulated_makespan(m, cost);
        });
    auto overhead_at = [&](std::size_t size_index, std::size_t cost_index) {
        const double base = makespans[size_index * costs.size()];  // cost 0
        return makespans[size_index * costs.size() + cost_index] / base - 1.0;
    };

    report.section("makespan inflation vs fleet size and control-byte cost");
    util::Table table({"m", "cost 1e-7 s/B", "cost 1e-6 s/B", "cost 1e-5 s/B"});
    table.set_precision(4);
    std::vector<double> ms, overheads;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        std::vector<double> row{static_cast<double>(sizes[s])};
        for (std::size_t c = 1; c < costs.size(); ++c) {
            const double overhead = overhead_at(s, c);
            row.push_back(overhead);
            // Chart the largest control-byte cost (last grid column); an
            // index test, not float equality against a duplicated literal.
            if (c + 1 == costs.size()) {
                ms.push_back(static_cast<double>(sizes[s]));
                overheads.push_back(std::max(overhead, 1e-12));
            }
        }
        table.add_numeric_row(row);
    }
    report.text(table.render());

    const auto fit = util::power_law_fit(ms, overheads);
    report.line("overhead(m) ~ m^" + util::Table::format_double(fit.slope, 3) +
                " at 1e-5 s/B (R² = " + util::Table::format_double(fit.r_squared, 4) +
                "); below the traffic's m^1.86 because control bytes partially "
                "hide under computation");

    const double small_fleet = overhead_at(0, 2);   // m=4, 1e-6 s/B
    const double zero_cost = overhead_at(2, 0);     // m=16, cost 0
    const double big_fleet = overheads.back();

    // Host-side cost of the signatures themselves: the same Merkle-signed
    // run on the scalar baseline, the dispatch-selected SIMD backend, and
    // SIMD + parallel MSS keygen. Artifacts are byte-identical across all
    // three (see test_protocol_crypto_identity), so this is pure wall-clock.
    report.section("crypto substrate wall-clock (host seconds per run)");
    const std::size_t trials = 3;
    const std::size_t hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    const double t_scalar = crypto_wall_seconds("scalar", 1, trials);
    const double t_simd = crypto_wall_seconds("auto", 1, trials);
    const double t_simd_jobs = crypto_wall_seconds("auto", hw, trials);
    const std::string best{crypto::sha256_backend()};
    report.line(bench::fmt("scalar backend, keygen jobs 1 : %.4f s", t_scalar));
    report.line(best + " backend, keygen jobs 1 : " +
                bench::fmt2("%.4f s  (speedup %.2fx)", t_simd, t_scalar / t_simd));
    report.line(best + " backend, keygen jobs " + std::to_string(hw) + " : " +
                bench::fmt2("%.4f s  (speedup %.2fx)", t_simd_jobs,
                            t_scalar / t_simd_jobs));

    // Message-path throughput: the flat wire codec plus deferred batch
    // verification, against the same pipeline forced eager (verify_batch=1).
    // Same artifacts either way (test_protocol_crypto_identity); the ratio
    // is pure amortization of WOTS chain expansion across envelopes.
    report.section("message-path throughput (envelopes per host second)");
    const std::size_t path_trials = 40;
    const double path_legacy = message_path_rate(0, path_trials);
    const double path_b16 = message_path_rate(16, path_trials);
    const double path_b64 = message_path_rate(64, path_trials);
    report.line(bench::fmt("legacy codec + eager verify : %.0f msg/s", path_legacy));
    report.line(bench::fmt2("flat codec + batch 16       : %.0f msg/s  (speedup %.2fx)",
                            path_b16, path_b16 / path_legacy));
    report.line(bench::fmt2("flat codec + batch 64       : %.0f msg/s  (speedup %.2fx)",
                            path_b64, path_b64 / path_legacy));

    const Throughput eager = message_throughput(1, trials);
    const Throughput batch16 = message_throughput(16, trials);
    report.line(bench::fmt2(
        "full run (keygen-dominated): %.0f msg/s eager -> %.0f msg/s at batch 16",
        eager.rate(), batch16.rate()));

    report.section("verdicts");
    report.verdict(std::abs(zero_cost) < 1e-9,
                   "zero-cost control reproduces the paper's timing model exactly");
    report.verdict(small_fleet < 0.01,
                   "mechanism overhead < 1% for small fleets at 1e-6 s/B");
    report.verdict(fit.slope > 1.0 && big_fleet > 0.2,
                   "overhead grows superlinearly and becomes material (>20%) at m=64, "
                   "1e-5 s/B — the Θ(m²) traffic made visible");
    report.verdict(path_b16 >= 1.5 * path_legacy,
                   "flat codec + deferred batch verification moves >=1.5x more "
                   "envelopes per second than the legacy eager path");

    if (json_out) {
        obs::RunManifest manifest;
        manifest.set("bench", "protocol_overhead (E22)");
        manifest.set("sha256_backend_auto", best);
        manifest.set_uint("hardware_concurrency", hw);
        const std::vector<bench::JsonResult> results{
            {"protocol_run/scalar_j1", trials, t_scalar, 0.0},
            {"protocol_run/auto_j1", trials, t_simd, 0.0},
            {"protocol_run/auto_j" + std::to_string(hw), trials, t_simd_jobs, 0.0},
            {"message_path/legacy_eager", path_trials, 64.0 / path_legacy, 0.0},
            {"message_path/flat_batch16", path_trials, 64.0 / path_b16, 0.0},
            {"message_path/flat_batch64", path_trials, 64.0 / path_b64, 0.0},
        };
        const std::map<std::string, double> derived{
            {"protocol_crypto_speedup_auto_j1", t_scalar / t_simd},
            {"protocol_crypto_speedup_auto_jhw", t_scalar / t_simd_jobs},
            {"overhead_power_law_slope", fit.slope},
            {"messages_per_sec_legacy_eager", path_legacy},
            {"messages_per_sec_batch16", path_b16},
            {"messages_per_sec_batch64", path_b64},
            {"message_path_speedup_batch16", path_b16 / path_legacy},
            {"e2e_run_speedup_batch16", eager.seconds / batch16.seconds},
        };
        if (!bench::write_bench_json(*json_out, manifest, results, derived)) return 1;
    }
    return report.exit_code();
}
