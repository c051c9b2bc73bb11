#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>

#include "crypto/pki.hpp"
#include "dlt/closed_form.hpp"
#include "mech/dls_bl.hpp"
#include "obs/profiler.hpp"
#include "protocol/blocks.hpp"
#include "protocol/wire.hpp"
#include "sim/kernel.hpp"

namespace perfbench {

using dlsbl::crypto::Digest;
using dlsbl::crypto::Sha256;
using Clock = std::chrono::steady_clock;

namespace {

// Folded into by every probe so the timed work cannot be optimised away.
volatile std::uint64_t g_sink = 0;

double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// Median wall seconds of `reps` calls of `fn`.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        fn(r);
        samples.push_back(since(start));
    }
    return median(samples);
}

std::uint64_t digest_word(const Digest& d) {
    std::uint64_t v = 0;
    std::memcpy(&v, d.data(), sizeof(v));
    return v;
}

}  // namespace

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return 0.5 * (values[(n - 1) / 2] + values[n / 2]);
}

RunCounters observe_run(const dlsbl::protocol::RunInternals& internals) {
    RunCounters c;
    const auto& events = internals.trace().events();
    c.trace_events = events.size();
    for (const auto& event : events) {
        if (event.kind == dlsbl::sim::TraceKind::kLoadTransferStart) ++c.load_transfers;
    }
    auto& registry = internals.context.metrics_registry();
    for (const char* kind : {"allocation", "payment"}) {
        c.disputes_opened +=
            registry.counter("dlsbl_referee_disputes_opened_total", {{"kind", kind}}).value();
    }
    const auto cache = internals.context.pki().verify_cache_stats();
    c.cache_hits = cache.hits;
    c.cache_misses = cache.misses;
    c.root = internals.context.dataset().root();
    return c;
}

ScopeTotals scope_totals() {
    // Report lines are "<2*depth spaces><name> <ms> ms <calls> calls <pct>%".
    static const std::set<std::string> kWrappers = {"protocol_run", "sim_event_loop",
                                                    "bus_event_loop"};
    std::istringstream report(dlsbl::obs::Profiler::instance().report());
    std::string line;
    std::getline(report, line);  // header
    std::vector<std::string> stack;  // names of the open ancestors, by depth
    double run_ms = 0.0;
    double covered_ms = 0.0;
    while (std::getline(report, line)) {
        const std::size_t indent = line.find_first_not_of(' ');
        if (indent == std::string::npos) continue;
        const std::size_t depth = indent / 2;
        std::istringstream fields(line.substr(indent));
        std::string name;
        double ms = 0.0;
        if (!(fields >> name >> ms)) continue;
        stack.resize(depth);
        const bool in_run = !stack.empty() && stack.front() == "protocol_run";
        const bool under_wrappers = std::all_of(stack.begin(), stack.end(), [](const auto& s) {
            return kWrappers.contains(s);
        });
        if (depth == 0 && name == "protocol_run") {
            run_ms += ms;
        } else if (in_run && under_wrappers && !kWrappers.contains(name)) {
            covered_ms += ms;
        }
        stack.push_back(name);
    }
    return {run_ms / 1e3, (run_ms - covered_ms) / 1e3};
}

void run_probes(const RunInput& run, const dlsbl::protocol::ProtocolOutcome& outcome,
                const RunCounters& counters, std::vector<Metric>& metrics,
                std::vector<std::string>& failures) {
    namespace protocol = dlsbl::protocol;
    const auto& cfg = run.config;
    const std::size_t m = cfg.true_w.size();
    const std::size_t blocks = cfg.block_count;

    // ---- crypto: keygen for every participant, with the run's seeds ------
    dlsbl::crypto::Pki pki;
    std::vector<std::unique_ptr<dlsbl::crypto::Signer>> signers;
    auto keygen_start = Clock::now();
    for (std::size_t i = 0; i < m; ++i) {
        signers.push_back(dlsbl::crypto::make_registered_signer(
            pki, "P" + std::to_string(i + 1), cfg.seed * 1000 + i, cfg.signature_algorithm,
            cfg.mss_height, cfg.crypto_keygen_jobs));
    }
    const auto user = dlsbl::crypto::make_registered_signer(
        pki, "user", cfg.seed * 1000 + 999, cfg.signature_algorithm, cfg.mss_height,
        cfg.crypto_keygen_jobs);
    metrics.push_back({"crypto.keygen_s", since(keygen_start), "s"});

    // ---- crypto: one SHA-256 Merkle node, scalar and batched --------------
    constexpr std::size_t kPairs = 1 << 15;
    std::vector<Digest> pairs(2 * kPairs);
    for (std::size_t i = 0; i < pairs.size(); ++i) pairs[i] = Sha256::hash(std::to_string(i));
    std::vector<Digest> scalar_out(kPairs);
    std::vector<Digest> batch_out(kPairs);
    const double scalar_s = time_median(3, [&](int) {
        for (std::size_t i = 0; i < kPairs; ++i) {
            scalar_out[i] = Sha256::hash_pair(pairs[2 * i], pairs[2 * i + 1]);
        }
    });
    const double batch_s = time_median(3, [&](int) { Sha256::hash_pair_many(pairs, batch_out); });
    if (scalar_out != batch_out) failures.push_back("hash_pair_many differs from hash_pair");
    g_sink = g_sink + digest_word(scalar_out.back()) + digest_word(batch_out.front());
    metrics.push_back({"crypto.hash_pair_ns", scalar_s / kPairs * 1e9, "ns"});
    metrics.push_back({"crypto.hash_pair_many_ns", batch_s / kPairs * 1e9, "ns"});

    // ---- crypto: bid signatures verified through verify_many --------------
    // Each rep signs fresh bids (a new job id), so every check is a cache
    // miss, as a bid's first verification is in the run. Only verification
    // is timed.
    std::vector<dlsbl::crypto::SignedMessage> bids(m);
    const std::size_t batch = std::max<std::size_t>(cfg.verify_batch, 1);
    bool all_valid = true;
    std::vector<double> verify_samples;
    for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < m; ++i) {
            protocol::BidBody body;
            body.job_id = cfg.seed + 1 + static_cast<std::uint64_t>(rep);
            body.processor = "P" + std::to_string(i + 1);
            body.bid = cfg.true_w[i];
            bids[i] = dlsbl::crypto::sign_message(*signers[i], body.processor,
                                                  protocol::wire::flat_encode(body));
        }
        std::vector<dlsbl::crypto::Pki::VerifyRequest> requests(m);
        for (std::size_t i = 0; i < m; ++i) {
            requests[i] = {&bids[i].signer, bids[i].payload, bids[i].signature};
        }
        const auto verdicts = std::make_unique<bool[]>(m);
        const auto start = Clock::now();
        for (std::size_t at = 0; at < m; at += batch) {
            const std::size_t n = std::min(batch, m - at);
            pki.verify_many(std::span(requests).subspan(at, n), verdicts.get() + at);
        }
        verify_samples.push_back(since(start));
        for (std::size_t i = 0; i < m; ++i) all_valid = all_valid && verdicts[i];
    }
    if (!all_valid) failures.push_back("verify_many rejected a genuine bid");
    metrics.push_back(
        {"crypto.sig_verify_us", median(verify_samples) / static_cast<double>(m) * 1e6, "us"});

    // ---- protocol: bid codec, one encode + two view parses per delivery ---
    const std::size_t codec_iters = std::max<std::size_t>(m * m, 1 << 14);
    bool codec_ok = true;
    const double codec_s = time_median(3, [&](int) {
        for (std::size_t k = 0; k < codec_iters; ++k) {
            const auto& msg = bids[k % m];
            const auto bytes = protocol::wire::flat_encode(msg);
            const auto envelope = protocol::wire::SignedMessageView::parse(bytes);
            const auto bid =
                envelope ? protocol::wire::BidView::parse(envelope->payload) : std::nullopt;
            codec_ok = codec_ok && bid && bid->processor == msg.signer;
        }
    });
    if (!codec_ok) failures.push_back("codec round trip lost a bid");
    metrics.push_back(
        {"protocol.codec_ns", codec_s / static_cast<double>(codec_iters) * 1e9, "ns"});

    // ---- protocol: data-set commitment and per-block proofs ---------------
    std::unique_ptr<protocol::DataSet> dataset;
    const double commit_s = time_median(3, [&](int) {
        dataset = std::make_unique<protocol::DataSet>(cfg.seed, blocks);
    });
    if (dataset->root() != counters.root) {
        failures.push_back("probe DataSet root differs from the run's root");
    }
    metrics.push_back({"protocol.block_commit_s", commit_s, "s"});
    // Witness and receiver each check every shipped block: two passes.
    bool blocks_ok = true;
    const auto verify_start = Clock::now();
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t id = 0; id < blocks; ++id) {
            blocks_ok = protocol::DataSet::verify_block(dataset->root(), dataset->block(id)) &&
                        blocks_ok;
        }
    }
    metrics.push_back({"protocol.block_verify_s", since(verify_start), "s"});
    if (!blocks_ok) failures.push_back("a genuine block failed verify_block");

    // ---- dlt: one closed-form allocation at the op's m --------------------
    const dlsbl::dlt::ProblemInstance instance{cfg.kind, cfg.z, cfg.true_w};
    const std::size_t solves = std::max<std::size_t>(1000, (1 << 20) / m);
    const double alloc_s = time_median(3, [&](int) {
        for (std::size_t k = 0; k < solves; ++k) {
            g_sink = g_sink + static_cast<std::uint64_t>(
                                  dlsbl::dlt::optimal_allocation(instance).back() * 1e9);
        }
    });
    metrics.push_back(
        {"dlt.allocation_us", alloc_s / static_cast<double>(solves) * 1e6, "us"});

    // ---- mech: one node's payment computation -----------------------------
    // w̃_j = φ_j / (blocks_j / B), as the nodes and the referee derive it.
    std::vector<double> bid_values(m);
    std::vector<double> exec(m);
    for (std::size_t j = 0; j < m; ++j) {
        const auto& p = outcome.processors[j];
        bid_values[j] = p.bid;
        const double fraction =
            static_cast<double>(p.blocks_assigned) / static_cast<double>(blocks);
        exec[j] = fraction > 0.0 ? p.phi / fraction : p.bid;
    }
    std::vector<double> q;
    const int payment_reps = static_cast<int>(std::clamp<std::size_t>(m, 3, 32));
    const double payments_s = time_median(payment_reps, [&](int) {
        const dlsbl::mech::DlsBl mechanism(cfg.kind, cfg.z, bid_values);
        q = mechanism.payments(exec).payment;
    });
    for (std::size_t j = 0; j < m; ++j) {
        // The settled vector is this very computation; any difference is drift.
        if (q[j] != outcome.processors[j].payment) {
            failures.push_back("DlsBl::payments differs from the settled Q of " +
                               outcome.processors[j].name);
            break;
        }
    }
    metrics.push_back({"mech.payments_ms", payments_s * 1e3, "ms"});

    // ---- sim: bare event-queue cost at the run's event count --------------
    const std::uint64_t events = std::max<std::uint64_t>(counters.trace_events, 1);
    const double sim_s = time_median(3, [&](int) {
        dlsbl::sim::Simulator sim;
        for (std::uint64_t i = 0; i < events; ++i) {
            sim.schedule_at(static_cast<double>(i) * 1e-6, [] {});
        }
        sim.run(events + 1);
        g_sink = g_sink + sim.events_fired();
    });
    metrics.push_back({"sim.event_ns", sim_s / static_cast<double>(events) * 1e9, "ns"});
}

}  // namespace perfbench
