// Out-of-phase input to a sans-I/O core: a frame that arrives before the
// state it acts on exists must be dropped, never throw out of the core or
// read past a table. The cores are wired by hand here, as in run_protocol,
// and handed frames directly instead of running the event loop.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "crypto/pki.hpp"
#include "protocol/context.hpp"
#include "protocol/drivers/drivers.hpp"
#include "protocol/node.hpp"
#include "protocol/wire.hpp"

namespace dlsbl::protocol {
namespace {

ProtocolConfig base_config() {
    ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 1200;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(config.true_w.size(), Strategy{});
    return config;
}

// A meter vector naming every processor, sent by the referee.
WireMessage meter_broadcast(const RunContext& context, const std::string& to) {
    MeterVectorBody body;
    body.job_id = context.job_id();
    for (const auto& name : context.processor_names()) body.phis.emplace_back(name, 0.25);
    WireMessage message;
    message.from = context.referee_name();
    message.to = to;
    message.type = to_wire(MsgType::kMeterBroadcast);
    message.frame = wire::flat_encode(body);
    return message;
}

TEST(CoreInput, MeterVectorBeforeBiddingClosesIsDropped) {
    // The bid round never closed, so the node has no block counts and no
    // peer bids to pay against: the vector must be dropped, not computed
    // over empty tables.
    const ProtocolConfig config = base_config();
    std::unique_ptr<Driver> driver = make_sim_driver(
        config.z, config.control_latency, config.control_seconds_per_byte, config.churn_plan);
    RunContext context(driver->clock(), driver->transport(), config);
    const std::size_t index = 1;
    NodeCore node(context, index,
                  crypto::make_registered_signer(
                      context.pki(), context.processor_names()[index], config.seed * 1000 + index,
                      config.signature_algorithm, config.mss_height, config.crypto_keygen_jobs),
                  config.strategies[index]);

    // Fresh core: not even its own bid is recorded.
    EXPECT_NO_THROW(node.on_message(meter_broadcast(context, node.name())));
    EXPECT_TRUE(node.payment_vector().empty());

    // Started: its own bid is recorded, nobody else's.
    node.on_start();
    EXPECT_NO_THROW(node.on_message(meter_broadcast(context, node.name())));
    EXPECT_TRUE(node.payment_vector().empty());
    EXPECT_TRUE(node.allocation().empty());
}

}  // namespace
}  // namespace dlsbl::protocol
