#include "protocol/context.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/event.hpp"
#include "protocol/referee.hpp"
#include "protocol/wire.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace dlsbl::protocol {

const char* to_string(Phase phase) noexcept {
    switch (phase) {
        case Phase::kInit: return "Initialization";
        case Phase::kBidding: return "Bidding";
        case Phase::kAllocating: return "AllocatingLoad";
        case Phase::kProcessing: return "ProcessingLoad";
        case Phase::kPayments: return "ComputingPayments";
        case Phase::kDone: return "Done";
    }
    return "?";
}

void ProtocolConfig::validate() const {
    if (kind == dlt::NetworkKind::kCP) {
        throw std::invalid_argument(
            "ProtocolConfig: DLS-BL-NCP covers the no-control-processor systems; "
            "use mech::DlsBl directly for the CP system");
    }
    if (true_w.size() < 2) {
        throw std::invalid_argument("ProtocolConfig: need at least two processors");
    }
    if (!strategies.empty() && strategies.size() != true_w.size()) {
        throw std::invalid_argument("ProtocolConfig: strategy count mismatch");
    }
    dlt::ProblemInstance instance{kind, z, true_w};
    instance.validate();
    // Every bid a strategy broadcasts must be a rate: a bid outside the
    // domain would be discarded by every peer and the run would stall.
    for (std::size_t i = 0; i < strategies.size(); ++i) {
        const Strategy& strategy = strategies[i];
        if (!dlt::is_valid_rate(strategy.bid_factor * true_w[i]) ||
            (strategy.second_bid_factor.has_value() &&
             !dlt::is_valid_rate(*strategy.second_bid_factor * true_w[i]))) {
            throw std::invalid_argument("ProtocolConfig: strategy of P" + std::to_string(i + 1) +
                                        " bids outside (0, inf)");
        }
    }
    if (block_count == 0) throw std::invalid_argument("ProtocolConfig: block_count == 0");
    if (mss_height == 0 && signature_algorithm != crypto::SignatureAlgorithm::kFast) {
        throw std::invalid_argument(
            "ProtocolConfig: mss_height == 0 (one signature) cannot sign a bid and a "
            "payment vector");
    }
    // Fines are amounts and control timing is durations, so each is finite
    // and >= 0 (written so that NaN fails). 0 is legal: E12 sweeps the
    // safety factor from 0, and free control traffic is the paper's model.
    const auto amount = [](double value) { return std::isfinite(value) && value >= 0.0; };
    if (!amount(fine_policy.safety_factor) ||
        (fine_policy.fixed_fine.has_value() && !amount(*fine_policy.fixed_fine))) {
        throw std::invalid_argument("ProtocolConfig: fine not finite and >= 0");
    }
    if (!amount(control_latency) || !amount(control_seconds_per_byte)) {
        throw std::invalid_argument("ProtocolConfig: control timing not finite and >= 0");
    }
    if (churn_plan.enabled()) {
        churn_plan.validate();
        const auto known = [&](const std::string& name) {
            for (std::size_t i = 0; i < true_w.size(); ++i) {
                if (name == "P" + std::to_string(i + 1)) return true;
            }
            return false;
        };
        for (const auto& event : churn_plan.events) {
            if (!known(event.processor)) {
                throw std::invalid_argument("ProtocolConfig: churn plan names unknown "
                                            "processor " +
                                            event.processor);
            }
        }
        for (const auto& loss : churn_plan.losses) {
            if (!known(loss.processor)) {
                throw std::invalid_argument("ProtocolConfig: churn plan names unknown "
                                            "processor " +
                                            loss.processor);
            }
        }
        for (const auto& delay : churn_plan.delays) {
            if (!known(delay.processor)) {
                throw std::invalid_argument("ProtocolConfig: churn plan names unknown "
                                            "processor " +
                                            delay.processor);
            }
        }
    }
}

RunContext::RunContext(Clock& clock, Transport& transport, ProtocolConfig config)
    : clock_(clock),
      transport_(transport),
      config_(std::move(config)),
      dataset_(config_.seed, config_.block_count),
      // Trace id: seed-derived (stream index 0x5a9 is arbitrary but fixed),
      // so the span graph is deterministic and unique per run seed.
      spans_(util::derive_seed(config_.seed, 0x5a9), transport.span_sink()),
      job_id_(config_.seed) {
    config_.validate();
    run_span_ = spans_.open("run", "protocol", clock_.now());
    names_.reserve(config_.true_w.size());
    for (std::size_t i = 0; i < config_.true_w.size(); ++i) {
        std::string name = "P";
        name += std::to_string(i + 1);
        names_.push_back(std::move(name));
    }
    lo_name_ = names_[dlt::load_origin_index(config_.kind, names_.size())];
    ledger_.open_account(user_name_);
    ledger_.open_account(referee_name_);
    for (const auto& name : names_) ledger_.open_account(name);

    // Churn marks: every planned availability event gets a trace record, a
    // metric and an instant span at its injection time.
    if (config_.churn_plan.enabled()) {
        for (const auto& event : config_.churn_plan.events) {
            clock_.call_at(event.time, [this, event] {
                transport_.note_churn(clock_.now(), event.processor,
                                      std::string("event=") + to_string(event.kind));
                metrics_registry_
                    .counter("dlsbl_churn_events_total", {{"kind", to_string(event.kind)}})
                    .inc();
                spans_.instant(std::string("churn:") + to_string(event.kind),
                               event.processor, clock_.now(), run_span_.span_id);
            });
        }
    }
}

std::optional<std::size_t> RunContext::find_index(std::string_view name) const noexcept {
    // names_[i] is "P" followed by i + 1 in decimal, with no leading zero.
    if (name.size() < 2 || name[0] != 'P' || name[1] == '0') return std::nullopt;
    std::size_t number = 0;
    for (const char digit : name.substr(1)) {
        if (digit < '0' || digit > '9') return std::nullopt;
        number = number * 10 + static_cast<std::size_t>(digit - '0');
        if (number > names_.size()) return std::nullopt;
    }
    return number - 1;
}

std::size_t RunContext::index_of(const std::string& name) const {
    if (const auto index = find_index(name)) return *index;
    throw std::out_of_range("RunContext: unknown processor " + name);
}

void RunContext::set_phase(Phase phase) {
    phase_ = phase;
    transport_.note_phase(clock_.now(), to_string(phase));
    // Phase spans tile the run span: close the previous phase, open the new
    // one. Every per-processor span parents on the phase in force.
    spans_.close(phase_span_, clock_.now());
    phase_span_ = spans_.open(std::string("phase:") + to_string(phase), "protocol",
                              clock_.now(), run_span_.span_id);
    util::log_debug("protocol", std::string("phase -> ") + to_string(phase));
    auto& events = obs::EventLog::instance();
    if (events.enabled(obs::LogLevel::Debug)) {
        events.emit(obs::Event(obs::LogLevel::Debug, "protocol", "phase_change")
                        .time(clock_.now())
                        .span(phase_span_)
                        .str("phase", to_string(phase)));
    }
}

void RunContext::close_run_span() {
    spans_.close(phase_span_, clock_.now());
    phase_span_ = obs::SpanContext{};
    spans_.close(run_span_, clock_.now());
    run_span_ = obs::SpanContext{};
}

void RunContext::mark_terminated(const std::string& reason) {
    if (terminated_) return;
    terminated_ = true;
    termination_reason_ = reason;
}

void RunContext::post_fine(double predicted_compensation_sum) {
    if (fine_posted_) return;
    fine_posted_ = true;
    fine_amount_ = config_.fine_policy.fine_for(predicted_compensation_sum);
    if (referee_ != nullptr) referee_->on_fine_posted();
}

void RunContext::ship_load(const std::string& from, const std::string& to,
                           LoadBatch batch, std::uint64_t span_id) {
    const double units = static_cast<double>(batch.blocks.entries.size()) /
                         static_cast<double>(config_.block_count);
    util::Bytes payload = wire::flat_encode(batch);
    // The bus witness: keep exactly what crosses the shared medium.
    shipped_[to].unverified.push_back(std::move(batch.blocks));
    transport_.transfer_load(from, to, units, to_wire(MsgType::kLoadDelivery),
                             std::move(payload), span_id);
}

const ShippedRecord* RunContext::shipped_to(const std::string& to) {
    const auto it = shipped_.find(to);
    if (it == shipped_.end()) return nullptr;
    Shipments& shipments = it->second;
    for (const BlockBatch& batch : shipments.unverified) {
        const bool authentic =
            DataSet::verify_batch(dataset_.root(), dataset_.block_count(), batch);
        (authentic ? shipments.record.valid_blocks : shipments.record.invalid_blocks) +=
            batch.entries.size();
    }
    shipments.unverified.clear();
    return &shipments.record;
}

double RunContext::clamp_rate(const std::string& who, double requested) const {
    const double true_w = config_.true_w[index_of(who)];
    return std::max(true_w, requested);
}

void RunContext::adjust_expected_workers(std::ptrdiff_t delta) {
    expected_workers_ = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(expected_workers_) + delta);
}

void RunContext::execute_load(const std::string& who, std::size_t block_count, double rate,
                              std::function<void()> done, std::uint64_t parent_span) {
    const double clamped = clamp_rate(who, rate);
    const double units =
        static_cast<double>(block_count) / static_cast<double>(config_.block_count);
    const double duration = units * clamped;
    if (config_.churn_plan.enabled() && config_.churn_plan.down(who, clock_.now())) {
        // A crashed processor cannot start computing; the referee's
        // watchdogs notice the meter never ran.
        transport_.note_churn(clock_.now(), who,
                              "execute-suppressed blocks=" + std::to_string(block_count));
        return;
    }
    // Reallocated extras reopen the meter; the first execution is still
    // strictly one-shot (a double start without churn is a protocol bug).
    if (config_.churn_plan.enabled() && meters_.started(who)) {
        meters_.resume(who, clock_.now());
    } else {
        meters_.start(who, clock_.now());
    }
    const obs::SpanContext compute_span = spans_.open(
        "compute", who, clock_.now(),
        parent_span != 0 ? parent_span : phase_span_.span_id);
    transport_.note_compute_start(clock_.now(), who,
                                  "blocks=" + std::to_string(block_count) +
                                      " rate=" + std::to_string(clamped),
                                  compute_span.span_id, compute_span.parent_id);
    const auto crash = config_.churn_plan.enabled()
                           ? config_.churn_plan.first_crash_in(who, clock_.now(),
                                                               clock_.now() + duration)
                           : std::nullopt;
    if (crash.has_value()) {
        // The meter stops at the crash instant; the blocks completed by then
        // are what the dead processor gets paid for, the rest goes back to
        // the referee for reallocation.
        const double started = clock_.now();
        clock_.call_at(*crash, [this, who, compute_span, block_count, duration, started] {
            meters_.stop(who, clock_.now());
            last_compute_end_ = std::max(last_compute_end_, clock_.now());
            transport_.note_compute_end(clock_.now(), who, compute_span.span_id,
                                        compute_span.parent_id);
            spans_.close(compute_span, clock_.now());
            const double fraction =
                duration > 0.0 ? (clock_.now() - started) / duration : 1.0;
            const auto blocks_done = static_cast<std::size_t>(
                static_cast<double>(block_count) * fraction);
            transport_.note_churn(clock_.now(), who,
                                  "compute-interrupted blocks_done=" +
                                      std::to_string(blocks_done) +
                                      " of=" + std::to_string(block_count));
            metrics_registry_.counter("dlsbl_churn_meters_lost_total").inc();
            ++finished_workers_;
            if (referee_ == nullptr) return;
            if (terminated_) {
                referee_->on_meter_stopped(who);
            } else {
                referee_->on_meter_lost(who, block_count, blocks_done);
            }
        });
        return;
    }
    clock_.call_after(duration, [this, who, compute_span, done = std::move(done)] {
        meters_.stop(who, clock_.now());
        last_compute_end_ = std::max(last_compute_end_, clock_.now());
        transport_.note_compute_end(clock_.now(), who, compute_span.span_id,
                                    compute_span.parent_id);
        spans_.close(compute_span, clock_.now());
        if (done) done();
        ++finished_workers_;
        if (referee_ == nullptr) return;
        if (terminated_) {
            // A terminating verdict may be waiting on this meter for the
            // α_i w̃_i compensation payout.
            referee_->on_meter_stopped(who);
        } else if (expected_workers_ > 0 && finished_workers_ == expected_workers_) {
            RefereeCore* referee = referee_;
            clock_.call_after(0.0, [referee] { referee->on_all_meters_done(); });
        }
    });
}

}  // namespace dlsbl::protocol
