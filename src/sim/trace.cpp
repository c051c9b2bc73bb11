#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace dlsbl::sim {

const char* to_string(TraceKind kind) noexcept {
    switch (kind) {
        case TraceKind::kMessageSent: return "msg-sent";
        case TraceKind::kMessageDelivered: return "msg-delivered";
        case TraceKind::kLoadTransferStart: return "load-start";
        case TraceKind::kLoadTransferEnd: return "load-end";
        case TraceKind::kComputeStart: return "compute-start";
        case TraceKind::kComputeEnd: return "compute-end";
        case TraceKind::kPhaseChange: return "phase";
        case TraceKind::kVerdict: return "verdict";
        case TraceKind::kNote: return "note";
        case TraceKind::kSpanBegin: return "span-begin";
        case TraceKind::kSpanEnd: return "span-end";
        case TraceKind::kChurn: return "churn";
    }
    return "?";
}

TraceRecorder::TraceRecorder() { intern(""); }

NameId TraceRecorder::intern(std::string_view name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<NameId>(names_.size());
    ids_.emplace(names_.emplace_back(name), id);
    return id;
}

void TraceRecorder::record(double time, TraceKind kind, std::string_view actor,
                           std::string detail, std::uint64_t span_id,
                           std::uint64_t parent_id) {
    record_note(time, kind, intern(actor), std::move(detail), span_id, parent_id);
}

void TraceRecorder::record_note(double time, TraceKind kind, NameId actor,
                                std::string detail, std::uint64_t span_id,
                                std::uint64_t parent_id) {
    TraceEvent& event = append(time, kind, DetailForm::kNone, actor, kNoName, 0, span_id);
    event.parent_id = parent_id;
    if (!detail.empty()) {
        event.form = DetailForm::kText;
        event.note = notes_.size();
        notes_.push_back(std::move(detail));
    }
}

void TraceRecorder::record_send(double time, NameId from, NameId to, std::uint32_t type,
                                std::uint64_t bytes, std::uint64_t span_id) {
    append(time, TraceKind::kMessageSent, DetailForm::kSent, from, to, type, span_id)
        .bytes = bytes;
}

void TraceRecorder::record_broadcast(double time, NameId from, std::uint32_t type,
                                     std::uint64_t bytes, std::uint64_t span_id) {
    append(time, TraceKind::kMessageSent, DetailForm::kSentAll, from, kNoName, type,
           span_id)
        .bytes = bytes;
}

void TraceRecorder::record_delivery(double time, NameId to, NameId from,
                                    std::uint32_t type, std::uint64_t span_id) {
    append(time, TraceKind::kMessageDelivered, DetailForm::kFrom, to, from, type, span_id);
}

void TraceRecorder::record_transfer(double time, TraceKind kind, NameId from, NameId to,
                                    double units, std::uint64_t span_id) {
    append(time, kind, DetailForm::kUnits, from, to, 0, span_id).units = units;
}

TraceEvent& TraceRecorder::append(double time, TraceKind kind, DetailForm form,
                                  NameId actor, NameId peer, std::uint32_t type,
                                  std::uint64_t span_id) {
    TraceEvent& event = events_.emplace_back();
    event.time = time;
    event.kind = kind;
    event.form = form;
    event.actor = actor;
    event.peer = peer;
    event.type = type;
    event.span_id = span_id;
    return event;
}

void TraceRecorder::append_detail(std::string& out, const TraceEvent& event) const {
    switch (event.form) {
        case DetailForm::kNone:
            return;
        case DetailForm::kText:
            out += notes_[event.note];
            return;
        case DetailForm::kSent:
            out += "to=" + names_[event.peer] + " type=" + std::to_string(event.type) +
                   " bytes=" + std::to_string(event.bytes);
            return;
        case DetailForm::kSentAll:
            out += "to=* type=" + std::to_string(event.type) +
                   " bytes=" + std::to_string(event.bytes);
            return;
        case DetailForm::kFrom:
            out += "from=" + names_[event.peer] + " type=" + std::to_string(event.type);
            return;
        case DetailForm::kUnits:
            out += "to=" + names_[event.peer] + " units=" + std::to_string(event.units);
            return;
    }
}

std::string TraceRecorder::detail(const TraceEvent& event) const {
    std::string out;
    append_detail(out, event);
    return out;
}

std::vector<TraceEvent> TraceRecorder::filter(TraceKind kind) const {
    std::vector<TraceEvent> out;
    for (const auto& event : events_) {
        if (event.kind == kind) out.push_back(event);
    }
    return out;
}

std::vector<TraceEvent> TraceRecorder::filter_actor(std::string_view actor) const {
    std::vector<TraceEvent> out;
    const auto id = ids_.find(actor);
    if (id == ids_.end()) return out;
    for (const auto& event : events_) {
        if (event.actor == id->second) out.push_back(event);
    }
    return out;
}

std::vector<util::GanttBar> gantt_from_trace(const TraceRecorder& trace) {
    std::vector<util::GanttBar> bars;
    // Load transfers: match start/end FIFO (the bus is one-port, so
    // transfers never interleave).
    std::vector<const TraceEvent*> open_transfers;
    std::vector<std::pair<NameId, double>> open_computes;  // actor -> start
    // Horizon for unmatched starts (truncated/terminated runs record a
    // start whose end never fired): the latest time anywhere in the trace.
    // Note trace times are not monotone — transfer starts are stamped with
    // their (future) bus-grant time — so scan rather than take back().
    double horizon = 0.0;
    for (const auto& event : trace.events()) horizon = std::max(horizon, event.time);
    for (const auto& event : trace.events()) {
        switch (event.kind) {
            case TraceKind::kLoadTransferStart:
                open_transfers.push_back(&event);
                break;
            case TraceKind::kLoadTransferEnd: {
                if (!open_transfers.empty()) {
                    bars.push_back(util::GanttBar{"BUS", open_transfers.front()->time,
                                                  event.time, '-'});
                    open_transfers.erase(open_transfers.begin());
                }
                break;
            }
            case TraceKind::kComputeStart:
                open_computes.emplace_back(event.actor, event.time);
                break;
            case TraceKind::kComputeEnd: {
                for (auto it = open_computes.begin(); it != open_computes.end(); ++it) {
                    if (it->first == event.actor) {
                        bars.push_back(util::GanttBar{trace.name(event.actor), it->second,
                                                      event.time, '#'});
                        open_computes.erase(it);
                        break;
                    }
                }
                break;
            }
            default:
                break;
        }
    }
    // Tolerate truncated traces: an activity that started but never ended
    // is drawn up to the trace horizon instead of being dropped.
    for (const TraceEvent* start : open_transfers) {
        bars.push_back(
            util::GanttBar{"BUS", start->time, std::max(start->time, horizon), '-'});
    }
    for (const auto& [actor, start] : open_computes) {
        bars.push_back(
            util::GanttBar{trace.name(actor), start, std::max(start, horizon), '#'});
    }
    return bars;
}

std::string TraceRecorder::render() const {
    std::string out;
    char buf[64];
    for (const auto& event : events_) {
        std::snprintf(buf, sizeof(buf), "%12.6f  %-14s ", event.time,
                      to_string(event.kind));
        out += buf;
        out += names_[event.actor];
        out += "  ";
        append_detail(out, event);
        out += '\n';
    }
    return out;
}

}  // namespace dlsbl::sim
