#include "obs/catapult.hpp"

#include <cstdint>
#include <fstream>
#include <map>
#include <vector>

#include "obs/json.hpp"

namespace dlsbl::obs {

namespace {

class TrackTable {
 public:
    // Fixed tracks first so the viewer shows protocol + bus on top.
    TrackTable() {
        id_of("protocol");
        id_of("BUS");
    }

    std::uint32_t id_of(const std::string& lane) {
        const auto it = ids_.find(lane);
        if (it != ids_.end()) return it->second;
        const auto id = static_cast<std::uint32_t>(order_.size());
        ids_.emplace(lane, id);
        order_.push_back(lane);
        return id;
    }

    [[nodiscard]] const std::vector<std::string>& order() const noexcept {
        return order_;
    }

 private:
    std::map<std::string, std::uint32_t> ids_;
    std::vector<std::string> order_;
};

}  // namespace

std::string catapult_from_trace(const sim::TraceRecorder& trace,
                                const CatapultOptions& options) {
    TrackTable tracks;
    // Register every actor in first-appearance order (deterministic: the
    // trace itself is deterministic) so tids are stable across runs.
    for (const auto& event : trace.events()) {
        const std::string& actor = trace.actor(event);
        if (!actor.empty()) tracks.id_of(actor);
    }
    const auto bars = sim::gantt_from_trace(trace);
    for (const auto& bar : bars) tracks.id_of(bar.lane);

    std::string events;
    bool first = true;
    auto push = [&](const std::string& body) {
        if (!first) events += ',';
        first = false;
        events += "\n{" + body + '}';
    };
    auto common = [&](const char* name, const char* cat, const char* ph,
                      std::uint32_t tid, double ts) {
        return "\"name\":" + json_escape(name) + ",\"cat\":\"" + cat +
               "\",\"ph\":\"" + ph + "\",\"pid\":0,\"tid\":" + std::to_string(tid) +
               ",\"ts\":" + json_number(ts * options.time_scale);
    };

    // Metadata: name the process and each track.
    push("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":" +
         json_escape(options.process_name) + '}');
    for (std::uint32_t tid = 0; tid < tracks.order().size(); ++tid) {
        push("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
             std::to_string(tid) +
             ",\"args\":{\"name\":" + json_escape(tracks.order()[tid]) + '}');
    }

    // Interval events: the Gantt bars (compute spans per processor, load
    // transfers on the BUS lane), boundaries identical to gantt_from_trace.
    for (const auto& bar : bars) {
        const bool is_bus = bar.glyph == '-';
        std::string body = common(is_bus ? "load-transfer" : "compute",
                                  is_bus ? "bus" : "compute", "X",
                                  tracks.id_of(bar.lane), bar.start);
        body += ",\"dur\":" + json_number((bar.end - bar.start) * options.time_scale);
        push(body);
    }

    // Causal spans: the first trace record carrying each span id anchors it
    // to a (track, timestamp); span names come from the kSpanBegin detail.
    struct SpanAnchor {
        std::uint32_t tid = 0;
        double time = 0.0;
        std::string name;
    };
    std::map<std::uint64_t, SpanAnchor> anchors;
    for (const auto& event : trace.events()) {
        if (event.span_id == 0 || anchors.contains(event.span_id)) continue;
        SpanAnchor anchor;
        const std::string& actor = trace.actor(event);
        anchor.tid = tracks.id_of(actor.empty() ? "protocol" : actor);
        anchor.time = event.time;
        if (event.kind == sim::TraceKind::kSpanBegin) anchor.name = trace.detail(event);
        anchors.emplace(event.span_id, anchor);
    }

    // Instant events: messages, verdicts, phase changes, notes.
    for (const auto& event : trace.events()) {
        switch (event.kind) {
            case sim::TraceKind::kMessageSent:
            case sim::TraceKind::kMessageDelivered:
            case sim::TraceKind::kVerdict:
            case sim::TraceKind::kNote:
            case sim::TraceKind::kChurn: {
                std::string body = common(sim::to_string(event.kind), "event", "i",
                                          tracks.id_of(trace.actor(event)), event.time);
                body += ",\"s\":\"t\",\"args\":{\"detail\":" +
                        json_escape(trace.detail(event)) + '}';
                push(body);
                break;
            }
            case sim::TraceKind::kPhaseChange: {
                // Global instants on the protocol track, named by the phase.
                const std::string phase = trace.detail(event);
                std::string body = common(phase.c_str(), "phase", "i",
                                          tracks.id_of("protocol"), event.time);
                body += ",\"s\":\"g\",\"args\":{}";
                push(body);
                break;
            }
            case sim::TraceKind::kSpanBegin:
            case sim::TraceKind::kSpanEnd: {
                // Async begin/end pair keyed by span id: the viewer nests
                // them by id, so run > phase > per-processor spans stack.
                const bool begin = event.kind == sim::TraceKind::kSpanBegin;
                const auto anchor = anchors.find(event.span_id);
                const std::string name =
                    (anchor != anchors.end() && !anchor->second.name.empty())
                        ? anchor->second.name
                        : ("span-" + std::to_string(event.span_id));
                const std::uint32_t tid = anchor != anchors.end()
                                              ? anchor->second.tid
                                              : tracks.id_of("protocol");
                std::string body =
                    common(name.c_str(), "span", begin ? "b" : "e", tid, event.time);
                body += ",\"id\":" + std::to_string(event.span_id);
                if (begin) {
                    body += ",\"args\":{\"parent\":" + std::to_string(event.parent_id) +
                            '}';
                }
                push(body);
                break;
            }
            default:
                break;  // transfer/compute boundaries already covered by bars
        }
    }

    // Flow arrows: wherever a record's span parents on (or equals) a span
    // anchored on a *different* track, draw source -> destination — bus
    // deliveries land on the receiver's track, compute chains on verify
    // spans, fines on disputes. One unique id per arrow.
    std::uint64_t edge_id = 0;
    for (const auto& event : trace.events()) {
        const std::uint64_t link =
            event.kind == sim::TraceKind::kMessageDelivered ||
                    event.kind == sim::TraceKind::kLoadTransferEnd
                ? event.span_id    // delivery record carries the sender's span
                : event.parent_id; // everything else links via its parent
        if (link == 0) continue;
        const auto anchor = anchors.find(link);
        if (anchor == anchors.end()) continue;
        const std::string& actor = trace.actor(event);
        const std::uint32_t dst_tid = tracks.id_of(actor.empty() ? "protocol" : actor);
        if (anchor->second.tid == dst_tid) continue;  // same-track: nesting shows it
        const std::string flow_name =
            anchor->second.name.empty() ? "causal" : anchor->second.name;
        ++edge_id;
        std::string src = common(flow_name.c_str(), "flow", "s", anchor->second.tid,
                                 anchor->second.time);
        src += ",\"id\":" + std::to_string(edge_id);
        push(src);
        std::string dst =
            common(flow_name.c_str(), "flow", "f", dst_tid, event.time);
        dst += ",\"bp\":\"e\",\"id\":" + std::to_string(edge_id);
        push(dst);
    }

    return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" + events + "\n]}\n";
}

bool write_catapult_file(const std::string& path, const sim::TraceRecorder& trace,
                         const CatapultOptions& options) {
    std::ofstream out(path, std::ios::trunc);
    if (!out.good()) return false;
    out << catapult_from_trace(trace, options);
    return out.good();
}

}  // namespace dlsbl::obs
