// Event trace: an append-only record of everything observable in a run.
//
// Used by tests to assert protocol choreography (who messaged whom, when
// computation started/ended) and by the figure benches to rebuild Gantt
// timelines from the *simulated* execution rather than from the analytic
// model — agreement between the two is itself a test.
//
// A record stores facts, not text. Names are interned once in the
// recorder's name table and a record carries their NameIds. The bus's
// message and load-transfer records (Θ(m²) per run) hold ids and numbers
// only; their "from=P2 type=1" detail is rendered from those fields when
// something reads it: detail(), render(), gantt_from_trace and the obs
// exporters. Free text is kept, in a side table a record indexes, only for
// what occurs O(m) times per run: phases, verdicts, compute and churn
// notes, span names.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/chart.hpp"

namespace dlsbl::sim {

enum class TraceKind : std::uint8_t {
    kMessageSent,
    kMessageDelivered,
    kLoadTransferStart,
    kLoadTransferEnd,
    kComputeStart,
    kComputeEnd,
    kPhaseChange,
    kVerdict,      // referee decisions: fines, rewards, terminations
    kNote,
    kSpanBegin,    // causal span opened (detail = span name)
    kSpanEnd,      // causal span closed
    kChurn,        // fault injection: crash/restart marks, cut/delayed frames
};

const char* to_string(TraceKind kind) noexcept;

// A name's dense id in one TraceRecorder. Id 0 is the empty name.
using NameId = std::uint32_t;
inline constexpr NameId kNoName = 0;

// What a record's detail text is rendered from.
enum class DetailForm : std::uint8_t {
    kNone,     // ""
    kText,     // the stored note `note`
    kSent,     // "to=<peer> type=<type> bytes=<bytes>"
    kSentAll,  // "to=* type=<type> bytes=<bytes>": a broadcast
    kFrom,     // "from=<peer> type=<type>": a delivery
    kUnits,    // "to=<peer> units=<units>": a load transfer
};

// 48 bytes: four 8-byte words, three ids, the kind and the detail form.
struct TraceEvent {
    double time = 0.0;
    // Causal identity (0 = none): `span_id` is the span this event belongs
    // to, `parent_id` its causal parent. Sim stores them as opaque integers;
    // the obs layer (SpanBook / catapult exporter) gives them meaning.
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    union {
        std::uint64_t bytes = 0;  // kSent, kSentAll: the frame's size
        double units;             // kUnits: the load moved
        std::uint64_t note;       // kText: index of the detail text
    };
    NameId actor = kNoName;  // the process (or lane) the record belongs to
    NameId peer = kNoName;   // kSent, kUnits: the recipient; kFrom: the sender
    std::uint32_t type = 0;  // kSent, kSentAll, kFrom: protocol message type
    TraceKind kind = TraceKind::kNote;
    DetailForm form = DetailForm::kNone;
};
// Trivially copyable, so no std::string (or any owning member) can creep in.
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) == 48);

class TraceRecorder {
 public:
    TraceRecorder();

    // A free-text record: interns `actor` and keeps `detail` (if any) as a
    // note. For the O(m) records and for tests.
    void record(double time, TraceKind kind, std::string_view actor, std::string detail,
                std::uint64_t span_id = 0, std::uint64_t parent_id = 0);
    // The same, for an actor already interned.
    void record_note(double time, TraceKind kind, NameId actor, std::string detail,
                     std::uint64_t span_id = 0, std::uint64_t parent_id = 0);

    // The bus's records: ids and numbers only, nothing built or looked up.
    void record_send(double time, NameId from, NameId to, std::uint32_t type,
                     std::uint64_t bytes, std::uint64_t span_id);
    void record_broadcast(double time, NameId from, std::uint32_t type,
                          std::uint64_t bytes, std::uint64_t span_id);
    void record_delivery(double time, NameId to, NameId from, std::uint32_t type,
                         std::uint64_t span_id);
    // kind is kLoadTransferStart or kLoadTransferEnd.
    void record_transfer(double time, TraceKind kind, NameId from, NameId to,
                         double units, std::uint64_t span_id);

    // The id of `name`, interned on first use. Ids are never reused, and a
    // name's reference stays valid as long as the recorder.
    NameId intern(std::string_view name);
    [[nodiscard]] const std::string& name(NameId id) const { return names_[id]; }
    [[nodiscard]] const std::string& actor(const TraceEvent& event) const {
        return names_[event.actor];
    }
    // The record's free-form, machine-greppable "key=value ..." text.
    [[nodiscard]] std::string detail(const TraceEvent& event) const;

    // A deque: records are appended chunk by chunk, never copied to grow.
    [[nodiscard]] const std::deque<TraceEvent>& events() const noexcept { return events_; }

    [[nodiscard]] std::vector<TraceEvent> filter(TraceKind kind) const;
    [[nodiscard]] std::vector<TraceEvent> filter_actor(std::string_view actor) const;

    // Human-readable dump (one line per event).
    [[nodiscard]] std::string render() const;

 private:
    TraceEvent& append(double time, TraceKind kind, DetailForm form, NameId actor,
                       NameId peer, std::uint32_t type, std::uint64_t span_id);
    void append_detail(std::string& out, const TraceEvent& event) const;

    std::deque<TraceEvent> events_;
    std::vector<std::string> notes_;
    std::deque<std::string> names_;  // never moves a name: ids_ keys view them
    std::map<std::string_view, NameId> ids_;
};

// Rebuilds a Gantt timeline from a recorded trace: one "BUS" lane carrying
// the load transfers ('-') plus one lane per computing actor ('#'). Pairs
// kLoadTransferStart/kLoadTransferEnd (matched FIFO per sender, consistent
// with the one-port bus) and kComputeStart/kComputeEnd. Lets callers draw
// the *simulated* execution next to the analytic diagram.
std::vector<util::GanttBar> gantt_from_trace(const TraceRecorder& trace);

}  // namespace dlsbl::sim
