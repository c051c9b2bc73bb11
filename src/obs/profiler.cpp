#include "obs/profiler.hpp"

#include <cstdio>

namespace dlsbl::obs {

Profiler::Profiler() { nodes_.push_back(Node{"<root>", 0, {}, 0, 0}); }

Profiler& Profiler::instance() {
    static Profiler profiler;
    return profiler;
}

namespace {
// Per-thread cursor into the shared scope tree. The generation stamp lets
// reset() invalidate every thread's cursor without coordinating with them.
struct ThreadCursor {
    std::size_t current = 0;
    std::uint64_t generation = 0;
};
// Deliberately mutable per-thread scope cursor (generation-stamped; see
// Profiler::reset). DLSBL_LINT_ALLOW(mutable-global)
thread_local ThreadCursor t_cursor;
}  // namespace

void Profiler::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    nodes_.clear();
    nodes_.push_back(Node{"<root>", 0, {}, 0, 0});
    ++generation_;
}

std::size_t Profiler::enter(const char* name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (t_cursor.generation != generation_) {
        t_cursor.current = 0;
        t_cursor.generation = generation_;
    }
    for (const std::size_t child : nodes_[t_cursor.current].children) {
        if (nodes_[child].name == name) {
            t_cursor.current = child;
            return child;
        }
    }
    const std::size_t index = nodes_.size();
    nodes_.push_back(Node{name, t_cursor.current, {}, 0, 0});
    nodes_[t_cursor.current].children.push_back(index);
    t_cursor.current = index;
    return index;
}

void Profiler::leave(std::size_t node_index, std::uint64_t elapsed_ns, std::uint64_t calls) {
    const std::lock_guard<std::mutex> lock(mutex_);
    // A reset() between enter and leave invalidates the node index; drop the
    // sample rather than write into a rebuilt tree.
    if (t_cursor.generation != generation_ || node_index >= nodes_.size()) return;
    Node& node = nodes_[node_index];
    node.ns += elapsed_ns;
    node.calls += calls;
    t_cursor.current = node.parent;
}

std::uint64_t Profiler::total_ns(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& node : nodes_) {
        if (node.name == name) total += node.ns;
    }
    return total;
}

std::uint64_t Profiler::total_calls(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& node : nodes_) {
        if (node.name == name) total += node.calls;
    }
    return total;
}

void Profiler::report_node(std::string& out, std::size_t index, int depth) const {
    const Node& node = nodes_[index];
    if (index != 0) {
        const Node& parent = nodes_[node.parent];
        double parent_ns = static_cast<double>(parent.ns);
        // Top-level scopes have the synthetic root (ns == 0) as parent; use
        // the sum of top-level times instead so shares still add up.
        if (node.parent == 0) {
            parent_ns = 0.0;
            for (const std::size_t child : nodes_[0].children) {
                parent_ns += static_cast<double>(nodes_[child].ns);
            }
        }
        const double pct = parent_ns > 0.0
                               ? 100.0 * static_cast<double>(node.ns) / parent_ns
                               : 100.0;
        char line[192];
        std::snprintf(line, sizeof(line), "%*s%-*s %10.3f ms %9llu calls %6.1f%%\n",
                      2 * depth, "", 32 - 2 * depth, node.name.c_str(),
                      static_cast<double>(node.ns) / 1e6,
                      static_cast<unsigned long long>(node.calls), pct);
        out += line;
    }
    for (const std::size_t child : node.children) {
        report_node(out, child, index == 0 ? 0 : depth + 1);
    }
}

std::string Profiler::report() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    if (nodes_[0].children.empty()) return "profiler: no scopes recorded\n";
    out += "scope                                  inclusive       calls  of parent\n";
    report_node(out, 0, 0);
    return out;
}

}  // namespace dlsbl::obs
