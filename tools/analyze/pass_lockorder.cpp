// Lock-order graph: every RAII acquisition site becomes an edge from each
// lock already held to the lock being acquired, locks being named
// Class::member nodes resolved against the program-wide mutex table.
// Held-lock context crosses function boundaries: calls made under a lock
// extend the caller's held set into the callee (computed as a fixpoint of
// Acq(F) = locks F or its callees may acquire). Two findings:
//
//   * lock-order-same  — acquiring a node while an instance of the SAME
//     node is already held outside a scoped_lock group. Two objects of one
//     class locked in opposite orders on two threads deadlock; the repo
//     mandates std::scoped_lock (std::lock ordering) for multi-instance
//     merges.
//   * a cycle A -> B -> ... -> A in the cross-class graph (classic
//     inconsistent ordering), reported once per cycle on its
//     lexicographically smallest node.
#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyze/passes.hpp"

namespace dlsbl::analyze {
namespace {

// Canonical graph node for a lock site: "Class::member" when the member
// name resolves against a recorded std::mutex declaration, otherwise a
// file-local name that still participates in same-node detection.
std::string node_name(const Program& program, const FileModel& file,
                      const FunctionDef& fn, const LockSite& site) {
    // Prefer the mutex table: unique owning class for this member name.
    std::set<std::string> owners;
    for (const auto& [path, model] : program.files) {
        for (const MutexDecl& m : model.mutexes) {
            if (m.name == site.member) owners.insert(m.class_name);
        }
    }
    // The enclosing class first: `mutex_` inside MetricsRegistry::counter
    // (and `other.mutex_` on a MetricsRegistry parameter) is that class's.
    if (!fn.class_name.empty() && owners.count(fn.class_name) > 0) {
        return fn.class_name + "::" + site.member;
    }
    if (owners.size() == 1) {
        const std::string& cls = *owners.begin();
        return (cls.empty() ? file.path : cls) + "::" + site.member;
    }
    // Ambiguous owner (several classes share the member name): key on the
    // object expression, so `a.mu_` and `b.mu_` stay distinct nodes while
    // `a.mu_` in two functions unifies (parameter naming is consistent
    // enough in practice; a miss only weakens, never falsifies, an edge).
    if (!site.object.empty() && site.object != "this") {
        return "obj:" + site.object + "." + site.member;
    }
    // Unknown: function-local scope.
    return file.path + "::" + fn.qualified + "::" + site.member;
}

struct Edge {
    std::string file;
    std::size_t line = 0;
    std::string where;  // human context: function (and callee for derived)
};

using Graph = std::map<std::string, std::map<std::string, Edge>>;

void add_edge(Graph* graph, const std::string& from, const std::string& to,
              Edge edge) {
    auto& slot = (*graph)[from];
    slot.emplace(to, std::move(edge));  // first witness wins
}

}  // namespace

std::vector<Finding> pass_lock_order(const Program& program) {
    std::vector<Finding> findings;
    CallIndex index(program);

    // Acq(F): nodes F itself acquires. Extended to callees below.
    std::map<const FunctionDef*, std::set<std::string>> acquires;
    std::map<const FunctionDef*, const FileModel*> file_of;
    for (const FnRef& ref : index.all()) {
        file_of[ref.fn] = ref.file;
        auto& set = acquires[ref.fn];
        for (const LockSite& site : ref.fn->locks) {
            set.insert(node_name(program, *ref.file, *ref.fn, site));
        }
    }
    // Transitive fixpoint over the call graph.
    bool changed = true;
    while (changed) {
        changed = false;
        for (const FnRef& ref : index.all()) {
            auto& set = acquires[ref.fn];
            const std::size_t before = set.size();
            for (const CallSite& call : ref.fn->calls) {
                for (const FnRef& callee :
                     index.resolve(call, ref.fn->class_name)) {
                    const auto& sub = acquires[callee.fn];
                    set.insert(sub.begin(), sub.end());
                }
            }
            if (set.size() != before) changed = true;
        }
    }

    Graph graph;
    for (const FnRef& ref : index.all()) {
        const FunctionDef& fn = *ref.fn;
        // Direct edges: held -> acquired at each site, skipping pairs inside
        // one scoped_lock group (acquired atomically via std::lock).
        for (const LockSite& site : fn.locks) {
            const std::string to = node_name(program, *ref.file, fn, site);
            for (const std::size_t held_idx : site.held_before) {
                const LockSite& held = fn.locks[held_idx];
                if (site.group != LockSite::kNoGroup &&
                    held.group == site.group) {
                    continue;
                }
                const std::string from =
                    node_name(program, *ref.file, fn, held);
                if (from == to) {
                    Finding f;
                    f.pass = kPassLockOrder;
                    f.file = ref.file->path;
                    f.line = site.line;
                    f.col = site.col;
                    f.symbol = to;
                    f.message =
                        "second acquisition of " + to + " while an instance "
                        "is already held in " + fn.qualified +
                        "; concurrent merges in opposite directions deadlock "
                        "— use std::scoped_lock over both";
                    findings.push_back(std::move(f));
                    continue;
                }
                add_edge(&graph, from, to,
                         {ref.file->path, site.line, fn.qualified});
            }
        }
        // Derived edges: calls made while holding locks pull in everything
        // the callee may acquire.
        for (const CallSite& call : fn.calls) {
            if (call.held_locks.empty()) continue;
            for (const FnRef& callee : index.resolve(call, fn.class_name)) {
                for (const std::string& to : acquires[callee.fn]) {
                    for (const std::size_t held_idx : call.held_locks) {
                        const std::string from = node_name(
                            program, *ref.file, fn, fn.locks[held_idx]);
                        if (from == to) continue;  // recursion on one node:
                            // flagged at the direct site if real
                        add_edge(&graph, from, to,
                                 {ref.file->path, call.line,
                                  fn.qualified + " -> " +
                                      callee.fn->qualified});
                    }
                }
            }
        }
    }

    // Cycle detection: DFS from each node in sorted order; report each
    // cycle once, anchored at its smallest node.
    std::set<std::string> reported;
    for (const auto& [start, _] : graph) {
        std::vector<std::string> stack = {start};
        std::set<std::string> on_path = {start};
        // Iterative DFS with explicit child iterators.
        std::vector<std::map<std::string, Edge>::const_iterator> iters;
        const auto start_it = graph.find(start);
        iters.push_back(start_it->second.begin());
        while (!stack.empty()) {
            auto& it = iters.back();
            const auto children = graph.find(stack.back());
            if (children == graph.end() || it == children->second.end()) {
                on_path.erase(stack.back());
                stack.pop_back();
                iters.pop_back();
                continue;
            }
            const std::string next = it->first;
            const Edge edge = it->second;
            ++it;
            if (next == start) {
                // Cycle found. Anchor at the smallest node so each cycle is
                // reported once no matter where DFS entered it.
                const std::string smallest =
                    *std::min_element(stack.begin(), stack.end());
                if (smallest != start) continue;
                std::string shape;
                for (const std::string& n : stack) shape += n + " -> ";
                shape += start;
                if (!reported.insert(shape).second) continue;
                Finding f;
                f.pass = kPassLockOrder;
                f.file = edge.file;
                f.line = edge.line;
                f.symbol = start;
                f.message = "lock-order cycle: " + shape;
                // One note per edge so every witness site is visible — the
                // cycle may mix direct acquisitions and calls-under-lock.
                for (std::size_t k = 0; k < stack.size(); ++k) {
                    const std::string& from_n = stack[k];
                    const std::string& to_n =
                        k + 1 < stack.size() ? stack[k + 1] : start;
                    const Edge& e =
                        graph.find(from_n)->second.find(to_n)->second;
                    f.notes.push_back(from_n + " -> " + to_n + " in " +
                                      e.where + " (" + e.file + ":" +
                                      std::to_string(e.line) + ")");
                }
                findings.push_back(std::move(f));
                continue;
            }
            if (on_path.count(next) > 0) continue;  // inner cycle; found
                // from its own smallest node's DFS
            if (graph.count(next) == 0) continue;  // leaf: no outgoing edges
            stack.push_back(next);
            on_path.insert(next);
            iters.push_back(graph.find(next)->second.begin());
        }
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line, a.symbol) <
                         std::tie(b.file, b.line, b.symbol);
              });
    return findings;
}

}  // namespace dlsbl::analyze
