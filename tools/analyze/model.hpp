// dlsbl_analyze — whole-program model produced by the subset parser.
//
// Where dlsbl_lint sees one flat token stream per file, the analyzer
// builds a lightweight per-TU symbol/call table (function definitions,
// call sites, lock acquisitions, container declarations, enums, includes)
// on top of the same tools/common lexer, then links the tables into a
// Program: a call graph plus an include graph the four interprocedural
// passes (passes.hpp) reason over. Still no libclang — the parser is a
// pragmatic C++ subset recognizer whose known blind spots are documented
// at each extraction site and pinned by tests/test_analyze.cpp.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dlsbl::analyze {

// A quoted project include (`#include "obs/json.hpp"`); system includes
// are not part of the layering model.
struct IncludeRef {
    std::string path;  // as written, forward slashes
    std::size_t line = 0;
};

// A nondeterminism source observed directly in a function body: libc
// randomness/environment/wall-clock identifiers, `::now()`, or
// pointer-keyed std::hash instantiation.
struct SourceHit {
    std::string what;  // e.g. "getenv", "::now", "pointer-hash"
    std::size_t line = 0;
    std::size_t col = 0;
};

// A mutex acquisition through an RAII guard (lock_guard / scoped_lock /
// unique_lock — the only forms the lint manual-lock rule admits).
struct LockSite {
    std::string object;  // qualifier before the member ("other" in
                         // `other.mutex_`), empty for a bare name
    std::string member;  // trailing identifier of the mutex expression
    std::size_t line = 0;
    std::size_t col = 0;
    // Guards this site on the held-stack when it was acquired (indices
    // into FunctionDef::locks). Same-group scoped_lock arguments acquire
    // atomically (std::lock deadlock avoidance) and are excluded.
    std::vector<std::size_t> held_before;
    // scoped_lock argument-group id: sites sharing a group never order
    // against each other. kNoGroup for single acquisitions.
    std::size_t group = kNoGroup;
    static constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);
};

// A call site inside a function body. Over-approximate by design: variable
// definitions with constructor syntax parse as calls (constructors do
// run), and unresolvable names simply resolve to no candidates.
struct CallSite {
    std::string name;        // simple callee name
    std::string qualifier;   // "a::b" path before the name, "" if none
    bool member_call = false;  // preceded by '.' or "->"
    std::string first_arg;   // first argument when it is a plain qualified
                             // name ("MsgType::kBid"), else ""
    std::size_t line = 0;
    std::size_t col = 0;
    std::vector<std::size_t> held_locks;  // indices into FunctionDef::locks
};

// Range-for / begin() iteration over a named container; the taint pass
// resolves the receiver against the program-wide container table.
struct IterSite {
    std::string receiver;  // trailing identifier of the range expression
    std::size_t line = 0;
    std::size_t col = 0;
};

struct FunctionDef {
    std::string name;        // simple name ("counter")
    std::string class_name;  // enclosing record or out-of-line qualifier
    std::string ns;          // namespace path ("dlsbl::obs")
    std::string qualified;   // ns::class::name, anonymous ns omitted
    std::size_t line = 0;
    std::vector<CallSite> calls;
    std::vector<LockSite> locks;       // in acquisition order
    std::vector<SourceHit> sources;    // direct nondeterminism
    std::vector<IterSite> iterations;  // container-iteration sites
};

struct EnumDef {
    std::string name;       // "MsgType"
    std::string qualified;  // "dlsbl::protocol::MsgType"
    std::vector<std::string> enumerators;
    std::size_t line = 0;
};

// `std::mutex name` declaration and the record it belongs to (empty
// class_name for namespace-scope or function-local mutexes).
struct MutexDecl {
    std::string class_name;
    std::string name;
    std::size_t line = 0;
};

struct ContainerDecl {
    std::string class_name;  // record that owns the member, "" otherwise
    std::string name;
    std::string kind;  // "unordered_map", "map", ...
    bool unordered = false;
    std::size_t line = 0;
};

struct FileModel {
    std::string path;  // repo-relative, forward slashes
    std::vector<IncludeRef> includes;
    std::vector<FunctionDef> functions;
    std::vector<EnumDef> enums;
    std::vector<MutexDecl> mutexes;
    std::vector<ContainerDecl> containers;
    // Every `A::b` qualified reference in the file (dispatch/exhaustiveness
    // checks test enumerator mentions against this set).
    std::set<std::string> qualified_refs;
};

// The linked whole-program view. Files are keyed by path (sorted map) so
// every pass iterates deterministically.
struct Program {
    std::map<std::string, FileModel> files;

    [[nodiscard]] const FileModel* file(const std::string& path) const {
        const auto it = files.find(path);
        return it == files.end() ? nullptr : &it->second;
    }
};

// Module of a repo-relative path under the layering model: "src/obs/..."
// -> "obs"; everything outside src/ (tools, tests, bench, examples) is a
// client of the library DAG and returns "".
[[nodiscard]] std::string module_of(const std::string& path);

}  // namespace dlsbl::analyze
