#include "rules.hpp"

#include <algorithm>
#include <set>
#include <string_view>

namespace dlsbl::lint {
namespace {

using sv = std::string_view;

// ---------------------------------------------------------------- helpers

[[nodiscard]] std::string trimmed_line(const LexedFile& lexed, std::size_t line) {
    if (line == 0 || line > lexed.lines.size()) return {};
    sv text = lexed.lines[line - 1];
    while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
        text.remove_prefix(1);
    }
    while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                             text.back() == '\r')) {
        text.remove_suffix(1);
    }
    return std::string(text.substr(0, 120));
}

void report(const FileInfo& info, const LexedFile& lexed, const Token& at,
            const char* rule, std::string message, std::vector<Finding>* out) {
    out->push_back(Finding{rule, info.path, at.line, at.col, std::move(message),
                           trimmed_line(lexed, at.line)});
}

[[nodiscard]] bool is_ident(const Token& t, sv text) {
    return t.kind == TokenKind::kIdentifier && t.text == text;
}

[[nodiscard]] bool is_punct(const Token& t, sv text) {
    return t.kind == TokenKind::kPunct && t.text == text;
}

// tokens[i - 1], or a sentinel ';' when at the start.
[[nodiscard]] const Token& prev(const std::vector<Token>& toks, std::size_t i) {
    static const Token kStart{TokenKind::kPunct, ";", 0, 0};
    return i == 0 ? kStart : toks[i - 1];
}

[[nodiscard]] const Token& next(const std::vector<Token>& toks, std::size_t i) {
    static const Token kEnd{TokenKind::kPunct, ";", 0, 0};
    return i + 1 < toks.size() ? toks[i + 1] : kEnd;
}

// ------------------------------------------------------- D · determinism

// Unconditionally non-deterministic identifiers: flagged wherever they
// appear (allowlist/ALLOW markers are the only escape hatches).
const std::set<sv> kBannedIdentifiers = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48",
    "random_device", "getenv", "secure_getenv", "gettimeofday",
    "clock_gettime", "timespec_get", "localtime", "gmtime",
};

// `time` / `clock` are common member/variable names, so those are only
// flagged as direct calls in expression context (previous token is an
// operator/separator, or the call is std::-qualified). Declarations
// (`Event& time(double);`) and member calls (`simulator.now()`) pass.
const std::set<sv> kExprContextPrev = {
    "=", "(", ",", ";", "{", "}", "return", "+", "-", "*", "/", "%", "<",
    ">", "?", ":", "||", "&&", "!", "==", "!=", "<=", ">=", "+=", "-=",
};

void rule_determinism(const FileInfo& info, const LexedFile& lexed,
                      std::vector<Finding>* out) {
    const auto& toks = lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kIdentifier) continue;
        const Token& before = prev(toks, i);
        if (kBannedIdentifiers.count(t.text) > 0) {
            // Member access to an unlucky field name is not the libc call.
            if (is_punct(before, ".") || is_punct(before, "->")) continue;
            report(info, lexed, t, kRuleDeterminism,
                   "non-deterministic source '" + t.text +
                       "' (use util/rng streams, or justify via allowlist)",
                   out);
        } else if (t.text == "now" && is_punct(before, "::") &&
                   is_punct(next(toks, i), "(")) {
            // steady_clock::now(), system_clock::now(), ... — any
            // ::-qualified now() is a wall clock; sim time is `.now()`.
            report(info, lexed, t, kRuleDeterminism,
                   "wall-clock '::now()' (sim time comes from the kernel; "
                   "wall clocks belong to obs/ and bench drivers)",
                   out);
        } else if ((t.text == "time" || t.text == "clock") &&
                   is_punct(next(toks, i), "(")) {
            const bool std_qualified =
                is_punct(before, "::") && i >= 2 && is_ident(toks[i - 2], "std");
            const bool expr_context =
                before.kind == TokenKind::kPunct
                    ? kExprContextPrev.count(before.text) > 0
                    : is_ident(before, "return");
            if (std_qualified || expr_context) {
                report(info, lexed, t, kRuleDeterminism,
                       "libc '" + t.text + "()' call (wall clock)", out);
            }
        }
    }
}

// ---------------------------------------------------- X · float equality

// Flags ==/!= with a floating-point literal operand (optionally behind a
// unary sign). Comparisons between two float-typed *variables* need type
// information this linter does not have — clang-tidy's
// float-equal warning in tools/ci covers that half.
void rule_float_equality(const FileInfo& info, const LexedFile& lexed,
                         std::vector<Finding>* out) {
    const auto& toks = lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kPunct || (t.text != "==" && t.text != "!=")) {
            continue;
        }
        const Token& lhs = prev(toks, i);
        std::size_t r = i + 1;
        if (r < toks.size() && (is_punct(toks[r], "-") || is_punct(toks[r], "+"))) {
            ++r;
        }
        const bool lhs_float =
            lhs.kind == TokenKind::kNumber && is_float_literal(lhs.text);
        const bool rhs_float = r < toks.size() &&
                               toks[r].kind == TokenKind::kNumber &&
                               is_float_literal(toks[r].text);
        if (lhs_float || rhs_float) {
            report(info, lexed, t, kRuleFloatEquality,
                   std::string("'") + t.text +
                       "' against a floating-point literal (exact-rational "
                       "paths must not fall back to float comparison; if the "
                       "comparison is intentionally exact, justify it)",
                   out);
        }
    }
}

// ------------------------------------------------- L · locking and alloc

const std::set<sv> kManualLockCalls = {"lock", "unlock", "try_lock",
                                       "try_lock_for", "try_lock_until"};

const std::set<sv> kHeapCalls = {"malloc", "calloc", "realloc", "free",
                                 "aligned_alloc", "posix_memalign"};

void rule_locking_alloc(const FileInfo& info, const LexedFile& lexed,
                        std::vector<Finding>* out) {
    const auto& toks = lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kIdentifier) continue;
        const Token& before = prev(toks, i);
        const bool member_call =
            (is_punct(before, ".") || is_punct(before, "->")) &&
            is_punct(next(toks, i), "(");
        if (member_call && kManualLockCalls.count(t.text) > 0) {
            report(info, lexed, t, kRuleManualLock,
                   "manual '" + t.text +
                       "()' call (hold mutexes via std::lock_guard / "
                       "std::scoped_lock so every exit path unlocks)",
                   out);
        }
        if (info.in_protocol_core &&
            (t.text == "serialize" || t.text == "deserialize") &&
            (is_punct(before, ".") || is_punct(before, "->") ||
             is_punct(before, "::")) &&
            is_punct(next(toks, i), "(")) {
            // Heuristic blind spot: this also fires on the out-of-line
            // definitions `Body::serialize(...)` inside the legacy codec
            // implementation files; those files are allowlisted wholesale.
            report(info, lexed, t, kRuleProtocolCodec,
                   "per-message legacy codec call in the protocol core "
                   "(message paths use the zero-copy wire:: views / "
                   "flat_encode; justify cold-path use inline)",
                   out);
        }
        if (!info.in_crypto && !info.in_protocol_core) continue;
        const char* scope = info.in_crypto ? "src/crypto" : "the protocol core";
        if (t.text == "new" || t.text == "delete") {
            // `= delete`d members and `operator new/delete` declarations are
            // not allocations (`= new ...` still is).
            if (t.text == "delete" && is_punct(before, "=")) continue;
            if (is_ident(before, "operator")) continue;
            report(info, lexed, t, kRuleCryptoAlloc,
                   "'" + t.text + "' in " + scope +
                       " (hot paths are zero-allocation; use "
                       "stack batches or caller-provided buffers)",
                   out);
        } else if (kHeapCalls.count(t.text) > 0 && is_punct(next(toks, i), "(") &&
                   !is_punct(before, ".") && !is_punct(before, "->")) {
            report(info, lexed, t, kRuleCryptoAlloc,
                   "'" + t.text + "()' in " + scope + " (zero-allocation contract)",
                   out);
        }
    }
}

// ------------------------------------------------------------ H · hygiene

void rule_pragma_once(const FileInfo& info, const LexedFile& lexed,
                      std::vector<Finding>* out) {
    if (!info.is_header || lexed.tokens.empty()) return;
    const auto& toks = lexed.tokens;
    const bool ok = toks.size() >= 3 && is_punct(toks[0], "#") &&
                    is_ident(toks[1], "pragma") && is_ident(toks[2], "once");
    if (!ok) {
        report(info, lexed, toks[0], kRulePragmaOnce,
               "header must open with '#pragma once' before any other code",
               out);
    }
}

// Scope kinds for the brace-tracking walk shared by the `using namespace`
// and mutable-global rules. Only "is any enclosing brace a function body"
// and "are all enclosing braces namespaces" matter to the rules.
enum class Scope { kNamespace, kType, kFunction, kExpr };

// Classifies the brace at token index `open` by scanning the statement
// prefix before it. Heuristic, by design:
//   * `namespace`/`extern` in the prefix        -> namespace scope
//   * `struct`/`class`/`union`/`enum` in prefix -> type scope
//   * a `)` or `]` in the prefix (function
//     parameter list, lambda, for/if/while)     -> function body
//   * `try`/`do`/`else` directly before         -> function body
//   * anything else (initializer lists, array
//     literals, designated init)                -> expression brace
[[nodiscard]] Scope classify_brace(const std::vector<Token>& toks,
                                   std::size_t open) {
    bool saw_paren = false;
    for (std::size_t j = open; j-- > 0;) {
        const Token& t = toks[j];
        if (t.kind == TokenKind::kPunct &&
            (t.text == ";" || t.text == "{" || t.text == "}")) {
            break;
        }
        if (t.kind == TokenKind::kIdentifier) {
            if (t.text == "namespace" || t.text == "extern") return Scope::kNamespace;
            if (t.text == "struct" || t.text == "class" || t.text == "union" ||
                t.text == "enum") {
                return Scope::kType;
            }
            if (j + 1 == open &&
                (t.text == "try" || t.text == "do" || t.text == "else")) {
                return Scope::kFunction;
            }
        }
        if (t.kind == TokenKind::kPunct && (t.text == ")" || t.text == "]")) {
            saw_paren = true;
        }
    }
    return saw_paren ? Scope::kFunction : Scope::kExpr;
}

// Keywords whose presence exempts a namespace-scope statement from the
// mutable-global rule: constants, type/alias/template machinery, and
// declarations that merely reference storage defined elsewhere.
const std::set<sv> kGlobalStatementExempt = {
    "const",   "constexpr", "constinit", "using",    "typedef",
    "namespace", "struct",  "class",     "enum",     "union",
    "template",  "extern",  "friend",    "concept",  "static_assert",
    "operator",  "requires",
};

void rule_scoped(const FileInfo& info, const LexedFile& lexed,
                 std::vector<Finding>* out) {
    const bool check_using = info.is_header;
    const bool check_globals = info.in_src;
    if (!check_using && !check_globals) return;

    const auto& toks = lexed.tokens;
    std::vector<Scope> stack;
    std::size_t function_depth = 0;

    // Current namespace-scope statement, for the mutable-global rule.
    std::vector<std::size_t> stmt;  // token indices
    bool stmt_has_brace_init = false;

    auto at_namespace_scope = [&] {
        return std::all_of(stack.begin(), stack.end(),
                           [](Scope s) { return s == Scope::kNamespace; });
    };

    auto flush_statement = [&](std::size_t terminator) {
        std::vector<std::size_t> indices;
        indices.swap(stmt);
        const bool brace_init = stmt_has_brace_init;
        stmt_has_brace_init = false;
        if (!check_globals || indices.empty() || !at_namespace_scope()) return;

        bool exempt = false;
        bool has_assign = false;
        std::size_t first_assign = toks.size();
        std::size_t first_paren = toks.size();
        std::size_t ident_count = 0;
        for (const std::size_t idx : indices) {
            const Token& t = toks[idx];
            if (t.kind == TokenKind::kIdentifier) {
                if (kGlobalStatementExempt.count(t.text) > 0) exempt = true;
                ++ident_count;
            } else if (t.kind == TokenKind::kPunct) {
                if (t.text == "=" && first_assign == toks.size()) {
                    has_assign = true;
                    first_assign = idx;
                } else if (t.text == "(" && first_paren == toks.size()) {
                    first_paren = idx;
                }
            }
        }
        if (exempt) return;
        // A '(' before any '=' means function declaration/definition or a
        // macro invocation — not a variable. (Constructor-call-style global
        // definitions are the known blind spot; brace/= init dominate here.)
        if (first_paren < first_assign) return;
        const Token& last = toks[indices.back()];
        const bool type_name_pattern =
            ident_count >= 2 &&
            (last.kind == TokenKind::kIdentifier || is_punct(last, "]"));
        if (has_assign || brace_init || type_name_pattern) {
            const Token& anchor = toks[indices.front()];
            (void)terminator;
            report(info, lexed, anchor, kRuleMutableGlobal,
                   "non-constexpr mutable global in src/ (make it "
                   "constexpr/const, or move it behind a function-local "
                   "static / explicit justification)",
                   out);
        }
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];

        if (check_using && is_ident(t, "using") && i + 1 < toks.size() &&
            is_ident(toks[i + 1], "namespace") && function_depth == 0) {
            report(info, lexed, t, kRuleUsingNamespace,
                   "'using namespace' at namespace scope in a header leaks "
                   "into every includer; qualify or alias instead",
                   out);
        }

        if (is_punct(t, "#")) {
            // Preprocessor directive: consume to end of line and treat as a
            // statement boundary so directives never pollute declarations.
            const std::size_t directive_line = toks[i].line;
            while (i + 1 < toks.size() && toks[i + 1].line == directive_line) ++i;
            flush_statement(i);
            continue;
        }

        if (is_punct(t, "{")) {
            const Scope scope = classify_brace(toks, i);
            if (scope == Scope::kExpr && at_namespace_scope()) {
                // Part of an initializer in the current statement: skip the
                // balanced group, remember we saw it.
                stmt_has_brace_init = true;
                std::size_t depth = 1;
                while (i + 1 < toks.size() && depth > 0) {
                    ++i;
                    if (is_punct(toks[i], "{")) ++depth;
                    if (is_punct(toks[i], "}")) --depth;
                }
                continue;
            }
            flush_statement(i);
            stack.push_back(scope);
            if (scope == Scope::kFunction) ++function_depth;
            continue;
        }
        if (is_punct(t, "}")) {
            flush_statement(i);
            if (!stack.empty()) {
                if (stack.back() == Scope::kFunction) --function_depth;
                stack.pop_back();
            }
            continue;
        }
        if (is_punct(t, ";")) {
            flush_statement(i);
            continue;
        }
        if (at_namespace_scope()) stmt.push_back(i);
    }
}

// -------------------------------------------- U · unordered iteration

// Skips a balanced <...> template-argument group starting at `i` (which
// must point at '<'); returns the index just past the matching '>'.
// Treats '>>' as two closers. Gives up (returns `i + 1`) on ';' or EOF so
// a stray comparison operator cannot swallow the rest of the file.
[[nodiscard]] std::size_t skip_angles(const std::vector<Token>& toks,
                                      std::size_t i) {
    std::size_t depth = 0;
    const std::size_t begin = i;
    for (; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kPunct) continue;
        if (t.text == "<") {
            ++depth;
        } else if (t.text == ">") {
            if (depth == 0 || --depth == 0) return i + 1;
        } else if (t.text == ">>") {
            if (depth <= 2) return i + 1;
            depth -= 2;
        } else if (t.text == ";") {
            break;
        }
    }
    return begin + 1;
}

// Only the begin family: every iteration needs a begin, while a bare
// `.end()` is usually the sentinel in a legitimate `find() != end()`
// membership test (e.g. the Pki verify cache), which is order-independent.
const std::set<sv> kIterationMembers = {"begin", "cbegin", "rbegin", "crbegin"};

// Heuristic: collect every identifier declared in this file with an
// unordered_map/unordered_set type (members, locals, parameters alike),
// then flag range-for iteration over — or begin()/end() calls on — those
// names. Blind spots (documented): aliased types (`using T = unordered_…`)
// and containers declared in another header; the flow-aware
// dlsbl_analyze taint pass covers those interprocedurally.
void rule_unordered_iteration(const FileInfo& info, const LexedFile& lexed,
                              std::vector<Finding>* out) {
    if (!info.in_crypto && !info.in_protocol) return;
    const auto& toks = lexed.tokens;

    std::set<std::string> unordered_names;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kIdentifier ||
            (t.text != "unordered_map" && t.text != "unordered_set" &&
             t.text != "unordered_multimap" && t.text != "unordered_multiset")) {
            continue;
        }
        std::size_t j = i + 1;
        if (j < toks.size() && is_punct(toks[j], "<")) j = skip_angles(toks, j);
        // Skip declarator decorations between the type and the name.
        while (j < toks.size() &&
               (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
                is_ident(toks[j], "const"))) {
            ++j;
        }
        if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
            unordered_names.insert(toks[j].text);
        }
    }
    if (unordered_names.empty()) return;

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kIdentifier || unordered_names.count(t.text) == 0) {
            continue;
        }
        const Token& before = prev(toks, i);
        const Token& after = next(toks, i);
        // Range-for: `for (... : name)` — the range expression's trailing
        // identifier directly before the closing paren.
        if (is_punct(before, ":") && is_punct(after, ")")) {
            report(info, lexed, t, kRuleUnorderedIter,
                   "range-for over unordered container '" + t.text +
                       "' (iteration order is implementation-defined and "
                       "breaks byte-identical replay; iterate a sorted "
                       "snapshot or switch to std::map)",
                   out);
        }
        // Iterator loops: `name.begin()`, `name.cend()`, ...
        if ((is_punct(after, ".") || is_punct(after, "->")) && i + 2 < toks.size() &&
            toks[i + 2].kind == TokenKind::kIdentifier &&
            kIterationMembers.count(toks[i + 2].text) > 0 &&
            i + 3 < toks.size() && is_punct(toks[i + 3], "(")) {
            report(info, lexed, t, kRuleUnorderedIter,
                   "'" + t.text + "." + toks[i + 2].text +
                       "()' iterates an unordered container "
                       "(implementation-defined order; sort first or use "
                       "an ordered container)",
                   out);
        }
    }
}

// ------------------------------------------------------ A · architecture

// The sans-I/O protocol core must stay transport- and time-agnostic: state
// machines see logical time through protocol::Clock and the wire through
// protocol::Transport, and only the driver (protocol/drivers/) binds them to
// the discrete-event sim. Any `#include "sim/..."` or `sim::` token in core
// files is a layering breach. Comments are stripped by the lexer, so prose
// mentions of the sim layer stay legal.
void rule_layering(const FileInfo& info, const LexedFile& lexed,
                   std::vector<Finding>* out) {
    if (!info.in_protocol_core) return;
    const auto& toks = lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind == TokenKind::kString && is_ident(prev(toks, i), "include") &&
            sv(t.text).substr(0, 4) == "sim/") {
            report(info, lexed, t, kRuleLayering,
                   "sans-I/O protocol core includes \"" + t.text +
                       "\" (sim/ belongs to protocol/drivers/ and "
                       "protocol/detail/)",
                   out);
        } else if (t.kind == TokenKind::kIdentifier && t.text == "sim" &&
                   is_punct(next(toks, i), "::")) {
            report(info, lexed, t, kRuleLayering,
                   "sans-I/O protocol core names 'sim::' (time and transport "
                   "reach the core only via protocol::Clock/Transport)",
                   out);
        }
    }
}

}  // namespace

const std::vector<std::string>& all_rule_ids() {
    static const std::vector<std::string> kIds = {
        kRuleDeterminism,   kRuleFloatEquality, kRuleManualLock,
        kRuleCryptoAlloc,   kRuleProtocolCodec, kRulePragmaOnce,
        kRuleUsingNamespace, kRuleMutableGlobal, kRuleLayering,
        kRuleUnorderedIter,
    };
    return kIds;
}

void run_rules(const FileInfo& info, const LexedFile& lexed,
               std::vector<Finding>* out) {
    rule_determinism(info, lexed, out);
    rule_float_equality(info, lexed, out);
    rule_locking_alloc(info, lexed, out);
    rule_pragma_once(info, lexed, out);
    rule_scoped(info, lexed, out);
    rule_layering(info, lexed, out);
    rule_unordered_iteration(info, lexed, out);
}

}  // namespace dlsbl::lint
