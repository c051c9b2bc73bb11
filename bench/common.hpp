// Shared helpers for the experiment harness.
//
// Every experiment binary prints a titled report (tables / ASCII charts)
// followed by explicit PASS/FAIL verdict lines for its shape criteria, and
// exits non-zero if any verdict failed — so `for b in build/bench/*; do $b;
// done` doubles as an experiment regression suite.
// Sweep-style benches run their independent protocol/DLT instances through
// exec::RunExecutor: `<bench> --jobs 8` (or DLSBL_JOBS=8) fans the sweep out
// across cores while keeping stdout and the RUN_MANIFEST byte-identical to a
// serial run — see parallel_options() / run_parallel().
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "exec/executor.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace dlsbl::bench {

// Declarative CLI flag table shared by every bench and example binary — the
// one place that knows `--name value` vs `--name=value`, aliases, and how to
// strip recognized flags out of argv. Register handlers, then either
// consume() (recognized flags are removed so the rest can go to another
// parser, e.g. benchmark::Initialize) or scan() (read-only pass).
//
//   bench::ArgSpec spec;
//   spec.option("--jobs", [&](const std::string& v) { jobs = parse(v); return true; })
//       .alias("-j", "--jobs")
//       .flag("--trace", [&] { show_trace = true; });
//   if (!spec.scan(argc, argv)) usage();
class ArgSpec {
 public:
    // A value-carrying option; the handler returns false to reject the value.
    using Handler = std::function<bool(const std::string&)>;

    ArgSpec& option(std::string name, Handler on_value) {
        entries_[std::move(name)] = Entry{true, std::move(on_value)};
        return *this;
    }

    // A bare switch.
    ArgSpec& flag(std::string name, std::function<void()> on_seen) {
        entries_[std::move(name)] = Entry{false, [fn = std::move(on_seen)](
                                                     const std::string&) {
                                              fn();
                                              return true;
                                          }};
        return *this;
    }

    // Secondary spelling (e.g. "-j" for "--jobs").
    ArgSpec& alias(std::string name, const std::string& canonical) {
        entries_[std::move(name)] = entries_.at(canonical);
        return *this;
    }

    // Removes every recognized flag (and its value) from argv, leaving
    // unrecognized arguments in place for the caller. Returns false on a
    // missing or rejected value — error() says which flag.
    bool consume(int* argc, char** argv) { return parse(argc, argv, true); }

    // Read-only pass over the full argv; unrecognized arguments are ignored.
    bool scan(int argc, char** argv) { return parse(&argc, argv, false); }

    // Like scan(), but unrecognized `-`-prefixed arguments fail the parse —
    // for binaries that own their whole command line (e.g. dlsbl_cli).
    bool scan_strict(int argc, char** argv) {
        strict_ = true;
        const bool ok = parse(&argc, argv, false);
        strict_ = false;
        return ok;
    }

    [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
    struct Entry {
        bool wants_value = false;
        Handler handler;
    };

    bool parse(int* argc, char** argv, bool remove) {
        error_.clear();
        int out = 1;
        bool ok = true;
        for (int i = 1; i < *argc; ++i) {
            const std::string_view arg = argv[i];
            std::string name(arg);
            std::string value;
            bool has_inline_value = false;
            if (const auto eq = arg.find('='); eq != std::string_view::npos) {
                name = std::string(arg.substr(0, eq));
                value = std::string(arg.substr(eq + 1));
                has_inline_value = true;
            }
            const auto it = entries_.find(name);
            if (it == entries_.end()) {
                if (strict_ && !arg.empty() && arg.front() == '-') {
                    error_ = "unknown argument '" + std::string(arg) + "'";
                    ok = false;
                }
                if (remove) argv[out] = argv[i];
                ++out;
                continue;
            }
            const Entry& entry = it->second;
            if (entry.wants_value && !has_inline_value) {
                if (i + 1 >= *argc) {
                    error_ = name + ": missing value";
                    ok = false;
                    if (remove) argv[out] = argv[i];
                    ++out;
                    continue;
                }
                value = argv[++i];
            }
            if (!entry.handler(value)) {
                error_ = name + ": bad value '" + value + "'";
                ok = false;
            }
        }
        if (remove) {
            *argc = out;
            argv[*argc] = nullptr;
        }
        return ok;
    }

    std::map<std::string, Entry> entries_;
    std::string error_;
    bool strict_ = false;
};

class Report {
 public:
    explicit Report(std::string title) {
        manifest_.set("bench", title);
        std::printf("\n==============================================================\n");
        std::printf("%s\n", title.c_str());
        std::printf("==============================================================\n");
    }

    // Prints the run manifest — config echo, git describe, and a snapshot of
    // the process-global metrics registry — as one greppable JSON line.
    ~Report() {
        std::printf("RUN_MANIFEST %s\n",
                    manifest_.to_json(&obs::MetricsRegistry::global()).c_str());
    }

    // Benches annotate the manifest with their config (seed, m, trials, ...).
    [[nodiscard]] obs::RunManifest& manifest() noexcept { return manifest_; }

    void section(const std::string& heading) { std::printf("\n--- %s ---\n", heading.c_str()); }

    void text(const std::string& body) { std::printf("%s", body.c_str()); }
    void line(const std::string& body) { std::printf("%s\n", body.c_str()); }

    // A shape criterion: prints PASS/FAIL and accumulates the exit status.
    void verdict(bool ok, const std::string& what) {
        std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
        if (!ok) failed_ = true;
    }

    [[nodiscard]] int exit_code() const noexcept { return failed_ ? 1 : 0; }

 private:
    obs::RunManifest manifest_;
    bool failed_ = false;
};

// Executor options for a bench: --jobs N / -j N on the command line beats
// the DLSBL_JOBS environment variable beats serial. Benches annotate their
// manifest with the root seed but NOT the job count — the artifact is
// byte-identical across job counts, so recording it would be a lie about
// what influenced the output.
//
// This is also where a bench parses its whole command line, strictly:
// `spec` holds the bench's own flags (if any) and --jobs joins them. An
// unknown `-`-prefixed argument, a missing value or a bad --jobs count
// prints the error (`unknown argument '--jobz'`) and exits 2 before the
// bench runs. Benches that write a JSON artifact strip `--json-out` first
// (json_out_from_args, bench/bench_json.hpp).
inline exec::ExecutorOptions parallel_options(int argc, char** argv,
                                              std::uint64_t root_seed, ArgSpec spec = {}) {
    exec::ExecutorOptions options;
    options.jobs = 1;
    // Explicit operator knob for worker count; artifacts are byte-identical
    // at any value, so this cannot break replay. DLSBL_LINT_ALLOW(determinism)
    if (const char* env = std::getenv("DLSBL_JOBS"); env != nullptr && *env != '\0') {
        options.jobs = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    }
    spec.option("--jobs", [&options](const std::string& value) {
        char* end = nullptr;
        options.jobs = static_cast<std::size_t>(std::strtoul(value.c_str(), &end, 10));
        return !value.empty() && *end == '\0';
    });
    spec.alias("-j", "--jobs");
    if (!spec.scan_strict(argc, argv)) {
        std::fprintf(stderr, "%s\n", spec.error().c_str());
        std::exit(2);
    }
    options.root_seed = root_seed;
    return options;
}

// One-shot deterministic parallel map over [0, count) (see
// exec::RunExecutor::map for the contract).
template <typename Fn>
auto run_parallel(const exec::ExecutorOptions& options, std::size_t count, Fn&& body) {
    exec::RunExecutor executor(options);
    return executor.map(count, std::forward<Fn>(body));
}

inline std::string fmt(const char* format, double a) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), format, a);
    return buf;
}

inline std::string fmt2(const char* format, double a, double b) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), format, a, b);
    return buf;
}

}  // namespace dlsbl::bench
