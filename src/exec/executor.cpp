#include "exec/executor.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/event.hpp"

namespace dlsbl::exec {

RunExecutor::RunExecutor(ExecutorOptions options) : options_(options) {
    jobs_ = options_.jobs;
    if (jobs_ == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs_ = hw == 0 ? 1 : hw;
    }
}

std::size_t RunExecutor::jobs_from_args(int argc, char** argv, std::size_t fallback) {
    for (int i = 1; i < argc; ++i) {
        if ((std::strcmp(argv[i], "--jobs") == 0 || std::strcmp(argv[i], "-j") == 0) &&
            i + 1 < argc) {
            return static_cast<std::size_t>(std::strtoul(argv[i + 1], nullptr, 10));
        }
    }
    // Explicit operator knob for worker count; artifacts are byte-identical
    // at any value, so this cannot break replay. DLSBL_LINT_ALLOW(determinism)
    if (const char* env = std::getenv("DLSBL_JOBS"); env != nullptr && *env != '\0') {
        return static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    }
    return fallback;
}

void RunExecutor::run_tasks(std::size_t count,
                            const std::function<void(RunSlot&)>& body) {
    if (count == 0) return;

    // Per-task event captures, indexed by submission order.
    std::vector<obs::EventBuffer> buffers(count);
    auto run_one = [&](std::size_t task) {
        RunSlot slot(task, util::derive_seed(options_.root_seed, task));
        obs::EventBuffer* previous = obs::EventLog::set_thread_buffer(&buffers[task]);
        try {
            body(slot);
        } catch (...) {
            obs::EventLog::set_thread_buffer(previous);
            throw;
        }
        obs::EventLog::set_thread_buffer(previous);
    };

    const std::size_t workers = std::min(jobs_, count);
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i) run_one(i);
    } else {
        // Every worker claims the next unclaimed task until none is left.
        std::atomic<std::size_t> next{0};
        std::exception_ptr first_error;
        std::mutex error_mutex;
        auto worker_loop = [&] {
            for (std::size_t task = next++; task < count; task = next++) {
                try {
                    run_one(task);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error) first_error = std::current_exception();
                }
            }
        };

        std::vector<std::thread> threads;
        threads.reserve(workers - 1);
        for (std::size_t t = 1; t < workers; ++t) threads.emplace_back(worker_loop);
        worker_loop();
        for (auto& thread : threads) thread.join();
        if (first_error) std::rethrow_exception(first_error);
    }

    // Deterministic replay: events reach the process sinks in submission
    // order, independent of which worker ran what when.
    auto& log = obs::EventLog::instance();
    for (const auto& buffer : buffers) log.replay(buffer);
}

}  // namespace dlsbl::exec
