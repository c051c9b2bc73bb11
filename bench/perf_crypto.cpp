// E15: engineering microbenchmarks for the cryptographic substrate —
// SHA-256 throughput per compression backend, the multi-lane batch APIs
// (hash32, pair and fixed-length shapes),
// HMAC, WOTS/Merkle signature operations, MSS keygen per backend, batch
// verification, and full protocol-message signing.
//
// `--json-out PATH` additionally writes a BENCH_crypto.json document whose
// "derived" section records the headline SIMD-over-scalar, batch-verify
// and verify-cache speedups (bench/bench_json.hpp schema).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_gbench.hpp"
#include "bench/bench_json.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/hmac.hpp"
#include "crypto/mss.hpp"
#include "crypto/pki.hpp"
#include "crypto/wots.hpp"

using namespace dlsbl;

namespace {

// Pins the requested compression backend for the duration of one benchmark
// ("auto" = the dispatch-selected best; "scalar" always exists). Restores
// dispatch afterwards so later benchmarks see the default.
class BackendPin {
 public:
    BackendPin(benchmark::State& state, const std::string& backend) {
        if (!crypto::sha256_set_backend(backend)) {
            state.SkipWithError(("unavailable backend: " + backend).c_str());
            ok_ = false;
        }
    }
    ~BackendPin() { crypto::sha256_set_backend("auto"); }
    explicit operator bool() const noexcept { return ok_; }

 private:
    bool ok_ = true;
};

void BM_Sha256(benchmark::State& state, const std::string& backend) {
    BackendPin pin(state, backend);
    if (!pin) return;
    const util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK_CAPTURE(BM_Sha256, scalar, "scalar")->Arg(4096)->Arg(65536)->Arg(262144);
BENCHMARK_CAPTURE(BM_Sha256, auto, "auto")->Arg(4096)->Arg(65536)->Arg(262144);

// The hash-tree inner loop: n independent 32-byte messages, one compression
// each — the shape where the interleaved multi-lane schedules pay off.
void BM_Sha256Hash32Many(benchmark::State& state, const std::string& backend) {
    BackendPin pin(state, backend);
    if (!pin) return;
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<crypto::Digest> digests(n, crypto::Sha256::hash("lane"));
    std::vector<crypto::Digest> out(n);
    for (auto _ : state) {
        crypto::Sha256::hash32_many(digests, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0) * 32);
}
BENCHMARK_CAPTURE(BM_Sha256Hash32Many, scalar, "scalar")->Arg(1024);
BENCHMARK_CAPTURE(BM_Sha256Hash32Many, auto, "auto")->Arg(1024);

void BM_Sha256HashPairMany(benchmark::State& state, const std::string& backend) {
    BackendPin pin(state, backend);
    if (!pin) return;
    const auto pairs = static_cast<std::size_t>(state.range(0));
    std::vector<crypto::Digest> level(2 * pairs, crypto::Sha256::hash("node"));
    std::vector<crypto::Digest> above(pairs);
    for (auto _ : state) {
        crypto::Sha256::hash_pair_many(level, above);
        benchmark::DoNotOptimize(above.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0) * 64);
}
BENCHMARK_CAPTURE(BM_Sha256HashPairMany, scalar, "scalar")->Arg(512);
BENCHMARK_CAPTURE(BM_Sha256HashPairMany, auto, "auto")->Arg(512);

// The block-commitment shape: n fixed-length messages of 58 bytes (a block
// leaf preimage: tag, id, payload digest; two compressions each), hashed
// 16 at a time through the SoA engine (scalar pins its lanes fallback).
void BM_Sha256HashFixedMany(benchmark::State& state, const std::string& backend) {
    BackendPin pin(state, backend);
    if (!pin) return;
    constexpr std::size_t kLeafBytes = 58;
    const auto n = static_cast<std::size_t>(state.range(0));
    util::Bytes in(n * kLeafBytes);
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<std::uint8_t>(i * 131);
    std::vector<crypto::Digest> out(n);
    for (auto _ : state) {
        crypto::Sha256::hash_fixed_many(in.data(), kLeafBytes, out.data(), n);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(in.size()));
}
BENCHMARK_CAPTURE(BM_Sha256HashFixedMany, scalar, "scalar")->Arg(4096);
BENCHMARK_CAPTURE(BM_Sha256HashFixedMany, auto, "auto")->Arg(4096);

void BM_HmacSha256(benchmark::State& state) {
    const util::Bytes key(32, 0x42);
    const util::Bytes message(static_cast<std::size_t>(state.range(0)), 0x17);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::hmac_sha256(key, message));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Range(64, 16384);

// The PRF shape used by keygen: one key, many short messages. The midstate
// precomputation halves the compressions versus the free function above.
void BM_HmacMidstate(benchmark::State& state) {
    const util::Bytes key(32, 0x42);
    const crypto::HmacSha256 prf(key);
    const util::Bytes message(9, 0x17);
    for (auto _ : state) {
        benchmark::DoNotOptimize(prf.mac(message));
    }
}
BENCHMARK(BM_HmacMidstate);

void BM_WotsKeygen(benchmark::State& state) {
    const crypto::Digest seed = crypto::Sha256::hash("wots-bench");
    for (auto _ : state) {
        crypto::WotsKeyPair key(seed);
        benchmark::DoNotOptimize(key.public_key());
    }
}
BENCHMARK(BM_WotsKeygen);

void BM_WotsSign(benchmark::State& state) {
    const crypto::WotsKeyPair key(crypto::Sha256::hash("wots-bench"));
    const util::Bytes message = util::to_bytes("bid: 1.25 from P3");
    for (auto _ : state) {
        benchmark::DoNotOptimize(key.sign(message));
    }
}
BENCHMARK(BM_WotsSign);

void BM_WotsVerify(benchmark::State& state) {
    const crypto::WotsKeyPair key(crypto::Sha256::hash("wots-bench"));
    const util::Bytes message = util::to_bytes("bid: 1.25 from P3");
    const auto signature = key.sign(message);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crypto::WotsKeyPair::verify(key.public_key(), message, signature));
    }
}
BENCHMARK(BM_WotsVerify);

// Inline keygen per backend at height 4 (16 leaves, one batched keygen
// pass on the 16-lane engine; scalar pins that engine to its lanes
// fallback) and height 2 (4 leaves, 268 chains), the protocol's default
// key size.
void BM_MssKeygen(benchmark::State& state, const std::string& backend) {
    BackendPin pin(state, backend);
    if (!pin) return;
    const crypto::Digest seed = crypto::Sha256::hash("mss-bench");
    const auto height = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        crypto::MssKeyPair key(seed, height);
        benchmark::DoNotOptimize(key.public_key());
    }
}
BENCHMARK_CAPTURE(BM_MssKeygen, wots_scalar_j1, "scalar")->Arg(4)->Arg(2);
BENCHMARK_CAPTURE(BM_MssKeygen, wots_auto_j1, "auto")->Arg(4)->Arg(2);

void BM_MssSignVerify(benchmark::State& state) {
    const util::Bytes message = util::to_bytes("payment vector");
    for (auto _ : state) {
        state.PauseTiming();
        crypto::MssKeyPair key(crypto::Sha256::hash("mss-bench"), 2);
        state.ResumeTiming();
        const auto signature = key.sign(message);
        benchmark::DoNotOptimize(
            crypto::MssKeyPair::verify(key.public_key(), message, signature));
    }
}
BENCHMARK(BM_MssSignVerify);

// Amortized batch verification: 64 distinct signatures verified in slices
// of `batch` (batch 0 = the pre-batching eager path, per-item
// MssSignature::deserialize + MssKeyPair::verify — what the referee ran
// per envelope before deferred verification). The eager → /32 ratio is the
// headline batch_verify speedup.
struct VerifyPool {
    std::vector<crypto::Digest> roots;
    std::vector<util::Bytes> messages;
    std::vector<util::Bytes> signatures;
    std::vector<crypto::MssVerifyItem> items;

    explicit VerifyPool(std::size_t total) {
        std::vector<crypto::MssKeyPair> keys;
        keys.reserve(4);
        for (std::size_t k = 0; k < 4; ++k) {
            keys.emplace_back(crypto::Sha256::hash("verify-many-" + std::to_string(k)),
                              /*height=*/4);
        }
        for (const auto& key : keys) roots.push_back(key.public_key());
        for (std::size_t i = 0; i < total; ++i) {
            messages.push_back(util::to_bytes("envelope-" + std::to_string(i)));
            signatures.push_back(keys[i % keys.size()].sign(messages.back()).serialize());
        }
        items.resize(total);
        for (std::size_t i = 0; i < total; ++i) {
            items[i] = {&roots[i % roots.size()], messages[i], signatures[i]};
        }
    }
};

void BM_MssVerifyMany(benchmark::State& state) {
    const auto batch = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kTotal = 64;
    const VerifyPool pool(kTotal);
    std::vector<std::uint8_t> verdicts(kTotal);
    static_assert(sizeof(bool) == 1);
    for (auto _ : state) {
        if (batch == 0) {
            for (std::size_t i = 0; i < kTotal; ++i) {
                const auto parsed = crypto::MssSignature::deserialize(pool.signatures[i]);
                verdicts[i] = parsed.has_value() &&
                              crypto::MssKeyPair::verify(pool.roots[i % pool.roots.size()],
                                                         pool.messages[i], *parsed);
            }
        } else {
            for (std::size_t offset = 0; offset < kTotal; offset += batch) {
                crypto::mss_verify_many(
                    std::span<const crypto::MssVerifyItem>(pool.items)
                        .subspan(offset, batch),
                    reinterpret_cast<bool*>(verdicts.data() + offset));
            }
        }
        benchmark::DoNotOptimize(verdicts.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kTotal));
}
BENCHMARK(BM_MssVerifyMany)
    ->Name("BM_MssVerifyMany/wots")
    ->Arg(0)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

void BM_MerkleTreeBuild(benchmark::State& state) {
    std::vector<crypto::Digest> leaves;
    for (int i = 0; i < state.range(0); ++i) {
        leaves.push_back(crypto::Sha256::hash("leaf" + std::to_string(i)));
    }
    for (auto _ : state) {
        crypto::MerkleTree tree(leaves);
        benchmark::DoNotOptimize(tree.root());
    }
}
// 65,536 leaves: the block count of the bulk_load perfbench workload.
BENCHMARK(BM_MerkleTreeBuild)->RangeMultiplier(4)->Range(16, 4096)->Arg(65536);

void BM_SignedEnvelopeFast(benchmark::State& state) {
    crypto::Pki pki;
    auto signer =
        crypto::make_registered_signer(pki, "P1", 7, crypto::SignatureAlgorithm::kFast);
    const util::Bytes payload = util::to_bytes("bid body bytes");
    for (auto _ : state) {
        auto msg = crypto::sign_message(*signer, "P1", payload);
        benchmark::DoNotOptimize(msg.verify(pki));
    }
}
BENCHMARK(BM_SignedEnvelopeFast);

// Repeated verification of the same signed message — the referee's shape
// (every processor relays every bid) — with and without the memo cache.
void BM_PkiVerifyCached(benchmark::State& state, bool cached) {
    crypto::Pki pki;
    if (!cached) pki.set_verify_cache_capacity(0);
    auto signer = crypto::make_registered_signer(pki, "P1", 7,
                                                 crypto::SignatureAlgorithm::kMerkleWots, 2);
    const util::Bytes payload = util::to_bytes("bid body bytes");
    const util::Bytes signature = signer->sign(payload);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pki.verify("P1", payload, signature));
    }
}
BENCHMARK_CAPTURE(BM_PkiVerifyCached, on, true);
BENCHMARK_CAPTURE(BM_PkiVerifyCached, off, false);

}  // namespace

int main(int argc, char** argv) {
    const auto json_out = bench::json_out_from_args(&argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    bench::CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (!json_out) return 0;

    obs::RunManifest manifest;
    manifest.set("bench", "perf_crypto (E15)");
    manifest.set("sha256_backend_auto", std::string(crypto::sha256_backend()));
    std::string backends;
    for (const auto& name : crypto::sha256_available_backends()) {
        if (!backends.empty()) backends += ',';
        backends += name;
    }
    manifest.set("sha256_backends", backends);
    manifest.set_uint("hardware_concurrency", std::thread::hardware_concurrency());

    std::map<std::string, double> derived;
    derived["sha256_4096_speedup"] =
        bench::speedup(reporter, "BM_Sha256/scalar/4096", "BM_Sha256/auto/4096");
    derived["sha256_65536_speedup"] =
        bench::speedup(reporter, "BM_Sha256/scalar/65536", "BM_Sha256/auto/65536");
    derived["sha256_262144_speedup"] =
        bench::speedup(reporter, "BM_Sha256/scalar/262144", "BM_Sha256/auto/262144");
    derived["hash32_many_speedup"] = bench::speedup(
        reporter, "BM_Sha256Hash32Many/scalar/1024", "BM_Sha256Hash32Many/auto/1024");
    derived["hash_pair_many_speedup"] = bench::speedup(
        reporter, "BM_Sha256HashPairMany/scalar/512", "BM_Sha256HashPairMany/auto/512");
    derived["hash_fixed_many_speedup"] = bench::speedup(
        reporter, "BM_Sha256HashFixedMany/scalar/4096", "BM_Sha256HashFixedMany/auto/4096");
    derived["mss_wots_keygen_speedup_auto_j1"] = bench::speedup(
        reporter, "BM_MssKeygen/wots_scalar_j1/4", "BM_MssKeygen/wots_auto_j1/4");
    derived["pki_verify_cache_speedup"] =
        bench::speedup(reporter, "BM_PkiVerifyCached/off", "BM_PkiVerifyCached/on");
    derived["batch_verify_speedup_32"] = bench::speedup(
        reporter, "BM_MssVerifyMany/wots/0", "BM_MssVerifyMany/wots/32");
    derived["batch_verify_speedup_64"] = bench::speedup(
        reporter, "BM_MssVerifyMany/wots/0", "BM_MssVerifyMany/wots/64");

    return bench::write_bench_json(*json_out, manifest, reporter.results(), derived)
               ? 0
               : 1;
}
