#include "crypto/pki.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "crypto/batch_verify.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256_soa.hpp"

namespace dlsbl::crypto {

void Pki::register_identity(const Identity& id, Digest public_key, VerifyFn verifier,
                            bool mss_batchable) {
    if (entries_.contains(id)) {
        throw std::invalid_argument("Pki: identity already registered: " + id);
    }
    entries_.emplace(id, Entry{public_key, std::move(verifier), mss_batchable});
}

bool Pki::is_registered(std::string_view id) const { return entries_.contains(id); }

const Digest& Pki::public_key_of(const Identity& id) const {
    auto it = entries_.find(id);
    if (it == entries_.end()) throw std::out_of_range("Pki: unknown identity: " + id);
    return it->second.public_key;
}

namespace {

// Cache key: SHA-256 over the length-framed (id, message, signature)
// triple. Framing prevents ambiguity between (message, signature) splits;
// the final field needs no length since the digest input simply ends.
Digest verify_cache_key(std::string_view id, std::span<const std::uint8_t> message,
                        std::span<const std::uint8_t> signature) {
    const auto frame = [](Sha256& h, std::uint64_t len) {
        std::uint8_t le[8];
        for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(len >> (8 * i));
        h.update(std::span<const std::uint8_t>(le, sizeof(le)));
    };
    Sha256 h;
    frame(h, id.size());
    h.update(id);
    frame(h, message.size());
    h.update(message);
    h.update(signature);
    return h.finalize();
}

}  // namespace

bool Pki::verify(std::string_view id, std::span<const std::uint8_t> message,
                 std::span<const std::uint8_t> signature) const {
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    if (cache_->capacity == 0) return it->second.verifier(message, signature);

    const Digest key = verify_cache_key(id, message, signature);
    {
        const std::lock_guard<std::mutex> lock(cache_->mutex);
        if (auto hit = cache_->verdicts.find(key); hit != cache_->verdicts.end()) {
            ++cache_->stats.hits;
            return hit->second;
        }
        ++cache_->stats.misses;
    }
    const bool verdict = it->second.verifier(message, signature);
    {
        const std::lock_guard<std::mutex> lock(cache_->mutex);
        if (cache_->verdicts.size() >= cache_->capacity) cache_->verdicts.clear();
        cache_->verdicts.emplace(key, verdict);
    }
    return verdict;
}

void Pki::verify_many(std::span<const VerifyRequest> requests, bool* verdicts) const {
    const std::size_t n = requests.size();
    std::vector<const Entry*> entries(n, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
        verdicts[i] = false;
        auto it = entries_.find(*requests[i].signer);
        if (it != entries_.end()) entries[i] = &it->second;
    }

    // Computes verdicts for the request indices in `idx` (cache untouched):
    // MSS-batchable entries pool through the amortized engine, opaque
    // verifiers run their closure.
    const auto compute = [&](const std::vector<std::size_t>& idx, bool* out) {
        std::vector<MssVerifyItem> mss_items;
        std::vector<std::size_t> mss_slots;
        for (std::size_t k = 0; k < idx.size(); ++k) {
            const std::size_t i = idx[k];
            if (entries[i]->mss_batchable) {
                mss_items.push_back({&entries[i]->public_key, requests[i].message,
                                     requests[i].signature});
                mss_slots.push_back(k);
            } else {
                out[k] = entries[i]->verifier(requests[i].message, requests[i].signature);
            }
        }
        std::vector<std::uint8_t> mss_verdicts(mss_items.size());
        static_assert(sizeof(bool) == 1);
        mss_verify_many(mss_items, reinterpret_cast<bool*>(mss_verdicts.data()));
        for (std::size_t k = 0; k < mss_slots.size(); ++k) {
            out[mss_slots[k]] = mss_verdicts[k] != 0;
        }
    };

    if (cache_->capacity == 0) {
        std::vector<std::size_t> idx;
        for (std::size_t i = 0; i < n; ++i) {
            if (entries[i]) idx.push_back(i);
        }
        std::vector<std::uint8_t> out(idx.size());
        compute(idx, reinterpret_cast<bool*>(out.data()));
        for (std::size_t k = 0; k < idx.size(); ++k) verdicts[idx[k]] = out[k] != 0;
        return;
    }

    // Cache keys for every registered request. A filled key slot supplies
    // its key; the rest are hashed 16 streams at a time, over the framed
    // byte string of verify_cache_key, and fill their slot. A slot named
    // twice in one batch is hashed once.
    std::vector<Digest> keys(n);
    {
        std::vector<std::size_t> idx;          // requests hashed below
        std::vector<std::size_t> slot_copies;  // requests whose slot idx fills
        std::size_t total = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!entries[i]) continue;
            const util::VerifyKeySlot* slot = requests[i].key_slot;
            if (slot != nullptr && slot->filled_) {
                keys[i] = slot->key_;
                continue;
            }
            if (slot != nullptr && std::any_of(idx.begin(), idx.end(), [&](std::size_t j) {
                    return requests[j].key_slot == slot;
                })) {
                slot_copies.push_back(i);
                continue;
            }
            idx.push_back(i);
            total += 16 + requests[i].signer->size() + requests[i].message.size() +
                     requests[i].signature.size();
        }
        std::vector<std::uint8_t> arena(total);
        std::vector<const std::uint8_t*> ptrs;
        std::vector<std::size_t> lens;
        std::size_t pos = 0;
        const auto put_u64 = [&](std::uint64_t v) {
            for (int b = 0; b < 8; ++b) arena[pos++] = static_cast<std::uint8_t>(v >> (8 * b));
        };
        for (const std::size_t i : idx) {
            const std::size_t start = pos;
            put_u64(requests[i].signer->size());
            std::memcpy(arena.data() + pos, requests[i].signer->data(),
                        requests[i].signer->size());
            pos += requests[i].signer->size();
            put_u64(requests[i].message.size());
            std::memcpy(arena.data() + pos, requests[i].message.data(),
                        requests[i].message.size());
            pos += requests[i].message.size();
            std::memcpy(arena.data() + pos, requests[i].signature.data(),
                        requests[i].signature.size());
            pos += requests[i].signature.size();
            ptrs.push_back(arena.data() + start);
            lens.push_back(pos - start);
        }
        std::vector<Digest> digests(idx.size());
        detail::sha256_streams(ptrs.data(), lens.data(), idx.size(), digests.data());
        for (std::size_t k = 0; k < idx.size(); ++k) {
            keys[idx[k]] = digests[k];
            if (util::VerifyKeySlot* slot = requests[idx[k]].key_slot) {
                slot->key_ = digests[k];
                slot->filled_ = true;
            }
        }
        for (const std::size_t i : slot_copies) keys[i] = requests[i].key_slot->key_;
    }

    // Holding the lock across lookup, compute, and replay keeps the
    // hit/miss statistics and final cache contents exactly what the
    // sequential loop would have produced; the verifiers never touch this
    // cache, so there is no lock-order hazard.
    const std::lock_guard<std::mutex> lock(cache_->mutex);

    // Unique uncached keys, first-occurrence order.
    std::unordered_map<Digest, bool, DigestHash> computed;
    std::vector<std::size_t> to_compute;
    for (std::size_t i = 0; i < n; ++i) {
        if (!entries[i]) continue;
        if (cache_->verdicts.contains(keys[i])) continue;
        if (computed.emplace(keys[i], false).second) to_compute.push_back(i);
    }
    std::vector<std::uint8_t> fresh(to_compute.size());
    compute(to_compute, reinterpret_cast<bool*>(fresh.data()));
    for (std::size_t k = 0; k < to_compute.size(); ++k) {
        computed[keys[to_compute[k]]] = fresh[k] != 0;
    }

    // Sequential replay: hit/miss accounting and flush-at-capacity insert
    // per request, in order, against the live table.
    for (std::size_t i = 0; i < n; ++i) {
        if (!entries[i]) continue;
        if (auto hit = cache_->verdicts.find(keys[i]); hit != cache_->verdicts.end()) {
            ++cache_->stats.hits;
            verdicts[i] = hit->second;
            continue;
        }
        ++cache_->stats.misses;
        bool verdict;
        if (auto it = computed.find(keys[i]); it != computed.end()) {
            verdict = it->second;
        } else {
            // Key was cached at lookup time but our own inserts flushed the
            // table mid-replay; re-verify exactly as the sequential loop would.
            verdict = entries[i]->verifier(requests[i].message, requests[i].signature);
        }
        if (cache_->verdicts.size() >= cache_->capacity) cache_->verdicts.clear();
        cache_->verdicts.emplace(keys[i], verdict);
        verdicts[i] = verdict;
    }
}

Pki::CacheStats Pki::verify_cache_stats() const {
    const std::lock_guard<std::mutex> lock(cache_->mutex);
    return cache_->stats;
}

void Pki::set_verify_cache_capacity(std::size_t capacity) {
    const std::lock_guard<std::mutex> lock(cache_->mutex);
    cache_->capacity = capacity;
    cache_->verdicts.clear();
}

namespace {

Digest seed_digest(const Identity& id, std::uint64_t seed) {
    util::ByteWriter w;
    w.str(id);
    w.u64(seed);
    return Sha256::hash(std::span<const std::uint8_t>(w.data().data(), w.data().size()));
}

class MssSigner final : public Signer {
 public:
    MssSigner(const Digest& seed, unsigned height, std::size_t keygen_jobs)
        : key_(seed, height, keygen_jobs) {}

    util::Bytes sign(std::span<const std::uint8_t> message) override {
        return key_.sign(message).serialize();
    }

    [[nodiscard]] Digest public_key() const override { return key_.public_key(); }

    [[nodiscard]] std::size_t signatures_left() const override {
        return key_.capacity() - key_.signatures_used();
    }

 private:
    MssKeyPair key_;
};

class FastSigner final : public Signer {
 public:
    explicit FastSigner(const Digest& seed) : seed_(seed) {
        // "Public key" is the hash of the secret; verification is done by
        // the registry closure that re-derives the MAC.
        public_key_ = Sha256::hash(std::span<const std::uint8_t>(seed_.data(), seed_.size()));
    }

    util::Bytes sign(std::span<const std::uint8_t> message) override {
        const Digest mac = hmac_sha256(
            std::span<const std::uint8_t>(seed_.data(), seed_.size()), message);
        return util::Bytes(mac.begin(), mac.end());
    }

    [[nodiscard]] Digest public_key() const override { return public_key_; }

    [[nodiscard]] std::size_t signatures_left() const override {
        return std::numeric_limits<std::size_t>::max();
    }

 private:
    Digest seed_{};
    Digest public_key_{};
};

}  // namespace

std::unique_ptr<Signer> make_registered_signer(Pki& pki, const Identity& id,
                                               std::uint64_t seed,
                                               SignatureAlgorithm algorithm,
                                               unsigned mss_height,
                                               std::size_t keygen_jobs) {
    const Digest sd = seed_digest(id, seed);
    if (algorithm == SignatureAlgorithm::kMerkleWots) {
        auto signer = std::make_unique<MssSigner>(sd, mss_height, keygen_jobs);
        const Digest pk = signer->public_key();
        pki.register_identity(id, pk,
                              [pk](std::span<const std::uint8_t> message,
                                   std::span<const std::uint8_t> signature) {
                                  auto sig = MssSignature::deserialize(signature);
                                  return sig && MssKeyPair::verify(pk, message, *sig);
                              },
                              /*mss_batchable=*/true);
        return signer;
    }
    auto signer = std::make_unique<FastSigner>(sd);
    pki.register_identity(id, signer->public_key(),
                          [sd](std::span<const std::uint8_t> message,
                               std::span<const std::uint8_t> signature) {
                              const Digest mac = hmac_sha256(
                                  std::span<const std::uint8_t>(sd.data(), sd.size()), message);
                              return signature.size() == mac.size() &&
                                     std::equal(mac.begin(), mac.end(), signature.begin());
                          });
    return signer;
}

util::Bytes SignedMessage::serialize() const {
    util::ByteWriter w;
    w.str(signer);
    w.bytes(payload);
    w.bytes(signature);
    return w.take();
}

std::optional<SignedMessage> SignedMessage::deserialize(std::span<const std::uint8_t> data) {
    try {
        util::ByteReader r(data);
        SignedMessage msg;
        msg.signer = r.str();
        msg.payload = r.bytes();
        msg.signature = r.bytes();
        if (!r.exhausted()) return std::nullopt;
        return msg;
    } catch (const std::out_of_range&) {
        return std::nullopt;
    }
}

SignedMessage sign_message(Signer& signer, const Identity& id, util::Bytes payload) {
    SignedMessage msg;
    msg.signer = id;
    msg.signature = signer.sign(payload);
    msg.payload = std::move(payload);
    return msg;
}

}  // namespace dlsbl::crypto
