#include "crypto/hmac.hpp"

#include <array>
#include <cstring>

namespace dlsbl::crypto {

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) noexcept {
    constexpr std::size_t kBlock = 64;
    std::array<std::uint8_t, kBlock> key_block{};
    if (key.size() > kBlock) {
        const Digest kd = Sha256::hash(key);
        std::memcpy(key_block.data(), kd.data(), kd.size());
    } else if (!key.empty()) {  // an empty span may carry a null data()
        std::memcpy(key_block.data(), key.data(), key.size());
    }

    std::array<std::uint8_t, kBlock> pad{};
    for (std::size_t i = 0; i < kBlock; ++i) {
        pad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    }
    inner_.update(std::span<const std::uint8_t>(pad.data(), pad.size()));
    for (std::size_t i = 0; i < kBlock; ++i) {
        pad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
    }
    outer_.update(std::span<const std::uint8_t>(pad.data(), pad.size()));
}

Digest HmacSha256::mac(std::span<const std::uint8_t> message) const noexcept {
    Sha256 inner = inner_;  // midstate copy — no re-hash of the pads
    inner.update(message);
    const Digest inner_digest = inner.finalize();

    Sha256 outer = outer_;
    outer.update(
        std::span<const std::uint8_t>(inner_digest.data(), inner_digest.size()));
    return outer.finalize();
}

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> message) {
    return HmacSha256(key).mac(message);
}

}  // namespace dlsbl::crypto
