#include "common/hash.h"

#include <array>
#include <cstring>
#include <nmmintrin.h>

namespace varan {

namespace {

constexpr std::uint32_t kPolynomial = 0x82F63B78u; // reflected Castagnoli

constexpr std::array<std::uint32_t, 256>
makeTable()
{
    std::array<std::uint32_t, 256> table = {};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (kPolynomial & (0u - (crc & 1u)));
        table[i] = crc;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kTable = makeTable();

/** The SSE4.2 crc32 instruction implements exactly this polynomial;
 *  only this function is compiled for it, so the rest of the library
 *  still runs on CPUs without SSE4.2. */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cHardware(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t crc = ~seed;
    for (; len >= 8; p += 8, len -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        crc = _mm_crc32_u64(crc, word);
    }
    auto crc32 = static_cast<std::uint32_t>(crc);
    for (; len > 0; ++p, --len)
        crc32 = _mm_crc32_u8(crc32, *p);
    return ~crc32;
}

// Resolved during static initialisation. A caller that runs before
// that (another translation unit's static constructor) sees false and
// takes the software path, which returns the same value.
const bool g_use_hardware = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
}();

} // namespace

std::uint32_t
crc32c(const void *data, std::size_t len, std::uint32_t seed)
{
    if (g_use_hardware)
        return crc32cHardware(data, len, seed);
    return detail::crc32cPortable(data, len, seed);
}

namespace detail {

std::uint32_t
crc32cPortable(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = ~seed;
    for (; len > 0; ++p, --len)
        crc = (crc >> 8) ^ kTable[(crc ^ *p) & 0xffu];
    return ~crc;
}

} // namespace detail

} // namespace varan
