/**
 * @file
 * The one checksum: CRC32C (Castagnoli, the iSCSI CRC of RFC 3720).
 *
 * Every checksum in the system uses it: the write-family divergence
 * hash the leader publishes and followers re-check, the divergence
 * ledger's argument digest, the wire frame body checksum, the
 * record-replay log's per-record checksum and the vcache shard hash.
 * Only the reader of legacy v2 rr logs still verifies FNV-1a.
 *
 * The value is the standard one: reflected polynomial 0x82F63B78,
 * register initialised to ~seed, final xor with 0xFFFFFFFF. The check
 * value over "123456789" is 0xE3069283 and the empty input hashes to
 * 0. Feeding one call's result back as @p seed continues it, so
 * crc32c(b, crc32c(a)) == crc32c(a ‖ b).
 *
 * On CPUs with SSE4.2 the hardware crc32 instruction does the work 8
 * bytes at a time; elsewhere a table-driven software path produces
 * bit-identical results. Wire frames and rr logs cross machines, so
 * both paths must agree exactly. The path is chosen once, from the
 * CPU's feature bits.
 */

#ifndef VARAN_COMMON_HASH_H
#define VARAN_COMMON_HASH_H

#include <cstddef>
#include <cstdint>

namespace varan {

/** CRC32C of @p len bytes at @p data, continuing from @p seed. */
std::uint32_t crc32c(const void *data, std::size_t len,
                     std::uint32_t seed = 0);

namespace detail {

/** The table-driven software path, callable directly so tests can
 *  check it against the hardware path on SSE4.2 hosts. */
std::uint32_t crc32cPortable(const void *data, std::size_t len,
                             std::uint32_t seed = 0);

} // namespace detail

} // namespace varan

#endif // VARAN_COMMON_HASH_H
