// CRC-32C (Castagnoli) — the checksum guarding the persistence format.
//
// Chosen over plain CRC-32 for its better error-detection properties on
// short messages and because it is what comparable storage systems
// (LevelDB/RocksDB sstables, ext4 metadata) use; a software table-driven
// implementation keeps the build dependency-free.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tar {

/// Extends a running CRC-32C with `n` more bytes. Chainable:
/// `Crc32cExtend(Crc32cExtend(0, a, na), b, nb) == Crc32c(a+b)`.
std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t n);

/// CRC-32C of one contiguous buffer.
inline std::uint32_t Crc32c(const void* data, std::size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace tar
