#include "common/crc32.h"

#include <bit>
#include <cstring>

namespace arthas {

namespace {
// Slicing-by-8 tables for CRC32C, generated at static-init time.
// table[0] is the byte-wise table; table[k][b] is the CRC of byte b
// followed by k zero bytes, so one 8-byte step folds eight table lookups.
struct Crc32cTables {
  uint32_t table[8][256];
  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      table[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; i++) {
      for (int k = 1; k < 8; k++) {
        const uint32_t prev = table[k - 1][i];
        table[k][i] = (prev >> 8) ^ table[0][prev & 0xff];
      }
    }
  }
};
const Crc32cTables g_tables;
}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& t = g_tables.table;
  uint32_t crc = ~seed;
  // Eight bytes per step: the word's low byte is the first in memory.
  static_assert(std::endian::native == std::endian::little,
                "the 8-byte step folds bytes in little-endian order");
  for (; size >= 8; p += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    word ^= crc;
    crc = t[7][word & 0xff] ^ t[6][(word >> 8) & 0xff] ^
          t[5][(word >> 16) & 0xff] ^ t[4][(word >> 24) & 0xff] ^
          t[3][(word >> 32) & 0xff] ^ t[2][(word >> 40) & 0xff] ^
          t[1][(word >> 48) & 0xff] ^ t[0][word >> 56];
  }
  for (; size > 0; p++, size--) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  }
  return ~crc;
}

}  // namespace arthas
