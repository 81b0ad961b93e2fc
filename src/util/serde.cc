#include "util/serde.h"

namespace rigpm {

namespace {

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

constexpr uint64_t kLaneInit[4] = {
    0x9E3779B97F4A7C15ull,
    0xBF58476D1CE4E5B9ull,
    0x94D049BB133111EBull,
    0x2545F4914F6CDD1Dull,
};
constexpr uint64_t kPrime = 0x9DDFEA08EB382D69ull;

}  // namespace

uint64_t Checksum64(const void* data, size_t n, uint64_t seed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t lanes[4];
  for (int i = 0; i < 4; ++i) lanes[i] = kLaneInit[i] ^ seed;
  // One 32-byte block per round, a lane per 8 bytes; a short last block is
  // zero-padded.
  auto block = [&lanes](const uint8_t* block_bytes) {
    uint64_t words[4];
    std::memcpy(words, block_bytes, 32);
    for (int i = 0; i < 4; ++i) {
      lanes[i] = Rotl((lanes[i] ^ words[i]) * kPrime, 29);
    }
  };
  size_t done = 0;
  for (; n - done >= 32; done += 32) block(bytes + done);
  if (done < n) {
    uint8_t tail[32] = {};
    std::memcpy(tail, bytes + done, n - done);
    block(tail);
  }
  const uint64_t h = Rotl(lanes[0], 1) ^ Rotl(lanes[1], 7) ^
                     Rotl(lanes[2], 12) ^ Rotl(lanes[3], 18);
  return Mix(h ^ n);
}

std::string ByteSource::ReadString() {
  uint64_t len = ReadU64();
  if (!ok()) return std::string();
  if (len > remaining()) {
    Fail("string length exceeds snapshot payload");
    return std::string();
  }
  std::string s(len, '\0');
  ReadRaw(s.data(), len);
  return ok() ? s : std::string();
}

}  // namespace rigpm
