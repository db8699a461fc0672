// Little-endian byte codec and FNV-1a checksum shared by every on-disk
// format (trace v2, sample plans, sweep journals and result blobs — see
// docs/FILE_FORMATS.md). One definition keeps the formats' byte order and
// checksum function in lockstep: .mplan binding validation cross-references
// the trace v2 checksum, so the two files must never diverge on either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace malec::binio {

inline void put64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void put32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint64_t get64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}
inline std::uint32_t get32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

/// FNV-1a 64-bit offset basis — pass as the initial `h` to fnv1a().
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Fold `n` bytes into a running FNV-1a 64-bit hash.
inline std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* p,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// --- growable buffers: append, and read back with bounds checks -----------

inline void putU32(std::vector<std::uint8_t>& v, std::uint32_t x) {
  const std::size_t at = v.size();
  v.resize(at + 4);
  put32(v.data() + at, x);
}

inline void putU64(std::vector<std::uint8_t>& v, std::uint64_t x) {
  const std::size_t at = v.size();
  v.resize(at + 8);
  put64(v.data() + at, x);
}

inline void putF64(std::vector<std::uint8_t>& v, double x) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof x, "IEEE-754 double expected");
  std::memcpy(&bits, &x, sizeof bits);
  putU64(v, bits);
}

/// A u32 length, then the bytes.
inline void putStr(std::vector<std::uint8_t>& v, const std::string& s) {
  putU32(v, static_cast<std::uint32_t>(s.size()));
  v.insert(v.end(), s.begin(), s.end());
}

/// Bounds-checked reader over `n` bytes at `p`, the inverse of the put*
/// helpers above. An overrun returns a zero value and clears `ok`, which
/// stays clear; the caller checks it once at the end.
struct SpanReader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t at = 0;
  bool ok = true;

  std::uint32_t u32() {
    if (n - at < 4) { ok = false; return 0; }
    const std::uint32_t v = get32(p + at);
    at += 4;
    return v;
  }
  std::uint64_t u64() {
    if (n - at < 8) { ok = false; return 0; }
    const std::uint64_t v = get64(p + at);
    at += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    if (!ok || n - at < len) { ok = false; return {}; }
    std::string s(reinterpret_cast<const char*>(p + at), len);
    at += len;
    return s;
  }
  /// Every byte not read yet.
  std::vector<std::uint8_t> rest() {
    std::vector<std::uint8_t> b(p + at, p + n);
    at = n;
    return b;
  }
};

}  // namespace malec::binio
