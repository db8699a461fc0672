// Little-endian byte codec and the two hash folds every on-disk format and
// identity hash shares (see docs/FILE_FORMATS.md). Which fold serves which
// job:
//
//   * checksum() — the payload checksum of all six file formats (`.mtrace`
//     records, `.mplan`, `.mckpt` / `.mres` / `.mstore` payloads and
//     `.mjournal` frames). One step per 8-byte little-endian word, then
//     one per remaining byte: FNV-1a's xor-then-multiply followed by a
//     xor-shift down-mix, so one multiply per word instead of one per byte.
//   * fnv1a() — byte-wise FNV-1a 64, for identity hashes whose values are
//     pinned: the grid fingerprint, the run-binding hash, the energy event
//     space hash and perfbench's determinism digest. Never change it.
//
// One definition keeps every format's byte order and checksum in lockstep:
// `.mplan` and `.mckpt` binding validation cross-reference the trace's
// record checksum, so the files must never diverge on either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace malec::binio {

// The codecs below copy a host integer's bytes to and from the file as they
// lie in memory, which is the little-endian file order only on a
// little-endian host.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "binio's single-load codecs need a little-endian host");

inline void put64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof v);
}
inline void put32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof v);
}
inline std::uint64_t get64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline std::uint32_t get32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// FNV-1a 64-bit offset basis — the initial `h` of fnv1a() and checksum().
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Fold `n` bytes into a running FNV-1a 64-bit hash, one byte per step.
inline std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* p,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// One checksum step: FNV-1a's xor-then-multiply, then `h ^= h >> 32`.
/// A multiply carries a change only upward, so without the down-mix two
/// flips of a word's bit 63 would cancel; with it, a change in any bit
/// reaches every bit of the next step. Both halves are bijections of `h`.
inline std::uint64_t checksumStep(std::uint64_t h, std::uint64_t x) {
  h = (h ^ x) * kFnvPrime;
  return h ^ (h >> 32);
}

/// Fold `n` bytes into a running payload checksum: one step on each
/// 8-byte little-endian word of `p`, then one on each of the last `n mod 8`
/// bytes. Each step is a bijection of `h`, so a change confined to one
/// word or one tail byte always changes the result.
inline std::uint64_t checksum(std::uint64_t h, const std::uint8_t* p,
                              std::size_t n) {
  std::size_t i = 0;
  for (; n - i >= 8; i += 8) h = checksumStep(h, get64(p + i));
  for (; i < n; ++i) h = checksumStep(h, p[i]);
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
  /// A u32 length, then that many bytes, viewed in place.
  std::string_view strView() {
    const std::uint32_t len = u32();
    if (!ok || n - at < len) { ok = false; return {}; }
    const std::string_view s(reinterpret_cast<const char*>(p + at), len);
    at += len;
    return s;
  }
  std::string str() { return std::string(strView()); }
  /// Every byte not read yet.
  std::vector<std::uint8_t> rest() {
    std::vector<std::uint8_t> b(p + at, p + n);
    at = n;
    return b;
  }
};

}  // namespace malec::binio
