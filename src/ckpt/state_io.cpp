#include "ckpt/state_io.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/binio.h"
#include "common/check.h"

namespace malec::ckpt {

using binio::get32;
using binio::get64;
using binio::put32;
using binio::put64;

namespace {

/// Header: magic, version, payload byte count, section count, reserved,
/// payload checksum — 32 bytes (see docs/FILE_FORMATS.md).
constexpr std::size_t kHeaderBytes = 32;

/// The payload checksum folds the whole payload as one stream.
std::uint64_t checksum(const std::uint8_t* p, std::size_t n) {
  return binio::checksum(binio::kFnvOffset, p, n);
}

/// Reap temp files a crashed (or SIGKILLed) writer left next to `path`:
/// anything matching `<basename>.tmp.<pid>.<serial>` whose pid no longer
/// exists. A temp belonging to a LIVE process is another writer mid-write
/// of the same checkpoint — racing but healthy — and must be left alone;
/// its atomic rename will win or lose on its own. Cleanup failures are
/// deliberately silent: stale temps waste disk, they never corrupt.
void removeStaleTemps(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  std::filesystem::path dir = target.parent_path();
  if (dir.empty()) dir = ".";
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const char* rest = name.c_str() + prefix.size();
    char* end = nullptr;
    errno = 0;
    // Scanning arbitrary directory entries: a non-numeric name means
    // "not one of our temps, skip" — never an error, so strict parsing
    // (which aborts) is the wrong tool here.
    // lint:allow(strict-parse: non-numeric filename means skip, not abort)
    const long pid = std::strtol(rest, &end, 10);
    if (errno != 0 || end == rest || *end != '.' || pid <= 0) continue;
    // Signal 0 probes existence without sending anything. EPERM means the
    // pid exists but belongs to someone else — also alive, keep the file.
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) continue;
    std::filesystem::remove(entry.path(), ec);
  }
}

}  // namespace

// --- StateWriter ------------------------------------------------------------

void StateWriter::beginSection(const std::string& name) {
  MALEC_CHECK_MSG(open_len_at_ == kNone,
                  "checkpoint sections must not nest");
  MALEC_CHECK_MSG(!name.empty(), "checkpoint section needs a name");
  for (const std::string& n : names_) {
    if (n == name) {
      const std::string msg = "duplicate checkpoint section '" + name + "'";
      MALEC_CHECK_MSG(false, msg.c_str());
    }
  }
  names_.push_back(name);
  // Inline section header: u32 name length, name bytes, u64 body length
  // (patched in endSection), body bytes.
  const std::size_t at = payload_.size();
  payload_.resize(at + 4 + name.size() + 8);
  put32(payload_.data() + at, static_cast<std::uint32_t>(name.size()));
  std::copy(name.begin(), name.end(), payload_.begin() + at + 4);
  open_len_at_ = at + 4 + name.size();
  ++sections_;
}

void StateWriter::endSection() {
  MALEC_CHECK_MSG(open_len_at_ != kNone, "no checkpoint section is open");
  const std::size_t body = payload_.size() - (open_len_at_ + 8);
  put64(payload_.data() + open_len_at_, static_cast<std::uint64_t>(body));
  open_len_at_ = kNone;
}

void StateWriter::u8(std::uint8_t v) {
  MALEC_CHECK_MSG(open_len_at_ != kNone, "write outside a checkpoint section");
  payload_.push_back(v);
}

void StateWriter::u32(std::uint32_t v) {
  MALEC_CHECK_MSG(open_len_at_ != kNone, "write outside a checkpoint section");
  const std::size_t at = payload_.size();
  payload_.resize(at + 4);
  put32(payload_.data() + at, v);
}

void StateWriter::u64(std::uint64_t v) {
  MALEC_CHECK_MSG(open_len_at_ != kNone, "write outside a checkpoint section");
  const std::size_t at = payload_.size();
  payload_.resize(at + 8);
  put64(payload_.data() + at, v);
}

void StateWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v, "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void StateWriter::str(const std::string& s) {
  u64(s.size());
  bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void StateWriter::bytes(const std::uint8_t* p, std::size_t n) {
  MALEC_CHECK_MSG(open_len_at_ != kNone, "write outside a checkpoint section");
  payload_.insert(payload_.end(), p, p + n);
}

bool StateWriter::writeTo(const std::string& path, std::string& err) const {
  MALEC_CHECK_MSG(open_len_at_ == kNone,
                  "cannot write a checkpoint with an open section");
  std::uint8_t hdr[kHeaderBytes] = {};
  put32(hdr + 0, magic_);
  put32(hdr + 4, version_);
  put64(hdr + 8, static_cast<std::uint64_t>(payload_.size()));
  put32(hdr + 16, static_cast<std::uint32_t>(sections_));
  put32(hdr + 20, 0);  // reserved
  put64(hdr + 24, checksum(payload_.data(), payload_.size()));

  // Temp + rename: a reader (possibly in another process) must only ever
  // see a complete checkpoint under `path`. The temp
  // name is unique per writer — with a shared name, two racing writers of
  // the same file (e.g. two processes appending to one `.mstore`, or two
  // runs of one parallel batch given the same checkpoint path) would
  // interleave writes into one inode and expose a torn file under `path`;
  // with unique temps the last atomic rename simply wins.
  // A writer killed mid-write leaves its unique temp behind forever — sweep
  // one up per write so checkpoint directories do not accumulate dead
  // `.tmp.*` files.
  removeStaleTemps(path);
  static std::atomic<std::uint64_t> temp_serial{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(temp_serial.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    err = "cannot open '" + tmp + "' for writing";
    return false;
  }
  // Flush AND fsync before the rename replaces the previous checkpoint:
  // this is a crash-recovery feature, so a power loss right after the
  // rename must not leave the only checkpoint as unflushed page cache —
  // the old file is only given up once the new bytes are durable.
  const bool wrote =
      std::fwrite(hdr, 1, sizeof hdr, f) == sizeof hdr &&
      std::fwrite(payload_.data(), 1, payload_.size(), f) == payload_.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote) {
    err = "short write to '" + tmp + "'";
    std::remove(tmp.c_str());
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    err = "cannot rename '" + tmp + "' to '" + path + "': " + ec.message();
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// --- StateReader ------------------------------------------------------------

StateReader::StateReader(const std::string& path, std::uint32_t magic,
                         std::uint32_t expect_version, const char* kind)
    : path_(path), kind_(kind) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error_ = "cannot open '" + path + "'";
    return;
  }
  std::uint8_t hdr[kHeaderBytes];
  if (std::fread(hdr, 1, sizeof hdr, f) != sizeof hdr) {
    std::fclose(f);
    error_ = "'" + path + "' is too short to hold a " + kind_ + " header";
    return;
  }
  if (get32(hdr + 0) != magic) {
    std::fclose(f);
    error_ = "'" + path + "' is not a MALEC " + kind_ + " (bad magic)";
    return;
  }
  const std::uint32_t version = get32(hdr + 4);
  if (version != expect_version) {
    std::fclose(f);
    error_ = "'" + path + "' has unsupported " + kind_ + " version " +
             std::to_string(version);
    return;
  }
  const std::uint64_t payload_bytes = get64(hdr + 8);
  const std::uint32_t sections = get32(hdr + 16);
  const std::uint64_t expect_sum = get64(hdr + 24);

  // File size must match the header's payload length exactly — truncated
  // or appended-to checkpoints are hard errors, like every MALEC format.
  std::error_code ec;
  const std::uintmax_t fs_size = std::filesystem::file_size(path, ec);
  if (ec) {
    std::fclose(f);
    error_ = "cannot stat '" + path + "': " + ec.message();
    return;
  }
  if (static_cast<std::uint64_t>(fs_size) != kHeaderBytes + payload_bytes) {
    std::fclose(f);
    error_ = "'" + path + "' is truncated or corrupt: header promises " +
             std::to_string(kHeaderBytes + payload_bytes) +
             " bytes but the file holds " + std::to_string(fs_size) +
             " bytes";
    return;
  }

  payload_.resize(static_cast<std::size_t>(payload_bytes));
  const bool read_ok =
      std::fread(payload_.data(), 1, payload_.size(), f) == payload_.size();
  std::fclose(f);
  if (!read_ok) {
    error_ = "short read from '" + path + "'";
    return;
  }
  if (checksum(payload_.data(), payload_.size()) != expect_sum) {
    error_ = "'" + path + "': state checksum mismatch — the " + kind_ +
             " is corrupt";
    return;
  }

  // Scan the section table; every structural inconsistency that survived
  // the checksum (i.e. a buggy producer) still fails here.
  std::size_t at = 0;
  for (std::uint32_t s = 0; s < sections; ++s) {
    if (payload_.size() - at < 4) {
      error_ = "'" + path + "': section table overruns the payload";
      return;
    }
    const std::uint32_t name_len = get32(payload_.data() + at);
    at += 4;
    // Compare in u64: a crafted name length near 2^32 must not wrap the
    // bound check (size_t may be 32-bit) and drive name.assign() past the
    // payload buffer.
    if (static_cast<std::uint64_t>(payload_.size() - at) <
        static_cast<std::uint64_t>(name_len) + 8) {
      error_ = "'" + path + "': section table overruns the payload";
      return;
    }
    Section sec;
    sec.name.assign(reinterpret_cast<const char*>(payload_.data() + at),
                    name_len);
    at += name_len;
    const std::uint64_t body = get64(payload_.data() + at);
    at += 8;
    if (payload_.size() - at < body) {
      error_ = "'" + path + "': section '" + sec.name +
               "' overruns the payload";
      return;
    }
    sec.offset = at;
    sec.size = static_cast<std::size_t>(body);
    at += sec.size;
    sections_.push_back(std::move(sec));
  }
  if (at != payload_.size()) {
    error_ = "'" + path + "': trailing bytes after the last section";
    return;
  }
  ok_ = true;
}

void StateReader::openSection(const std::string& name) {
  MALEC_CHECK_MSG(ok_, "cannot read sections of a failed checkpoint");
  MALEC_CHECK_MSG(!section_open_,
                  "previous checkpoint section was not closed");
  for (const Section& s : sections_) {
    if (s.name != name) continue;
    cur_ = s.offset;
    cur_end_ = s.offset + s.size;
    section_open_ = true;
    return;
  }
  const std::string msg = kind_ + " '" + path_ + "' has no section '" +
                          name + "' — it was written by an incompatible or "
                          "differently-configured run";
  MALEC_CHECK_MSG(false, msg.c_str());
}

void StateReader::endSection() {
  MALEC_CHECK_MSG(section_open_, "no checkpoint section is open");
  if (cur_ != cur_end_) {
    const std::string msg =
        kind_ + " '" + path_ + "': " + std::to_string(cur_end_ - cur_) +
        " unconsumed bytes at section end — save/load order mismatch";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
  section_open_ = false;
}

void StateReader::need(std::size_t n) {
  MALEC_CHECK_MSG(section_open_, "read outside a checkpoint section");
  if (cur_end_ - cur_ < n) {
    const std::string msg = kind_ + " '" + path_ +
                            "': read past a section end — save/load order "
                            "mismatch";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
}

std::uint8_t StateReader::u8() {
  need(1);
  return payload_[cur_++];
}

std::uint32_t StateReader::u32() {
  need(4);
  const std::uint32_t v = get32(payload_.data() + cur_);
  cur_ += 4;
  return v;
}

std::uint64_t StateReader::u64() {
  need(8);
  const std::uint64_t v = get64(payload_.data() + cur_);
  cur_ += 8;
  return v;
}

double StateReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string StateReader::str() {
  const std::uint64_t n = u64();
  need(static_cast<std::size_t>(n));
  std::string s(reinterpret_cast<const char*>(payload_.data() + cur_),
                static_cast<std::size_t>(n));
  cur_ += static_cast<std::size_t>(n);
  return s;
}

std::size_t StateReader::count(std::size_t elem_bytes) {
  const std::uint64_t n = u64();
  const std::size_t left = cur_end_ - cur_;
  if (n > left / std::max<std::size_t>(elem_bytes, 1)) {
    const std::string msg = kind_ + " '" + path_ + "': a count of " +
                            std::to_string(n) + " elements overruns the " +
                            std::to_string(left) +
                            " bytes left in its section";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
  return static_cast<std::size_t>(n);
}

void StateReader::bytes(std::uint8_t* p, std::size_t n) {
  need(n);
  std::copy(payload_.begin() + static_cast<std::ptrdiff_t>(cur_),
            payload_.begin() + static_cast<std::ptrdiff_t>(cur_ + n), p);
  cur_ += n;
}

}  // namespace malec::ckpt
