#include "sweep/journal.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "common/binio.h"
#include "common/check.h"

namespace malec::sweep {

using binio::get32;
using binio::get64;
using binio::put32;
using binio::put64;
using binio::putStr;
using binio::putU32;

namespace {

/// Header: magic, version, task count, reserved, fingerprint — 24 bytes
/// (see docs/FILE_FORMATS.md).
constexpr std::size_t kHeaderBytes = 24;
/// A frame's head: type(1) + length(4) + the check of those 5 bytes (8).
constexpr std::size_t kFrameHeadBytes = 13;
/// Frame overhead around a record payload: the head + the frame
/// checksum(8).
constexpr std::size_t kFrameBytes = kFrameHeadBytes + 8;

}  // namespace

// --- scan -------------------------------------------------------------------

JournalScan scanJournal(const std::string& path) {
  JournalScan scan;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    scan.error = "cannot open sweep journal '" + path + "'";
    return scan;
  }
  std::fseek(f, 0, SEEK_END);
  const long fsize = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> data(fsize > 0 ? static_cast<std::size_t>(fsize)
                                           : 0);
  const bool read_ok =
      std::fread(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  if (!read_ok) {
    scan.error = "short read from sweep journal '" + path + "'";
    return scan;
  }

  if (data.size() < kHeaderBytes) {
    scan.error = "'" + path + "' is too short to hold a journal header";
    return scan;
  }
  if (get32(data.data() + 0) != kJournalMagic) {
    scan.error = "'" + path + "' is not a MALEC sweep journal (bad magic)";
    return scan;
  }
  const std::uint32_t version = get32(data.data() + 4);
  if (version != kJournalVersion) {
    scan.error = "'" + path + "' has unsupported journal version " +
                 std::to_string(version);
    return scan;
  }
  scan.task_count = get32(data.data() + 8);
  scan.fingerprint = get64(data.data() + 16);

  // Record frames, back to back. A frame's length is trusted only once the
  // check of its type and length matches. A head cut short, or a checked
  // head that promises more bytes than the file holds, is the torn tail of
  // a crashed append: tolerated ONCE, by construction at most once (the
  // scan stops there). A head or frame whose check does not match is
  // corruption and rejects the journal.
  const auto mismatch = [&](const char* what) {
    return "'" + path + "': record " + std::to_string(scan.records.size()) +
           " " + what +
           " checksum mismatch — the journal is corrupt (only a torn "
           "TRAILING record is recoverable)";
  };
  std::size_t at = kHeaderBytes;
  while (at < data.size()) {
    const std::uint8_t* frame = data.data() + at;
    const std::size_t remaining = data.size() - at;
    if (remaining < kFrameHeadBytes) {
      scan.torn = true;
      break;
    }
    if (get64(frame + 5) != binio::checksum(binio::kFnvOffset, frame, 5)) {
      scan.error = mismatch("header");
      return scan;
    }
    const std::uint8_t type = frame[0];
    const std::uint32_t len = get32(frame + 1);
    if (remaining < kFrameBytes || remaining - kFrameBytes < len) {
      scan.torn = true;
      break;
    }
    const std::size_t body = kFrameHeadBytes + len;
    if (get64(frame + body) !=
        binio::checksum(binio::kFnvOffset, frame, body)) {
      scan.error = mismatch("frame");
      return scan;
    }

    JournalRecord rec;
    // The checksum already passed, so an overrun of the payload means a
    // buggy or incompatible producer.
    binio::SpanReader pr{frame + kFrameHeadBytes, len};
    rec.task = pr.u32();
    rec.attempt = pr.u32();
    switch (type) {
      case static_cast<std::uint8_t>(RecordType::kGrant):
        rec.type = RecordType::kGrant;
        break;
      case static_cast<std::uint8_t>(RecordType::kComplete):
        rec.type = RecordType::kComplete;
        rec.blob = pr.rest();
        break;
      case static_cast<std::uint8_t>(RecordType::kFail): {
        rec.type = RecordType::kFail;
        const std::uint32_t kind = pr.u32();
        if (kind < 1 || kind > 4) pr.ok = false;
        rec.fail_kind = static_cast<FailKind>(kind);
        rec.fail_code = pr.u32();
        rec.message = pr.str();
        break;
      }
      case static_cast<std::uint8_t>(RecordType::kQuarantine):
        rec.type = RecordType::kQuarantine;
        rec.message = pr.str();
        break;
      default:
        pr.ok = false;
        break;
    }
    if (!pr.ok || (rec.type != RecordType::kComplete && pr.at != pr.n)) {
      scan.error = "'" + path + "': record " +
                   std::to_string(scan.records.size()) +
                   " has a malformed payload — incompatible producer";
      return scan;
    }
    if (scan.task_count != 0 && rec.task >= scan.task_count) {
      scan.error = "'" + path + "': record " +
                   std::to_string(scan.records.size()) + " names task " +
                   std::to_string(rec.task) + " of a " +
                   std::to_string(scan.task_count) + "-task grid";
      return scan;
    }
    scan.records.push_back(std::move(rec));
    at += kFrameBytes + len;
  }
  scan.valid_bytes = at < data.size() ? at : data.size();
  if (scan.torn) scan.valid_bytes = at;
  scan.ok = true;
  return scan;
}

// --- writer -----------------------------------------------------------------

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

bool JournalWriter::create(const std::string& path, std::uint64_t fingerprint,
                           std::uint32_t task_count, std::string& err) {
  MALEC_CHECK_MSG(f_ == nullptr, "journal writer is already open");
  if (std::filesystem::exists(path)) {
    err = "sweep journal '" + path +
          "' already exists — resume it with --resume or remove it first";
    return false;
  }
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    err = "cannot create sweep journal '" + path + "'";
    return false;
  }
  std::uint8_t hdr[kHeaderBytes] = {};
  put32(hdr + 0, kJournalMagic);
  put32(hdr + 4, kJournalVersion);
  put32(hdr + 8, task_count);
  put32(hdr + 12, 0);  // reserved
  put64(hdr + 16, fingerprint);
  if (std::fwrite(hdr, 1, sizeof hdr, f_) != sizeof hdr ||
      std::fflush(f_) != 0 || ::fsync(::fileno(f_)) != 0) {
    err = "short write to sweep journal '" + path + "'";
    close();
    std::remove(path.c_str());
    return false;
  }
  path_ = path;
  bytes_ = kHeaderBytes;
  return true;
}

bool JournalWriter::reopen(const std::string& path, std::uint64_t valid_bytes,
                           std::string& err) {
  MALEC_CHECK_MSG(f_ == nullptr, "journal writer is already open");
  MALEC_CHECK_MSG(valid_bytes >= kHeaderBytes,
                  "cannot reopen a journal below its header size");
  // Drop a torn trailing record before appending; with no tear this is a
  // size-preserving no-op.
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) {
    err = "cannot truncate sweep journal '" + path + "': " + ec.message();
    return false;
  }
  f_ = std::fopen(path.c_str(), "ab");
  if (f_ == nullptr) {
    err = "cannot reopen sweep journal '" + path + "'";
    return false;
  }
  path_ = path;
  bytes_ = valid_bytes;
  return true;
}

void JournalWriter::append(RecordType type,
                           const std::vector<std::uint8_t>& payload) {
  MALEC_CHECK_MSG(f_ != nullptr, "journal writer is not open");
  // type(1) + length(4), the check of those 5 bytes, the payload, then the
  // checksum of everything before it.
  const std::size_t body = kFrameHeadBytes + payload.size();
  std::vector<std::uint8_t> frame(body + 8);
  frame[0] = static_cast<std::uint8_t>(type);
  put32(frame.data() + 1, static_cast<std::uint32_t>(payload.size()));
  put64(frame.data() + 5, binio::checksum(binio::kFnvOffset, frame.data(), 5));
  if (!payload.empty())
    std::memcpy(frame.data() + kFrameHeadBytes, payload.data(),
                payload.size());
  put64(frame.data() + body,
        binio::checksum(binio::kFnvOffset, frame.data(), body));
  // Append + flush + fsync: the record is durable before the coordinator
  // acts on it. A failed append is fatal — simulating on without it would
  // make the journal silently lie about what survives a crash.
  const bool ok =
      std::fwrite(frame.data(), 1, frame.size(), f_) == frame.size() &&
      std::fflush(f_) == 0 && ::fsync(::fileno(f_)) == 0;
  if (!ok) {
    const std::string msg =
        "append to sweep journal '" + path_ + "' failed — aborting the "
        "sweep rather than running without crash-safety";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
  bytes_ += frame.size();
}

void JournalWriter::grant(std::uint32_t task, std::uint32_t attempt) {
  std::vector<std::uint8_t> p;
  putU32(p, task);
  putU32(p, attempt);
  append(RecordType::kGrant, p);
}

void JournalWriter::complete(std::uint32_t task, std::uint32_t attempt,
                             const std::vector<std::uint8_t>& blob) {
  std::vector<std::uint8_t> p;
  putU32(p, task);
  putU32(p, attempt);
  p.insert(p.end(), blob.begin(), blob.end());
  append(RecordType::kComplete, p);
}

void JournalWriter::fail(std::uint32_t task, std::uint32_t attempt,
                         FailKind kind, std::uint32_t code,
                         const std::string& message) {
  std::vector<std::uint8_t> p;
  putU32(p, task);
  putU32(p, attempt);
  putU32(p, static_cast<std::uint32_t>(kind));
  putU32(p, code);
  putStr(p, message);
  append(RecordType::kFail, p);
}

void JournalWriter::quarantine(std::uint32_t task, std::uint32_t attempts,
                               const std::string& last_error) {
  std::vector<std::uint8_t> p;
  putU32(p, task);
  putU32(p, attempts);
  putStr(p, last_error);
  append(RecordType::kQuarantine, p);
}

}  // namespace malec::sweep
