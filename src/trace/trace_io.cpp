#include "trace/trace_io.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/binio.h"
#include "common/check.h"

namespace malec::trace {

using binio::get32;
using binio::get64;
using binio::kFnvOffset;
using binio::put32;
using binio::put64;

namespace {

/// Fixed-width on-disk record (little-endian, packed manually for
/// portability — no struct punning).
constexpr std::size_t kRecordBytes = 8 + 8 + 1 + 1 + 4 + 4;

/// Records staged/read per stdio call. 4096 records = ~104 KiB blocks —
/// three orders of magnitude fewer libc calls than one fwrite/fread per
/// 26-byte record.
constexpr std::size_t kBlockRecords = 4096;
constexpr std::size_t kBlockBytes = kBlockRecords * kRecordBytes;

/// Magic, version, record count, record checksum, AddressLayout params.
constexpr long kHeaderBytes = 52;
/// Magic + version: checked before the rest of the header is read.
constexpr long kIdentBytes = 8;
constexpr long kCountOffset = 8;
constexpr std::size_t kNumLayoutParams = 7;

/// Largest access size accepted for a memory record; the modelled machine
/// never issues accesses wider than two 64-byte lines' worth.
constexpr std::uint32_t kMaxAccessSize = 128;

/// Fold `n` whole records into the record checksum. Each 26-byte record is
/// folded on its own — its three words, then bytes 24 and 25 — so the
/// running value at a record boundary does not depend on how the stream
/// was cut into blocks (a checkpoint stores it, TraceReader::seekTo
/// resumes from it).
std::uint64_t foldRecords(std::uint64_t h, const std::uint8_t* p,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    h = binio::checksum(h, p + i * kRecordBytes, kRecordBytes);
  return h;
}

void encode(const InstrRecord& r, std::uint8_t* buf) {
  put64(buf + 0, r.seq);
  put64(buf + 8, r.vaddr);
  buf[16] = static_cast<std::uint8_t>(r.kind);
  buf[17] = r.size;
  put32(buf + 18, r.dep_distance);
  put32(buf + 22, r.addr_dep_distance);
}

/// Decodes one record; returns false (with a message in `err`) for byte
/// values no valid producer emits — an out-of-range kind would otherwise
/// become an enum that isMem() happily treats as a memory op.
bool decode(const std::uint8_t* buf, InstrRecord& r, std::string& err) {
  r.seq = get64(buf + 0);
  r.vaddr = get64(buf + 8);
  const std::uint8_t kind = buf[16];
  if (kind > static_cast<std::uint8_t>(InstrKind::kStore)) {
    err = "invalid instruction kind byte " + std::to_string(kind);
    return false;
  }
  r.kind = static_cast<InstrKind>(kind);
  r.size = buf[17];
  if (r.isMem() && (r.size == 0 || r.size > kMaxAccessSize)) {
    err = "invalid access size " + std::to_string(r.size) +
          " for a memory record (expect 1.." + std::to_string(kMaxAccessSize) +
          ")";
    return false;
  }
  r.dep_distance = get32(buf + 18);
  r.addr_dep_distance = get32(buf + 22);
  return true;
}

}  // namespace

// --- TraceWriter ------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, const AddressLayout& layout) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    error_ = "cannot open '" + path + "' for writing";
    return;
  }
  std::uint8_t hdr[kHeaderBytes] = {};
  put32(hdr + 0, kTraceMagic);
  put32(hdr + 4, kTraceVersion);
  put64(hdr + 8, 0);   // record count, patched on close
  put64(hdr + 16, 0);  // checksum, patched on close
  const std::uint32_t params[kNumLayoutParams] = {
      layout.addrBits(), layout.pageBytes(),  layout.lineBytes(),
      layout.subBlockBytes(), layout.l1Bytes(), layout.l1Assoc(),
      layout.l1Banks()};
  for (std::size_t i = 0; i < kNumLayoutParams; ++i)
    put32(hdr + 24 + 4 * i, params[i]);
  if (std::fwrite(hdr, 1, sizeof hdr, f_) != sizeof hdr) {
    error_ = "cannot write header of '" + path + "'";
    return;
  }
  checksum_ = kFnvOffset;
  buf_.resize(kBlockBytes);
  ok_ = true;
}

TraceWriter::~TraceWriter() {
  if (f_ != nullptr) close();
}

void TraceWriter::fail(std::string msg) {
  ok_ = false;
  if (error_.empty()) error_ = std::move(msg);
}

bool TraceWriter::flushBlock() {
  if (staged_ == 0) return true;
  if (std::fwrite(buf_.data(), 1, staged_, f_) != staged_) {
    fail("short write while flushing a record block");
    return false;
  }
  staged_ = 0;
  return true;
}

void TraceWriter::write(const InstrRecord& r) {
  if (!ok_) return;
  std::uint8_t* rec = buf_.data() + staged_;
  encode(r, rec);
  checksum_ = foldRecords(checksum_, rec, 1);
  staged_ += kRecordBytes;
  ++count_;
  if (staged_ == kBlockBytes) flushBlock();
}

bool TraceWriter::close() {
  if (f_ == nullptr) return ok_;
  if (ok_) flushBlock();
  if (ok_) {
    // An unpatched header promises 0 records — the file would fail every
    // later open, so a patch failure must fail close() too.
    if (std::fseek(f_, kCountOffset, SEEK_SET) != 0) {
      fail("cannot seek back to patch the header");
    } else {
      std::uint8_t patch[16];
      put64(patch + 0, count_);
      put64(patch + 8, checksum_);
      if (std::fwrite(patch, 1, sizeof patch, f_) != sizeof patch)
        fail("cannot patch the header record count");
    }
  }
  if (std::fclose(f_) != 0) fail("close failed");
  f_ = nullptr;
  return ok_;
}

// --- TraceReader ------------------------------------------------------------

TraceReader::TraceReader(const std::string& path) : path_(path) {
  f_ = std::fopen(path.c_str(), "rb");
  if (f_ == nullptr) {
    error_ = "cannot open '" + path + "'";
    return;
  }
  std::uint8_t hdr[kHeaderBytes];
  if (std::fread(hdr, 1, kIdentBytes, f_) !=
      static_cast<std::size_t>(kIdentBytes)) {
    error_ = "'" + path + "' is too short to hold a trace header";
    return;
  }
  if (get32(hdr + 0) != kTraceMagic) {
    error_ = "'" + path + "' is not a MALEC trace (bad magic)";
    return;
  }
  const std::uint32_t version = get32(hdr + 4);
  if (version != kTraceVersion) {
    error_ = "'" + path + "' has unsupported trace version " +
             std::to_string(version);
    return;
  }
  if (std::fread(hdr + kIdentBytes, 1, kHeaderBytes - kIdentBytes, f_) !=
      static_cast<std::size_t>(kHeaderBytes - kIdentBytes)) {
    error_ = "'" + path + "' is truncated inside the trace header";
    return;
  }
  total_ = get64(hdr + 8);
  checksum_expect_ = get64(hdr + 16);
  layout_params_.addr_bits = get32(hdr + 24);
  layout_params_.page_bytes = get32(hdr + 28);
  layout_params_.line_bytes = get32(hdr + 32);
  layout_params_.sub_block_bytes = get32(hdr + 36);
  layout_params_.l1_bytes = get32(hdr + 40);
  layout_params_.l1_assoc = get32(hdr + 44);
  layout_params_.l1_banks = get32(hdr + 48);

  // A header count that disagrees with the file size means the capture was
  // cut short (or bytes were appended) — fail at open instead of serving a
  // partial stream as if it were complete. 64-bit arithmetic throughout:
  // Simpoint-scale captures dwarf a 32-bit `long` ftell. A count whose byte
  // size does not fit in 64 bits is refused first: the product would wrap
  // to the size of a much shorter file and pass the comparison.
  constexpr std::uint64_t kMaxRecords =
      (std::numeric_limits<std::uint64_t>::max() -
       static_cast<std::uint64_t>(kHeaderBytes)) /
      kRecordBytes;
  if (total_ > kMaxRecords) {
    error_ = "'" + path + "' is truncated or corrupt: header promises " +
             std::to_string(total_) +
             " records, more bytes than a 64-bit size can count";
    return;
  }
  std::error_code ec;
  const std::uintmax_t fs_size = std::filesystem::file_size(path, ec);
  if (ec) {
    error_ = "cannot stat '" + path + "': " + ec.message();
    return;
  }
  const std::uint64_t file_size = static_cast<std::uint64_t>(fs_size);
  const std::uint64_t expect =
      static_cast<std::uint64_t>(kHeaderBytes) +
      total_ * static_cast<std::uint64_t>(kRecordBytes);
  if (file_size != expect) {
    error_ = "'" + path + "' is truncated or corrupt: header promises " +
             std::to_string(total_) + " records (" + std::to_string(expect) +
             " bytes) but the file holds " + std::to_string(file_size) +
             " bytes";
    return;
  }
  if (std::fseek(f_, kHeaderBytes, SEEK_SET) != 0) {
    error_ = "cannot seek in '" + path + "'";
    return;
  }
  checksum_run_ = kFnvOffset;
  ok_ = true;
}

TraceReader::~TraceReader() {
  if (f_ != nullptr) std::fclose(f_);
}

void TraceReader::fail(std::string msg) {
  ok_ = false;
  if (error_.empty()) error_ = "'" + path_ + "': " + std::move(msg);
}

bool TraceReader::refill() {
  const std::uint64_t remaining = total_ - read_;
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(remaining * kRecordBytes, kBlockBytes));
  buf_.resize(want);
  buf_pos_ = 0;
  if (std::fread(buf_.data(), 1, want, f_) != want) {
    // Unreachable for a file that passed the open-time size check unless it
    // shrank underneath us — still a hard error, not a quiet short stream.
    fail("short read mid-stream (file changed after open?)");
    return false;
  }
  return true;
}

bool TraceReader::next(InstrRecord& out) {
  if (!ok_ || read_ >= total_) return false;
  if (buf_pos_ >= buf_.size() && !refill()) return false;
  const std::uint8_t* rec = buf_.data() + buf_pos_;
  std::string err;
  if (!decode(rec, out, err)) {
    fail(err + " at record " + std::to_string(read_));
    return false;
  }
  if (out.seq != read_) {
    // A replay indexes its ROB by seq: records are numbered 0, 1, 2, ...
    // in file order.
    fail("record " + std::to_string(read_) + " has seq " +
         std::to_string(out.seq) + " (records must be numbered 0, 1, 2, "
         "... in file order)");
    return false;
  }
  checksum_run_ = foldRecords(checksum_run_, rec, 1);
  buf_pos_ += kRecordBytes;
  ++read_;
  if (read_ == total_ && checksum_run_ != checksum_expect_) {
    fail("record checksum mismatch — the payload is corrupt");
    return false;
  }
  return true;
}

bool TraceReader::finishChecksum() {
  if (!ok_ || read_ >= total_) return ok_;
  // Records already fetched into the block buffer but not yet served.
  const std::size_t buffered = (buf_.size() - buf_pos_) / kRecordBytes;
  checksum_run_ = foldRecords(checksum_run_, buf_.data() + buf_pos_, buffered);
  std::uint64_t hashed = read_ + buffered;
  buf_pos_ = buf_.size();
  // Stream the rest of the payload block-wise, checksum only (no decode:
  // records beyond the cap were never simulated; the checksum is what
  // guards their — and by mixing, the whole file's — integrity).
  std::vector<std::uint8_t> block(kBlockBytes);
  while (hashed < total_) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>((total_ - hashed) * kRecordBytes,
                                kBlockBytes));
    if (std::fread(block.data(), 1, want, f_) != want) {
      fail("short read while verifying the record checksum");
      return false;
    }
    checksum_run_ =
        foldRecords(checksum_run_, block.data(), want / kRecordBytes);
    hashed += want / kRecordBytes;
  }
  read_ = total_;  // at end-of-stream now; next() returns false, reset() replays
  if (checksum_run_ != checksum_expect_) {
    fail("record checksum mismatch — the payload is corrupt");
    return false;
  }
  return ok_;
}

bool TraceReader::seekTo(std::uint64_t n, std::uint64_t checksum_run) {
  if (!ok_ || f_ == nullptr) return false;
  if (n > total_) {
    fail("checkpoint position " + std::to_string(n) + " exceeds the " +
         std::to_string(total_) + "-record stream");
    return false;
  }
  // u64 math first, then a range check before the narrowing to fseek's
  // long — a Simpoint-scale offset must not wrap on 32-bit-long platforms.
  const std::uint64_t off = static_cast<std::uint64_t>(kHeaderBytes) +
                            n * static_cast<std::uint64_t>(kRecordBytes);
  if (off > static_cast<std::uint64_t>(std::numeric_limits<long>::max())) {
    fail("checkpointed position is beyond fseek range on this platform");
    return false;
  }
  if (std::fseek(f_, static_cast<long>(off), SEEK_SET) != 0) {
    fail("cannot seek to the checkpointed position");
    return false;
  }
  read_ = n;
  buf_.clear();
  buf_pos_ = 0;
  checksum_run_ = checksum_run;
  return true;
}

void TraceReader::reset() {
  // Sticky failure: rewinding must not resurrect a reader that reported an
  // I/O or corruption error — a replay loop would re-serve bad data.
  if (!ok_ || f_ == nullptr) return;
  if (std::fseek(f_, kHeaderBytes, SEEK_SET) != 0) {
    fail("cannot rewind");
    return;
  }
  read_ = 0;
  buf_.clear();
  buf_pos_ = 0;
  checksum_run_ = kFnvOffset;
}

std::vector<InstrRecord> drain(TraceSource& src) {
  std::vector<InstrRecord> v;
  InstrRecord r;
  while (src.next(r)) v.push_back(r);
  return v;
}

}  // namespace malec::trace
