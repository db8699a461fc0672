#include "trace/stream_tape.h"

#include <sys/mman.h>

#include <string>

#include "common/check.h"

namespace malec::trace {

namespace {

constexpr std::uint8_t kKindMask = 0x03;
constexpr unsigned kSizeShift = 2;
constexpr std::uint8_t kSizeCodeMask = 0x07;
constexpr std::uint8_t kHasDep = 0x20;
constexpr std::uint8_t kHasAddrDep = 0x40;
/// The header, a 64-bit varint and two 32-bit varints.
constexpr std::size_t kMaxRecordBytes = 1 + 10 + 5 + 5;

std::uint8_t* putVarint(std::uint8_t* p, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) *p++ = static_cast<std::uint8_t>(v | 0x80);
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint64_t getVarint(const std::uint8_t*& p) {
  std::uint64_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (b < 0x80) return v;
  }
}

[[noreturn]] void refuse(std::uint64_t index, const char* why) {
  const std::string msg =
      "record " + std::to_string(index) + " cannot be taped: " + why;
  MALEC_CHECK_MSG(false, msg.c_str());
}

}  // namespace

StreamTape::StreamTape(TraceSource& src) {
  InstrRecord r;
  Addr prev = 0;
  std::uint8_t* at = nullptr;
  std::uint8_t* end = nullptr;
  while (src.next(r)) {
    if (r.seq != records_) refuse(records_, "its seq is not its index");
    if (static_cast<std::uint8_t>(r.kind) >
        static_cast<std::uint8_t>(InstrKind::kStore))
      refuse(records_, "its kind is out of range");
    std::uint8_t header = static_cast<std::uint8_t>(r.kind);
    if (r.isMem()) {
      if (r.size == 0 || r.size > 16 || (r.size & (r.size - 1)) != 0)
        refuse(records_, "its size is not 1, 2, 4, 8 or 16 bytes");
      header |= static_cast<std::uint8_t>(__builtin_ctz(r.size) << kSizeShift);
    } else if (r.vaddr != 0 || r.size != 0) {
      refuse(records_, "a non-memory record carries an address or a size");
    }
    if (r.dep_distance != 0) header |= kHasDep;
    if (r.addr_dep_distance != 0) header |= kHasAddrDep;

    if (static_cast<std::size_t>(end - at) < kMaxRecordBytes) {
      if (!chunks_.empty())
        chunks_.back().used = static_cast<std::size_t>(
            at - chunks_.back().data.get());
      // Pages are touched only as records are written into them.
      void* m = ::mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      MALEC_CHECK_MSG(m != MAP_FAILED, "cannot map a stream-tape chunk");
      chunks_.push_back({std::unique_ptr<std::uint8_t[], Unmap>(
                             static_cast<std::uint8_t*>(m)),
                         0});
      at = chunks_.back().data.get();
      end = at + kChunkBytes;
    }
    *at++ = header;
    if (r.isMem()) {
      // Zigzag: small deltas of either sign become small varints.
      const std::uint64_t d = r.vaddr - prev;
      at = putVarint(at, (d << 1) ^ (0 - (d >> 63)));
      prev = r.vaddr;
    }
    if (r.dep_distance != 0) at = putVarint(at, r.dep_distance);
    if (r.addr_dep_distance != 0) at = putVarint(at, r.addr_dep_distance);
    ++records_;
  }
  if (!chunks_.empty())
    chunks_.back().used =
        static_cast<std::size_t>(at - chunks_.back().data.get());
}

void StreamTape::Unmap::operator()(std::uint8_t* p) const {
  ::munmap(p, kChunkBytes);
}

std::size_t StreamTape::bytes() const {
  std::size_t n = 0;
  for (const Chunk& c : chunks_) n += c.used;
  return n;
}

void TapeReader::reset() {
  chunk_ = 0;
  seq_ = 0;
  vaddr_ = 0;
  pos_ = end_ = nullptr;
  if (!tape_.chunks_.empty()) {
    pos_ = tape_.chunks_[0].data.get();
    end_ = pos_ + tape_.chunks_[0].used;
  }
}

bool TapeReader::next(InstrRecord& out) {
  if (pos_ == end_) {
    // No chunk is empty: one is started only for a record.
    if (chunk_ + 1 >= tape_.chunks_.size()) return false;
    const StreamTape::Chunk& c = tape_.chunks_[++chunk_];
    pos_ = c.data.get();
    end_ = pos_ + c.used;
  }
  const std::uint8_t header = *pos_++;
  out.seq = seq_++;
  out.kind = static_cast<InstrKind>(header & kKindMask);
  if (out.kind != InstrKind::kOther) {
    out.size = static_cast<std::uint8_t>(
        1u << ((header >> kSizeShift) & kSizeCodeMask));
    const std::uint64_t z = getVarint(pos_);
    vaddr_ += (z >> 1) ^ (0 - (z & 1));
    out.vaddr = vaddr_;
  } else {
    out.size = 0;
    out.vaddr = 0;
  }
  out.dep_distance = (header & kHasDep) != 0
                         ? static_cast<std::uint32_t>(getVarint(pos_))
                         : 0;
  out.addr_dep_distance = (header & kHasAddrDep) != 0
                              ? static_cast<std::uint32_t>(getVarint(pos_))
                              : 0;
  return true;
}

}  // namespace malec::trace
