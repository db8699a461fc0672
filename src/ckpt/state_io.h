// Checkpoint state I/O: the `.mckpt` container every component serializes
// itself into, and the container the `.mstore` result store and the
// `.mplan` sample plan share under their own magic and version.
//
// A checkpoint is a full-state snapshot of one running simulation — core,
// interface, caches, TLBs, way tables, energy counters, RNGs and the trace
// position — taken at an instruction boundary so a restored run continues
// bit-identically to the run that never stopped. The byte-level format
// (header, section table, payload checksum, compatibility rules) is
// specified in docs/FILE_FORMATS.md; like `.mtrace` it is strict: magic,
// version, size-vs-header and checksum mismatches are hard errors at open,
// never a silently partial restore.
//
// The container is a flat sequence of named sections. StateWriter builds
// the payload in memory (beginSection/endSection around each component's
// saveState) and writes the file atomically (temp + rename) on writeTo().
// StateReader validates the whole file at construction and then serves
// sections by name; reading past a section's end or leaving a section
// half-consumed aborts — a save/load order mismatch must fail loudly at
// the exact field, not desynchronise every field after it. A format whose
// every parse failure must come back as a value reads its sections through
// view() instead, which never aborts on file content.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/binio.h"

namespace malec::ckpt {

/// Magic bytes + version identifying a MALEC checkpoint file ("MCKP").
inline constexpr std::uint32_t kCkptMagic = 0x4D434B50;
inline constexpr std::uint32_t kCkptVersion = 7;

class StateWriter {
 public:
  /// The container is shared by every StateIO-style MALEC format; `magic`
  /// and `version` select which one this writer produces (default:
  /// `.mckpt`). Other formats — e.g. the `.mstore` result store — pass
  /// their own magic so their files never masquerade as checkpoints.
  explicit StateWriter(std::uint32_t magic = kCkptMagic,
                       std::uint32_t version = kCkptVersion)
      : magic_(magic), version_(version) {}

  /// Open a named section. Sections must not nest and names must be
  /// unique within one checkpoint.
  void beginSection(const std::string& name);
  void endSection();

  // --- primitive appends (little-endian, fixed width) -----------------------
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Doubles travel as their IEEE-754 bit pattern — bit-exact restore.
  void f64(double v);
  void str(const std::string& s);
  void bytes(const std::uint8_t* p, std::size_t n);

  /// Finalize and write the checkpoint to `path` via a temp file + rename,
  /// so a concurrently restoring reader never sees a half-written file.
  /// Returns false with a message in `err` on I/O failure.
  [[nodiscard]] bool writeTo(const std::string& path, std::string& err) const;

 private:
  std::uint32_t magic_;
  std::uint32_t version_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::string> names_;  ///< for the uniqueness check
  std::size_t sections_ = 0;
  /// Offset of the open section's body-length field; npos-like sentinel
  /// when no section is open.
  std::size_t open_len_at_ = kNone;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

class StateReader {
 public:
  /// Opens and fully validates `path`: magic, version, file size against
  /// the header's payload length, payload checksum, section-table sanity.
  /// Failures are reported via ok()/error() — callers decide whether a bad
  /// file aborts (the run layer) or comes back as an error
  /// (ResultStore::load).
  /// `magic`/`version` select the expected StateIO format (default
  /// `.mckpt`); `kind` is the noun error messages use for it.
  explicit StateReader(const std::string& path,
                       std::uint32_t magic = kCkptMagic,
                       std::uint32_t version = kCkptVersion,
                       const char* kind = "checkpoint");

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Position the cursor at the start of section `name`; aborts when the
  /// section is absent (a checkpoint missing a component IS corruption).
  void openSection(const std::string& name);
  /// Section `name`'s body as a bounds-checked reader over this reader's
  /// payload (valid while this StateReader lives), or nullopt when the
  /// container holds no such section. Nothing about the file's content
  /// aborts here or in the returned reader: a read past the body's end
  /// clears its `ok` instead. Independent of openSection's cursor.
  [[nodiscard]] std::optional<binio::SpanReader> view(
      const std::string& name) const;
  /// Assert the open section was consumed exactly; aborts otherwise.
  void endSection();

  // --- primitive reads (abort past the open section's end) ------------------
  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  void bytes(std::uint8_t* p, std::size_t n);
  /// A u64 element count read from the file, checked before the caller
  /// sizes a container by it: `count` elements of at least `elem_bytes`
  /// bytes each must fit in what is left of the open section. Aborts,
  /// naming the file, when they cannot.
  std::size_t count(std::size_t elem_bytes);

 private:
  struct Section {
    std::string name;
    std::size_t offset = 0;  ///< body start within payload_
    std::size_t size = 0;
  };

  void need(std::size_t n);  ///< abort unless n bytes remain in the section

  bool ok_ = false;
  std::string error_;
  std::string path_;
  std::string kind_;
  std::vector<std::uint8_t> payload_;
  std::vector<Section> sections_;
  std::size_t cur_ = 0;      ///< read cursor within payload_
  std::size_t cur_end_ = 0;  ///< open section's end
  bool section_open_ = false;
};

}  // namespace malec::ckpt
