// Address decomposition for the modelled 32-bit machine.
//
// The paper's configuration (Table II): 32-bit address space, 4 KByte pages,
// 64-byte cache lines, a 32 KByte 4-way set-associative L1 split into four
// independent banks interleaved on the line address, and 128-bit sub-blocks
// within a line. AddressLayout turns those parameters into bit-field
// accessors used by every other module. It is runtime-configurable because
// a trace header carries the layout it was captured under and tests vary
// the geometry (the golden runs' 1 KB L1); no registered spec varies it.
#pragma once

#include <cstdint>
#include <string>

#include "common/check.h"
#include "common/types.h"

namespace malec {

/// Runtime-configurable address bit layout.
///
/// All widths are powers of two. The default constructor yields the paper's
/// Table II configuration.
class AddressLayout {
 public:
  struct Params {
    std::uint32_t addr_bits = 32;        ///< modelled address-space width
    std::uint32_t page_bytes = 4096;     ///< 4 KByte pages
    std::uint32_t line_bytes = 64;       ///< 64-byte cache lines
    std::uint32_t sub_block_bytes = 16;  ///< 128-bit sub-blocks
    std::uint32_t l1_bytes = 32 * 1024;  ///< 32 KByte L1
    std::uint32_t l1_assoc = 4;          ///< 4-way set-associative
    std::uint32_t l1_banks = 4;          ///< 4 independent banks
  };

  AddressLayout() : AddressLayout(Params{}) {}

  /// Aborts unless invalidReason(p) is empty.
  explicit AddressLayout(const Params& p);

  /// The first rule `p` breaks, or "" when it keeps them all: every byte
  /// size, the associativity and the bank count are powers of two, a line
  /// is smaller than a page and no smaller than a sub-block, the address
  /// space has 20 to 48 bits, and the L1 divides into its ways and its
  /// sets across its banks. A layout read from a file (a trace header)
  /// is checked here, so a bad one fails the open instead of aborting.
  [[nodiscard]] static std::string invalidReason(const Params& p);

  // --- raw parameters -----------------------------------------------------
  [[nodiscard]] std::uint32_t addrBits() const { return p_.addr_bits; }
  [[nodiscard]] std::uint32_t pageBytes() const { return p_.page_bytes; }
  [[nodiscard]] std::uint32_t lineBytes() const { return p_.line_bytes; }
  [[nodiscard]] std::uint32_t subBlockBytes() const {
    return p_.sub_block_bytes;
  }
  [[nodiscard]] std::uint32_t l1Bytes() const { return p_.l1_bytes; }
  [[nodiscard]] std::uint32_t l1Assoc() const { return p_.l1_assoc; }
  [[nodiscard]] std::uint32_t l1Banks() const { return p_.l1_banks; }

  // --- derived widths -----------------------------------------------------
  [[nodiscard]] std::uint32_t pageOffsetBits() const {
    return page_offset_bits_;
  }
  [[nodiscard]] std::uint32_t lineOffsetBits() const {
    return line_offset_bits_;
  }
  /// Width of a page identifier (virtual or physical); 20 bits by default.
  [[nodiscard]] std::uint32_t pageIdBits() const {
    return p_.addr_bits - page_offset_bits_;
  }
  /// Cache lines per page (64 by default) — the per-WT-entry line count.
  [[nodiscard]] std::uint32_t linesPerPage() const { return lines_per_page_; }
  /// Total L1 sets across all banks.
  [[nodiscard]] std::uint32_t l1Sets() const { return l1_sets_; }
  /// Sets within one bank.
  [[nodiscard]] std::uint32_t l1SetsPerBank() const {
    return l1_sets_per_bank_;
  }
  /// Sub-blocks per line (4 by default).
  [[nodiscard]] std::uint32_t subBlocksPerLine() const {
    return sub_blocks_per_line_;
  }
  /// Width of the narrow arbitration comparator: address bits minus page-ID
  /// bits minus line-offset bits (paper Sec. IV).
  [[nodiscard]] std::uint32_t narrowComparatorBits() const {
    return page_offset_bits_ - line_offset_bits_;
  }

  // --- accessors ----------------------------------------------------------
  [[nodiscard]] PageId pageId(Addr a) const {
    return static_cast<PageId>(a >> page_offset_bits_);
  }
  [[nodiscard]] Addr pageOffset(Addr a) const {
    return a & (p_.page_bytes - 1);
  }
  [[nodiscard]] LineAddr lineAddr(Addr a) const {
    return a >> line_offset_bits_;
  }
  [[nodiscard]] Addr lineBase(Addr a) const {
    return a & ~static_cast<Addr>(p_.line_bytes - 1);
  }
  [[nodiscard]] Addr lineOffset(Addr a) const {
    return a & (p_.line_bytes - 1);
  }
  /// Index of the line within its page, 0..linesPerPage()-1.
  [[nodiscard]] std::uint32_t lineInPage(Addr a) const {
    return static_cast<std::uint32_t>((a >> line_offset_bits_) &
                                      (lines_per_page_ - 1));
  }
  /// Bank servicing this address: line-address interleaving, so lines
  /// 0..3 of a page map to banks 0..3 (paper Sec. V).
  [[nodiscard]] BankIdx bankOf(Addr a) const {
    return static_cast<BankIdx>((a >> line_offset_bits_) & (p_.l1_banks - 1));
  }
  /// Global L1 set index.
  [[nodiscard]] std::uint32_t l1Set(Addr a) const {
    return static_cast<std::uint32_t>((a >> line_offset_bits_) &
                                      (l1_sets_ - 1));
  }
  /// Set index within the bank returned by bankOf().
  [[nodiscard]] std::uint32_t l1SetInBank(Addr a) const {
    return static_cast<std::uint32_t>(
        ((a >> line_offset_bits_) >> bank_bits_) & (l1_sets_per_bank_ - 1));
  }
  /// PIPT tag: the address above the set+offset bits.
  [[nodiscard]] std::uint64_t l1Tag(Addr a) const {
    return a >> (line_offset_bits_ + set_bits_);
  }
  /// Sub-block index within the line.
  [[nodiscard]] std::uint32_t subBlockOf(Addr a) const {
    return static_cast<std::uint32_t>((a >> sub_block_bits_) &
                                      (sub_blocks_per_line_ - 1));
  }
  /// Sub-block *pair* index (MALEC reads two adjacent sub-blocks per access).
  [[nodiscard]] std::uint32_t subBlockPairOf(Addr a) const {
    return subBlockOf(a) >> 1;
  }

  /// Rebuild an address from page ID and offset.
  [[nodiscard]] Addr compose(PageId page, Addr offset) const {
    MALEC_DCHECK(offset < p_.page_bytes);
    return (static_cast<Addr>(page) << page_offset_bits_) | offset;
  }

  /// True iff an access of `size` bytes at `a` stays within one sub-block
  /// pair (the merge granularity of sub-blocked MALEC, Sec. IV).
  [[nodiscard]] bool withinSubBlockPair(Addr a, std::uint32_t size) const {
    return subBlockPairOf(a) == subBlockPairOf(a + size - 1);
  }

 private:
  Params p_;
  std::uint32_t page_offset_bits_ = 0;
  std::uint32_t line_offset_bits_ = 0;
  std::uint32_t sub_block_bits_ = 0;
  std::uint32_t lines_per_page_ = 0;
  std::uint32_t sub_blocks_per_line_ = 0;
  std::uint32_t l1_sets_ = 0;
  std::uint32_t l1_sets_per_bank_ = 0;
  std::uint32_t bank_bits_ = 0;
  std::uint32_t set_bits_ = 0;
};

/// log2 for powers of two with checking.
[[nodiscard]] std::uint32_t log2Exact(std::uint64_t v);

/// True iff v is a power of two (and non-zero).
[[nodiscard]] constexpr bool isPow2(std::uint64_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

}  // namespace malec
