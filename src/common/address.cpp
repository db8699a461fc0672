#include "common/address.h"

#include <utility>

namespace malec {

std::uint32_t log2Exact(std::uint64_t v) {
  MALEC_CHECK_MSG(isPow2(v), "value must be a non-zero power of two");
  std::uint32_t b = 0;
  while ((v >> b) != 1) ++b;
  return b;
}

std::string AddressLayout::invalidReason(const Params& p) {
  const std::pair<const char*, std::uint32_t> pow2_fields[] = {
      {"page_bytes", p.page_bytes},
      {"line_bytes", p.line_bytes},
      {"sub_block_bytes", p.sub_block_bytes},
      {"l1_bytes", p.l1_bytes},
      {"l1_assoc", p.l1_assoc},
      {"l1_banks", p.l1_banks}};
  for (const auto& [name, value] : pow2_fields)
    if (!isPow2(value))
      return std::string(name) + " " + std::to_string(value) +
             " is not a power of two";
  if (p.line_bytes >= p.page_bytes)
    return "line_bytes " + std::to_string(p.line_bytes) +
           " is not smaller than page_bytes " + std::to_string(p.page_bytes);
  if (p.sub_block_bytes > p.line_bytes)
    return "sub_block_bytes " + std::to_string(p.sub_block_bytes) +
           " exceeds line_bytes " + std::to_string(p.line_bytes);
  if (p.addr_bits < 20 || p.addr_bits > 48)
    return "addr_bits " + std::to_string(p.addr_bits) +
           " is outside 20..48";
  // Powers of two divide evenly exactly when the divisor is no larger.
  const std::uint32_t total_lines = p.l1_bytes / p.line_bytes;
  if (total_lines < p.l1_assoc)
    return "an L1 of " + std::to_string(p.l1_bytes) +
           " bytes does not divide into " + std::to_string(p.l1_assoc) +
           " ways of " + std::to_string(p.line_bytes) + "-byte lines";
  if (total_lines / p.l1_assoc < p.l1_banks)
    return "the L1's " + std::to_string(total_lines / p.l1_assoc) +
           " sets do not divide across " + std::to_string(p.l1_banks) +
           " banks";
  return "";
}

AddressLayout::AddressLayout(const Params& p) : p_(p) {
  const std::string invalid = invalidReason(p);
  MALEC_CHECK_MSG(invalid.empty(), invalid.c_str());

  page_offset_bits_ = log2Exact(p.page_bytes);
  line_offset_bits_ = log2Exact(p.line_bytes);
  sub_block_bits_ = log2Exact(p.sub_block_bytes);
  lines_per_page_ = p.page_bytes / p.line_bytes;
  sub_blocks_per_line_ = p.line_bytes / p.sub_block_bytes;

  l1_sets_ = p.l1_bytes / p.line_bytes / p.l1_assoc;
  l1_sets_per_bank_ = l1_sets_ / p.l1_banks;
  bank_bits_ = log2Exact(p.l1_banks);
  set_bits_ = log2Exact(l1_sets_);
}

}  // namespace malec
