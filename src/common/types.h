// Fundamental scalar types shared by every MALEC library.
#pragma once

#include <cstdint>

namespace malec {

/// Byte address. The modelled machine uses a 32-bit virtual and physical
/// address space (paper Table II), but we carry addresses in 64 bits so that
/// arithmetic never silently wraps.
using Addr = std::uint64_t;

/// Simulation time measured in core clock cycles (1 GHz in the paper).
using Cycle = std::uint64_t;

/// "No timed event pending": later than any cycle a run reaches.
inline constexpr Cycle kNever = ~Cycle{0};

/// Identifier of a 4 KByte page (address >> 12). 20 significant bits.
using PageId = std::uint32_t;

/// Line-granular address (address >> 6 for 64-byte lines).
using LineAddr = std::uint64_t;

/// Monotonically increasing per-instruction sequence number.
using SeqNum = std::uint64_t;

/// Cache way index. kWayUnknown denotes "no way information".
using WayIdx = std::int8_t;
inline constexpr WayIdx kWayUnknown = -1;

/// Cache bank index.
using BankIdx = std::uint8_t;

}  // namespace malec
