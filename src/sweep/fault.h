// Deterministic fault injection for sweep and explore tests and CI
// (MALEC_FAULT_SPEC).
//
// Every failure mode the coordinator defends against can be triggered on
// purpose, at an exact (task, attempt), so the fault matrix is a set of
// reproducible tests instead of a hope:
//
//   MALEC_FAULT_SPEC="kill:task=7"            worker SIGKILLs itself when
//                                             granted task 7 (attempt 0)
//   MALEC_FAULT_SPEC="hang:task=3"            worker hangs forever on task 3
//                                             until the task timeout trips
//   MALEC_FAULT_SPEC="corrupt-result:task=5"  worker completes task 5 but
//                                             flips a byte in its result file
//   MALEC_FAULT_SPEC="truncate-journal:task=1" the COORDINATOR tears its own
//                                             journal mid-append right after
//                                             journaling task 1's completion
//                                             and exits — the crash-mid-
//                                             append scenario --resume exists
//                                             for
//   MALEC_FAULT_SPEC="explore-crash:round=2"  `malec_bench explore` exits 17
//                                             right after persisting its 2nd
//                                             freshly simulated round
//
// Clauses compose comma-separated. Worker-side clauses default to firing on
// attempt 0 only (so retry-then-succeed is the natural shape); an explicit
// `:attempts=N` fires on every attempt < N (attempts=99 ≈ always, the
// quarantine scenario). The grammar is strict: an unknown clause or key, a
// missing task= on a worker fault, a missing or zero round= on
// explore-crash (which takes no other key), a zero attempts=, a task= or
// attempts= past 32 bits, or a malformed number aborts — a typo'd fault
// spec must never silently test nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace malec::sweep {

struct FaultClause {
  enum class Kind : std::uint8_t {
    kKill,
    kHang,
    kCorruptResult,
    kTruncateJournal,
    kExploreCrash,
  };
  Kind kind = Kind::kKill;
  std::uint32_t task = 0;
  bool has_task = false;       ///< truncate-journal may omit task (= any)
  std::uint32_t attempts = 1;  ///< fires while attempt < attempts
  std::uint64_t round = 0;     ///< explore-crash: fresh rounds before exit
};

struct FaultSpec {
  std::vector<FaultClause> clauses;

  /// First matching clause of `kind` for (task, attempt), or nullptr.
  [[nodiscard]] const FaultClause* match(FaultClause::Kind kind,
                                         std::uint32_t task,
                                         std::uint32_t attempt) const;

  /// The explore-crash round (1-based), or 0 when no such clause is set.
  [[nodiscard]] std::uint64_t exploreCrashRound() const;
};

/// Parse a spec string (strict; aborts on malformed input). Empty = none.
[[nodiscard]] FaultSpec parseFaultSpec(const std::string& spec);

/// The MALEC_FAULT_SPEC environment clause set (empty when unset).
[[nodiscard]] FaultSpec faultSpecFromEnv();

/// Worker-side injection point, called when a granted task starts:
/// executes a matching kill (raise SIGKILL) or hang (sleep forever).
void maybeInjectStartFault(const FaultSpec& spec, std::uint32_t task,
                           std::uint32_t attempt);

/// Worker-side injection point after the result file was written: a
/// matching corrupt-result clause flips one payload byte in `path`.
void maybeCorruptResult(const FaultSpec& spec, std::uint32_t task,
                        std::uint32_t attempt, const std::string& path);

}  // namespace malec::sweep
