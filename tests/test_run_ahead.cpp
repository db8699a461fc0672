// trace::RunAheadSource — the synthetic generator on a helper thread, a few
// blocks ahead of the core — and runOne's rule for when a run uses it.
//
// The source must serve exactly the generator's records across every block
// and ring boundary, a core fed through it must measure exactly what the
// inline generator gives it, and destroying it mid-stream must return with
// the helper waiting on a full ring. runOne runs the generator ahead only
// for a synthetic stream, in a run that neither writes nor restores a
// checkpoint, in a process with a CPU to spare, and never in a pool
// worker; the thread count during a run shows which way it went.
#include "trace/run_ahead.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/mem_interface.h"
#include "cpu/core_model.h"
#include "energy/energy_account.h"
#include "sim/differential.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "trace/synth_generator.h"
#include "trace/workloads.h"

namespace malec {
namespace {

using trace::InstrRecord;
using trace::RunAheadSource;
using trace::SyntheticTraceGenerator;

constexpr std::uint64_t kBlock = RunAheadSource::kBlockRecords;

SyntheticTraceGenerator generator(const char* bench, std::uint64_t n) {
  return SyntheticTraceGenerator(trace::workloadByName(bench),
                                 sim::defaultSystem().layout, n, 7);
}

void expectSameRecord(const InstrRecord& a, const InstrRecord& b,
                      std::uint64_t i) {
  EXPECT_EQ(a.seq, b.seq) << "record " << i;
  EXPECT_EQ(a.kind, b.kind) << "record " << i;
  EXPECT_EQ(a.vaddr, b.vaddr) << "record " << i;
  EXPECT_EQ(a.size, b.size) << "record " << i;
  EXPECT_EQ(a.dep_distance, b.dep_distance) << "record " << i;
  EXPECT_EQ(a.addr_dep_distance, b.addr_dep_distance) << "record " << i;
}

/// Runs `f` on its own thread and aborts the test binary if it has not
/// returned within `limit`: a hang fails fast instead of at ctest's timeout.
void finishesWithin(std::chrono::seconds limit,
                    const std::function<void()>& f) {
  std::packaged_task<void()> task(f);
  std::future<void> done = task.get_future();
  std::thread t(std::move(task));
  if (done.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "run-ahead source did not return within %llds\n",
                 static_cast<long long>(limit.count()));
    std::abort();
  }
  t.join();
}

// Stream lengths on both sides of the block and ring boundaries: one
// record, a block short by one, exactly one, one over, and one past a full
// turn of the ring.
TEST(RunAheadSource, ServesExactlyTheGeneratorsRecords) {
  for (const std::uint64_t n :
       {std::uint64_t{1}, kBlock - 1, kBlock, kBlock + 1,
        RunAheadSource::kBlocks * kBlock + 1}) {
    SyntheticTraceGenerator inline_gen = generator("gcc", n);
    SyntheticTraceGenerator ahead_gen = generator("gcc", n);
    RunAheadSource ahead(ahead_gen);
    InstrRecord a;
    InstrRecord b;
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(inline_gen.next(a)) << n;
      ASSERT_TRUE(ahead.next(b)) << "stream of " << n << " ended at " << i;
      expectSameRecord(a, b, i);
    }
    EXPECT_FALSE(inline_gen.next(a));
    EXPECT_FALSE(ahead.next(b)) << "stream of " << n << " ran long";
    EXPECT_FALSE(ahead.next(b)) << "an ended stream must stay ended";
  }
}

struct Measured {
  cpu::CoreStats core;
  core::InterfaceStats ifc;
  std::vector<std::uint64_t> events;
};

/// One RunStack + CoreModel run of `bench` on `cfg`, fed by the generator
/// inline or through a RunAheadSource.
Measured runStack(const core::InterfaceConfig& cfg, const char* bench,
                  std::uint64_t n, bool run_ahead) {
  const core::SystemConfig sys = sim::defaultSystem();
  SyntheticTraceGenerator gen(trace::workloadByName(bench), sys.layout, n, 1);
  std::optional<RunAheadSource> ahead;
  if (run_ahead) ahead.emplace(gen);
  trace::TraceSource& src =
      ahead ? static_cast<trace::TraceSource&>(*ahead) : gen;
  energy::EnergyAccount ea;
  const sim::RunStack stack(cfg, sys, ea);
  cpu::CoreModel core(sys, cfg, src, stack.ifc());
  Measured m;
  m.core = core.run(n * 60 + 100'000);
  m.ifc = stack.ifc().stats();
  for (energy::EnergyAccount::EventId id = 0; id < ea.eventTypes(); ++id)
    m.events.push_back(ea.eventCount(id));
  return m;
}

// Constructed here rather than through runOne, so it holds whatever the
// host's CPU count.
TEST(RunAheadSource, CoreRunEqualsTheInlineRun) {
  constexpr std::uint64_t kInstrs = 5 * kBlock + 123;
  for (const char* preset : {"MALEC", "Base2ld1st", "Base1ldst"}) {
    const core::InterfaceConfig cfg = sim::presetRegistry().get(preset)();
    for (const char* bench : {"gcc", "mcf", "djpeg"}) {
      SCOPED_TRACE(std::string(preset) + " on " + bench);
      const Measured inline_run = runStack(cfg, bench, kInstrs, false);
      const Measured ahead_run = runStack(cfg, bench, kInstrs, true);
      EXPECT_EQ(ahead_run.core.instructions, kInstrs);
      EXPECT_EQ(ahead_run.core.instructions, inline_run.core.instructions);
      EXPECT_EQ(ahead_run.core.cycles, inline_run.core.cycles);
      for (const auto field : cpu::kCoreScaledCounterFields)
        EXPECT_EQ(ahead_run.core.*field, inline_run.core.*field);
      for (const auto field : core::kInterfaceCounterFields)
        EXPECT_EQ(ahead_run.ifc.*field, inline_run.ifc.*field);
      EXPECT_EQ(ahead_run.events, inline_run.events);
    }
  }
}

TEST(RunAheadSource, DestroyedMidStreamReturns) {
  // Unbounded streams: the helper never ends on its own.
  finishesWithin(std::chrono::seconds(60), [] {
    // Before the reader takes anything: the helper may still be filling
    // its first block.
    {
      SyntheticTraceGenerator gen = generator("mcf", 0);
      const RunAheadSource ahead(gen);
    }
    // Part-way through the first block, once the helper has had time to
    // fill the other two and wait on the full ring.
    {
      SyntheticTraceGenerator gen = generator("mcf", 0);
      RunAheadSource ahead(gen);
      InstrRecord r;
      for (int i = 0; i < 10; ++i) ASSERT_TRUE(ahead.next(r));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    // Right after a hand-back, with the helper woken to refill.
    {
      SyntheticTraceGenerator gen = generator("mcf", 0);
      RunAheadSource ahead(gen);
      InstrRecord r;
      for (std::uint64_t i = 0; i <= 2 * kBlock; ++i)
        ASSERT_TRUE(ahead.next(r));
    }
  });
}

// --- runOne's rule ----------------------------------------------------------

unsigned allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(::sched_getaffinity(0, sizeof set, &set), 0);
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// Narrows the calling thread, and every thread it starts, to the first
/// CPU of its affinity mask for the object's life.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    EXPECT_EQ(::sched_getaffinity(0, sizeof saved_, &saved_), 0);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &one);
        break;
      }
    }
    EXPECT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
  }
  ~PinnedToOneCpu() {
    EXPECT_EQ(::sched_setaffinity(0, sizeof saved_, &saved_), 0);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

long threadsNow() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<long>(
      std::distance(begin(tasks), std::filesystem::directory_iterator()));
}

/// Forwards every call and records the process's thread count at the run's
/// first cycle. A run-ahead helper starts before the stack is built, and
/// on a stream longer than its ring it cannot finish before the core
/// takes a block.
class ThreadCount final : public core::MemInterface {
 public:
  ThreadCount(core::MemInterface& inner, long& threads)
      : inner_(inner), threads_(threads) {}

  void beginCycle(Cycle now) override {
    if (threads_ == 0) threads_ = threadsNow();
    inner_.beginCycle(now);
  }
  bool canAcceptLoad() const override { return inner_.canAcceptLoad(); }
  bool canAcceptStore() const override { return inner_.canAcceptStore(); }
  bool submit(const core::MemOp& op) override { return inner_.submit(op); }
  void notifyStoreCommit(SeqNum seq) override {
    inner_.notifyStoreCommit(seq);
  }
  void endCycle(Cycle now) override { inner_.endCycle(now); }
  void drainCompletions(Cycle now, std::vector<SeqNum>& out) override {
    inner_.drainCompletions(now, out);
  }
  bool quiesced() const override { return inner_.quiesced(); }
  Cycle quietUntil() const override { return inner_.quietUntil(); }
  void replayQuietCycles(Cycle n) override { inner_.replayQuietCycles(n); }
  const core::InterfaceStats& stats() const override { return inner_.stats(); }
  void saveState(ckpt::StateWriter& w) const override { inner_.saveState(w); }
  void loadState(ckpt::StateReader& r) override { inner_.loadState(r); }

 private:
  core::MemInterface& inner_;
  long& threads_;
};

struct CountedRun {
  sim::RunOutput out;
  bool helper = false;  ///< the run started a thread
};

CountedRun countedRun(const sim::RunConfig& rc) {
  const long before = threadsNow();
  long during = 0;
  CountedRun r;
  r.out = sim::runOne(rc, [&during](core::MemInterface& inner) {
    return std::make_unique<ThreadCount>(inner, during);
  });
  r.helper = during > before;
  return r;
}

sim::RunConfig synthRun(const char* bench, std::uint64_t instrs) {
  sim::RunConfig rc;
  rc.workload = trace::workloadByName(bench);
  rc.interface_cfg = sim::presetRegistry().get("MALEC")();
  rc.system = sim::defaultSystem();
  rc.instructions = instrs;
  rc.seed = 1;
  return rc;
}

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(RunAheadPolicy, PinnedRunMatchesTheRunAheadRun) {
  const sim::RunConfig rc = synthRun("gcc", 4 * kBlock + 5);
  CountedRun pinned;
  {
    const PinnedToOneCpu pin;
    pinned = countedRun(rc);
  }
  EXPECT_FALSE(pinned.helper) << "a process on one CPU has none to spare";
  const CountedRun free_run = countedRun(rc);
  EXPECT_EQ(free_run.helper, allowedCpus() >= 2);
  EXPECT_EQ(sim::diffOutputs(pinned.out, free_run.out), "");
}

TEST(RunAheadPolicy, OnlySyntheticRunsWithoutCheckpointsRunAhead) {
  if (allowedCpus() < 2) GTEST_SKIP() << "needs a process allowed 2 CPUs";
  // Longer than the ring, so the helper is still waiting on it when the
  // core's first cycle counts threads; a helper for a shorter stream may
  // have finished and exited by then.
  constexpr std::uint64_t kLong = RunAheadSource::kBlocks * kBlock + 1;
  EXPECT_TRUE(countedRun(synthRun("mcf", kLong)).helper);

  // Checkpointing runs read inline: the source section must hold the
  // generator at the core's position.
  sim::RunConfig writing = synthRun("mcf", kLong);
  writing.ckpt_out = tmpPath("run_ahead.mckpt");
  writing.ckpt_every = kBlock;
  const CountedRun straight = countedRun(writing);
  EXPECT_FALSE(straight.helper);
  sim::RunConfig resuming = synthRun("mcf", kLong);
  resuming.start_ckpt = writing.ckpt_out;
  const CountedRun resumed = countedRun(resuming);
  EXPECT_FALSE(resumed.helper);
  EXPECT_EQ(sim::diffOutputs(straight.out, resumed.out), "");

  // Replays read their capture inline.
  const std::string capture = tmpPath("run_ahead.mtrace");
  (void)sim::captureTrace(synthRun("mcf", kLong), capture);
  sim::RunConfig replay = synthRun("mcf", 0);
  replay.workload = sim::traceWorkload(capture);
  EXPECT_FALSE(countedRun(replay).helper);
  std::remove(writing.ckpt_out.c_str());
  std::remove(capture.c_str());
}

// A pool's workers read their generators inline, however many CPUs the
// process may use: a sampler watching the thread count sees itself and the
// two workers, never a helper beside either.
TEST(RunAheadPolicy, PoolWorkersReadInline) {
  const std::vector<sim::RunConfig> rcs(2, synthRun("mcf", 20 * kBlock));
  const long before = threadsNow();
  std::atomic<bool> done{false};
  long most = 0;
  std::thread sampler([&done, &most] {
    while (!done.load()) {
      most = std::max(most, threadsNow());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const std::vector<sim::RunOutput> outs = sim::runManyParallel(rcs, 2);
  done = true;
  sampler.join();
  EXPECT_LE(most, before + 3) << "a pool worker started a helper";
  EXPECT_EQ(sim::diffOutputs(outs[0], outs[1]), "");
}

}  // namespace
}  // namespace malec
