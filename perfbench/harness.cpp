// perfbench_harness — one benchmark process for one workload.
//
//   perfbench_harness --workload W --seed N --mode setup|measure|traced
//                     --seconds S --workdir DIR --t0-ns T
//
// Every mode sets the workload up and measures set-up time from T (the
// CLOCK_MONOTONIC time at which run.py spawned this process) to the first
// simulated instruction. `measure` then runs untraced iterations for S
// seconds; `traced` runs untraced iterations for S/2 seconds and traced
// ones for S/2, so the tracing overhead is measured in one process. Every
// untraced iteration is preceded by one timed pass of a fixed reference
// work, the host-speed sample run.py scales the timings with. The result
// is one JSON object on stdout; run.py aggregates and reports.
// The sweep uses one worker thread per CPU this process may run on.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "host_clock.h"
#include "sim/experiment.h"
#include "sim/sinks.h"
#include "traced_stack.h"
#include "workloads.h"

namespace {

using perfbench::Checks;
using perfbench::Iteration;
using perfbench::TracedIteration;

constexpr int kMinIterations = 3;
constexpr int kMinTracedPhaseIterations = 2;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload W --seed N --mode "
               "setup|measure|traced --seconds S --workdir DIR --t0-ns T\n");
  return 2;
}

/// CPUs this process may run on (what `nproc` prints).
unsigned allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

/// Minimal JSON writer for the harness's flat result object.
class Json {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    field(key, "\"" + malec::sim::jsonEscape(v) + "\"");
  }
  void nums(const std::string& key, const std::vector<double>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", vs[i]);
      s += (i == 0 ? "" : ",") + std::string(buf);
    }
    field(key, s + "]");
  }
  void strs(const std::string& key, const std::vector<std::string>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i)
      s += (i == 0 ? "\"" : ",\"") + malec::sim::jsonEscape(vs[i]) + "\"";
    field(key, s + "]");
  }
  void object(const std::string& key, const Json& inner) {
    field(key, inner.text());
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + malec::sim::jsonEscape(key) + "\":" + value;
  }
  std::string body_;
};

/// The host-speed reference: a fixed integer work, an xorshift fill of a
/// 64 KiB table and a data-dependent branchy pass over it, cache-resident
/// like the simulator's own hot loops. Host contention slows it much as it
/// slows the simulator. Returns a checksum that never changes.
std::uint64_t referenceWork() {
  constexpr int kRounds = 300;
  std::vector<std::uint32_t> table(std::size_t{1} << 14);
  const std::size_t mask = table.size() - 1;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint32_t& e : table) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = static_cast<std::uint32_t>(x);
    }
    for (std::size_t i = 0; i < table.size(); ++i) {
      if ((table[i] & 1u) != 0)
        acc += table[i] >> 3;
      else
        acc ^= table[(i * 7) & mask];
    }
  }
  return acc;
}

/// Wall time of one referenceWork() pass on each of `threads` threads at
/// once. Every pass must return `expected`.
double referenceSeconds(unsigned threads, std::uint64_t expected,
                        Checks& checks) {
  std::vector<std::uint64_t> sums(threads);
  const std::int64_t t0 = perfbench::hostNowNs();
  if (threads == 1) {
    sums[0] = referenceWork();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
      pool.emplace_back([&sums, t] { sums[t] = referenceWork(); });
    for (std::thread& th : pool) th.join();
  }
  const double s = static_cast<double>(perfbench::hostNowNs() - t0) * 1e-9;
  for (const std::uint64_t sum : sums)
    checks.expect(sum == expected, "host-speed reference checksum changed");
  return s;
}

/// Untraced iterations until `seconds` have passed and at least
/// `min_iterations` ran, each preceded by one reference pass whose time is
/// appended to `ref_s`. Every iteration's digest must equal the first's.
std::vector<Iteration> measure(perfbench::Workload& wl, double seconds,
                               int min_iterations, std::uint64_t ref_sum,
                               std::vector<double>& ref_s, Checks& checks) {
  std::vector<Iteration> its;
  const std::int64_t t0 = perfbench::hostNowNs();
  while (static_cast<int>(its.size()) < min_iterations ||
         static_cast<double>(perfbench::hostNowNs() - t0) * 1e-9 < seconds) {
    ref_s.push_back(referenceSeconds(wl.threads(), ref_sum, checks));
    its.push_back(wl.runOnce(checks));
    if (its.size() > 1)
      checks.expect(its.back().digest == its.front().digest,
                    "measured iteration digest changed between repeats");
  }
  return its;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return usage();
    args[flag.substr(2)] = argv[i + 1];
  }
  for (const char* required :
       {"workload", "seed", "mode", "seconds", "workdir", "t0-ns"})
    if (args.count(required) == 0) return usage();
  if (argc % 2 != 1 || args.size() != 6) return usage();

  using malec::sim::parseU64Strict;
  const std::string mode = args["mode"];
  if (mode != "setup" && mode != "measure" && mode != "traced") return usage();
  const std::uint64_t seed = parseU64Strict(args["seed"], "--seed");
  const double seconds =
      static_cast<double>(parseU64Strict(args["seconds"], "--seconds"));
  const std::uint64_t t0_ns = parseU64Strict(args["t0-ns"], "--t0-ns");
  if (seed == UINT64_MAX) return usage();

  // Simulator seed = --seed + 1, so --seed 0 is the repo's default seed 1.
  auto wl = perfbench::makeWorkload(args["workload"], seed + 1, allowedCpus(),
                                    args["workdir"]);
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", args["workload"].c_str());
    return 2;
  }

  wl->setUp();
  const std::int64_t first_ns = perfbench::firstInstructionNs(wl->firstRun());
  Json out;
  out.num("setup_s",
          static_cast<double>(first_ns - static_cast<std::int64_t>(t0_ns)) *
              1e-9);

  Checks checks;
  std::vector<Iteration> its;
  std::vector<double> ref_s;
  std::vector<TracedIteration> traced;
  if (mode != "setup") {
    // After the set-up stamp, so it never counts as set-up time.
    const std::uint64_t ref_sum = referenceWork();
    its = mode == "measure"
              ? measure(*wl, seconds, kMinIterations, ref_sum, ref_s, checks)
              : measure(*wl, seconds / 2, kMinTracedPhaseIterations, ref_sum,
                        ref_s, checks);
  }
  if (mode == "traced") {
    const std::int64_t t0 = perfbench::hostNowNs();
    while (static_cast<int>(traced.size()) < kMinTracedPhaseIterations ||
           static_cast<double>(perfbench::hostNowNs() - t0) * 1e-9 <
               seconds / 2) {
      traced.push_back(wl->runTraced(checks));
      checks.expect(traced.back().digest == its.front().digest,
                    "traced iteration digest differs from the measured one");
    }
  }

  if (!its.empty()) {
    std::vector<double> wall, cpu, instr, query_ms;
    for (const Iteration& it : its) {
      wall.push_back(it.wall_s);
      cpu.push_back(it.cpu_s);
      instr.push_back(static_cast<double>(it.instructions));
      query_ms.insert(query_ms.end(), it.query_ms.begin(), it.query_ms.end());
    }
    out.nums("wall_s", wall);
    out.nums("cpu_s", cpu);
    out.nums("instructions", instr);
    out.nums("ref_s", ref_s);
    out.nums("query_ms", query_ms);
    out.str("digest", hex(its.front().digest));
    Json model;
    for (const auto& [name, value] : wl->modelNumbers()) model.num(name, value);
    out.object("model", model);
  }
  if (!traced.empty()) {
    std::vector<double> wall;
    std::map<std::string, std::vector<double>> layers;
    for (const TracedIteration& it : traced) {
      wall.push_back(it.wall_s);
      for (const auto& [name, value] : it.layers) layers[name].push_back(value);
    }
    out.nums("traced_wall_s", wall);
    Json lj;
    for (const auto& [name, values] : layers) lj.nums(name, values);
    out.object("layers", lj);
  }
  out.num("peak_rss_mb", perfbench::peakRssMb());
  out.num("attempted", static_cast<double>(checks.attempted));
  out.num("failed", static_cast<double>(checks.failed));
  out.strs("failures", checks.failures);
  std::printf("%s\n", out.text().c_str());
  return 0;
}
